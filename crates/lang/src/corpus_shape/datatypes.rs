//! The datatypes that the corpus specs declare, with the representation
//! invariants encoded in their constructor argument types.

mod tests {
    use crate::spec::{corpus_dir, load_file, load_goal, spec_files};
    use synquid_types::{BaseType, Datatype};

    fn datatype(file: &str, goal: &str, name: &str) -> Datatype {
        let env = load_goal(file, goal)
            .unwrap_or_else(|e| panic!("specs/{file}: {e}"))
            .env;
        env.datatype(name)
            .unwrap_or_else(|| panic!("specs/{file} declares no {name}"))
            .clone()
    }

    #[test]
    fn tree_has_scalar_leaf_and_ternary_node() {
        let t = datatype("tree_count.sq", "tree_count", "Tree");
        assert!(t.constructor("Leaf").unwrap().is_scalar());
        assert_eq!(t.constructor("TNode").unwrap().arity(), 3);
        assert_eq!(t.termination().unwrap().name, "tsize");
    }

    #[test]
    fn heap_subtrees_are_bounded_below_by_the_root() {
        let h = datatype("heap_singleton.sq", "heap_singleton", "Heap");
        let (args, _) = h.constructor("HNode").unwrap().schema.ty.uncurry();
        for (_, subtree) in &args[1..] {
            match subtree.base_type().unwrap() {
                BaseType::Data(_, params) => {
                    assert!(params[0].refinement().to_string().contains("<="));
                }
                other => panic!("expected a Heap argument, got {other}"),
            }
        }
    }

    #[test]
    fn unique_list_tail_excludes_the_head() {
        let u = datatype("table1/unique_insert.sq", "unique_insert", "UList");
        let (args, _) = u.constructor("UCons").unwrap().schema.ty.uncurry();
        assert!(args[1].1.refinement().to_string().contains("in"));
    }

    #[test]
    fn strict_list_tail_elements_exceed_the_head() {
        let s = datatype("table1/strict_insert.sq", "strict_insert", "SList");
        let (args, _) = s.constructor("SCons").unwrap().schema.ty.uncurry();
        match args[1].1.base_type().unwrap() {
            BaseType::Data(_, params) => {
                assert!(params[0].refinement().to_string().contains("<"));
            }
            other => panic!("expected SList argument, got {other}"),
        }
    }

    #[test]
    fn address_book_counts_private_and_business_entries() {
        let book = datatype(
            "table1/merge_address_books.sq",
            "merge_address_books",
            "Book",
        );
        assert_eq!(book.constructors.len(), 2);
        assert!(book.measure("bpriv").is_some());
        assert!(book.measure("bbus").is_some());
        assert_eq!(book.constructor("BAdd").unwrap().arity(), 3);
    }

    #[test]
    fn all_extra_datatypes_have_scalar_constructors_for_match_abduction() {
        let dir = corpus_dir().expect("specs/ corpus");
        let files = [spec_files(&dir), spec_files(&dir.join("table1"))].concat();
        for file in files {
            let spec = load_file(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            for dt in spec.env.datatypes().values() {
                assert!(
                    dt.has_scalar_constructor(),
                    "{} in {} should have a scalar constructor",
                    dt.name,
                    file.display()
                );
            }
        }
    }
}
