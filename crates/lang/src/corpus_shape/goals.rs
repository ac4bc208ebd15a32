//! The transcribed Table 1 goals, one module per group of the table.

use synquid_core::Goal;

fn goal(file: &str, name: &str) -> Goal {
    crate::spec::load_goal(file, name).unwrap_or_else(|e| panic!("specs/{file}: {e}"))
}

mod lists {
    mod tests {
        use crate::goals::goal;

        #[test]
        fn list_goals_build_well_formed_schemas() {
            for goal in [
                goal("elem.sq", "list_member"),
                goal("take.sq", "take"),
                goal("delete.sq", "list_delete"),
                goal("table1/map.sq", "map"),
                goal("insert_at_end.sq", "insert_at_end"),
                goal("reverse.sq", "reverse"),
            ] {
                assert!(
                    goal.schema.ty.is_function(),
                    "{} should be a function goal",
                    goal.name
                );
                let (args, ret) = goal.schema.ty.uncurry();
                assert!(!args.is_empty());
                assert!(ret.is_scalar());
            }
        }

        #[test]
        fn map_is_polymorphic_in_two_variables() {
            let goal = goal("table1/map.sq", "map");
            assert_eq!(goal.schema.type_vars.len(), 2);
            let (args, _) = goal.schema.ty.uncurry();
            assert!(
                args[0].1.is_function(),
                "first argument of map is higher-order"
            );
        }

        #[test]
        fn reverse_has_the_snoc_component() {
            assert!(goal("reverse.sq", "reverse").env.lookup("snoc").is_some());
        }

        #[test]
        fn member_goal_environment_has_generic_equality() {
            let goal = goal("elem.sq", "list_member");
            assert!(goal.env.lookup("eqg").is_some());
            assert!(goal.env.lookup("true").is_some());
        }
    }
}

mod unique {
    mod tests {
        use crate::goals::goal;

        #[test]
        fn unique_and_strict_goals_are_well_formed() {
            for name in [
                "unique_insert",
                "unique_delete",
                "remove_duplicates",
                "strict_insert",
                "strict_delete",
            ] {
                let goal = goal(&format!("table1/{name}.sq"), name);
                assert!(goal.schema.ty.is_function());
                let (_, ret) = goal.schema.ty.uncurry();
                assert!(ret.is_scalar());
                assert!(!ret.refinement().is_true(), "{name} has a trivial goal");
            }
        }

        #[test]
        fn remove_duplicates_provides_a_membership_component() {
            let goal = goal("table1/remove_duplicates.sq", "remove_duplicates");
            assert!(goal.env.lookup("umember").is_some());
            assert!(goal.env.datatype("List").is_some());
            assert!(goal.env.datatype("UList").is_some());
        }

        #[test]
        fn strict_goals_use_the_slist_measures() {
            let goal = goal("table1/strict_insert.sq", "strict_insert");
            let (_, ret) = goal.schema.ty.uncurry();
            assert!(ret.refinement().to_string().contains("selems"));
        }
    }
}

mod sorting {
    mod tests {
        use crate::goals::goal;

        #[test]
        fn merge_takes_two_sorted_lists() {
            let goal = goal("table1/merge.sq", "merge");
            let (args, ret) = goal.schema.ty.uncurry();
            assert_eq!(args.len(), 2);
            assert!(ret.refinement().to_string().contains("ielems"));
        }

        #[test]
        fn sorted_head_requires_a_non_empty_argument() {
            let goal = goal("table1/sorted_head.sq", "sorted_head");
            let (args, _) = goal.schema.ty.uncurry();
            assert!(args[0].1.refinement().to_string().contains('>'));
        }
    }
}

mod trees {
    mod tests {
        use crate::goals::goal;

        #[test]
        fn tree_goals_are_well_formed() {
            for goal in [
                goal("tree_member.sq", "tree_member"),
                goal("tree_count.sq", "tree_count"),
                goal("table1/tree_preorder.sq", "tree_preorder"),
            ] {
                assert!(goal.schema.ty.is_function());
                assert!(goal.env.datatype("Tree").is_some());
            }
        }

        #[test]
        fn tree_count_has_arithmetic_components() {
            let goal = goal("tree_count.sq", "tree_count");
            assert!(goal.env.lookup("plus").is_some());
            assert!(goal.env.lookup("one").is_some());
        }

        #[test]
        fn preorder_bridges_trees_and_lists() {
            let goal = goal("table1/tree_preorder.sq", "tree_preorder");
            assert!(goal.env.datatype("List").is_some());
            assert!(goal.env.lookup("append").is_some());
            let (_, ret) = goal.schema.ty.uncurry();
            assert!(ret.refinement().to_string().contains("telems"));
        }
    }
}

mod heaps {
    mod tests {
        use crate::goals::goal;

        #[test]
        fn heap_goals_are_well_formed() {
            for goal in [
                goal("table1/heap_member.sq", "heap_member"),
                goal("heap_singleton.sq", "heap_singleton"),
                goal("table1/heap_two.sq", "heap_two"),
                goal("table1/heap_insert.sq", "heap_insert"),
            ] {
                assert!(goal.schema.ty.is_function());
                assert!(goal.env.datatype("Heap").is_some());
                let (_, ret) = goal.schema.ty.uncurry();
                assert!(!ret.refinement().is_true());
            }
        }

        #[test]
        fn constructors_specify_the_exact_element_set() {
            let one = goal("heap_singleton.sq", "heap_singleton");
            let (_, ret) = one.schema.ty.uncurry();
            assert!(ret.refinement().to_string().contains("helems"));
            let two = goal("table1/heap_two.sq", "heap_two");
            let (args, _) = two.schema.ty.uncurry();
            assert_eq!(args.len(), 2);
        }
    }
}

mod user {
    mod tests {
        use crate::goals::goal;

        #[test]
        fn address_book_goals_are_well_formed() {
            for name in ["make_address_book", "merge_address_books"] {
                let goal = goal(&format!("table1/{name}.sq"), name);
                assert!(goal.schema.ty.is_function());
                assert!(goal.env.datatype("Book").is_some());
            }
        }

        #[test]
        fn make_address_book_classifies_entries_with_a_component() {
            let goal = goal("table1/make_address_book.sq", "make_address_book");
            assert!(goal.env.lookup("is_private").is_some());
            assert!(goal.env.datatype("List").is_some());
        }
    }
}
