//! The component libraries that the corpus specs declare.

mod tests {
    use crate::spec::load_goal;
    use synquid_types::Environment;

    fn env(file: &str, goal: &str) -> Environment {
        load_goal(file, goal)
            .unwrap_or_else(|e| panic!("specs/{file}: {e}"))
            .env
    }

    #[test]
    fn list_environment_has_constructors_and_arithmetic() {
        let env = env("length.sq", "length");
        assert!(env.lookup("Nil").is_some());
        assert!(env.lookup("Cons").is_some());
        assert!(env.lookup("dec").is_some());
        assert!(env.lookup("zero").is_some());
        assert!(!env.qualifiers().is_empty());
    }

    #[test]
    fn comparison_components_over_type_variables_get_a_suffix() {
        let generic = env("elem.sq", "list_member");
        assert!(generic.lookup("leqg").is_some());
        assert!(generic.lookup("ltg").is_some());
        let int = env("take.sq", "take");
        assert!(int.lookup("leq").is_some());
        assert!(int.lookup("leqg").is_none());
    }

    #[test]
    fn bool_components_are_boolean_valued() {
        let env = env("is_empty.sq", "is_empty");
        assert!(env.lookup("true").unwrap().ty.is_scalar());
        assert!(env.lookup("not").unwrap().ty.is_function());
    }

    #[test]
    fn int_constants_are_singletons() {
        // Fig. 7's array search returns positional indices `c0 … cn`.
        let env = crate::array_search_n(3).env;
        assert!(env.lookup("c0").is_some());
        assert!(env.lookup("c3").is_some());
        assert!(env.lookup("c4").is_none());
    }

    #[test]
    fn bst_environment_registers_measures() {
        let env = env("bst_member.sq", "bst_member");
        assert!(env.measure("keys").is_some());
        assert!(env.measure("size").is_some());
        assert!(env.lookup("Node").is_some());
    }

    #[test]
    fn tree_and_heap_environments_register_their_datatypes() {
        let tree = env("tree_count.sq", "tree_count");
        assert!(tree.datatype("Tree").is_some());
        assert!(tree.lookup("TNode").is_some());
        assert!(tree.measure("tsize").is_some());
        let heap = env("heap_singleton.sq", "heap_singleton");
        assert!(heap.datatype("Heap").is_some());
        assert!(heap.lookup("HNode").is_some());
        assert!(heap.measure("helems").is_some());
    }

    #[test]
    fn unique_and_strict_list_environments_have_both_list_flavours() {
        let unique = env("table1/unique_insert.sq", "unique_insert");
        assert!(unique.datatype("UList").is_some());
        assert!(
            unique.datatype("List").is_some(),
            "needed by remove-duplicates"
        );
        let strict = env("table1/strict_insert.sq", "strict_insert");
        assert!(strict.datatype("SList").is_some());
        assert!(strict.lookup("SCons").is_some());
    }

    #[test]
    fn arith_components_are_binary_integer_functions() {
        let env = env("tree_count.sq", "tree_count");
        let plus = env.lookup("plus").unwrap();
        assert!(plus.ty.is_function());
        assert_eq!(plus.ty.uncurry().0.len(), 2);
        assert!(env.lookup("one").is_some());
    }
}
