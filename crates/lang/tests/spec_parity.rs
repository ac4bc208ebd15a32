//! Parity between the two paths to a transcribed Table 1 goal: the row of
//! `synquid_lang::benchmarks::table1` (which `report table1`/`table2`
//! follow) and the `.sq` file the goal is written in (which the CLI,
//! `report batch`, `synquid fuzz` and the benchmark load). Each row must
//! name the file recorded below, and the goal it loads must be
//! *structurally identical* to the one read from that file directly —
//! same schema (compared with `PartialEq`) and same environment (compared
//! through the `Debug` rendering, since `Environment` intentionally does
//! not implement `PartialEq`). The rows replaced the Rust builders these
//! goals were once checked against; `tests/golden_goals.rs` pins every
//! goal to the hash its builder produced.

use synquid_core::Goal;
use synquid_lang::benchmarks::{table1, transcribed};
use synquid_lang::spec::load_corpus_file;

/// (spec file stem under `specs/`, Table 1 group, Table 1 benchmark name).
#[rustfmt::skip]
const PARITY: &[(&str, &str, &str)] = &[
    ("replicate", "List", "replicate"),
    ("is_empty", "List", "is empty"),
    ("append", "List", "append two lists"),
    ("double", "List", "duplicate each element"),
    ("drop", "List", "drop first n elements"),
    ("take", "List", "take first n elements"),
    ("length", "List", "length using fold"),
    ("elem", "List", "is member"),
    ("delete", "List", "delete value"),
    ("reverse", "List", "reverse"),
    ("insert_at_end", "List", "insert at end"),
    ("insert_sorted", "Sorting", "insert (sorted)"),
    ("tree_count", "Tree", "node count"),
    ("tree_member", "Tree", "is member"),
    ("heap_singleton", "Binary Heap", "1-element constructor"),
    ("bst_member", "BST", "is member"),
    ("bst_insert", "BST", "insert"),
    ("table1/map", "List", "map"),
    ("table1/elem_or_default", "List", "i-th element"),
    ("table1/unique_insert", "Unique list", "insert"),
    ("table1/unique_delete", "Unique list", "delete"),
    ("table1/remove_duplicates", "Unique list", "remove duplicates"),
    ("table1/strict_insert", "Strictly sorted list", "insert"),
    ("table1/strict_delete", "Strictly sorted list", "delete"),
    ("table1/insertion_sort", "Sorting", "insertion sort"),
    ("table1/sorted_head", "Sorting", "extract minimum"),
    ("table1/merge", "Sorting", "merge"),
    ("table1/tree_preorder", "Tree", "preorder"),
    ("table1/heap_member", "Binary Heap", "is member"),
    ("table1/heap_insert", "Binary Heap", "insert"),
    ("table1/heap_two", "Binary Heap", "2-element constructor"),
    ("table1/make_address_book", "User", "make address book"),
    ("table1/merge_address_books", "User", "merge address books"),
];

fn table1_goal(stem: &str, group: &str, name: &str) -> Goal {
    let bench = table1()
        .into_iter()
        .find(|b| b.group == group && b.name == name)
        .unwrap_or_else(|| panic!("unknown Table 1 row {group}/{name}"));
    let spec = bench
        .spec
        .unwrap_or_else(|| panic!("{group}/{name} is not transcribed"));
    assert_eq!(spec.file, format!("{stem}.sq"), "{group}/{name}: spec file");
    spec.load()
        .unwrap_or_else(|e| panic!("{group}/{name} failed to load:\n{e}"))
}

fn assert_goal_parity(stem: &str, parsed: &Goal, built: &Goal) {
    assert_eq!(parsed.name, built.name, "{stem}: goal name differs");
    assert_eq!(
        parsed.schema, built.schema,
        "{stem}: goal schema differs\n  parsed: {}\n  built:  {}",
        parsed.schema, built.schema
    );
    let parsed_env = format!("{:#?}", parsed.env);
    let built_env = format!("{:#?}", built.env);
    if parsed_env != built_env {
        // Point at the first differing line to keep failures readable.
        let diff = parsed_env
            .lines()
            .zip(built_env.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        panic!("{stem}: environment differs from the Table 1 row's goal\nfirst differing line: {diff:?}");
    }
}

#[test]
fn corpus_goals_match_their_programmatic_builders() {
    assert_eq!(
        PARITY.len(),
        transcribed().len(),
        "every transcribed Table 1 row needs a parity entry"
    );
    for (stem, group, name) in PARITY {
        let out = load_corpus_file(stem)
            .unwrap_or_else(|e| panic!("specs/{stem}.sq failed to load:\n{e}"));
        let built = table1_goal(stem, group, name);
        let parsed = out
            .goals
            .iter()
            .find(|g| g.name == built.name)
            .unwrap_or_else(|| panic!("specs/{stem}.sq declares no goal named {}", built.name));
        assert_goal_parity(stem, parsed, &built);
    }
}

#[test]
fn parity_covers_list_sorting_tree_and_heap_groups() {
    let groups: std::collections::BTreeSet<&str> = PARITY.iter().map(|(_, g, _)| *g).collect();
    for required in ["List", "Sorting", "Tree", "Binary Heap"] {
        assert!(
            groups.contains(required),
            "no parity coverage for {required}"
        );
    }
}

#[test]
fn showcase_file_reuses_the_same_component_library() {
    // specs/list.sq is the CLI demo: two goals over one shared library.
    let out = load_corpus_file("list").expect("specs/list.sq loads");
    assert_eq!(out.goals.len(), 2);
    let names: Vec<&str> = out.goals.iter().map(|g| g.name.as_str()).collect();
    assert_eq!(names, ["is_empty", "length"]);
    for goal in &out.goals {
        assert!(goal.env.datatype("List").is_some());
        assert!(goal.env.lookup("zero").is_some());
    }
}
