//! Golden desugared goals: every goal in `specs/` and `specs/table1/` is
//! pinned by a hash of its name, schema and environment, so a parser or
//! desugarer change that alters a goal fails here instead of silently
//! moving the benchmarks measured over the corpus.
//!
//! The hash is FNV-1a (64 bit) over `name`, the `{:#?}` rendering of the
//! schema and the `{:#?}` rendering of the environment, one per line.
//! Both renderings are deterministic: environments keep ordered maps and
//! insertion order. When a change to a goal is intended, the failure
//! message prints the recomputed table to paste over [`GOLDEN`].

use synquid_core::Goal;
use synquid_lang::spec::{corpus_dir, load_file, spec_files};

/// `(file relative to specs/, goal, hash)`, in file order.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64)] = &[
    ("append.sq", "append", 0x4722fe8ac8971d0e),
    ("bst_insert.sq", "bst_insert", 0x84506157b130c5ba),
    ("bst_member.sq", "bst_member", 0x1e15b0a295b4930a),
    ("delete.sq", "list_delete", 0x3b3dbc870a336259),
    ("double.sq", "double", 0xa94a0abf4b9fdf39),
    ("drop.sq", "drop", 0xf16d6f48c4a54823),
    ("elem.sq", "list_member", 0x63da25dde2530609),
    ("heap_singleton.sq", "heap_singleton", 0x3391535ac6cdd779),
    ("insert_at_end.sq", "insert_at_end", 0xdcd9de4e676a2bea),
    ("insert_sorted.sq", "insert_sorted", 0x7e67245ffa9428aa),
    ("is_empty.sq", "is_empty", 0x50168de33c6b0bad),
    ("length.sq", "length", 0x3c2989f92f45dc1b),
    ("list.sq", "is_empty", 0x0063d7eb7b26ba58),
    ("list.sq", "length", 0x07f8200c178754dc),
    ("replicate.sq", "replicate", 0xcf658c39113062e8),
    ("reverse.sq", "reverse", 0xd4f85240a6e2c4f2),
    ("take.sq", "take", 0xdbfbb718f2b8c8c2),
    ("tree_count.sq", "tree_count", 0x593ab384c80ec402),
    ("tree_member.sq", "tree_member", 0xadf68deca36fa3d1),
    ("table1/elem_or_default.sq", "elem_or_default", 0x49838b77a35f58b4),
    ("table1/heap_insert.sq", "heap_insert", 0x8ace071033d45c6d),
    ("table1/heap_member.sq", "heap_member", 0x6661b190c3501075),
    ("table1/heap_two.sq", "heap_two", 0x91c62e39abb10993),
    ("table1/insertion_sort.sq", "insertion_sort", 0x98b4b145ab7b1298),
    ("table1/make_address_book.sq", "make_address_book", 0x08f39930a8a768c9),
    ("table1/map.sq", "map", 0xf6ffaf19ecc2e661),
    ("table1/merge.sq", "merge", 0xac0223f9d1a5054f),
    ("table1/merge_address_books.sq", "merge_address_books", 0xc28860aa7f3b667d),
    ("table1/remove_duplicates.sq", "remove_duplicates", 0xcbf6922a1303868e),
    ("table1/sorted_head.sq", "sorted_head", 0x5bb08372e891a754),
    ("table1/strict_delete.sq", "strict_delete", 0xd546b226b63f1b6f),
    ("table1/strict_insert.sq", "strict_insert", 0xc2ba294827ec4c77),
    ("table1/tree_preorder.sq", "tree_preorder", 0x7bb537827e896399),
    ("table1/unique_delete.sq", "unique_delete", 0xd4c0f73855195c6f),
    ("table1/unique_insert.sq", "unique_insert", 0x3d3986524890d64b),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn goal_hash(goal: &Goal) -> u64 {
    fnv1a(&format!(
        "{}\n{:#?}\n{:#?}",
        goal.name, goal.schema, goal.env
    ))
}

/// Every goal of the two spec directories with its current hash.
fn current() -> Vec<(String, String, u64)> {
    let specs = corpus_dir().expect("specs/ corpus directory");
    let mut out = Vec::new();
    for (prefix, dir) in [("", specs.clone()), ("table1/", specs.join("table1"))] {
        for file in spec_files(&dir) {
            let spec = load_file(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            let name = file.file_name().unwrap().to_string_lossy();
            for goal in &spec.goals {
                out.push((
                    format!("{prefix}{name}"),
                    goal.name.clone(),
                    goal_hash(goal),
                ));
            }
        }
    }
    out
}

#[test]
fn every_corpus_goal_matches_its_golden_hash() {
    let current = current();
    let golden: Vec<(String, String, u64)> = GOLDEN
        .iter()
        .map(|(file, goal, hash)| (file.to_string(), goal.to_string(), *hash))
        .collect();
    if current != golden {
        let table: String = current
            .iter()
            .map(|(file, goal, hash)| format!("    (\"{file}\", \"{goal}\", 0x{hash:016x}),\n"))
            .collect();
        panic!(
            "desugared goals differ from the golden table; if intended, replace it with:\n{table}"
        );
    }
}
