//! The benchmark suite of the paper's evaluation (Sec. 4).
//!
//! [`table1`] lists all 64 synthesis problems of Table 1 with their group,
//! the synthesis time reported in the paper (`T-all`, seconds), and the
//! exploration bounds. A row transcribed into this reproduction names the
//! `.sq` spec that defines its goal ([`SpecGoal`]); the remaining rows are
//! kept so that the reproduction honestly reports coverage instead of
//! silently shrinking the table.
//!
//! [`table2`] lists the cross-tool comparison of Table 2 (competitor
//! numbers are quoted from the paper, the Synquid column is measured by
//! the harness), and [`sygus`] generates the `max_n` / `array_search_n`
//! family of Fig. 7. That family is built in Rust rather than read from
//! `.sq` files: it is parametric in `n`, and the key argument of
//! `array_search_n` is refined in terms of the arguments after it, which
//! a `.sq` signature cannot express (binders scope to their right).

use synquid_core::Goal;
use synquid_logic::{Qualifier, Sort, Term};
use synquid_types::{BaseType, Environment, RType, Schema};

/// Where a transcribed Table 1 goal is defined: a file of the `specs/`
/// corpus and the name of the goal declared in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecGoal {
    /// Path relative to `specs/`, e.g. `"take.sq"` or `"table1/map.sq"`.
    pub file: &'static str,
    /// The goal's name (`name = ??`) in that file.
    pub goal: &'static str,
}

impl SpecGoal {
    /// Parses the spec file and returns the goal.
    pub fn load(&self) -> Result<Goal, Box<dyn std::error::Error>> {
        crate::spec::load_goal(self.file, self.goal)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as it appears in the paper.
    pub name: &'static str,
    /// Benchmark group (List, Unique list, Sorting, …).
    pub group: &'static str,
    /// Synthesis time reported by the paper (T-all column, seconds).
    pub paper_time: f64,
    /// Size of the synthesized code reported by the paper (AST nodes).
    pub paper_code_size: usize,
    /// Exploration bounds `(application depth, match depth)`.
    pub bounds: (usize, usize),
    /// The goal's spec, for benchmarks transcribed into this reproduction.
    pub spec: Option<SpecGoal>,
}

impl Benchmark {
    fn defined_in(self, file: &'static str, goal: &'static str) -> Benchmark {
        Benchmark {
            spec: Some(SpecGoal { file, goal }),
            ..self
        }
    }
}

fn nu_int() -> Term {
    Term::value_var(Sort::Int)
}
fn ivar(n: &str) -> Term {
    Term::var(n, Sort::Int)
}

// ---------------------------------------------------------------------
// SyGuS benchmarks (Fig. 7)
// ---------------------------------------------------------------------

/// The Fig. 7 component library: the standard qualifiers and the integer
/// comparisons `leq`, `lt`, `neq`, `eq`.
fn sygus_environment() -> Environment {
    let mut env = Environment::new();
    env.add_qualifiers(Qualifier::standard(Sort::Int));
    env.add_qualifiers(Qualifier::standard(Sort::var("a")));
    let compare = |body: Term| {
        RType::fun_n(
            vec![("x".into(), RType::int()), ("y".into(), RType::int())],
            RType::refined(BaseType::Bool, Term::value_var(Sort::Bool).iff(body)),
        )
    };
    let (x, y) = (ivar("x"), ivar("y"));
    env.add_var("leq", compare(x.clone().le(y.clone())));
    env.add_var("lt", compare(x.clone().lt(y.clone())));
    env.add_var("neq", compare(x.clone().neq(y.clone())));
    env.add_var("eq", compare(x.eq(y)));
    env
}

/// `max_n`: the maximum of `n` integer arguments (Fig. 7, left).
pub fn max_n(n: usize) -> Goal {
    let env = sygus_environment();
    let args: Vec<(String, RType)> = (1..=n).map(|i| (format!("x{i}"), RType::int())).collect();
    let nu = nu_int();
    let at_least = Term::conjunction((1..=n).map(|i| nu.clone().ge(ivar(&format!("x{i}")))));
    let is_one = Term::disjunction((1..=n).map(|i| nu.clone().eq(ivar(&format!("x{i}")))));
    let ret = RType::refined(BaseType::Int, at_least.and(is_one));
    Goal::new(
        format!("max{n}"),
        env,
        Schema::monotype(RType::fun_n(args, ret)),
    )
}

/// `array_search_n`: find the index of a key in a sorted "array" given as
/// `n` strictly increasing arguments (Fig. 7, right). The result is the
/// number of array elements smaller than the key.
pub fn array_search_n(n: usize) -> Goal {
    let mut env = sygus_environment();
    // Integer constants `c0 … cn` for the positional results.
    for i in 0..=n as i64 {
        env.add_var(
            format!("c{i}"),
            RType::refined(BaseType::Int, nu_int().eq(Term::int(i))),
        );
    }
    let mut args: Vec<(String, RType)> = vec![("k".into(), RType::int())];
    for i in 1..=n {
        let refinement = if i == 1 {
            Term::tt()
        } else {
            Term::value_var(Sort::Int).gt(ivar(&format!("x{}", i - 1)))
        };
        args.push((format!("x{i}"), RType::refined(BaseType::Int, refinement)));
    }
    // The key is different from every element (as in the SyGuS benchmark).
    let distinct = Term::conjunction((1..=n).map(|i| ivar("k").neq(ivar(&format!("x{i}")))));
    args[0].1 = RType::refined(BaseType::Int, distinct.substitute_value(&nu_int()));
    // Result: ν = number of elements below k, expressed positionally.
    let nu = nu_int();
    let mut clauses = vec![];
    for r in 0..=n {
        // ν = r ⇔ (x_r < k < x_{r+1}) with the conventions x_0 = -∞, x_{n+1} = +∞.
        let mut cond = Term::tt();
        if r >= 1 {
            cond = cond.and(ivar(&format!("x{r}")).lt(ivar("k")));
        }
        if r < n {
            cond = cond.and(ivar("k").lt(ivar(&format!("x{}", r + 1))));
        }
        clauses.push(nu.clone().eq(Term::int(r as i64)).iff(cond));
    }
    let ret = RType::refined(BaseType::Int, Term::conjunction(clauses));
    Goal::new(
        format!("array_search{n}"),
        env,
        Schema::monotype(RType::fun_n(args, ret)),
    )
}

/// The Fig. 7 benchmark family: `(name, n, goal)` for both `max_n` and
/// `array_search_n`, n = 2..=max_n.
pub fn sygus(max_n_param: usize) -> Vec<(String, usize, Goal)> {
    let mut out = Vec::new();
    for n in 2..=max_n_param {
        out.push((format!("max{n}"), n, max_n(n)));
    }
    for n in 2..=max_n_param {
        out.push((format!("array_search{n}"), n, array_search_n(n)));
    }
    out
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// All 64 rows of Table 1. `spec` is `Some` for the transcribed subset.
pub fn table1() -> Vec<Benchmark> {
    fn row(
        group: &'static str,
        name: &'static str,
        paper_time: f64,
        paper_code_size: usize,
        bounds: (usize, usize),
    ) -> Benchmark {
        Benchmark {
            name,
            group,
            paper_time,
            paper_code_size,
            bounds,
            spec: None,
        }
    }
    vec![
        row("List", "is empty", 0.02, 6, (1, 1)).defined_in("is_empty.sq", "is_empty"),
        row("List", "is member", 0.11, 18, (2, 1)).defined_in("elem.sq", "list_member"),
        row("List", "duplicate each element", 0.05, 16, (3, 1)).defined_in("double.sq", "double"),
        row("List", "replicate", 0.05, 21, (3, 0)).defined_in("replicate.sq", "replicate"),
        row("List", "append two lists", 0.15, 15, (3, 1)).defined_in("append.sq", "append"),
        row("List", "concatenate list of lists", 0.05, 12, (3, 1)),
        row("List", "take first n elements", 0.12, 27, (2, 1)).defined_in("take.sq", "take"),
        row("List", "drop first n elements", 0.10, 20, (2, 1)).defined_in("drop.sq", "drop"),
        row("List", "delete value", 0.10, 26, (3, 1)).defined_in("delete.sq", "list_delete"),
        row("List", "map", 0.03, 22, (3, 1)).defined_in("table1/map.sq", "map"),
        row("List", "zip", 0.08, 22, (3, 2)),
        row("List", "zip with function", 0.07, 33, (3, 2)),
        row("List", "cartesian product", 0.30, 26, (3, 1)),
        row("List", "i-th element", 0.05, 20, (2, 1))
            .defined_in("table1/elem_or_default.sq", "elem_or_default"),
        row("List", "index of element", 0.08, 20, (3, 1)),
        row("List", "insert at end", 0.10, 19, (3, 1))
            .defined_in("insert_at_end.sq", "insert_at_end"),
        row("List", "reverse", 0.09, 12, (3, 1)).defined_in("reverse.sq", "reverse"),
        row("List", "foldr", 0.10, 32, (3, 1)),
        row("List", "length using fold", 0.03, 17, (2, 1)).defined_in("length.sq", "length"),
        row("List", "append using fold", 0.04, 20, (3, 0)),
        row("Unique list", "insert", 0.27, 26, (2, 1))
            .defined_in("table1/unique_insert.sq", "unique_insert"),
        row("Unique list", "delete", 0.18, 22, (2, 1))
            .defined_in("table1/unique_delete.sq", "unique_delete"),
        row("Unique list", "remove duplicates", 0.36, 47, (2, 1))
            .defined_in("table1/remove_duplicates.sq", "remove_duplicates"),
        row("Unique list", "remove adjacent dupl.", 1.33, 32, (3, 2)),
        row("Unique list", "integer range", 2.36, 23, (3, 0)),
        row("Strictly sorted list", "insert", 0.18, 41, (2, 1))
            .defined_in("table1/strict_insert.sq", "strict_insert"),
        row("Strictly sorted list", "delete", 0.10, 29, (2, 1))
            .defined_in("table1/strict_delete.sq", "strict_delete"),
        row("Strictly sorted list", "intersect", 0.33, 40, (3, 2)),
        row("Sorting", "insert (sorted)", 0.25, 34, (3, 1))
            .defined_in("insert_sorted.sq", "insert_sorted"),
        row("Sorting", "insertion sort", 0.06, 12, (2, 1))
            .defined_in("table1/insertion_sort.sq", "insertion_sort"),
        row("Sorting", "sort by folding", 2.14, 47, (3, 1)),
        row("Sorting", "extract minimum", 4.28, 40, (2, 1))
            .defined_in("table1/sorted_head.sq", "sorted_head"),
        row("Sorting", "selection sort", 0.49, 16, (3, 1)),
        row("Sorting", "balanced split", 0.96, 33, (3, 2)),
        row("Sorting", "merge", 2.19, 41, (2, 1)).defined_in("table1/merge.sq", "merge"),
        row("Sorting", "merge sort", 2.10, 25, (3, 2)),
        row("Sorting", "partition", 2.84, 40, (3, 2)),
        row("Sorting", "append with pivot", 0.22, 22, (3, 1)),
        row("Sorting", "quick sort", 2.71, 22, (3, 2)),
        row("Tree", "is member", 0.29, 28, (2, 1)).defined_in("tree_member.sq", "tree_member"),
        row("Tree", "node count", 0.20, 18, (2, 1)).defined_in("tree_count.sq", "tree_count"),
        row("Tree", "preorder", 0.21, 18, (2, 1))
            .defined_in("table1/tree_preorder.sq", "tree_preorder"),
        row("Tree", "create balanced", 0.14, 29, (3, 1)),
        row("BST", "is member", 0.09, 37, (2, 1)).defined_in("bst_member.sq", "bst_member"),
        row("BST", "insert", 0.91, 55, (3, 1)).defined_in("bst_insert.sq", "bst_insert"),
        row("BST", "delete", 5.68, 68, (3, 2)),
        row("BST", "BST sort", 1.38, 115, (3, 2)),
        row("Binary Heap", "is member", 0.38, 43, (2, 1))
            .defined_in("table1/heap_member.sq", "heap_member"),
        row("Binary Heap", "insert", 0.51, 55, (2, 1))
            .defined_in("table1/heap_insert.sq", "heap_insert"),
        row("Binary Heap", "1-element constructor", 0.02, 8, (1, 0))
            .defined_in("heap_singleton.sq", "heap_singleton"),
        row("Binary Heap", "2-element constructor", 0.08, 55, (2, 0))
            .defined_in("table1/heap_two.sq", "heap_two"),
        row("Binary Heap", "3-element constructor", 2.10, 246, (3, 0)),
        row("AVL", "rotate left", 11.08, 91, (3, 1)),
        row("AVL", "rotate right", 19.23, 91, (3, 1)),
        row("AVL", "balance", 1.56, 119, (3, 1)),
        row("AVL", "insert", 1.84, 47, (3, 1)),
        row("AVL", "extract minimum", 1.92, 25, (3, 2)),
        row("AVL", "delete", 15.67, 63, (3, 2)),
        row("RBT", "balance left", 5.62, 137, (3, 1)),
        row("RBT", "balance right", 7.63, 137, (3, 1)),
        row("RBT", "insert", 8.95, 112, (3, 1)),
        row("User", "desugar AST", 1.17, 46, (3, 1)),
        row("User", "make address book", 0.62, 35, (2, 1))
            .defined_in("table1/make_address_book.sq", "make_address_book"),
        row("User", "merge address books", 0.35, 19, (2, 1))
            .defined_in("table1/merge_address_books.sq", "merge_address_books"),
    ]
}

/// The benchmarks of Table 1 whose specifications have been transcribed.
pub fn transcribed() -> Vec<Benchmark> {
    table1().into_iter().filter(|b| b.spec.is_some()).collect()
}

/// One row of Table 2 (comparison with other synthesizers). Competitor
/// numbers are quoted from the respective papers, exactly as Table 2 does.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Competing tool.
    pub tool: &'static str,
    /// Benchmark name as reported by that tool.
    pub benchmark: &'static str,
    /// Specification size (or number of examples) for the competitor.
    pub competitor_spec: Option<usize>,
    /// Running time reported for the competitor (seconds).
    pub competitor_time: f64,
    /// Spec size reported for Synquid in the paper.
    pub synquid_spec: usize,
    /// Synquid time reported in the paper (seconds).
    pub synquid_time: f64,
    /// The corresponding benchmark in [`table1`], as `(group, name)`.
    pub table1: Option<(&'static str, &'static str)>,
}

/// All 18 rows of Table 2.
pub fn table2() -> Vec<ComparisonRow> {
    fn row(
        tool: &'static str,
        benchmark: &'static str,
        competitor_spec: Option<usize>,
        competitor_time: f64,
        synquid_spec: usize,
        synquid_time: f64,
        table1: Option<(&'static str, &'static str)>,
    ) -> ComparisonRow {
        ComparisonRow {
            tool,
            benchmark,
            competitor_spec,
            competitor_time,
            synquid_spec,
            synquid_time,
            table1,
        }
    }
    vec![
        row(
            "Leon",
            "strict sorted list delete",
            Some(14),
            15.1,
            8,
            0.10,
            None,
        ),
        row(
            "Leon",
            "strict sorted list insert",
            Some(14),
            14.1,
            8,
            0.18,
            None,
        ),
        row("Leon", "merge sort", Some(9), 14.3, 11, 2.1, None),
        row(
            "Jennisys",
            "BST find",
            Some(51),
            64.8,
            6,
            0.09,
            Some(("BST", "is member")),
        ),
        row(
            "Jennisys",
            "bin. heap 1-element",
            Some(80),
            61.6,
            5,
            0.02,
            None,
        ),
        row("Jennisys", "bin. heap find", Some(76), 51.9, 6, 0.38, None),
        row(
            "Myth",
            "sorted list insert",
            Some(12),
            0.12,
            8,
            0.25,
            Some(("Sorting", "insert (sorted)")),
        ),
        row(
            "Myth",
            "list rm adjacent dupl.",
            Some(13),
            0.07,
            5,
            1.33,
            None,
        ),
        row(
            "Myth",
            "BST insert",
            Some(20),
            0.37,
            8,
            0.91,
            Some(("BST", "insert")),
        ),
        row(
            "Lambda2",
            "list remove duplicates",
            Some(7),
            231.0,
            13,
            0.36,
            None,
        ),
        row(
            "Lambda2",
            "list drop",
            Some(6),
            316.4,
            11,
            0.1,
            Some(("List", "drop first n elements")),
        ),
        row("Lambda2", "tree find", Some(12), 4.7, 6, 0.29, None),
        row("Escher", "list rm adjacent dupl.", None, 1.0, 5, 1.33, None),
        row("Escher", "tree create balanced", None, 0.24, 7, 0.14, None),
        row(
            "Escher",
            "list duplicate each",
            None,
            0.16,
            7,
            0.05,
            Some(("List", "duplicate each element")),
        ),
        row(
            "Myth2",
            "BST insert",
            None,
            1.81,
            8,
            0.91,
            Some(("BST", "insert")),
        ),
        row(
            "Myth2",
            "sorted list insert",
            None,
            1.02,
            8,
            0.25,
            Some(("Sorting", "insert (sorted)")),
        ),
        row("Myth2", "tree count nodes", None, 0.45, 4, 0.20, None),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_64_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 64);
        let groups: std::collections::BTreeSet<_> = rows.iter().map(|r| r.group).collect();
        assert!(groups.contains("List"));
        assert!(groups.contains("Sorting"));
        assert!(groups.contains("RBT"));
    }

    #[test]
    fn a_meaningful_subset_is_transcribed() {
        let t = transcribed();
        assert!(
            t.len() >= 10,
            "expected at least 10 transcribed goals, got {}",
            t.len()
        );
        for b in &t {
            let spec = b.spec.unwrap();
            let goal = spec.load().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert_eq!(goal.name, spec.goal);
        }
    }

    #[test]
    fn table2_has_all_18_rows() {
        assert_eq!(table2().len(), 18);
        assert_eq!(table2().iter().filter(|r| r.tool == "Leon").count(), 3);
        let t1 = table1();
        for row in table2() {
            let Some((group, name)) = row.table1 else {
                continue;
            };
            let matches: Vec<_> = t1
                .iter()
                .filter(|b| (b.group, b.name) == (group, name))
                .collect();
            assert_eq!(matches.len(), 1, "{} {}", row.tool, row.benchmark);
            assert!(
                matches[0].spec.is_some(),
                "{} {} links {group}/{name}, which is not transcribed",
                row.tool,
                row.benchmark
            );
        }
    }

    #[test]
    fn sygus_family_generates_both_benchmarks() {
        let family = sygus(4);
        assert_eq!(family.len(), 6);
        assert!(family.iter().any(|(n, _, _)| n == "max2"));
        assert!(family.iter().any(|(n, _, _)| n == "array_search4"));
    }

    #[test]
    fn max_n_goal_has_n_arguments() {
        let goal = max_n(3);
        let (args, _) = goal.schema.ty.uncurry();
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn array_search_arguments_are_sorted_by_refinement() {
        let goal = array_search_n(3);
        let (args, _) = goal.schema.ty.uncurry();
        assert_eq!(args.len(), 4); // k plus 3 elements
        assert!(args[2].1.refinement().to_string().contains('>'));
    }
}
