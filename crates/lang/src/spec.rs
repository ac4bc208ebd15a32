//! Loading `.sq` specification files — the only place a Table 1 goal
//! is defined.
//!
//! This module is a thin convenience layer over [`synquid_parser`]: it
//! locates the repository's `specs/` corpus, loads individual files, and
//! looks goals up by name. The corpus proper is `specs/*.sq` (the goals
//! the engine tests, `report batch` and the benchmark measure);
//! `specs/table1/` holds the remaining transcribed Table 1 goals, which
//! [`crate::benchmarks::table1`] names by file. Every goal in both
//! directories is pinned by the golden hashes of `tests/golden_goals.rs`.

use std::path::{Path, PathBuf};
use synquid_core::Goal;
pub use synquid_parser::{load_file, load_named_str, load_str, SpecError, SpecOutput};

/// Locates the `specs/` corpus directory, looking both next to the
/// workspace root and relative to this crate (so the helper works from
/// the facade crate's tests as well as from `crates/lang`).
pub fn corpus_dir() -> Option<PathBuf> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    [manifest.join("specs"), manifest.join("../../specs")]
        .into_iter()
        .find(|candidate| candidate.is_dir())
}

/// Lists the `.sq` files of a directory (not its subdirectories) in
/// filename order.
pub fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "sq"))
        .collect();
    files.sort();
    files
}

/// Lists the `.sq` files of the corpus (`specs/*.sq`) in filename order.
pub fn corpus_files() -> Vec<PathBuf> {
    corpus_dir().map(|dir| spec_files(&dir)).unwrap_or_default()
}

/// Loads one corpus file by stem (`"replicate"` loads
/// `specs/replicate.sq`).
pub fn load_corpus_file(stem: &str) -> Result<SpecOutput, Box<dyn std::error::Error>> {
    let dir = corpus_dir().ok_or("specs/ corpus directory not found")?;
    load_file(dir.join(format!("{stem}.sq")))
}

/// Loads the goal `name` from a file given relative to `specs/`
/// (`"take.sq"`, `"table1/map.sq"`).
pub fn load_goal(file: &str, name: &str) -> Result<Goal, Box<dyn std::error::Error>> {
    let dir = corpus_dir().ok_or("specs/ corpus directory not found")?;
    load_file(dir.join(file))?
        .goals
        .into_iter()
        .find(|g| g.name == name)
        .ok_or_else(|| format!("specs/{file} declares no goal `{name}`").into())
}

/// Searches the whole corpus for a goal with the given name.
pub fn goal_from_corpus(name: &str) -> Option<Goal> {
    for file in corpus_files() {
        if let Ok(out) = load_file(&file) {
            if let Some(goal) = out.goals.into_iter().find(|g| g.name == name) {
                return Some(goal);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_is_present_and_loads() {
        let files = corpus_files();
        assert!(
            files.len() >= 5,
            "expected at least five corpus files, found {files:?}"
        );
        for file in files {
            let out = load_file(&file)
                .unwrap_or_else(|e| panic!("{} failed to load:\n{e}", file.display()));
            assert!(
                !out.goals.is_empty(),
                "{} declares no goals",
                file.display()
            );
        }
    }

    #[test]
    fn goals_can_be_found_by_name() {
        let goal = goal_from_corpus("replicate").expect("replicate.sq in corpus");
        assert_eq!(goal.name, "replicate");
        assert_eq!(goal.schema.type_vars, vec!["a".to_string()]);
    }
}
