//! Resident-session behaviour through the whole engine stack: fingerprint
//! namespacing, warm-equals-cold determinism, eviction under tiny
//! bounds, and snapshot round trips — everything ISSUE 10 promises about
//! `SynthesisSession` as observed from the outside.

use std::time::Duration;
use synquid_engine::{BatchReport, Engine, EngineConfig, GoalJob, SessionLimits, SynthesisSession};
use synquid_lang::spec::load_corpus_file;
use synquid_logic::{Qualifier, Sort, Term};
use synquid_types::{BaseType, Environment, RType, Schema};

/// The debug-fast subset of the corpus (same set as `determinism.rs`):
/// goals that solve in well under a second even unoptimized.
fn fast_corpus() -> Vec<GoalJob> {
    let mut batch = Vec::new();
    for stem in ["is_empty", "reverse", "heap_singleton"] {
        let spec = load_corpus_file(stem).unwrap_or_else(|e| panic!("specs/{stem}.sq: {e}"));
        for goal in spec.goals {
            batch.push(GoalJob::new(stem, goal));
        }
    }
    batch
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        timeout: Duration::from_secs(120),
        ..EngineConfig::default()
    })
}

/// Everything that must not change between a cold and a warm run: goal
/// name, solved flag, program text, winning rung.
type Outcome = (String, bool, Option<String>, Option<(usize, usize)>);

fn outcomes(report: &BatchReport) -> Vec<Outcome> {
    report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.result.name.clone(),
                o.result.solved,
                o.result.program.clone(),
                o.winning_rung,
            )
        })
        .collect()
}

fn identity_goal(name: &str) -> synquid_core::Goal {
    let mut env = Environment::new();
    env.add_qualifiers(Qualifier::standard(Sort::Int));
    synquid_core::Goal::new(
        name,
        env,
        Schema::monotype(RType::fun(
            "n",
            RType::int(),
            RType::refined(
                BaseType::Int,
                Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
            ),
        )),
    )
}

#[test]
fn warm_replay_is_byte_identical_to_cold_and_reuses_verdicts() {
    let session = SynthesisSession::new();
    let cold = engine().run_batch(fast_corpus(), &session);
    assert!(cold.all_solved(), "fast subset must synthesize cold");
    let warm = engine().run_batch(fast_corpus(), &session);
    assert_eq!(
        outcomes(&cold),
        outcomes(&warm),
        "a warm session may change timing, never results"
    );
    // The payoff: the warm run's validity traffic hits entries the cold
    // run proved, at a higher rate than the cold run's own within-run
    // reuse.
    assert!(
        warm.session.validity.hits > 0,
        "warm run must reuse cold verdicts: {:?}",
        warm.session
    );
    assert!(
        warm.session.validity.hit_rate() > cold.session.validity.hit_rate(),
        "cross-run hit rate {:.3} must beat the cold within-run rate {:.3}",
        warm.session.validity.hit_rate(),
        cold.session.validity.hit_rate()
    );
    assert!(
        warm.session.enumeration.hits > 0,
        "warm run must reuse enumeration sets"
    );
    // Every enumeration the warm run asks for was decided by the cold
    // run, so the MUS layer answers all of them.
    assert!(
        cold.session.mus.misses > 0,
        "the fast subset must exercise MUSFIX: {:?}",
        cold.session
    );
    assert!(warm.session.mus.hits > 0, "{:?}", warm.session);
    assert_eq!(warm.session.mus.misses, 0, "{:?}", warm.session);
    assert_eq!(session.stats().epochs, 2, "one GC epoch per batch");
}

#[test]
fn different_libraries_get_isolated_namespaces() {
    let session = SynthesisSession::new();
    // `is_empty` (List library) and `heap_singleton` (Heap library)
    // come from spec files with different datatypes/components, so they
    // must land in different namespaces; re-running one of them must
    // reuse its own namespace.
    let a: Vec<GoalJob> = load_corpus_file("is_empty")
        .expect("specs/is_empty.sq loads")
        .goals
        .into_iter()
        .map(|g| GoalJob::new("is_empty", g))
        .collect();
    let b: Vec<GoalJob> = load_corpus_file("heap_singleton")
        .expect("specs/heap_singleton.sq loads")
        .goals
        .into_iter()
        .map(|g| GoalJob::new("heap_singleton", g))
        .collect();
    engine().run_batch(a.clone(), &session);
    assert_eq!(session.stats().namespaces, 1);
    engine().run_batch(b, &session);
    assert_eq!(
        session.stats().namespaces,
        2,
        "a different component library must not share a cache namespace"
    );
    let warm = engine().run_batch(a, &session);
    assert_eq!(
        session.stats().namespaces,
        2,
        "re-running a known library reuses its namespace"
    );
    assert!(
        warm.session.validity.hits > 0,
        "the reused namespace still carries the first run's verdicts"
    );
}

#[test]
fn tiny_cache_bounds_still_synthesize_correctly() {
    // Starve every layer: a 4-entry validity cache, 2-entry enumeration
    // memo, 2-lemma store, 2-entry MUS memo. Constant eviction must cost
    // time only — the outcomes have to match an unbounded session's
    // exactly.
    let tiny = SynthesisSession::with_limits(SessionLimits {
        validity_entries: 4,
        enumeration_entries: 2,
        lemmas: 2,
        mus_entries: 2,
    });
    let roomy = SynthesisSession::new();
    let starved = engine().run_batch(fast_corpus(), &tiny);
    let reference = engine().run_batch(fast_corpus(), &roomy);
    assert!(starved.all_solved(), "eviction must never lose solutions");
    assert_eq!(outcomes(&starved), outcomes(&reference));
    // Every bound is actually enforced: the stats sum over namespaces, so
    // each cap applies per library namespace the batch touched.
    assert!(
        starved.session.validity.entries <= 4 * starved.session.namespaces,
        "validity cache exceeded its per-namespace bound: {:?}",
        starved.session
    );
    assert!(
        starved.session.enumeration.entries <= 2 * starved.session.namespaces,
        "enumeration memo exceeded its per-namespace bound: {:?}",
        starved.session
    );
    assert!(
        starved.session.lemmas.resident <= 2 * starved.session.namespaces,
        "lemma store exceeded its per-namespace bound: {:?}",
        starved.session
    );
    assert!(
        starved.session.mus.entries <= 2 * starved.session.namespaces,
        "MUS memo exceeded its per-namespace bound: {:?}",
        starved.session
    );
    // And a second starved run still reproduces the same results.
    let starved_warm = engine().run_batch(fast_corpus(), &tiny);
    assert_eq!(outcomes(&starved_warm), outcomes(&reference));
}

#[test]
fn snapshot_round_trip_warm_starts_a_fresh_process() {
    let session = SynthesisSession::new();
    let jobs = vec![GoalJob::new("id", identity_goal("id"))];
    let cold = engine().run_batch(jobs.clone(), &session);
    assert!(cold.all_solved());
    let snapshot = session.serialize();

    // "New process": a fresh session warm-started from the snapshot.
    let restored = SynthesisSession::new();
    let warm_start = restored.warm_start(&snapshot);
    assert!(!warm_start.cold, "a fresh snapshot must load");
    assert!(
        warm_start.validity_entries > 0,
        "the cold run's verdicts must survive serialization"
    );
    let warm = engine().run_batch(jobs, &restored);
    assert_eq!(outcomes(&cold), outcomes(&warm));
    assert!(
        warm.session.validity.hits > 0,
        "preloaded verdicts must be hit by the warm-started run: {:?}",
        warm.session
    );
}

#[test]
fn corrupt_and_stale_snapshots_fall_back_to_cold_without_error() {
    let jobs = vec![GoalJob::new("id", identity_goal("id"))];
    for bad in [
        "",                                    // empty file
        "synquid-session v0\n",                // stale version
        "synquid-session v1\ngarbage line\n",  // corrupt body
        "{\"not\": \"a session snapshot\"}\n", // wrong format entirely
    ] {
        let session = SynthesisSession::new();
        let report = session.warm_start(bad);
        assert!(report.cold, "{bad:?} must report a cold start");
        assert_eq!(session.stats().namespaces, 0, "no partial restore");
        // The session is still fully usable afterwards.
        let run = engine().run_batch(jobs.clone(), &session);
        assert!(run.all_solved(), "cold fallback must still synthesize");
    }
}
