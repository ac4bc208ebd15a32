//! Resident-session behaviour through the whole engine stack: one
//! bundle shared across libraries, warm-equals-cold determinism,
//! eviction under tiny bounds, and snapshot round trips — the
//! `SynthesisSession` contract as observed from the outside.

use std::time::Duration;
use synquid_core::{EnumerationCache, SessionCaches};
use synquid_engine::{BatchReport, Engine, EngineConfig, GoalJob, SynthesisSession};
use synquid_lang::spec::load_corpus_file;
use synquid_logic::{Qualifier, Sort, Term};
use synquid_solver::{MusMemo, SharedLemmaStore, SharedValidityCache};
use synquid_types::{BaseType, Environment, RType, Schema};

/// The debug-fast subset of the corpus (same set as `determinism.rs`):
/// goals that solve in well under a second even unoptimized, over two
/// datatype libraries (`List` and `Heap`).
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
    assert_eq!(session.stats().validity.epoch, 2, "one GC epoch per batch");
}

#[test]
fn one_session_across_libraries_matches_fresh_sessions() {
    // The fast subset spans two datatype libraries. Run as one batch,
    // all its goals share the session's one bundle; each must still
    // come out as it does alone on a fresh session.
    let shared = SynthesisSession::new();
    let together = engine().run_batch(fast_corpus(), &shared);
    assert!(together.all_solved(), "fast subset must synthesize");
    let alone: Vec<Outcome> = fast_corpus()
        .into_iter()
        .flat_map(|job| outcomes(&engine().run_batch(vec![job], &SynthesisSession::new())))
        .collect();
    assert_eq!(outcomes(&together), alone);
}

#[test]
fn tiny_cache_bounds_still_synthesize_correctly() {
    // Starve every layer: a 4-entry validity cache, 2-entry enumeration
    // memo, 2-lemma store, 2-entry MUS memo. Constant eviction must cost
    // time only — the outcomes have to match an unbounded session's
    // exactly.
    let tiny = SynthesisSession::with_caches(SessionCaches {
        validity: SharedValidityCache::with_max_entries(4),
        enumeration: EnumerationCache::with_max_entries(2),
        lemmas: SharedLemmaStore::with_max_entries(2),
        mus: MusMemo::with_max_entries(2),
    });
    let roomy = SynthesisSession::new();
    let starved = engine().run_batch(fast_corpus(), &tiny);
    let reference = engine().run_batch(fast_corpus(), &roomy);
    assert!(starved.all_solved(), "eviction must never lose solutions");
    assert_eq!(outcomes(&starved), outcomes(&reference));
    // Every bound is actually enforced, by the one bundle the batch's
    // two libraries share.
    assert!(
        starved.session.validity.entries <= 4,
        "validity cache exceeded its bound: {:?}",
        starved.session
    );
    assert!(
        starved.session.enumeration.entries <= 2,
        "enumeration memo exceeded its bound: {:?}",
        starved.session
    );
    assert!(
        starved.session.lemmas.entries <= 2,
        "lemma store exceeded its bound: {:?}",
        starved.session
    );
    assert!(
        starved.session.mus.entries <= 2,
        "MUS memo exceeded its bound: {:?}",
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
    // A well-formed body (one verdict, one lemma) ahead of each fault,
    // so a partial restore would leave entries behind.
    let body = "validity i1. i2. sat\nlemma a 1\n";
    for bad in [
        String::new(),                                       // empty file
        format!("synquid-session v0\n{body}"),               // stale version
        format!("synquid-session v1\nnamespace 0\n{body}"),  // stale: v1
        format!("synquid-session v2\n{body}garbage line\n"), // corrupt body
        "{\"not\": \"a session snapshot\"}\n".to_string(),   // wrong format entirely
    ] {
        let session = SynthesisSession::new();
        let report = session.warm_start(&bad);
        assert!(report.cold, "{bad:?} must report a cold start");
        let stats = session.stats();
        assert_eq!(
            (stats.validity.entries, stats.lemmas.entries),
            (0, 0),
            "no partial restore of {bad:?}"
        );
        // The session is still fully usable afterwards.
        let run = engine().run_batch(jobs.clone(), &session);
        assert!(run.all_solved(), "cold fallback must still synthesize");
    }
}
