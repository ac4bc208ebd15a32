//! Criterion bench regenerating (a fast, representative subset of)
//! Table 1: per-benchmark synthesis time with all features enabled.

//! Requires the `criterion` feature (and the external `criterion` crate —
//! uncomment the dev-dependency in this crate's Cargo.toml as well);
//! without both, the bench compiles to an empty shell so that offline
//! `cargo test`/`cargo bench` still build.

#[cfg(feature = "criterion")]
mod real {

    use criterion::{criterion_group, Criterion};
    use std::time::Duration;
    use synquid_lang::benchmarks::transcribed;
    use synquid_lang::runner::{run_goal, Variant};

    fn bench_table1(c: &mut Criterion) {
        let mut group = c.benchmark_group("table1");
        group.sample_size(10);
        group.measurement_time(Duration::from_secs(5));
        // Keep the per-iteration cost bounded: only quick benchmarks are
        // measured repeatedly; the full table is produced by the `report`
        // binary instead.
        let quick = ["is_empty", "length"];
        for benchmark in transcribed() {
            let spec = benchmark.spec.unwrap();
            if !quick.contains(&spec.goal) {
                continue;
            }
            let goal = spec.load().expect("the spec loads");
            group.bench_function(benchmark.name, |b| {
                b.iter(|| {
                    let config = Variant::Default.config(Duration::from_secs(30), benchmark.bounds);
                    run_goal(&goal, config)
                })
            });
        }
        group.finish();
    }

    criterion_group!(benches, bench_table1);
}

fn main() {
    #[cfg(feature = "criterion")]
    {
        real::benches();
        criterion::Criterion::default()
            .configure_from_args()
            .final_summary();
    }
}
