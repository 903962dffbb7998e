//! Stage-by-stage wall-clock profile of the answer pipeline.
//!
//! Prints where a cold `prepare` + estimate actually spends its time at a
//! given scale (`PROFILE_PAPERS`, default 8000), on the production
//! (streamed) grounder and on the reference grounder. A scratch tool for
//! perf work:
//! `cargo run --release --bin profile_pipeline`. Set
//! `CARL_PROFILE_GROUND=1` to additionally print the grounding-phase
//! split from inside the engine. For the prepare stages after grounding
//! (peers, covariates, unit table) run the benchmark with its trace on:
//! `cargo run --offline --release --manifest-path carlbench/Cargo.toml --
//! --workload review-read --seed 1 --seconds 10 --trace 1` reports them as
//! `peers.ms`, `adjust.covariates_ms` and `unit_table.build_ms`.

use carl::{CarlEngine, GroundingMode};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use std::time::Instant;

const QUERY: &str = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false";

fn time<R>(label: &str, mut f: impl FnMut() -> R) -> R {
    // Warm-up, then best of 3.
    let mut result = f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        result = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("  {label}: {:.2} ms", best * 1e3);
    result
}

fn main() {
    rayon::set_num_threads(1);
    let papers: usize = std::env::var("PROFILE_PAPERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8000);
    let config = SyntheticReviewConfig {
        authors: papers / 5,
        institutions: 20,
        papers,
        venues: 10,
        ..SyntheticReviewConfig::small(7)
    };
    let ds = generate_synthetic_review(&config);
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("engine");
    let mut reference = engine.clone();
    reference.set_grounding_mode(GroundingMode::Tuples);
    let query = carl::carl_lang::parse_query(QUERY).expect("query");

    println!("papers = {papers}");
    time("ground (reference)", || {
        engine.ground_model().expect("grounds").graph.node_count()
    });
    time("ground (streamed)", || {
        engine
            .ground_model_streamed()
            .expect("grounds")
            .graph
            .node_count()
    });

    // Grounded-attr construction audit: with interned node identities the
    // streamed cold grounding builds one boxed `GroundedAttr` per distinct
    // derived node (graph insertion), not one per processed row — lookups
    // go through packed symbol signatures instead.
    carl::reset_grounded_attr_constructions();
    let streamed = engine.ground_model_streamed().expect("grounds");
    let constructions = carl::grounded_attr_constructions();
    let nodes = streamed.graph.node_count() as u64;
    println!(
        "  grounded-attr constructions (streamed cold): {constructions} \
         over {nodes} graph nodes ({:.2} per node)",
        constructions as f64 / nodes.max(1) as f64
    );
    assert!(
        constructions <= 2 * nodes + 64,
        "grounded-attr constructions regressed to per-row allocation: \
         {constructions} for {nodes} nodes"
    );
    drop(streamed);
    let prepared = time("prepare_cold (streamed)", || {
        engine.prepare_cold(&query).expect("prepares")
    });
    time("prepare_cold (reference)", || {
        reference
            .prepare_cold(&query)
            .expect("prepares")
            .unit_table
            .len()
    });
    time("answer_prepared", || {
        let _ = engine.answer_prepared(&prepared);
    });

    // Scheduler-stats smoke: a 4-worker cold ground must populate the
    // morsel scheduler's counters whenever any batch crossed the parallel
    // row threshold (the CI smoke run asserts this holds at its scale).
    // The streamed grounder parallelises inside join steps only, so the
    // smoke grounds a collaboration-heavy corpus of the same size: its
    // co-author join is the step that crosses the threshold.
    let dense = generate_synthetic_review(&SyntheticReviewConfig {
        mean_collaborators: 20.0,
        ..config
    });
    let dense = CarlEngine::new(dense.instance, &dense.rules).expect("engine");
    rayon::set_num_threads(4);
    rayon::reset_scheduler_stats();
    time("ground (streamed, dense collaboration, 4 threads)", || {
        dense
            .ground_model_streamed()
            .expect("grounds")
            .graph
            .node_count()
    });
    let stats = rayon::scheduler_stats();
    rayon::set_num_threads(0);
    println!(
        "  scheduler stats @4 threads: {} morsels over {} workers \
         (max/worker {}, steals {}), {} parallel + {} sequential runs",
        stats.total_morsels(),
        stats.morsels_per_worker.len(),
        stats.max_worker_morsels(),
        stats.total_steals(),
        stats.parallel_runs,
        stats.sequential_runs,
    );
    assert!(
        stats.parallel_runs == 0 || stats.total_morsels() > 0,
        "parallel runs executed but no morsels were recorded: {stats:?}"
    );
    if papers >= 6_000 {
        assert!(
            stats.parallel_runs > 0 && stats.total_morsels() > 0,
            "a {papers}-paper cold ground at 4 workers must engage the \
             morsel scheduler: {stats:?}"
        );
    }
}
