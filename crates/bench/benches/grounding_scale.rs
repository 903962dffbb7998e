//! Criterion bench: grounding, conjunctive-query evaluation and the full
//! answer pipeline at growing skeleton scale.
//!
//! Scenarios per scale (scales configurable via `GROUNDING_SCALE_SCALES`,
//! a comma-separated paper-count list defaulting to `500,2000,8000`):
//!
//! * `eval_planned` vs `eval_naive` — the planned executor against the
//!   nested-loop reference evaluator on the same multi-atom query. The
//!   baseline is the *semantic reference*, not the previous PR's
//!   production evaluator; the margin quantifies planner-vs-reference.
//! * `cold` — grounding the model from scratch on every iteration on the
//!   production (streamed) grounder, sharing only the engine's secondary
//!   indexes.
//! * `cached_prepare` — the full `prepare` path, which after the first
//!   iteration hits the `(rule, instance-fingerprint)` grounding cache and
//!   only rebuilds the (columnar) unit table.
//! * `answer_pipeline` — the end-to-end query path (query-cold prepare →
//!   unit table → ATE estimate) on a single worker thread, for the
//!   *streamed* pipeline (default mode: shared base grounding plus the
//!   query's synthesised aggregate streamed into dense sinks) next to the
//!   reference grounder's pipeline (`GroundingMode::Tuples`: full
//!   re-ground per query); plus the thread-scaling of the streamed cold
//!   ground (1 vs 4 workers). Results are printed and written
//!   machine-readably to `BENCH_pipeline.json` (override the path with
//!   `BENCH_PIPELINE_OUT`, the per-leg iteration count with
//!   `BENCH_PIPELINE_ITERS`) so later PRs have a perf trajectory. CI's
//!   release-test job smoke-runs this scenario at the smallest scale.

use carl::{CarlEngine, GroundingMode};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reldb::{evaluate_in, evaluate_naive, Atom, ConjunctiveQuery, IndexCache, Term};
use std::time::Instant;

const QUERY: &str = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false";

/// The grounding-shaped join the evaluators race on: authorships joined to
/// venue submissions with the author entity re-checked (the condition shape
/// of the synthetic-review model's score rule).
fn eval_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new(vec![
        Atom::new("Writes", vec![Term::var("A"), Term::var("P")]),
        Atom::new("SubmittedTo", vec![Term::var("P"), Term::var("V")]),
        Atom::new("Person", vec![Term::var("A")]),
    ])
}

/// Paper-count scales, overridable via `GROUNDING_SCALE_SCALES`.
fn scales() -> Vec<usize> {
    std::env::var("GROUNDING_SCALE_SCALES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![500, 2_000, 8_000])
}

fn engine_at(papers: usize) -> CarlEngine {
    let config = SyntheticReviewConfig {
        authors: papers / 5,
        institutions: 20,
        papers,
        venues: 10,
        ..SyntheticReviewConfig::small(7)
    };
    let ds = generate_synthetic_review(&config);
    CarlEngine::new(ds.instance, &ds.rules).expect("model binds to schema")
}

/// Best-of-`iters` wall-clock seconds for one invocation of `f` (after one
/// untimed warm-up that primes lazily built indexes).
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// One scale's measurements from the answer-pipeline race.
struct PipelineRow {
    papers: usize,
    tuples_s: f64,
    streamed_s: f64,
    ground_threads1_s: f64,
    ground_threads4_s: f64,
}

/// Measurements from the skewed power-law venue scenario: wall-clock plus
/// the work-stealing scheduler's per-worker morsel and steal counts.
struct SkewedRow {
    papers: usize,
    venue_skew: f64,
    hot_venue_share: f64,
    ground_threads1_s: f64,
    ground_threads4_s: f64,
    pipeline_threads4_s: f64,
    morsels_per_worker: Vec<u64>,
    steals_per_worker: Vec<u64>,
    grounded_attr_constructions: u64,
    graph_nodes: usize,
}

/// The skewed scenario: a power-law venue distribution (one venue takes
/// ~83% of submissions at exponent 3) over a collaboration-heavy corpus,
/// so one rule dominates the grounded row volume. Measures cold grounding
/// at 1 and 4 workers, the streamed pipeline at 4 workers, and captures
/// the scheduler's per-worker morsel/steal counts over the 4-worker legs —
/// the work-stealing balance evidence that goes into `BENCH_pipeline.json`.
fn skewed_pipeline(papers: usize, iters: usize) -> SkewedRow {
    let venue_skew = 3.0;
    let config = SyntheticReviewConfig {
        authors: papers / 5,
        institutions: 20,
        papers,
        venues: 10,
        mean_collaborators: 8.0,
        ..SyntheticReviewConfig::small(7)
    }
    .with_venue_skew(venue_skew);
    let ds = generate_synthetic_review(&config);
    let hot = reldb::Value::from("v0");
    let hot_venue_share = ds
        .instance
        .skeleton()
        .relationship_tuples("SubmittedTo")
        .iter()
        .filter(|t| t[1] == hot)
        .count() as f64
        / papers as f64;
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("model binds to schema");
    let query = carl::carl_lang::parse_query(QUERY).expect("query parses");

    rayon::set_num_threads(1);
    let ground_threads1_s = time_best(iters, || {
        engine
            .ground_model_streamed()
            .expect("grounds")
            .graph
            .node_count()
    });

    rayon::set_num_threads(4);
    rayon::reset_scheduler_stats();
    carl::reset_grounded_attr_constructions();
    let mut graph_nodes = 0usize;
    let ground_threads4_s = time_best(iters, || {
        let grounded = engine.ground_model_streamed().expect("grounds");
        graph_nodes = grounded.graph.node_count();
        graph_nodes
    });
    let grounded_attr_constructions =
        carl::grounded_attr_constructions() / (iters.max(1) as u64 + 1);
    let pipeline_threads4_s = time_best(iters, || {
        let prepared = engine.prepare_cold(&query).expect("prepares");
        let _ = engine.answer_prepared(&prepared);
        prepared.unit_table.len()
    });
    let stats = rayon::scheduler_stats();
    rayon::set_num_threads(0);

    println!(
        "answer_pipeline/skewed/{papers}: hot venue share {hot_venue_share:.2}, \
         ground 1 thread {ground_threads1_s:.4}s, 4 threads {ground_threads4_s:.4}s \
         ({:.2}x), streamed pipeline 4 threads {pipeline_threads4_s:.4}s; \
         morsels/worker {:?}, steals/worker {:?}; \
         grounded-attr constructions {grounded_attr_constructions} over {graph_nodes} nodes",
        ground_threads1_s / ground_threads4_s,
        stats.morsels_per_worker,
        stats.steals_per_worker,
    );
    SkewedRow {
        papers,
        venue_skew,
        hot_venue_share,
        ground_threads1_s,
        ground_threads4_s,
        pipeline_threads4_s,
        morsels_per_worker: stats.morsels_per_worker,
        steals_per_worker: stats.steals_per_worker,
        grounded_attr_constructions,
        graph_nodes,
    }
}

/// Time the full query pipeline (query-cold prepare → unit table → ATE) on
/// the streamed pipeline and on the reference grounder's pipeline,
/// single-threaded, and measure the streamed cold ground's thread scaling.
/// Returns the measurements.
fn answer_pipeline_race(papers: usize, iters: usize) -> PipelineRow {
    let streamed_engine = engine_at(papers);
    let mut tuples_engine = streamed_engine.clone();
    tuples_engine.set_grounding_mode(GroundingMode::Tuples);
    let query = carl::carl_lang::parse_query(QUERY).expect("query parses");

    // Single-core legs: pin the worker count so the tuple executor's data
    // parallelism cannot flatter the comparison. (Runtime override — the
    // env var is read once per process.)
    rayon::set_num_threads(1);
    let tuples_s = time_best(iters, || {
        let prepared = tuples_engine.prepare_cold(&query).expect("prepares");
        let _ = tuples_engine.answer_prepared(&prepared);
        prepared.unit_table.len()
    });
    // The streamed leg re-runs every query-specific stage per iteration
    // (synthesised-aggregate streaming, peers, covariates, unit table,
    // estimate); the query-independent base grounding is engine state,
    // shared exactly like the secondary indexes the reference leg reuses.
    let streamed_s = time_best(iters, || {
        let prepared = streamed_engine.prepare_cold(&query).expect("prepares");
        let _ = streamed_engine.answer_prepared(&prepared);
        prepared.unit_table.len()
    });

    // Thread scaling of the streamed cold ground.
    let ground_threads1_s = time_best(iters, || {
        streamed_engine
            .ground_model_streamed()
            .expect("grounds")
            .graph
            .node_count()
    });
    rayon::set_num_threads(4);
    let ground_threads4_s = time_best(iters, || {
        streamed_engine
            .ground_model_streamed()
            .expect("grounds")
            .graph
            .node_count()
    });
    rayon::set_num_threads(0);

    println!(
        "answer_pipeline/{papers}: tuples {:.4}s, streamed {:.4}s ({:.2}x over tuples); \
         ground 1 thread {:.4}s, 4 threads {:.4}s ({:.2}x)",
        tuples_s,
        streamed_s,
        tuples_s / streamed_s,
        ground_threads1_s,
        ground_threads4_s,
        ground_threads1_s / ground_threads4_s,
    );
    PipelineRow {
        papers,
        tuples_s,
        streamed_s,
        ground_threads1_s,
        ground_threads4_s,
    }
}

/// Write the race results as real JSON (hand-rendered: the vendored
/// serde_json stand-in emits Debug text, which is not machine-readable).
fn write_pipeline_json(rows: &[PipelineRow], skewed: &SkewedRow) {
    // Default next to the workspace root (cargo bench runs with the
    // package directory as cwd), overridable via BENCH_PIPELINE_OUT.
    let path = std::env::var("BENCH_PIPELINE_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR")));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"container_cores\": {cores},\n"));
    body.push_str("  \"query\": \"Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false\",\n");
    body.push_str("  \"scales\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"papers\": {}, \"tuples_pipeline_s\": {:.6}, \
             \"streamed_pipeline_s\": {:.6}, \"streamed_speedup_over_tuples\": {:.2}, \
             \"ground_threads1_s\": {:.6}, \"ground_threads4_s\": {:.6}, \
             \"thread_scaling\": {:.2}}}{}\n",
            row.papers,
            row.tuples_s,
            row.streamed_s,
            row.tuples_s / row.streamed_s,
            row.ground_threads1_s,
            row.ground_threads4_s,
            row.ground_threads1_s / row.ground_threads4_s,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    body.push_str("  ],\n");
    let fmt_u64s = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    body.push_str(&format!(
        "  \"skewed\": {{\"papers\": {}, \"venue_skew\": {:.1}, \"hot_venue_share\": {:.3}, \
         \"ground_threads1_s\": {:.6}, \"ground_threads4_s\": {:.6}, \"thread_scaling\": {:.2}, \
         \"streamed_pipeline_threads4_s\": {:.6}, \"morsels_per_worker\": [{}], \
         \"steals_per_worker\": [{}], \"grounded_attr_constructions\": {}, \
         \"graph_nodes\": {}}}\n",
        skewed.papers,
        skewed.venue_skew,
        skewed.hot_venue_share,
        skewed.ground_threads1_s,
        skewed.ground_threads4_s,
        skewed.ground_threads1_s / skewed.ground_threads4_s,
        skewed.pipeline_threads4_s,
        fmt_u64s(&skewed.morsels_per_worker),
        fmt_u64s(&skewed.steals_per_worker),
        skewed.grounded_attr_constructions,
        skewed.graph_nodes,
    ));
    body.push_str("}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("answer_pipeline: wrote {path}"),
        Err(e) => eprintln!("answer_pipeline: could not write {path}: {e}"),
    }
}

fn bench_grounding_scale(c: &mut Criterion) {
    let scales = scales();
    let mut group = c.benchmark_group("grounding_scale");
    for &papers in &scales {
        let engine = engine_at(papers);
        let query = eval_query();

        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("eval_planned", papers), &papers, |b, _| {
            // One shared index cache, as in the engine: steady-state probes.
            let instance = engine.instance();
            let cache = IndexCache::for_instance(instance);
            b.iter(|| {
                let answers = evaluate_in(&cache, instance.schema(), instance.skeleton(), &query)
                    .expect("query evaluates");
                std::hint::black_box(answers.len())
            });
        });

        // The naive path is quadratic; keep the largest scale affordable.
        group.sample_size(if papers >= 8_000 { 3 } else { 10 });
        group.bench_with_input(BenchmarkId::new("eval_naive", papers), &papers, |b, _| {
            let instance = engine.instance();
            b.iter(|| {
                let answers = evaluate_naive(instance.schema(), instance.skeleton(), &query)
                    .expect("query evaluates");
                std::hint::black_box(answers.len())
            });
        });
        group.sample_size(10);

        group.bench_with_input(BenchmarkId::new("cold", papers), &papers, |b, _| {
            b.iter(|| {
                let grounded = engine.ground_model_streamed().expect("grounding succeeds");
                std::hint::black_box(grounded.graph.node_count())
            });
        });

        group.bench_with_input(
            BenchmarkId::new("cached_prepare", papers),
            &papers,
            |b, _| {
                // Warm the cache once so every timed iteration is a hit.
                let warm = engine.prepare_str(QUERY).expect("query prepares");
                std::hint::black_box(warm.unit_table.len());
                b.iter(|| {
                    let prepared = engine.prepare_str(QUERY).expect("query prepares");
                    std::hint::black_box(prepared.unit_table.len())
                });
            },
        );
    }
    group.finish();

    // The end-to-end pipelines (streamed vs reference, thread scaling),
    // with machine-readable results for the perf trajectory.
    let iters: usize = std::env::var("BENCH_PIPELINE_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let rows: Vec<PipelineRow> = scales
        .iter()
        .map(|&papers| answer_pipeline_race(papers, iters))
        .collect();
    // The skewed power-law venue scenario runs at the largest configured
    // scale: that is where work-stealing balance actually matters.
    let skewed = skewed_pipeline(scales.iter().copied().max().unwrap_or(2_000), iters);
    write_pipeline_json(&rows, &skewed);
}

criterion_group!(benches, bench_grounding_scale);
criterion_main!(benches);
