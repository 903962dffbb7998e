//! Determinism of parallel grounding.
//!
//! The production grounder (`ground_model_streamed`) splits large row
//! batches across worker threads inside the tuple executor and folds the
//! order-preserving chunks into the grounded model in rule order. The
//! result must therefore be **bit-identical** under any
//! `RAYON_NUM_THREADS` and morsel size — node insertion order, edge lists,
//! and every observed-or-derived f64, bit for bit — and equal to the
//! sequential reference grounder's (`ground_model`). This test pins that
//! contract at a scale large enough to actually cross the executor's
//! parallel row threshold.
//!
//! Thread counts and morsel sizes are varied through
//! [`rayon::set_num_threads`] / [`rayon::set_morsel_size`] (the
//! environment variables are read once per process and mutating them would
//! race tests running concurrently in the same binary), and every flip is
//! restored before the assertion so other tests see the default. Tests in
//! this binary that flip knobs, read [`rayon::scheduler_stats`] or count
//! grounded-attribute constructions hold the [`KNOBS`] lock so they
//! serialise against each other.

use carl::{digest_answer, CarlEngine, GroundedValues};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use reldb::{Instance, UnitKey};
use std::sync::{Mutex, MutexGuard};

/// Serialises knob-mutating tests; the scheduler knobs and statistics are
/// process-global.
static KNOBS: Mutex<()> = Mutex::new(());

fn hold_knobs() -> MutexGuard<'static, ()> {
    KNOBS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A canonical, construction-order-sensitive rendering of a grounded model:
/// nodes in id order, each with its parent and child lists in adjacency
/// order and the exact bits of its observed-or-derived value.
type Canonical = Vec<(String, Vec<usize>, Vec<usize>, Option<u64>)>;

fn canonical(g: &impl GroundedValues, instance: &Instance) -> Canonical {
    let graph = g.graph();
    graph
        .iter()
        .map(|(id, node)| {
            (
                node.to_string(),
                graph.parents_of(id).to_vec(),
                graph.children_of(id).to_vec(),
                g.value_of(instance, &node).map(f64::to_bits),
            )
        })
        .collect()
}

/// The canonical form of `engine`'s reference grounding.
fn reference(engine: &CarlEngine) -> Canonical {
    let grounded = engine.ground_model().expect("reference grounding");
    canonical(&grounded, engine.instance())
}

#[test]
fn grounding_is_bit_identical_across_thread_counts() {
    let _k = hold_knobs();
    let config = SyntheticReviewConfig {
        authors: 400,
        institutions: 20,
        papers: 2_000,
        venues: 10,
        ..SyntheticReviewConfig::small(7)
    };
    let ds = generate_synthetic_review(&config);
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("model binds to schema");

    let ground_at = |threads: usize| {
        rayon::set_num_threads(threads);
        let grounded = engine.ground_model_streamed().expect("grounding succeeds");
        rayon::set_num_threads(0);
        assert!(grounded.graph.node_count() > 0 && grounded.graph.edge_count() > 0);
        canonical(&grounded, engine.instance())
    };

    let one = ground_at(1);
    let four = ground_at(4);
    assert!(
        one == four,
        "grounding must not depend on RAYON_NUM_THREADS"
    );
    // And the parallel grounding equals the sequential reference grounder's,
    // node order, edge lists and value bits included.
    assert!(
        one == reference(&engine),
        "production grounding diverged from the reference"
    );
}

/// The full thread × morsel matrix: grounding, prepared unit-table bits,
/// peer maps and answer digests must be bit-identical in every cell of
/// `RAYON_NUM_THREADS` ∈ {1, 2, 4, 8} × morsel size ∈ {1, 7, 1024, huge}.
/// The morsel size only repartitions work between workers; the per-worker
/// order buffers reassemble results in submission order, so no knob value
/// may leak into any output bit.
#[test]
fn grounding_matrix_is_bit_identical_across_threads_and_morsels() {
    let _k = hold_knobs();
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 120,
        institutions: 10,
        papers: 800,
        venues: 8,
        mean_collaborators: 6.0,
        ..SyntheticReviewConfig::small(7)
    });
    let query = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false";

    // One matrix cell: ground the model cold, prepare the query (streamed
    // grounding + unit table + peers) and digest the full answer, all under
    // the cell's scheduler knobs. A fresh engine per cell keeps its
    // grounding caches from short-circuiting later cells.
    #[allow(clippy::type_complexity)]
    let cell = |threads: usize,
                morsel: usize|
     -> (
        Canonical,
        Vec<UnitKey>,
        Vec<(String, Vec<u64>)>,
        carl::peers::PeerMap,
        String,
    ) {
        rayon::set_num_threads(threads);
        rayon::set_morsel_size(morsel);
        let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
        let grounded = engine.ground_model_streamed().expect("grounds");
        let prepared = engine.prepare_str(query).expect("prepares");
        let digest = digest_answer(&engine.answer_str(query));
        rayon::set_num_threads(0);
        rayon::set_morsel_size(0);

        let ut = &prepared.unit_table;
        let bits: Vec<(String, Vec<u64>)> = ut
            .column_names()
            .into_iter()
            .map(|name| {
                let col = ut.column(name).expect("column exists");
                (name.to_string(), col.iter().map(|v| v.to_bits()).collect())
            })
            .collect();
        let peers = prepared.peers;
        let grounded = canonical(&grounded, engine.instance());
        (grounded, ut.units.clone(), bits, peers, digest)
    };

    let baseline = cell(1, rayon::DEFAULT_MORSEL_SIZE);
    assert!(!baseline.0.is_empty(), "baseline grounding is non-trivial");
    let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
    assert!(
        baseline.0 == reference(&engine),
        "production grounding diverged from the reference"
    );
    for threads in [1usize, 2, 4, 8] {
        for morsel in [1usize, 7, 1024, usize::MAX / 4] {
            let got = cell(threads, morsel);
            assert!(
                got == baseline,
                "cell (threads {threads}, morsel {morsel}) diverged from the \
                 single-thread default-morsel baseline"
            );
        }
    }
}

/// A deliberately skewed workload — the collaboration-join rule carries
/// ~90% of all grounded rows — still grounds bit-identically, and the
/// work-stealing scheduler spreads skew: replayed with one worker stalled
/// on an expensive morsel, the other workers steal the rest of its deque,
/// end within one morsel of each other and run every morsel exactly once.
///
/// Which worker executes a morsel in a real run is decided by how the OS
/// schedules the worker threads, so the balance half runs the scheduler's
/// own seeding and claiming code through `rayon::replay_schedule`, where
/// the test fixes the order in which workers ask for morsels.
#[test]
fn skewed_workload_is_balanced_and_bit_identical() {
    let _k = hold_knobs();
    // 300 authors × ~20 collaborators each over 6,000 papers: the rule
    // `Score[P] <= Prestige[B] WHERE Writes(A, P), Collab(A, B)` grounds
    // roughly 20 rows per paper (~120k) against ~18k for the other four
    // rules combined — one rule is ~87% of the grounded row volume, and
    // its join step is the only one whose input crosses the executor's
    // parallel row threshold.
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 300,
        institutions: 10,
        papers: 6_000,
        venues: 8,
        mean_collaborators: 20.0,
        ..SyntheticReviewConfig::small(13)
    });
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("model binds");

    let baseline = {
        rayon::set_num_threads(1);
        let grounded = engine.ground_model_streamed().expect("grounds");
        rayon::set_num_threads(0);
        canonical(&grounded, engine.instance())
    };
    assert!(
        baseline == reference(&engine),
        "production grounding diverged from the reference"
    );

    // Small morsels force many stealable units out of the one dominant
    // rule, so a chunk-per-worker scheduler would show up here as one
    // worker owning nearly all morsels.
    rayon::set_num_threads(4);
    rayon::set_morsel_size(1);
    rayon::reset_scheduler_stats();
    carl::reset_grounded_attr_constructions();
    let skewed = engine.ground_model_streamed().expect("grounds");
    let constructions = carl::grounded_attr_constructions();
    let stats = rayon::scheduler_stats();
    rayon::set_num_threads(0);
    rayon::set_morsel_size(0);

    // The graph stores every node as an (attribute, key signature) label:
    // a cold streamed ground builds no `GroundedAttr` at all.
    assert_eq!(
        constructions,
        0,
        "a cold streamed ground of {} nodes built grounded attributes",
        skewed.graph.node_count()
    );

    assert!(
        canonical(&skewed, engine.instance()) == baseline,
        "skewed grounding must not depend on threads or morsel size"
    );
    assert!(
        stats.parallel_runs > 0,
        "the skewed workload never crossed the parallel threshold: {stats:?}"
    );
    assert!(
        stats.total_morsels() >= 12,
        "too few morsels to measure balance: {stats:?}"
    );

    // Worker 0 stalls on its first morsel; workers 1–3 keep asking in turn.
    let (workers, n) = (4, 64);
    let stalled = rayon::replay_schedule(
        n,
        workers,
        std::iter::once(0).chain((0..3 * n).map(|t| 1 + t % 3)),
    );
    let mut ran: Vec<usize> = stalled.executed.concat();
    ran.sort_unstable();
    assert_eq!(
        ran,
        (0..n).collect::<Vec<_>>(),
        "every morsel must run exactly once despite the stall: {stalled:?}"
    );
    assert_eq!(stalled.executed[0].len(), 1, "{stalled:?}");
    assert_eq!(
        stalled.steals.iter().sum::<u64>(),
        (n / workers - 1) as u64,
        "the stalled worker's remaining morsels must be stolen: {stalled:?}"
    );
    let thieves: Vec<usize> = stalled.executed[1..].iter().map(Vec::len).collect();
    assert!(
        thieves.iter().max().unwrap() - thieves.iter().min().unwrap() <= 1,
        "the running workers must share the stalled worker's morsels: {thieves:?}"
    );

    // Workers asking in turn drain their own deques and steal nothing.
    let even = rayon::replay_schedule(n, workers, (0..n).map(|t| t % workers));
    assert_eq!(even.steals, vec![0; workers], "{even:?}");
    assert!(
        even.executed.iter().all(|ran| ran.len() == n / workers),
        "{even:?}"
    );
}

/// The cached read path — `prepare` and `answer` on an engine whose base
/// grounding and query extensions are already cached — reads nodes by
/// label and builds no `GroundedAttr`, for each of the review dataset's
/// queries.
#[test]
fn cached_prepare_and_answer_build_no_grounded_attrs() {
    let _k = hold_knobs();
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 80,
        institutions: 8,
        papers: 400,
        venues: 5,
        ..SyntheticReviewConfig::small(5)
    });
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("model binds");
    assert!(!ds.queries.is_empty());
    for text in &ds.queries {
        engine.answer_str(text).expect("cold answer");
    }
    carl::reset_grounded_attr_constructions();
    for text in &ds.queries {
        let prepared = engine.prepare_str(text).expect("cached prepare");
        engine.answer_prepared(&prepared).expect("cached answer");
    }
    assert_eq!(
        carl::grounded_attr_constructions(),
        0,
        "a cached prepare and answer built grounded attributes"
    );
}
