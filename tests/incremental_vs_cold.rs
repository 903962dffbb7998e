//! Differential test harness: incrementally patched epochs versus cold
//! re-grounds.
//!
//! [`carl::SnapshotEngine::commit`] turns an attribute-only mutation
//! batch into a typed delta and *patches* the previous epoch's streamed
//! grounding in place of re-grounding the world. This harness is the differential oracle
//! for that fast path: after any fuzzed mutation sequence, every answer
//! computed on a patched epoch must be **bit-identical** (same
//! [`carl::digest_answer`] digest, same unit-table column bits, same
//! peer maps) to a cold engine built from scratch over the same
//! instance. It covers a two-level aggregate cascade (an aggregate whose
//! source is itself an aggregate head), the structural fallback, the
//! [`carl::check_history`] oracle over a fast-path run, and worker-
//! thread-count independence (`RAYON_NUM_THREADS` ∈ {1, 4}, varied via
//! `rayon::set_num_threads` like the streaming-vs-materialised suite).

use carl::{digest_answer, CarlEngine, HistoryLog, SnapshotEngine};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reldb::{Instance, Mutation, Value};

/// Synthetic-review rules extended with a two-level aggregate cascade:
/// `AVG_Score` folds each author's paper scores, and `AVG_AVG_Score`
/// folds *those aggregates* back onto papers. A patched `Score` cell must
/// ripple through both levels.
const CASCADE_RULES: &str = r#"
    Prestige[A] <= Qualification[A]              WHERE Person(A)
    Quality[P]  <= Qualification[A]              WHERE Writes(A, P)
    Score[P]    <= Quality[P]                    WHERE Paper(P)
    Score[P]    <= Prestige[A]                   WHERE Writes(A, P)
    AVG_Score[A] <= Score[P]                     WHERE Writes(A, P)
    AVG_AVG_Score[P] <= AVG_Score[A]             WHERE Writes(A, P)
"#;

const QUERIES: &[&str] = &[
    "AVG_Score[A] <= Prestige[A]?",
    "AVG_AVG_Score[P] <= Prestige[A]?",
    "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false",
    "Score[P] <= Prestige[A]? WHEN ALL PEERS TREATED",
];

fn dataset(seed: u64) -> Instance {
    generate_synthetic_review(&SyntheticReviewConfig {
        authors: 80,
        institutions: 8,
        papers: 300,
        venues: 5,
        ..SyntheticReviewConfig::small(seed)
    })
    .instance
}

/// A randomized attribute-only batch: paper scores move, author
/// qualifications move, and occasionally a score cell is cleared.
fn attribute_batch(rng: &mut SmallRng, papers: usize, authors: usize, epoch: u32) -> Vec<Mutation> {
    let mut batch = Vec::new();
    for _ in 0..4 {
        let p = rng.gen_range(0..papers);
        if rng.gen_range(0..5) == 0 {
            batch.push(Mutation::ClearAttribute {
                attr: "Score".into(),
                key: vec![Value::from(format!("p{p}"))],
            });
        } else {
            batch.push(Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from(format!("p{p}"))],
                value: Value::Float(5.0 + f64::from(epoch) + p as f64 * 0.01),
            });
        }
    }
    let a = rng.gen_range(0..authors);
    batch.push(Mutation::SetAttribute {
        attr: "Qualification".into(),
        key: vec![Value::from(format!("a{a}"))],
        value: Value::Float(f64::from(epoch) * 3.0 + 1.0),
    });
    batch
}

/// Assert the service's current (possibly patched) epoch answers every
/// query bit-identically to a cold engine built from scratch over the
/// same instance, and that the prepared unit table and peer map match
/// column-bit for column-bit on the cascade query.
fn assert_epoch_matches_cold(service: &SnapshotEngine, rules: &str) {
    assert_queries_match_cold(service, rules, QUERIES, "AVG_AVG_Score[P] <= Prestige[A]?");
}

/// [`assert_epoch_matches_cold`] over `queries`, comparing the prepared
/// unit table and peer map of `table_query`.
fn assert_queries_match_cold(
    service: &SnapshotEngine,
    rules: &str,
    queries: &[&str],
    table_query: &str,
) {
    let snap = service.snapshot();
    let cold = CarlEngine::new(snap.instance().clone(), rules).expect("cold engine binds");
    for query in queries {
        let live = digest_answer(&snap.engine().answer_str(query));
        let cold_digest = digest_answer(&cold.answer_str(query));
        assert_eq!(
            live,
            cold_digest,
            "epoch {}: digest diverged from cold re-ground for {query}",
            snap.epoch()
        );
    }
    match (
        snap.engine().prepare_str(table_query),
        cold.prepare_str(table_query),
    ) {
        (Ok(live), Ok(cold)) => {
            assert_eq!(live.unit_table.units, cold.unit_table.units, "unit keys");
            assert_eq!(live.peers, cold.peers, "peer maps");
            for name in live.unit_table.column_names() {
                let a = live.unit_table.column(name).expect("live column");
                let b = cold.unit_table.column(name).expect("cold column");
                let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "column {name} bits diverged");
            }
        }
        (Err(live), Err(cold)) => assert_eq!(live.to_string(), cold.to_string()),
        (live, cold) => panic!(
            "prepare disposition diverged (live ok: {}, cold ok: {})",
            live.is_ok(),
            cold.is_ok()
        ),
    }
}

/// Fuzzed attribute-only mutation sequences: every epoch is patched (the
/// fast path must actually engage) and every patched epoch is
/// bit-identical to a cold rebuild — including the two-level aggregate
/// cascade.
#[test]
fn fuzzed_attribute_commits_patch_bit_identically() {
    let service = SnapshotEngine::new(dataset(11), CASCADE_RULES).expect("model binds");

    // Warm the base grounding so epoch 1 patches instead of starting cold.
    let _ = service.answer_str(QUERIES[0]);

    let mut rng = SmallRng::seed_from_u64(0xDE17A);
    for epoch in 0..5 {
        let batch = attribute_batch(&mut rng, 300, 80, epoch);
        let snap = service.commit(&batch).expect("attribute batch applies");
        // The patched epoch arrives with its grounding already seeded —
        // queries below read the *patched* state, not a lazy cold
        // re-ground (which would make this harness vacuous).
        assert_eq!(
            snap.engine().grounding_cache_len(),
            1,
            "epoch {}: patched base grounding was not seeded",
            snap.epoch()
        );
        assert_epoch_matches_cold(&service, CASCADE_RULES);
    }
    let stats = service.commit_stats();
    assert_eq!(
        (stats.incremental, stats.cold),
        (5, 0),
        "attribute-only batches must all take the fast path"
    );
}

/// Aggregates keyed by relationship tuples: `MAX_PAIR` folds each
/// `Writes(A, P)` tuple's paper score under a two-argument head, and
/// `AVG_PAIR` folds those tuple-keyed values onto authors. Score commits
/// refold `MAX_PAIR` cells (a cleared score clears its cells) and cascade
/// into `AVG_PAIR` on the patch path, and each patched epoch answers like
/// a cold rebuild — including the query whose synthesised extension reads
/// `MAX_PAIR`.
#[test]
fn attribute_commits_refold_multi_argument_aggregates() {
    const PAIR_QUERIES: &[&str] = &[
        "AVG_PAIR[A] <= Prestige[A]?",
        "MAX_PAIR[A, P] <= Prestige[A]?",
        "AVG_PAIR[A] <= Prestige[A]? WHEN ALL PEERS TREATED",
    ];
    let rules = format!(
        "{CASCADE_RULES}
    MAX_PAIR[A, P] <= Score[P]       WHERE Writes(A, P)
    AVG_PAIR[A]    <= MAX_PAIR[A, P] WHERE Writes(A, P)
"
    );
    let service = SnapshotEngine::new(dataset(19), &rules).expect("model binds");
    let _ = service.answer_str(PAIR_QUERIES[0]);

    let mut rng = SmallRng::seed_from_u64(0x9A125);
    for epoch in 0..5 {
        let batch = attribute_batch(&mut rng, 300, 80, epoch);
        service.commit(&batch).expect("attribute batch applies");
        assert_queries_match_cold(&service, &rules, PAIR_QUERIES, PAIR_QUERIES[1]);
    }
    let stats = service.commit_stats();
    assert_eq!(
        (stats.incremental, stats.cold),
        (5, 0),
        "attribute-only batches must all take the fast path"
    );
}

/// Structural mutations (new entities, new relationship edges) are not
/// patchable: the service falls back to a cold re-ground and the answers
/// stay bit-identical to a from-scratch engine.
#[test]
fn structural_commits_fall_back_to_cold_rebuilds() {
    let service = SnapshotEngine::new(dataset(23), CASCADE_RULES).expect("model binds");
    let _ = service.answer_str(QUERIES[0]);

    // Attribute commit: fast path.
    service
        .commit(&[Mutation::SetAttribute {
            attr: "Score".into(),
            key: vec![Value::from("p0")],
            value: Value::Float(42.0),
        }])
        .expect("attribute batch applies");
    assert_epoch_matches_cold(&service, CASCADE_RULES);

    // Structural commit: a brand-new author who writes an existing paper.
    service
        .commit(&[
            Mutation::InsertEntity {
                entity: "Person".into(),
                key: Value::from("a_new"),
            },
            Mutation::SetAttribute {
                attr: "Qualification".into(),
                key: vec![Value::from("a_new")],
                value: Value::Float(9.0),
            },
            Mutation::InsertRelationship {
                rel: "Writes".into(),
                tuple: vec![Value::from("a_new"), Value::from("p1")],
            },
        ])
        .expect("structural batch applies");
    assert_epoch_matches_cold(&service, CASCADE_RULES);

    // A mixed no-op retraction batch (never-present targets) emits an
    // empty delta and still patches.
    service
        .commit(&[
            Mutation::DeleteRelationship {
                rel: "Writes".into(),
                tuple: vec![Value::from("a_new"), Value::from("p2")],
            },
            Mutation::ClearAttribute {
                attr: "Score".into(),
                key: vec![Value::from("p_absent")],
            },
        ])
        .expect("no-op batch applies");
    assert_epoch_matches_cold(&service, CASCADE_RULES);

    let stats = service.commit_stats();
    assert_eq!(stats.incremental, 2, "attribute + no-op batches patch");
    assert_eq!(stats.cold, 1, "structural batch rebuilds cold");
}

/// The history-recording consistency oracle passes on a fast-path run:
/// every recorded (epoch, query) observation on patched epochs replays
/// bit-identically when `check_history` cold re-grounds the whole chain.
#[test]
fn check_history_passes_over_patched_epochs() {
    let base = dataset(37);
    let service = SnapshotEngine::new(base.clone(), CASCADE_RULES).expect("model binds");
    let log = HistoryLog::new();

    let observe = |log: &HistoryLog| {
        for query in QUERIES {
            let (epoch, result) = service.answer_str(query);
            log.record_query(0, epoch, query, &result);
        }
    };
    observe(&log);
    let mut rng = SmallRng::seed_from_u64(0x0DDE55);
    for epoch in 0..4 {
        let batch = attribute_batch(&mut rng, 300, 80, epoch);
        let snap = service.commit(&batch).expect("batch applies");
        log.record_install(&snap, &batch);
        observe(&log);
    }
    assert!(
        service.commit_stats().incremental >= 3,
        "the run must actually exercise the fast path: {:?}",
        service.commit_stats()
    );

    let violations =
        carl::check_history(&base, service.program(), &log.events()).expect("checker runs");
    assert_eq!(
        violations,
        vec![],
        "patched epochs broke the history oracle"
    );
}

/// Patched epochs are bit-identical at any worker-thread count and morsel
/// size: the same commit sequence under different scheduler knobs yields
/// the same digest for every (epoch, query) pair.
#[test]
fn patched_epochs_are_bit_identical_across_thread_counts() {
    let run = |threads: usize, morsel: usize| -> Vec<String> {
        rayon::set_num_threads(threads);
        rayon::set_morsel_size(morsel);
        let service = SnapshotEngine::new(dataset(51), CASCADE_RULES).expect("model binds");
        let _ = service.answer_str(QUERIES[0]);
        let mut rng = SmallRng::seed_from_u64(0x7EAD5);
        let mut digests = Vec::new();
        for epoch in 0..3 {
            let batch = attribute_batch(&mut rng, 300, 80, epoch);
            service.commit(&batch).expect("batch applies");
            for query in QUERIES {
                let (epoch, result) = service.answer_str(query);
                digests.push(format!("{epoch}:{query}:{}", digest_answer(&result)));
            }
        }
        assert_eq!(service.commit_stats().incremental, 3);
        rayon::set_num_threads(0);
        rayon::set_morsel_size(0);
        digests
    };
    let baseline = run(1, rayon::DEFAULT_MORSEL_SIZE);
    for (threads, morsel) in [(4, 1), (2, 7), (8, 1024)] {
        assert_eq!(
            baseline,
            run(threads, morsel),
            "patched epochs depend on the scheduler knobs \
             (threads {threads}, morsel {morsel})"
        );
    }
}
