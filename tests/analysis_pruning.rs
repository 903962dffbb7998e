//! Differential harness for the whole-program analysis consumers: the
//! production grounder skips statements the abstract interpretation proved
//! dead, the reference grounder (`GroundingMode::Tuples`) never prunes, and
//! every causal answer of the two must be **bit-identical**
//! ([`carl::digest_answer`]) across the five evaluation datasets, across
//! dead-rule-augmented programs (including deadness only provable under
//! schema domain hints), across fuzzed programs, and across worker-thread
//! counts {1, 4}.
//!
//! It also pins the patch-safety upgrade: a program whose *dead* rule reads
//! an attribute in a condition comparison used to force every commit
//! touching that attribute down the cold-rebuild path (the old per-commit
//! screen blocked on all comparison reads); the precomputed
//! [`carl::PatchSafety`] screen ignores dead readers, so the commit now
//! patches — bit-identical to a cold engine and clean under
//! [`carl::check_history`].
//!
//! The rayon worker count is process-global, so the tests that vary it
//! serialise on [`THREADS_LOCK`].

use carl::{digest_answer, CarlEngine, GroundingMode, HistoryLog, SnapshotEngine};
use carl_datagen::{
    generate_mimic, generate_nis, generate_reviewdata, generate_synthetic_review, MimicConfig,
    NisConfig, ReviewConfig, SyntheticReviewConfig,
};
use proptest::prelude::*;
use reldb::{Instance, Mutation, Value};
use std::sync::Mutex;

/// Serialises tests that flip the process-global rayon worker count.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the default worker count even if a test panics.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        rayon::set_num_threads(0);
    }
}

/// The paper's Figure 2 example program (the `Instance::review_example`
/// schema: Person/Submission/Conference, Author/Submitted).
const REVIEW_RULES: &str = r#"
    Prestige[A]  <= Qualification[A]              WHERE Person(A)
    Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
    Score[S]     <= Prestige[A]                   WHERE Author(A, S)
    Score[S]     <= Quality[S]                    WHERE Submission(S)
    AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
"#;

const REVIEW_QUERIES: &[&str] = &[
    "AVG_Score[A] <= Prestige[A]?",
    "Score[S] <= Prestige[A]?",
    "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = true",
];

/// Build an engine on the given grounder and digest every query. Errors
/// digest too ([`digest_answer`] folds the error text), so a query that
/// fails must fail identically on both sides.
fn digests(
    mode: GroundingMode,
    instance: &Instance,
    rules: &str,
    queries: &[String],
) -> Vec<String> {
    let mut engine = CarlEngine::new(instance.clone(), rules).expect("model binds");
    engine.set_grounding_mode(mode);
    queries
        .iter()
        .map(|q| format!("{q} => {}", digest_answer(&engine.answer_str(q))))
        .collect()
}

/// Assert the pruning production grounder and the non-pruning reference
/// agree bit-for-bit on every query, at worker thread counts 1 and 4.
fn assert_pruning_inert(instance: &Instance, rules: &str, queries: &[String]) {
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let pruned = digests(GroundingMode::Streaming, instance, rules, queries);
        let reference = digests(GroundingMode::Tuples, instance, rules, queries);
        assert_eq!(
            pruned, reference,
            "pruning changed answers at {threads} thread(s)"
        );
    }
    rayon::set_num_threads(0);
}

/// Pruning is inert on all five evaluation datasets with their stock
/// models and experiment queries.
#[test]
fn pruning_is_inert_on_the_five_datasets() {
    let _guard = lock();
    let _restore = Restore;

    let review_queries: Vec<String> = REVIEW_QUERIES.iter().map(|q| q.to_string()).collect();
    assert_pruning_inert(&Instance::review_example(), REVIEW_RULES, &review_queries);

    let datasets = [
        generate_synthetic_review(&SyntheticReviewConfig::small(7)),
        generate_mimic(&MimicConfig::small(7)),
        generate_nis(&NisConfig::small(7)),
        generate_reviewdata(&ReviewConfig::small(7)),
    ];
    for ds in &datasets {
        assert_pruning_inert(&ds.instance, &ds.rules, &ds.queries);
    }
}

/// Dead-rule-augmented programs: rules whose conditions are provably
/// unsatisfiable — by interval conflict, by equality conflict, and by
/// deadness only the schema's `Bool` domain hint can prove — ground to
/// nothing, so skipping them (production) is bit-identical to grounding
/// them against every row (reference).
#[test]
fn pruning_is_inert_on_dead_rule_programs() {
    let _guard = lock();
    let _restore = Restore;
    let instance = Instance::review_example();
    let queries: Vec<String> = REVIEW_QUERIES.iter().map(|q| q.to_string()).collect();

    let dead_rules = [
        // Interval conflict on a Float attribute.
        "Quality[S] <= Prestige[A] WHERE Author(A, S), Score[S] > 9000.0, Score[S] < -9000.0\n",
        // Equality conflict (same attribute pinned to two constants).
        "Quality[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] = 1.0, \
         Qualification[A] = 2.0\n",
        // Dead only under the schema's Bool hint: integral tightening turns
        // 0 < Blind < 1 into an empty interval. Domain-blind analysis
        // cannot prove this one.
        "Score[S] <= Quality[S] WHERE Submission(S), Submitted(S, C), Blind[C] > 0.0, \
         Blind[C] < 1.0\n",
        // Bool attribute pinned to a non-boolean constant (Bool vs Int
        // never compare equal).
        "Score[S] <= Quality[S] WHERE Submission(S), Submitted(S, C), Blind[C] = 7\n",
    ];
    for dead in &dead_rules {
        let rules = format!("{REVIEW_RULES}{dead}");
        assert_pruning_inert(&instance, &rules, &queries);
    }
    // All dead rules at once.
    let rules = format!("{REVIEW_RULES}{}", dead_rules.concat());
    assert_pruning_inert(&instance, &rules, &queries);
}

/// The patch-safety regression: the legacy per-commit screen refused to
/// patch any commit touching an attribute read by *any* condition
/// comparison, dead or not. The precomputed screen only blocks on live
/// readers, so a commit touching `Score` — read exclusively by a dead
/// rule's comparisons — now takes the incremental fast path, bit-identical
/// to a cold rebuild and clean under the history oracle.
#[test]
fn dead_comparison_reads_no_longer_force_cold_rebuilds() {
    let ds = generate_synthetic_review(&SyntheticReviewConfig::small(29));
    // Live chain reading Score through an aggregate, plus a dead rule whose
    // condition comparisons read Score. Under the legacy screen the dead
    // rule alone made Score un-patchable.
    let rules = r#"
        Prestige[A] <= Qualification[A]  WHERE Person(A)
        Score[P]    <= Prestige[A]       WHERE Writes(A, P)
        AVG_Score[A] <= Score[P]         WHERE Writes(A, P)
        Quality[P]  <= Prestige[A]       WHERE Writes(A, P), Score[P] > 9000.0, Score[P] < -9000.0
    "#;
    let queries = ["AVG_Score[A] <= Prestige[A]?", "Score[P] <= Prestige[A]?"];

    let service = SnapshotEngine::new(ds.instance.clone(), rules).expect("model binds");
    // The precomputed screen must not list Score as unsafe: its only
    // comparison readers are dead.
    let safety = service.snapshot().engine().patch_safety().clone();
    assert!(
        !safety.render().contains("`Score`:"),
        "Score must not be screened unsafe:\n{}",
        safety.render()
    );

    let log = HistoryLog::new();
    let observe = |log: &HistoryLog| {
        for query in &queries {
            let (epoch, result) = service.answer_str(query);
            log.record_query(0, epoch, query, &result);
        }
    };
    observe(&log);

    for round in 0..3u32 {
        let batch = vec![Mutation::SetAttribute {
            attr: "Score".into(),
            key: vec![Value::from(format!("p{round}"))],
            value: Value::Float(3.0 + f64::from(round)),
        }];
        let snap = service.commit(&batch).expect("Score commit applies");
        log.record_install(&snap, &batch);
        observe(&log);

        // Bit-identical to a from-scratch engine over the same instance.
        let cold = CarlEngine::new(snap.instance().clone(), rules).expect("cold engine binds");
        for query in &queries {
            assert_eq!(
                digest_answer(&snap.engine().answer_str(query)),
                digest_answer(&cold.answer_str(query)),
                "round {round}: patched epoch diverged from cold for {query}"
            );
        }
    }

    let stats = service.commit_stats();
    assert_eq!(
        (stats.incremental, stats.cold),
        (3, 0),
        "commits touching a dead rule's comparison read must patch: {stats:?}"
    );

    let violations =
        carl::check_history(&ds.instance, service.program(), &log.events()).expect("checker runs");
    assert_eq!(
        violations,
        vec![],
        "patched epochs broke the history oracle"
    );
}

/// Every commit previously on the fast path stays there: PatchSafety
/// blocks only live comparison reads and aggregate heads, so the stock
/// cascade program from the incremental-vs-cold harness still patches all
/// attribute-only batches.
#[test]
fn previously_fast_pathed_commits_still_fast_path_without_rescans() {
    let ds = generate_synthetic_review(&SyntheticReviewConfig::small(31));
    let rules = r#"
        Prestige[A] <= Qualification[A]              WHERE Person(A)
        Quality[P]  <= Qualification[A]              WHERE Writes(A, P)
        Score[P]    <= Quality[P]                    WHERE Paper(P)
        Score[P]    <= Prestige[A]                   WHERE Writes(A, P)
        AVG_Score[A] <= Score[P]                     WHERE Writes(A, P)
    "#;
    let service = SnapshotEngine::new(ds.instance, rules).expect("model binds");
    let _ = service.answer_str("AVG_Score[A] <= Prestige[A]?");
    for round in 0..4u32 {
        service
            .commit(&[Mutation::SetAttribute {
                attr: "Qualification".into(),
                key: vec![Value::from(format!("a{round}"))],
                value: Value::Float(f64::from(round)),
            }])
            .expect("Qualification commit applies");
    }
    let stats = service.commit_stats();
    assert_eq!((stats.incremental, stats.cold), (4, 0), "{stats:?}");
}

/// One fuzzed extra rule over the review schema: a comparison chain whose
/// interval is sometimes empty (a dead rule the pruner skips), sometimes
/// not. Either way, pruning must be inert.
fn extra_rule(lo: f64, hi: f64, on_blind: bool) -> String {
    if on_blind {
        format!(
            "Quality[S] <= Prestige[A] WHERE Author(A, S), Submitted(S, C), \
             Blind[C] > {lo:.3}, Blind[C] < {hi:.3}\n"
        )
    } else {
        format!(
            "Quality[S] <= Prestige[A] WHERE Author(A, S), \
             Score[S] > {lo:.3}, Score[S] < {hi:.3}\n"
        )
    }
}

proptest! {
    /// Fuzzed programs over the review schema (random comparison chains,
    /// some provably dead, some live): the analysis never panics and the
    /// pruning production grounder never differs from the reference by a
    /// single answer bit. Case count scales with
    /// `PROPTEST_CASES`.
    #[test]
    fn pruning_is_inert_on_fuzzed_programs(
        chains in proptest::collection::vec(
            (-2.0f64..2.0, -2.0f64..2.0, any::<bool>()),
            0..3,
        ),
    ) {
        let _guard = lock();
        let _restore = Restore;
        let mut rules = REVIEW_RULES.to_string();
        for (lo, hi, on_blind) in &chains {
            rules.push_str(&extra_rule(*lo, *hi, *on_blind));
        }
        let queries: Vec<String> = REVIEW_QUERIES.iter().map(|q| q.to_string()).collect();
        assert_pruning_inert(&Instance::review_example(), &rules, &queries);
    }
}
