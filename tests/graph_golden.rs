//! Golden digests of the base grounding.
//!
//! For each dataset the base grounding is built twice — once by the
//! streamed production grounder (`ground_model_streamed`) and once by the
//! sequential reference grounder (`ground_model`) — and each graph is
//! reduced to
//! one 64-bit digest. The digest covers, node by node in id order:
//!
//! * the node's `Display` rendering (so node *order* is pinned, not just
//!   the node set);
//! * its `parents_of` and `children_of` lists, in order (insertion order
//!   fixes the bit-exact fold order of every aggregate);
//! * the bits of its observed-or-derived value (derived aggregate values
//!   included).
//!
//! The checked-in digests were captured before the graph's node identity
//! moved to the grounder's node table, before the graph became the one
//! node store and before its adjacency started being folded in bulk; any
//! change to node order, edge order or a derived bit shows up here as a
//! digest mismatch. Every node's rendering must also resolve back to the
//! node itself.

use carl::graph::CausalGraph;
use carl::CarlEngine;
use carl_datagen::{
    generate_mimic, generate_nis, generate_reviewdata, generate_synthetic_review, MimicConfig,
    NisConfig, ReviewConfig, SyntheticReviewConfig,
};
use reldb::Instance;

/// The paper's Figure 2 program over `Instance::review_example`.
const PAPER_RULES: &str = r#"
    Prestige[A]  <= Qualification[A]              WHERE Person(A)
    Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
    Score[S]     <= Prestige[A]                   WHERE Author(A, S)
    Score[S]     <= Quality[S]                    WHERE Submission(S)
    AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
"#;

/// FNV-1a, 64-bit: a tiny, dependency-free, platform-independent digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[usize]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.u64(id as u64);
        }
    }
}

/// Digest one grounded graph plus the value of each node.
fn digest(graph: &CausalGraph, value_of: impl Fn(usize) -> Option<f64>) -> u64 {
    let mut h = Fnv::new();
    h.u64(graph.node_count() as u64);
    h.u64(graph.edge_count() as u64);
    for (id, node) in graph.iter() {
        // Every node's rendering resolves back to the node itself.
        assert_eq!(graph.node_id(&node), Some(id), "{node}");
        h.bytes(node.to_string().as_bytes());
        h.bytes(&[0xff]);
        h.ids(graph.parents_of(id));
        h.ids(graph.children_of(id));
        match value_of(id) {
            Some(v) => {
                h.bytes(&[1]);
                h.u64(v.to_bits());
            }
            None => h.bytes(&[0]),
        }
    }
    h.0
}

/// `(streamed, materialised)` digests of one dataset's base grounding.
fn digests(instance: &Instance, rules: &str) -> (u64, u64) {
    let engine = CarlEngine::new(instance.clone(), rules).expect("model binds");
    let streamed = engine.ground_model_streamed().expect("streamed grounding");
    let materialised = engine.ground_model().expect("materialised grounding");
    let instance = engine.instance();
    let s = digest(&streamed.graph, |id| {
        streamed.value_of(instance, &streamed.graph.node(id))
    });
    let m = digest(&materialised.graph, |id| {
        materialised.value_of(instance, &materialised.graph.node(id))
    });
    (s, m)
}

#[track_caller]
fn assert_golden(name: &str, instance: &Instance, rules: &str, golden: (u64, u64)) {
    let (streamed, materialised) = digests(instance, rules);
    assert!(
        (streamed, materialised) == golden,
        "{name}: (streamed, materialised) digests ({streamed:#018x}, {materialised:#018x}) \
         != golden ({:#018x}, {:#018x})",
        golden.0,
        golden.1
    );
}

#[test]
fn paper_example_grounding_matches_its_golden_digest() {
    assert_golden(
        "paper example",
        &Instance::review_example(),
        PAPER_RULES,
        (0x8bbb18a628910d66, 0x8bbb18a628910d66),
    );
}

/// Aggregates over aggregates, and two aggregates sharing one head name:
/// the shapes where an aggregate head must resolve to the node an earlier
/// statement already created.
#[test]
fn aggregate_heads_shared_across_statements_match_their_golden_digest() {
    const RULES: &str = r#"
        Score[S]     <= Blind[C]          WHERE Submitted(S, C)
        AVG_Score[A] <= Qualification[A]  WHERE Person(A)
        AVG_Score[A] <= Score[S]          WHERE Author(A, S)
        MAX_AVG[S]   <= AVG_Score[A]      WHERE Author(A, S)
        Prestige[A]  <= MAX_AVG[S]        WHERE Author(A, S)
    "#;
    assert_golden(
        "shared aggregate heads",
        &Instance::review_example(),
        RULES,
        (0xf64ac4b5155d5f72, 0xf64ac4b5155d5f72),
    );
}

#[test]
fn synthetic_review_grounding_matches_its_golden_digest() {
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 300,
        institutions: 20,
        papers: 1_500,
        venues: 10,
        ..SyntheticReviewConfig::small(42)
    });
    assert_golden(
        "synthetic review",
        &ds.instance,
        &ds.rules,
        (0xae47971eca02189e, 0xae47971eca02189e),
    );
}

#[test]
fn reviewdata_grounding_matches_its_golden_digest() {
    let ds = generate_reviewdata(&ReviewConfig::small(5));
    assert_golden(
        "REVIEWDATA",
        &ds.instance,
        &ds.rules,
        (0x9d9fc870da86dbc4, 0x9d9fc870da86dbc4),
    );
}

#[test]
fn mimic_grounding_matches_its_golden_digest() {
    let ds = generate_mimic(&MimicConfig::small(99));
    assert_golden(
        "MIMIC",
        &ds.instance,
        &ds.rules,
        (0xbf446be526757af8, 0xbf446be526757af8),
    );
}

#[test]
fn nis_grounding_matches_its_golden_digest() {
    let ds = generate_nis(&NisConfig::small(12));
    assert_golden(
        "NIS",
        &ds.instance,
        &ds.rules,
        (0x22e1c716e8ff26a0, 0x22e1c716e8ff26a0),
    );
}

/// Aggregates keyed by relationship tuples on REVIEWDATA: `SUM_PAIR` has a
/// two-argument head over `Author`, and `AVG_PAIR` folds those
/// tuple-keyed values back onto authors through a two-argument source.
#[test]
fn multi_argument_aggregates_match_their_golden_digest() {
    const RULES: &str = r#"
        SUM_PAIR[A, S] <= Score[S]       WHERE Author(A, S)
        AVG_PAIR[A]    <= SUM_PAIR[A, S] WHERE Author(A, S)
    "#;
    let ds = generate_reviewdata(&ReviewConfig::small(5));
    assert_golden(
        "REVIEWDATA multi-argument aggregates",
        &ds.instance,
        &format!("{}{RULES}", ds.rules),
        (0x2a8c63df825e29e0, 0x2a8c63df825e29e0),
    );
}

/// An aggregate over an observed two-argument attribute: MIMIC's
/// `Dose[D, P]`, keyed by `Given` tuples, folded onto patients.
#[test]
fn mimic_multi_argument_source_matches_its_golden_digest() {
    let ds = generate_mimic(&MimicConfig::small(99));
    assert_golden(
        "MIMIC multi-argument source",
        &ds.instance,
        &format!(
            "{}    AVG_Dose[P] <= Dose[D, P] WHERE Given(D, P)\n",
            ds.rules
        ),
        (0x1de18a0b86bd56fa, 0x1de18a0b86bd56fa),
    );
}
