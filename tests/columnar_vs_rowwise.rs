//! Differential test harness: the columnar estimation data path versus the
//! legacy row-oriented reference path.
//!
//! The columnar engine (contiguous `f64` columns built during grounding,
//! zero-copy slices into the estimators, grounding cache) must reproduce the
//! seed's row-based results **bit for bit** — same peer lists, same unit
//! tables, same ATEs, same peer-effect decompositions — on every example
//! query and every integration scenario in the repository. The row path
//! ([`carl::rowwise`], reached via `CarlEngine::{prepare,answer}_rowwise`)
//! preserves the seed implementation: key-addressed peers and covariates,
//! a row-built table, and no grounding cache, so neither a cache bug nor a
//! row-indexing bug can mask itself by affecting both engines.
//!
//! Mirrors the methodology of checkers that validate a compact indexed
//! representation against a reference semantics: the fast representation is
//! only trusted because this harness proves it equivalent.

use carl::{CarlEngine, EmbeddingKind, EstimatorKind, QueryAnswer};
use carl_datagen::{
    generate_mimic, generate_nis, generate_reviewdata, generate_synthetic_review, MimicConfig,
    NisConfig, ReviewConfig, SyntheticReviewConfig,
};
use reldb::Instance;

/// Assert two floats are bit-identical (`NaN`s of the same bit pattern
/// included). The ISSUE's 1e-12 tolerance is implied: bit-identity is the
/// strictest version of it.
#[track_caller]
fn assert_bits(label: &str, a: f64, b: f64) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{label}: columnar {a:?} ({:#018x}) != rowwise {b:?} ({:#018x})",
        a.to_bits(),
        b.to_bits()
    );
}

/// Run `query` through both engines and assert bit-identical answers
/// (or an identical error disposition).
fn assert_query_identical(engine: &CarlEngine, query: &str) {
    let columnar = engine.answer_str(query);
    let rowwise = engine.answer_str_rowwise(query);
    match (columnar, rowwise) {
        (Ok(c), Ok(r)) => match (&c, &r) {
            (QueryAnswer::Ate(c), QueryAnswer::Ate(r)) => {
                assert_bits(&format!("{query}: ate"), c.ate, r.ate);
                assert_bits(
                    &format!("{query}: naive"),
                    c.naive_difference,
                    r.naive_difference,
                );
                assert_bits(
                    &format!("{query}: treated_mean"),
                    c.treated_mean,
                    r.treated_mean,
                );
                assert_bits(
                    &format!("{query}: control_mean"),
                    c.control_mean,
                    r.control_mean,
                );
                assert_bits(
                    &format!("{query}: correlation"),
                    c.correlation,
                    r.correlation,
                );
                assert_eq!(c.n_treated, r.n_treated, "{query}: n_treated");
                assert_eq!(c.n_control, r.n_control, "{query}: n_control");
                assert_eq!(c.n_units, r.n_units, "{query}: n_units");
            }
            (QueryAnswer::PeerEffects(c), QueryAnswer::PeerEffects(r)) => {
                assert_bits(&format!("{query}: aie"), c.aie, r.aie);
                assert_bits(&format!("{query}: are"), c.are, r.are);
                assert_bits(&format!("{query}: aoe"), c.aoe, r.aoe);
                assert_bits(
                    &format!("{query}: naive"),
                    c.naive_difference,
                    r.naive_difference,
                );
                assert_bits(
                    &format!("{query}: correlation"),
                    c.correlation,
                    r.correlation,
                );
                assert_eq!(c.n_units, r.n_units, "{query}: n_units");
                assert_eq!(c.n_units_with_peers, r.n_units_with_peers, "{query}");
                assert_eq!(c.peer_regime, r.peer_regime, "{query}");
            }
            _ => panic!("{query}: answer kinds diverged"),
        },
        (Err(c), Err(r)) => {
            assert_eq!(
                c.to_string(),
                r.to_string(),
                "{query}: error messages diverged"
            );
        }
        (c, r) => panic!(
            "{query}: disposition diverged (columnar ok: {}, rowwise ok: {})",
            c.is_ok(),
            r.is_ok()
        ),
    }
}

/// Prepare `query` through both engines and assert the unit tables agree
/// column by column, bit for bit.
fn assert_unit_table_identical(engine: &CarlEngine, query: &str) {
    let columnar = engine.prepare_str(query).expect("columnar prepare");
    let rowwise = engine
        .prepare_rowwise(&carl::carl_lang::parse_query(query).expect("query parses"))
        .expect("rowwise prepare");
    let c = &columnar.unit_table;
    let r = &rowwise.unit_table;
    assert_eq!(c.len(), r.len(), "{query}: row counts");
    assert_eq!(c.units, r.units, "{query}: unit keys");
    assert_eq!(c.peer_counts, r.peer_counts, "{query}: peer counts");
    assert_eq!(
        c.peer_treatment_cols, r.peer_treatment_cols,
        "{query}: peer columns"
    );
    assert_eq!(
        c.covariate_cols, r.covariate_cols,
        "{query}: covariate columns"
    );
    // The dense peer map (row indices) lists every unit's peers exactly as
    // the keyed reference map does, in the same order.
    for (unit, peers) in columnar.peers.iter() {
        let peers: Vec<_> = peers.collect();
        let reference: Vec<_> = rowwise.peers[unit].iter().collect();
        assert_eq!(peers, reference, "{query}: peers of {unit:?}");
    }
    assert_eq!(
        columnar.peers.len(),
        rowwise.peers.len(),
        "{query}: peer map"
    );
    // Every numeric column, bit for bit. The rowwise table extracts per-row
    // `Value`s; the columnar table filled contiguous storage directly.
    for name in c.column_names() {
        let fast = c.column(name).expect("columnar column");
        let slow = r.table.column_f64(name).expect("rowwise column");
        assert_eq!(fast.len(), slow.len(), "{query}: column {name}");
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert_bits(&format!("{query}: column {name} row {i}"), *a, *b);
        }
    }
}

/// The paper's running example (Figure 2 / Table 1) — the scenario of
/// `tests/end_to_end_paper_example.rs` and `examples/quickstart.rs`.
#[test]
fn review_example_queries_are_identical() {
    const RULES: &str = r#"
        Prestige[A]  <= Qualification[A]              WHERE Person(A)
        Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
        Score[S]     <= Prestige[A]                   WHERE Author(A, S)
        Score[S]     <= Quality[S]                    WHERE Submission(S)
        AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
    "#;
    let engine = CarlEngine::new(Instance::review_example(), RULES).expect("model binds");
    for query in [
        "AVG_Score[A] <= Prestige[A]?",
        "Score[S] <= Prestige[A]?",
        "AVG_Score[A] <= Prestige[A]? WHERE Qualification[A] >= 10",
        "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = true",
    ] {
        assert_unit_table_identical(&engine, query);
        // Three units are too few to estimate: both paths must agree on
        // the failure too.
        assert_query_identical(&engine, query);
    }
}

/// The synthetic-review scenarios of `tests/ground_truth_recovery.rs` and
/// `tests/effect_decomposition.rs`: ATE and every peer regime, across all
/// estimators and embeddings.
#[test]
fn synthetic_review_is_identical_across_estimators_and_regimes() {
    // Reduced scale: the comparison is exact (bit-identity), so statistical
    // power is irrelevant — only coverage of the code paths matters, and the
    // legacy row path is intentionally quadratic.
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 250,
        institutions: 20,
        papers: 1_200,
        venues: 10,
        ..SyntheticReviewConfig::small(42)
    });
    let single = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false";
    let double = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = true";

    // Unit tables once, with the default embedding.
    let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
    assert_unit_table_identical(&engine, single);
    assert_unit_table_identical(&engine, double);

    // Every estimator on the ATE queries.
    for estimator in [
        EstimatorKind::Regression,
        EstimatorKind::PropensityMatching,
        EstimatorKind::Subclassification,
        EstimatorKind::Ipw,
        EstimatorKind::Naive,
    ] {
        let mut engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
        engine.set_estimator(estimator);
        assert_query_identical(&engine, single);
        assert_query_identical(&engine, double);
    }

    // Every peer regime (the effect_decomposition scenario).
    let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
    for regime in [
        "ALL",
        "NONE",
        "MORE THAN 33%",
        "LESS THAN 50%",
        "AT LEAST 2",
        "AT MOST 1",
        "EXACTLY 1",
    ] {
        assert_query_identical(&engine, &format!("{single} WHEN {regime} PEERS TREATED"));
    }

    // Every embedding (including auto-sized padding).
    for embedding in [
        EmbeddingKind::Mean,
        EmbeddingKind::Median,
        EmbeddingKind::Moments(3),
        EmbeddingKind::Padding(0),
    ] {
        let mut engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
        engine.set_embedding(embedding);
        assert_unit_table_identical(&engine, single);
        assert_query_identical(&engine, single);
    }
}

/// The healthcare queries of `examples/healthcare_insurance.rs` and
/// `tests/language_pipeline.rs` (MIMIC-like data, SUTVA special case).
#[test]
fn mimic_queries_are_identical() {
    let ds = generate_mimic(&MimicConfig {
        patients: 800,
        caregivers: 40,
        drugs: 20,
        ..MimicConfig::small(99)
    });
    let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
    for query in &ds.queries {
        assert_unit_table_identical(&engine, query);
        assert_query_identical(&engine, query);
    }
}

/// The NIS query of `examples/hospital_size.rs` (Table 3's query 35).
#[test]
fn nis_query_is_identical() {
    let ds = generate_nis(&NisConfig {
        admissions: 1_000,
        hospitals: 40,
        ..NisConfig::small(12)
    });
    let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
    for query in &ds.queries {
        assert_unit_table_identical(&engine, query);
        assert_query_identical(&engine, query);
    }
}

/// The REVIEWDATA corpus of `examples/peer_review_effects.rs` and
/// `tests/baseline_comparison.rs`: blinding-regime ATEs plus the
/// peer-effects decomposition.
#[test]
fn reviewdata_queries_are_identical() {
    let ds = generate_reviewdata(&ReviewConfig::small(5));
    let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
    for blind in ["false", "true"] {
        let query = format!("Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = {blind}");
        assert_unit_table_identical(&engine, &query);
        assert_query_identical(&engine, &query);
    }
    assert_query_identical(
        &engine,
        "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = false WHEN ALL PEERS TREATED",
    );
}
