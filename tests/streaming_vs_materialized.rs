//! Differential test harness: the streamed grounding→unit-table pipeline
//! versus the pipeline over the reference grounder.
//!
//! The streaming engine (default, [`carl::GroundingMode::Streaming`])
//! pipes each condition's register-tuple chunks straight off the query
//! executor into the grounding merge, streams query-synthesised aggregates
//! as extensions over a shared base grounding, and reads derived values
//! out of dense signature-indexed column sinks. The materialised engine
//! ([`carl::GroundingMode::Tuples`]) answers through the reference
//! grounder: a sequential loop over each condition's `Vec<Bindings>`
//! answers, no analysis pruning, a sorted-map `GroundedModel`, full
//! re-grounding per cold query. This harness proves the two produce
//! **bit-identical** results — same unit tables column by column, same
//! peer maps, same ATE / AIE / ARE / AOE, same error dispositions — on
//! every dataset the columnar-vs-rowwise suite covers, and that the
//! streamed results do not depend on the worker-thread count. Peer maps
//! are also checked against the key-addressed reference of
//! [`carl::rowwise`], which shares no code with the dense peer walks both
//! pipelines run.

use carl::{CarlEngine, EstimatorKind, GroundingMode, QueryAnswer};
use carl_datagen::{
    generate_mimic, generate_nis, generate_reviewdata, generate_synthetic_review, MimicConfig,
    NisConfig, ReviewConfig, SyntheticReviewConfig,
};
use reldb::Instance;

/// Assert two floats are bit-identical (`NaN`s of the same bit pattern
/// included).
#[track_caller]
fn assert_bits(label: &str, a: f64, b: f64) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{label}: streamed {a:?} ({:#018x}) != materialised {b:?} ({:#018x})",
        a.to_bits(),
        b.to_bits()
    );
}

/// A streamed (default) and a reference-grounder engine over one dataset.
fn engine_pair(instance: &Instance, rules: &str) -> (CarlEngine, CarlEngine) {
    let streamed = CarlEngine::new(instance.clone(), rules).expect("model binds");
    let mut materialised = streamed.clone();
    materialised.set_grounding_mode(GroundingMode::Tuples);
    (streamed, materialised)
}

/// Prepare `query` through both pipelines and assert bit-identical unit
/// tables, peer maps and adjustment column sets.
fn assert_prepared_identical(streamed: &CarlEngine, materialised: &CarlEngine, query: &str) {
    let s = streamed.prepare_str(query).expect("streamed prepare");
    let m = materialised
        .prepare_str(query)
        .expect("materialised prepare");
    assert_eq!(s.unit_table.len(), m.unit_table.len(), "{query}: rows");
    assert_eq!(s.unit_table.units, m.unit_table.units, "{query}: units");
    assert_eq!(
        s.unit_table.peer_counts, m.unit_table.peer_counts,
        "{query}: peer counts"
    );
    assert_eq!(
        s.unit_table.covariate_cols, m.unit_table.covariate_cols,
        "{query}: covariate columns"
    );
    for name in s.unit_table.column_names() {
        let a = s.unit_table.column(name).expect("streamed column");
        let b = m.unit_table.column(name).expect("materialised column");
        assert_eq!(a.len(), b.len(), "{query}: column {name}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_bits(&format!("{query}: column {name} row {i}"), *x, *y);
        }
    }
    // The peer map drives AIE/ARE/AOE and the peer-treatment embedding:
    // the streamed (virtual response vertices) and materialised (graph
    // walk) computations must agree exactly.
    assert_eq!(s.peers, m.peers, "{query}: peer maps");
    assert_eq!(s.response_attr, m.response_attr, "{query}: response attr");
    // Both pipelines share the dense peer code; the key-addressed reference
    // (over a fresh materialised grounding) shares none of it.
    let reference = materialised
        .prepare_rowwise(&carl::carl_lang::parse_query(query).expect("query parses"))
        .expect("reference prepare");
    for (unit, peers) in s.peers.iter() {
        let peers: Vec<_> = peers.collect();
        let expected: Vec<_> = reference.peers[unit].iter().collect();
        assert_eq!(peers, expected, "{query}: peers of {unit:?} vs reference");
    }
    assert_eq!(
        s.peers.len(),
        reference.peers.len(),
        "{query}: reference units"
    );
}

/// Answer `query` through both pipelines and assert bit-identical answers
/// (or identical error dispositions).
fn assert_answers_identical(streamed: &CarlEngine, materialised: &CarlEngine, query: &str) {
    let s = streamed.answer_str(query);
    let m = materialised.answer_str(query);
    match (s, m) {
        (Ok(QueryAnswer::Ate(s)), Ok(QueryAnswer::Ate(m))) => {
            assert_bits(&format!("{query}: ate"), s.ate, m.ate);
            assert_bits(
                &format!("{query}: naive"),
                s.naive_difference,
                m.naive_difference,
            );
            assert_bits(&format!("{query}: treated"), s.treated_mean, m.treated_mean);
            assert_bits(&format!("{query}: control"), s.control_mean, m.control_mean);
            assert_eq!(s.n_units, m.n_units, "{query}: n_units");
        }
        (Ok(QueryAnswer::PeerEffects(s)), Ok(QueryAnswer::PeerEffects(m))) => {
            assert_bits(&format!("{query}: aie"), s.aie, m.aie);
            assert_bits(&format!("{query}: are"), s.are, m.are);
            assert_bits(&format!("{query}: aoe"), s.aoe, m.aoe);
            assert_eq!(s.n_units_with_peers, m.n_units_with_peers, "{query}");
        }
        (Err(s), Err(m)) => {
            assert_eq!(s.to_string(), m.to_string(), "{query}: errors diverged");
        }
        (s, m) => panic!(
            "{query}: disposition diverged (streamed ok: {}, materialised ok: {})",
            s.is_ok(),
            m.is_ok()
        ),
    }
}

/// The full streamed grounding must carry exactly the materialised model's
/// derived values (checked through the public value lookup, bit for bit).
fn assert_grounding_identical(streamed: &CarlEngine, materialised: &CarlEngine) {
    let full = materialised.ground_model().expect("materialised grounding");
    let stream = streamed
        .ground_model_streamed()
        .expect("streamed grounding");
    assert_eq!(stream.graph.node_count(), full.graph.node_count());
    assert_eq!(stream.graph.edge_count(), full.graph.edge_count());
    for id in 0..full.graph.node_count() {
        let node = full.graph.node(id);
        assert_eq!(
            stream.graph.node_id(&node),
            Some(id),
            "node {node} diverges (ids or insertion order)"
        );
    }
    for (node, &value) in &full.derived {
        let streamed_value = stream
            .value_of(streamed.instance(), node)
            .unwrap_or_else(|| panic!("derived {node} missing from the streamed sinks"));
        assert_bits(&format!("derived {node}"), streamed_value, value);
    }
}

/// The paper's running example (Figure 2 / Table 1).
#[test]
fn review_example_is_identical() {
    const RULES: &str = r#"
        Prestige[A]  <= Qualification[A]              WHERE Person(A)
        Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
        Score[S]     <= Prestige[A]                   WHERE Author(A, S)
        Score[S]     <= Quality[S]                    WHERE Submission(S)
        AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
    "#;
    let instance = Instance::review_example();
    let (streamed, materialised) = engine_pair(&instance, RULES);
    assert_grounding_identical(&streamed, &materialised);
    for query in [
        "AVG_Score[A] <= Prestige[A]?",
        "Score[S] <= Prestige[A]?",
        "AVG_Score[A] <= Prestige[A]? WHERE Qualification[A] >= 10",
        "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = true",
    ] {
        assert_prepared_identical(&streamed, &materialised, query);
        assert_answers_identical(&streamed, &materialised, query);
    }
}

/// SYNTHETIC REVIEWDATA: ATE and every peer regime, plus estimator sweep.
#[test]
fn synthetic_review_is_identical_across_regimes_and_estimators() {
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 250,
        institutions: 20,
        papers: 1_200,
        venues: 10,
        ..SyntheticReviewConfig::small(42)
    });
    let (streamed, materialised) = engine_pair(&ds.instance, &ds.rules);
    assert_grounding_identical(&streamed, &materialised);
    let single = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false";
    let double = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = true";
    assert_prepared_identical(&streamed, &materialised, single);
    assert_prepared_identical(&streamed, &materialised, double);
    assert_answers_identical(&streamed, &materialised, single);
    assert_answers_identical(&streamed, &materialised, double);
    for regime in ["ALL", "NONE", "MORE THAN 33%", "AT LEAST 2", "EXACTLY 1"] {
        assert_answers_identical(
            &streamed,
            &materialised,
            &format!("{single} WHEN {regime} PEERS TREATED"),
        );
    }
    for estimator in [
        EstimatorKind::Regression,
        EstimatorKind::PropensityMatching,
        EstimatorKind::Subclassification,
        EstimatorKind::Ipw,
        EstimatorKind::Naive,
    ] {
        let (mut streamed, mut materialised) = engine_pair(&ds.instance, &ds.rules);
        streamed.set_estimator(estimator);
        materialised.set_estimator(estimator);
        assert_answers_identical(&streamed, &materialised, single);
    }
}

/// MIMIC-like healthcare queries (SUTVA special case included).
#[test]
fn mimic_queries_are_identical() {
    let ds = generate_mimic(&MimicConfig {
        patients: 800,
        caregivers: 40,
        drugs: 20,
        ..MimicConfig::small(99)
    });
    let (streamed, materialised) = engine_pair(&ds.instance, &ds.rules);
    for query in &ds.queries {
        assert_prepared_identical(&streamed, &materialised, query);
        assert_answers_identical(&streamed, &materialised, query);
    }
}

/// NIS-like hospital query (Table 3's query 35).
#[test]
fn nis_query_is_identical() {
    let ds = generate_nis(&NisConfig {
        admissions: 1_000,
        hospitals: 40,
        ..NisConfig::small(12)
    });
    let (streamed, materialised) = engine_pair(&ds.instance, &ds.rules);
    for query in &ds.queries {
        assert_prepared_identical(&streamed, &materialised, query);
        assert_answers_identical(&streamed, &materialised, query);
    }
}

/// REVIEWDATA blinding-regime queries plus the peer decomposition.
#[test]
fn reviewdata_queries_are_identical() {
    let ds = generate_reviewdata(&ReviewConfig::small(5));
    let (streamed, materialised) = engine_pair(&ds.instance, &ds.rules);
    for blind in ["false", "true"] {
        let query = format!("Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = {blind}");
        assert_prepared_identical(&streamed, &materialised, &query);
        assert_answers_identical(&streamed, &materialised, &query);
    }
    assert_answers_identical(
        &streamed,
        &materialised,
        "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = false WHEN ALL PEERS TREATED",
    );
}

/// Relationship-keyed attributes. On REVIEWDATA, `SUM_PAIR[A, S]` is an
/// aggregate head over `Author` tuples: the synthesised extension of the
/// first and third query reads it as a two-argument source, and the
/// treatment `Accepted` of the last has it as parents. On MIMIC, the
/// extension of the first query reads the observed `Dose[D, P]` and the
/// treatment `Sex` of the second has `Dose` parents.
#[test]
fn multi_argument_sources_are_identical() {
    const PAIR_RULES: &str = r#"
        SUM_PAIR[A, S] <= Score[S]       WHERE Author(A, S)
        AVG_PAIR[A]    <= SUM_PAIR[A, S] WHERE Author(A, S)
        Accepted[S]    <= SUM_PAIR[A, S] WHERE Author(A, S)
    "#;
    let ds = generate_reviewdata(&ReviewConfig::small(5));
    let rules = format!("{}{PAIR_RULES}", ds.rules);
    let (streamed, materialised) = engine_pair(&ds.instance, &rules);
    assert_grounding_identical(&streamed, &materialised);
    for query in [
        "SUM_PAIR[A, S] <= Prestige[A]?",
        "AVG_PAIR[A] <= Prestige[A]?",
        "SUM_PAIR[A, S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = false",
        "Score[S] <= Accepted[S]?",
    ] {
        assert_prepared_identical(&streamed, &materialised, query);
        assert_answers_identical(&streamed, &materialised, query);
    }

    let ds = generate_mimic(&MimicConfig {
        patients: 800,
        caregivers: 40,
        drugs: 20,
        ..MimicConfig::small(99)
    });
    let rules = format!("{}    Sex[P] <= Dose[D, P] WHERE Given(D, P)\n", ds.rules);
    let (streamed, materialised) = engine_pair(&ds.instance, &rules);
    for query in ["Dose[D, P] <= SelfPay[P]?", "Death[P] <= Sex[P]?"] {
        assert_prepared_identical(&streamed, &materialised, query);
        assert_answers_identical(&streamed, &materialised, query);
    }
}

/// Regression: sources of the query-synthesised aggregate that are
/// themselves base-model *aggregate* heads must resolve to base-graph
/// nodes. The extension's read-only node lookup used to miss them
/// (aggregate heads were added to the graph without entering the node
/// memo), silently emptying the peer map — unit tables looked right while
/// AIE/ARE/AOE lost all interference.
#[test]
fn extension_sources_that_are_base_aggregate_heads_keep_peer_reachability() {
    const RULES: &str = r#"
        Score[S] <= Blind[C] WHERE Submitted(S, C)
        AVG_Score[A] <= Score[S] WHERE Author(A, S)
    "#;
    let instance = Instance::review_example();
    let (streamed, materialised) = engine_pair(&instance, RULES);
    let query = "AVG_Score[A] <= Blind[C]?";
    let m = materialised
        .prepare_str(query)
        .expect("materialised prepare");
    assert!(
        m.peers.values().any(|p| !p.is_empty()),
        "the scenario must induce interference for the regression to bite"
    );
    assert_prepared_identical(&streamed, &materialised, query);
    assert_answers_identical(&streamed, &materialised, query);
}

/// Streamed results are bit-identical at any worker-thread count and any
/// morsel size (the acceptance bar: `RAYON_NUM_THREADS` ∈ {1, 2, 4, 8} ×
/// morsel ∈ {1, 7, 1024, huge}), both for the full streamed grounding and
/// for the end-to-end prepared unit table. Each unit-table cell prepares on
/// a fresh engine, so the shared base grounding and the query's extension
/// both run under that cell's knobs. Knobs are varied via
/// `rayon::set_num_threads` / `rayon::set_morsel_size` (the env vars are
/// read once per process and mutating them would race concurrent tests).
#[test]
fn streamed_pipeline_is_bit_identical_across_thread_counts() {
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: 400,
        institutions: 20,
        papers: 2_000,
        venues: 10,
        ..SyntheticReviewConfig::small(7)
    });
    let query = "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false";
    let query = carl::carl_lang::parse_query(query).expect("query parses");

    let table_bits = |threads: usize, morsel: usize| {
        rayon::set_num_threads(threads);
        rayon::set_morsel_size(morsel);
        let engine = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("model binds");
        let prepared = engine.prepare(&query).expect("prepares");
        rayon::set_num_threads(0);
        rayon::set_morsel_size(0);
        let ut = &prepared.unit_table;
        let mut bits: Vec<(String, Vec<u64>)> = Vec::new();
        for name in ut.column_names() {
            let col = ut.column(name).expect("column");
            bits.push((name.to_string(), col.iter().map(|v| v.to_bits()).collect()));
        }
        (ut.units.clone(), bits)
    };
    let baseline = table_bits(1, rayon::DEFAULT_MORSEL_SIZE);
    // Sampled off-diagonal of the {1,2,4,8} × {1,7,1024,huge} matrix; the
    // full cross product runs on the cheaper grounding-only harness in
    // `parallel_grounding.rs`.
    for (threads, morsel) in [(2, 7), (4, 1), (8, 1024), (4, usize::MAX / 4)] {
        let cell = table_bits(threads, morsel);
        assert_eq!(
            baseline.0, cell.0,
            "unit keys depend on the knobs (threads {threads}, morsel {morsel})"
        );
        assert_eq!(
            baseline.1, cell.1,
            "unit table bits depend on the knobs (threads {threads}, morsel {morsel})"
        );
    }

    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("model binds");
    let ground_shape = |threads: usize, morsel: usize| {
        rayon::set_num_threads(threads);
        rayon::set_morsel_size(morsel);
        let grounded = engine.ground_model_streamed().expect("grounds");
        rayon::set_num_threads(0);
        rayon::set_morsel_size(0);
        let nodes: Vec<String> = (0..grounded.graph.node_count())
            .map(|id| grounded.graph.node(id).to_string())
            .collect();
        let mut edges = Vec::new();
        for child in 0..grounded.graph.node_count() {
            for &parent in grounded.graph.parents_of(child) {
                edges.push((parent, child));
            }
        }
        (nodes, edges)
    };
    let shape = ground_shape(1, rayon::DEFAULT_MORSEL_SIZE);
    for (threads, morsel) in [(4, 1), (8, 7), (2, usize::MAX / 4)] {
        assert_eq!(
            shape,
            ground_shape(threads, morsel),
            "streamed grounding depends on the knobs (threads {threads}, morsel {morsel})"
        );
    }
}
