//! Edge cases of the dense post-grounding layers against the key-addressed
//! reference.
//!
//! Peers ([`carl::peers`]), covariates ([`carl::adjust`]) and the unit
//! table ([`carl::unit_table`]) address units by row index. The reference
//! in [`carl::rowwise`] computes the same three layers with maps keyed by
//! unit and shares none of that indexing. Each test here builds a small
//! instance around one corner of the layers' semantics — units without a
//! treatment node or an outcome, peers without an observed treatment,
//! parents that must not become covariates, rows not in key order, every
//! embedding, a population restriction — and asserts both paths agree
//! exactly: peer lists in order, covariate values, and every unit-table
//! column bit for bit. The last tests pin that inputs built over a
//! different unit list are rejected with a typed error.

use carl::adjust::{covariates, AdjustmentPlan};
use carl::peers::{compute_peers, compute_peers_streamed, PeerMap};
use carl::rowwise::{
    build_row_unit_table, compute_peers_rowwise, covariates_rowwise, RowAdjustmentPlan, RowPeerMap,
    RowUnitTableSpec,
};
use carl::unit_table::{build_unit_table, UnitTableSpec};
use carl::{
    ground, ground_aggregate_extension, ground_streaming, CarlEngine, CarlError, EmbeddingKind,
    GroundedModel, GroundedValues, RelationalCausalModel,
};
use carl_lang::{parse_program, parse_query};
use reldb::{IndexCache, Instance, RelationalSchema, UnitKey, Value};
use std::collections::HashSet;

const REVIEW_RULES: &str = r#"
    Prestige[A]  <= Qualification[A]              WHERE Person(A)
    Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
    Score[S]     <= Prestige[A]                   WHERE Author(A, S)
    Score[S]     <= Quality[S]                    WHERE Submission(S)
    AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
"#;

const EMBEDDINGS: [EmbeddingKind; 5] = [
    EmbeddingKind::Mean,
    EmbeddingKind::Median,
    EmbeddingKind::Moments(3),
    EmbeddingKind::Padding(3),
    EmbeddingKind::Padding(1),
];

fn key(k: &str) -> UnitKey {
    vec![Value::from(k)]
}

/// The paper's review instance plus three persons that exercise the edge
/// cases: Dan has no submission (so no `AVG_Score` outcome), Fay
/// co-authors `s2` with Eva but has no `Prestige` assignment, and Hal
/// co-authors `s1` with no `Qualification` (so his treatment has no
/// covariate value).
fn review_with_edge_units() -> Instance {
    let mut inst = Instance::review_example();
    add_persons(
        &mut inst,
        &[
            ("Dan", Some(Value::Int(1)), Some(7.0), None),
            ("Fay", None, Some(11.0), Some("s2")),
            ("Hal", Some(Value::Int(0)), None, Some("s1")),
        ],
    );
    inst
}

/// A person: key, `Prestige`, `Qualification`, co-authored submission.
type Person<'a> = (&'a str, Option<Value>, Option<f64>, Option<&'a str>);

fn add_persons(inst: &mut Instance, persons: &[Person<'_>]) {
    for (person, prestige, qual, submission) in persons {
        inst.add_entity("Person", Value::from(*person)).unwrap();
        if let Some(p) = prestige {
            inst.set_attribute("Prestige", &key(person), p.clone())
                .unwrap();
        }
        if let Some(q) = qual {
            inst.set_attribute("Qualification", &key(person), Value::Float(*q))
                .unwrap();
        }
        if let Some(s) = submission {
            inst.add_relationship("Author", vec![Value::from(*person), Value::from(*s)])
                .unwrap();
        }
    }
}

fn model_for(instance: &Instance, rules: &str) -> RelationalCausalModel {
    RelationalCausalModel::new(instance.schema().clone(), parse_program(rules).unwrap()).unwrap()
}

/// Assert the dense peer map lists, row by row, exactly the reference's
/// peers in the reference's order.
#[track_caller]
fn assert_peers_match(units: &[UnitKey], dense: &PeerMap, reference: &RowPeerMap) {
    assert_eq!(dense.units(), units);
    for (row, unit) in units.iter().enumerate() {
        let got: Vec<&UnitKey> = dense.peer_keys(row).collect();
        let want: Vec<&UnitKey> = reference[unit].iter().collect();
        assert_eq!(got, want, "peers of {unit:?}");
    }
}

/// Assert the dense plan selects the reference's covariate attributes and
/// values for every unit, own and peer.
#[track_caller]
fn assert_plans_match(
    units: &[UnitKey],
    peers: &PeerMap,
    dense: &AdjustmentPlan,
    reference: &RowAdjustmentPlan,
) {
    assert_eq!(dense.own_attributes(), reference.own_attributes);
    assert_eq!(dense.peer_attributes(), reference.peer_attributes);
    for (row, unit) in units.iter().enumerate() {
        let cov = &reference.per_unit[unit];
        for attr in &reference.own_attributes {
            let want = cov.own.get(attr).cloned().unwrap_or_default();
            assert_eq!(dense.own_values(row, attr), want, "own {attr} of {unit:?}");
        }
        for attr in &reference.peer_attributes {
            let want = cov.peer.get(attr).cloned().unwrap_or_default();
            assert_eq!(
                dense.peer_values(peers, row, attr),
                want,
                "peer {attr} of {unit:?}"
            );
        }
    }
}

/// Run peers, covariates and the unit table through the dense layers (over
/// `dense_grounding`) and the reference (over the materialised grounding)
/// and assert identical results, including an identical error.
#[allow(clippy::too_many_arguments)]
fn assert_layers_match<G: GroundedValues>(
    model: &RelationalCausalModel,
    dense_grounding: &G,
    grounded: &GroundedModel,
    instance: &Instance,
    (treatment, response): (&str, &str),
    units: &[UnitKey],
    embedding: EmbeddingKind,
    allowed: Option<&HashSet<UnitKey>>,
) {
    let peers = compute_peers(dense_grounding, treatment, response, units);
    let ref_peers = compute_peers_rowwise(grounded, treatment, response, units);
    assert_peers_match(units, &peers, &ref_peers);

    let plan = covariates(model, dense_grounding, instance, treatment, units, &peers);
    let ref_plan = covariates_rowwise(model, grounded, instance, treatment, units, &ref_peers);
    assert_plans_match(units, &peers, &plan, &ref_plan);

    let table = build_unit_table(&UnitTableSpec {
        grounded: dense_grounding,
        instance,
        treatment_attr: treatment,
        response_attr: response,
        units,
        peers: &peers,
        adjustment: &plan,
        embedding,
        allowed_units: allowed,
    });
    let ref_table = build_row_unit_table(&RowUnitTableSpec {
        grounded,
        instance,
        treatment_attr: treatment,
        response_attr: response,
        units,
        peers: &ref_peers,
        adjustment: &ref_plan,
        embedding,
        allowed_units: allowed,
    });
    let (table, ref_table) = match (table, ref_table) {
        (Ok(t), Ok(r)) => (t, r),
        (Err(t), Err(r)) => {
            assert_eq!(t.to_string(), r.to_string(), "{embedding:?}: errors");
            return;
        }
        (t, r) => panic!(
            "{embedding:?}: disposition diverged (dense ok: {}, reference ok: {})",
            t.is_ok(),
            r.is_ok()
        ),
    };
    assert_eq!(table.units, ref_table.units, "{embedding:?}: units");
    assert_eq!(table.peer_counts, ref_table.peer_counts, "{embedding:?}");
    assert_eq!(table.peer_treatment_cols, ref_table.peer_treatment_cols);
    assert_eq!(table.covariate_cols, ref_table.covariate_cols);
    assert_eq!(
        table.column_names(),
        ref_table.table.column_names()[1..],
        "{embedding:?}: columns"
    );
    for name in table.column_names() {
        let dense: Vec<u64> = table
            .column(name)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let reference: Vec<u64> = ref_table
            .table
            .column_f64(name)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(dense, reference, "{embedding:?}: column {name}");
    }
}

/// Every layer, every embedding, over both the materialised and the
/// streamed grounding of `rules`.
fn assert_all_match(
    instance: &Instance,
    rules: &str,
    treatment_response: (&str, &str),
    units: &[UnitKey],
    allowed: Option<&HashSet<UnitKey>>,
) {
    let model = model_for(instance, rules);
    let grounded = ground(&model, instance).unwrap();
    let streamed = ground_streaming(&model, instance, &IndexCache::with_fingerprint(0)).unwrap();
    for embedding in EMBEDDINGS {
        assert_layers_match(
            &model,
            &grounded,
            &grounded,
            instance,
            treatment_response,
            units,
            embedding,
            allowed,
        );
        assert_layers_match(
            &model,
            &streamed,
            &grounded,
            instance,
            treatment_response,
            units,
            embedding,
            allowed,
        );
    }
}

fn person_units(instance: &Instance) -> Vec<UnitKey> {
    instance
        .skeleton()
        .units_of(instance.schema(), "Person")
        .unwrap()
}

#[test]
fn units_without_outcome_or_with_unobserved_peer_treatments_match() {
    // Gus co-authors `s2` with Eva and holds an explicit null `Prestige`.
    let mut instance = review_with_edge_units();
    add_persons(
        &mut instance,
        &[("Gus", Some(Value::Null), Some(13.0), Some("s2"))],
    );
    let mut units = person_units(&instance);
    // A unit the instance does not know: no treatment node, no outcome.
    units.push(key("Zed"));
    // Gus's own row fails (a null treatment is not binary) on both paths.
    assert_all_match(
        &instance,
        REVIEW_RULES,
        ("Prestige", "AVG_Score"),
        &units,
        None,
    );
    let without_gus: HashSet<UnitKey> = units
        .iter()
        .filter(|u| **u != key("Gus"))
        .cloned()
        .collect();
    assert_all_match(
        &instance,
        REVIEW_RULES,
        ("Prestige", "AVG_Score"),
        &units,
        Some(&without_gus),
    );

    // Pin the semantics the reference agrees on: Dan (no submission) has
    // no row, Fay and Gus are peers of Eva but their missing and null
    // treatments are left out of her peer count; Hal has no covariate.
    let model = model_for(&instance, REVIEW_RULES);
    let grounded = ground(&model, &instance).unwrap();
    let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
    let eva = units.iter().position(|u| u == &key("Eva")).unwrap();
    let eva_peers: Vec<String> = peers.peer_keys(eva).map(|k| k[0].to_string()).collect();
    assert_eq!(eva_peers, ["Bob", "Carlos", "Fay", "Gus", "Hal"]);
    let plan = covariates(&model, &grounded, &instance, "Prestige", &units, &peers);
    let hal = units.iter().position(|u| u == &key("Hal")).unwrap();
    assert!(plan.own(hal).is_empty());
    let spec = |allowed| UnitTableSpec {
        grounded: &grounded,
        instance: &instance,
        treatment_attr: "Prestige",
        response_attr: "AVG_Score",
        units: &units,
        peers: &peers,
        adjustment: &plan,
        embedding: EmbeddingKind::Mean,
        allowed_units: allowed,
    };
    assert!(matches!(
        build_unit_table(&spec(None)),
        Err(CarlError::NonBinaryTreatment(_))
    ));
    let table = build_unit_table(&spec(Some(&without_gus))).unwrap();
    assert!(!table.units.contains(&key("Dan")));
    assert!(!table.units.contains(&key("Fay")));
    assert!(!table.units.contains(&key("Zed")));
    let eva_row = table.units.iter().position(|u| u == &key("Eva")).unwrap();
    assert_eq!(table.peer_counts[eva_row], 3, "Bob, Carlos and Hal");
}

#[test]
fn units_without_a_treatment_node_match() {
    // Prestige has no rule of its own here: only authors get a Prestige
    // node (as a parent of their submissions' scores), so Dan has none.
    let rules = r#"
        Score[S]     <= Prestige[A] WHERE Author(A, S)
        AVG_Score[A] <= Score[S]    WHERE Author(A, S)
    "#;
    let instance = review_with_edge_units();
    let model = model_for(&instance, rules);
    let grounded = ground(&model, &instance).unwrap();
    assert!(grounded.node_of("Prestige", &key("Dan")).is_none());
    assert_all_match(
        &instance,
        rules,
        ("Prestige", "AVG_Score"),
        &person_units(&instance),
        None,
    );
}

#[test]
fn unobserved_parents_and_the_treatment_itself_are_not_covariates() {
    // Prestige's parents: the unobserved Quality of the person's
    // submissions and the observed Qualification.
    let rules = r#"
        Quality[S]   <= Qualification[A]             WHERE Author(A, S)
        Prestige[A]  <= Quality[S], Qualification[A] WHERE Author(A, S)
        Score[S]     <= Prestige[A]                  WHERE Author(A, S)
        AVG_Score[A] <= Score[S]                     WHERE Author(A, S)
    "#;
    let instance = review_with_edge_units();
    let units = person_units(&instance);
    assert_all_match(&instance, rules, ("Prestige", "AVG_Score"), &units, None);

    // A rule cannot make an attribute its own parent (the model would be
    // recursive), but the layers take any grounded graph: give Eva's and
    // Carlos's Prestige a mentor's Prestige as a parent.
    let model = model_for(&instance, rules);
    let mut grounded = ground(&model, &instance).unwrap();
    for (mentor, mentee) in [("Bob", "Eva"), ("Eva", "Carlos")] {
        let from = grounded.node_of("Prestige", &key(mentor)).unwrap();
        let to = grounded.node_of("Prestige", &key(mentee)).unwrap();
        grounded.graph.add_edge(from, to);
    }
    for embedding in EMBEDDINGS {
        assert_layers_match(
            &model,
            &grounded,
            &grounded,
            &instance,
            ("Prestige", "AVG_Score"),
            &units,
            embedding,
            None,
        );
    }
    let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
    let plan = covariates(&model, &grounded, &instance, "Prestige", &units, &peers);
    assert_eq!(plan.own_attributes(), ["Qualification"]);
    let eva = units.iter().position(|u| u == &key("Eva")).unwrap();
    assert_eq!(plan.own_values(eva, "Qualification"), [2.0]);
}

#[test]
fn peer_lists_follow_key_order_when_rows_do_not() {
    // Persons a9, a10, a1 co-author one submission: insertion (row) order
    // differs from key order ("a1" < "a10" < "a9").
    let mut instance = Instance::new(RelationalSchema::review_example());
    for (i, person) in ["a9", "a10", "a1"].into_iter().enumerate() {
        instance.add_entity("Person", Value::from(person)).unwrap();
        instance
            .set_attribute("Prestige", &key(person), Value::Bool(i % 2 == 0))
            .unwrap();
        instance
            .set_attribute("Qualification", &key(person), Value::Float(i as f64))
            .unwrap();
    }
    instance.add_entity("Submission", Value::from("s")).unwrap();
    instance
        .set_attribute("Score", &key("s"), Value::Float(0.5))
        .unwrap();
    for person in ["a9", "a10", "a1"] {
        instance
            .add_relationship("Author", vec![Value::from(person), Value::from("s")])
            .unwrap();
    }
    let units = person_units(&instance);
    assert_eq!(units, [key("a9"), key("a10"), key("a1")]);
    assert_all_match(
        &instance,
        REVIEW_RULES,
        ("Prestige", "AVG_Score"),
        &units,
        None,
    );
    let model = model_for(&instance, REVIEW_RULES);
    let grounded = ground(&model, &instance).unwrap();
    let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
    assert_eq!(peers.peers_of(0), [2, 1], "a9's peers: a1 then a10");
    assert_eq!(peers.peers_of(1), [2, 0], "a10's peers: a1 then a9");
}

#[test]
fn an_allowed_unit_set_restricts_rows_identically() {
    let instance = review_with_edge_units();
    let allowed: HashSet<UnitKey> = [key("Eva"), key("Hal"), key("Dan")].into_iter().collect();
    assert_all_match(
        &instance,
        REVIEW_RULES,
        ("Prestige", "AVG_Score"),
        &person_units(&instance),
        Some(&allowed),
    );
}

/// The engine's own paths: every embedding (with `Padding(0)` auto-sized
/// to the widest peer set) and a `WHERE` clause that binds the treatment
/// variable, prepared densely and on the reference path.
#[test]
fn engine_prepare_matches_the_reference_for_every_embedding_and_where_clause() {
    let queries = [
        "AVG_Score[A] <= Prestige[A]?",
        "AVG_Score[A] <= Prestige[A]? WHERE Qualification[A] >= 10",
    ];
    for embedding in EMBEDDINGS.into_iter().chain([EmbeddingKind::Padding(0)]) {
        let mut engine = CarlEngine::new(review_with_edge_units(), REVIEW_RULES).unwrap();
        engine.set_embedding(embedding);
        for text in queries {
            let query = parse_query(text).unwrap();
            let dense = engine.prepare(&query).unwrap();
            let reference = engine.prepare_rowwise(&query).unwrap();
            let (d, r) = (&dense.unit_table, &reference.unit_table);
            assert_eq!(d.units, r.units, "{text} {embedding:?}");
            assert_eq!(d.embedding, r.embedding, "{text} {embedding:?}");
            assert_eq!(d.column_names(), r.table.column_names()[1..]);
            for name in d.column_names() {
                let a = d.column(name).unwrap();
                let b = r.table.column_f64(name).unwrap();
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(&b), "{text} {embedding:?}: {name}");
            }
            for (unit, keys) in dense.peers.iter() {
                let keys: Vec<&UnitKey> = keys.collect();
                assert_eq!(keys, reference.peers[unit].iter().collect::<Vec<_>>());
            }
        }
        if embedding == EmbeddingKind::Padding(0) {
            let dense = engine.prepare_str(queries[0]).unwrap();
            // Eva's four peers: Bob, Carlos, Fay and Hal.
            assert_eq!(dense.unit_table.embedding, EmbeddingKind::Padding(4));
        }
    }
    // The WHERE clause restricts the population: Eva (h-index 2) is out.
    let engine = CarlEngine::new(review_with_edge_units(), REVIEW_RULES).unwrap();
    let restricted = engine.prepare_str(queries[1]).unwrap();
    assert!(!restricted.unit_table.units.contains(&key("Eva")));
    assert!(restricted.unit_table.units.contains(&key("Bob")));
}

/// The streamed peer walk over a query-synthesised aggregate extension
/// against the key-addressed reference walk over the effective program's
/// full grounding, where the aggregate's vertices are materialised.
#[test]
fn streamed_extension_peers_match_the_reference() {
    let instance = review_with_edge_units();
    let model = model_for(&instance, REVIEW_RULES);
    let cache = IndexCache::with_fingerprint(0);
    let base = ground_streaming(&model, &instance, &cache).unwrap();
    for text in [
        "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = false",
        "Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = true",
    ] {
        let query = parse_query(text).unwrap();
        let plan = carl::paths::unify(&model, &query).unwrap();
        let rule = plan.synthesized.expect("a synthesised aggregate");
        let mut program = model.program().clone();
        program.aggregates.push(rule.clone());
        let effective = RelationalCausalModel::new(instance.schema().clone(), program).unwrap();
        let ext = ground_aggregate_extension(&base, &effective, &rule, &instance, &cache).unwrap();
        let mut units = person_units(&instance);
        units.reverse();
        let dense = compute_peers_streamed(&base, &ext, "Prestige", &units, &instance);
        let grounded = ground(&effective, &instance).unwrap();
        let reference = compute_peers_rowwise(&grounded, "Prestige", &rule.name, &units);
        assert_peers_match(&units, &dense, &reference);
        assert!(dense.values().any(|p| !p.is_empty()), "{text}");
    }
}

/// A peer map or adjustment plan built over another unit list would index
/// the wrong rows: the unit table refuses it with a typed error, also when
/// the other list has the same length.
#[test]
fn inputs_built_over_other_units_are_rejected() {
    let instance = review_with_edge_units();
    let model = model_for(&instance, REVIEW_RULES);
    let grounded = ground(&model, &instance).unwrap();
    let units = person_units(&instance);
    let mut reordered = units.clone();
    reordered.swap(0, 1);
    let shorter = &units[1..];

    let build = |units: &[UnitKey], peers: &PeerMap, plan: &AdjustmentPlan| {
        build_unit_table(&UnitTableSpec {
            grounded: &grounded,
            instance: &instance,
            treatment_attr: "Prestige",
            response_attr: "AVG_Score",
            units,
            peers,
            adjustment: plan,
            embedding: EmbeddingKind::Mean,
            allowed_units: None,
        })
    };
    let peers_over = |units: &[UnitKey]| compute_peers(&grounded, "Prestige", "AVG_Score", units);
    let plan_over = |units: &[UnitKey], peers: &PeerMap| {
        covariates(&model, &grounded, &instance, "Prestige", units, peers)
    };

    let peers = peers_over(&units);
    let plan = plan_over(&units, &peers);
    assert!(build(&units, &peers, &plan).is_ok());
    // A copy of the same list is the same list.
    assert!(build(&units.clone(), &peers, &plan).is_ok());

    for other in [&reordered[..], shorter] {
        let other_peers = peers_over(other);
        let other_plan = plan_over(other, &other_peers);
        let err = build(&units, &other_peers, &plan).unwrap_err();
        assert!(
            matches!(&err, CarlError::UnitListMismatch(what) if what == "peer map"),
            "{err}"
        );
        let err = build(&units, &peers, &other_plan).unwrap_err();
        assert!(
            matches!(&err, CarlError::UnitListMismatch(what) if what == "adjustment plan"),
            "{err}"
        );
        // A plan computed over `units` with a peer map over another list
        // takes no peer covariates, and the table still rejects the pair.
        let mixed = plan_over(&units, &other_peers);
        assert!(mixed.peer_attributes().is_empty());
        assert!(matches!(
            build(&units, &other_peers, &mixed),
            Err(CarlError::UnitListMismatch(_))
        ));
    }
}
