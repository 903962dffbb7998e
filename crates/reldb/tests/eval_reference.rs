//! The query-fuzzing differential suite for `reldb`'s planned evaluator.
//!
//! [`reldb::evaluate_naive`] — nested loops, atoms in source order, full
//! scans, no indexes — defines the semantics of conjunctive-query
//! evaluation. The planned executor (greedy join order, positional and
//! composite hash probes, semi-join pruning, attribute-index fetches) is a
//! pile of pure optimisations, so on every skeleton and every query the two
//! must return the same multiset of bindings, and fail with the same errors.
//!
//! The fuzzer randomises skeletons *and* queries, covering the shapes named
//! in the planner's contract: multi-atom joins, self-joins, repeated
//! variables (within and across atoms), constant terms that sometimes miss
//! the key space, cross products (atoms sharing no variables), and
//! empty-result queries. A second property drives the filtered entry point
//! (`evaluate_filtered`) against naive evaluation plus post-hoc filtering,
//! and a third reuses one `IndexCache` across many queries to catch cache
//! corruption.
//!
//! Every case exercises the planned executor against the reference through
//! both of its interfaces: the `Vec<Bindings>` boundary (`evaluate` /
//! `evaluate_filtered`) and the raw [`reldb::TupleAnswers`] interface
//! (`evaluate_tuples*`, converted explicitly).
//!
//! Case counts are deliberately modest for local runs; CI's release-test
//! job raises them via the `PROPTEST_CASES` environment variable.

use proptest::prelude::*;
use reldb::{
    evaluate, evaluate_filtered, evaluate_in, evaluate_naive, evaluate_tuples,
    evaluate_tuples_filtered, plan_query, plan_query_filtered, Atom, Bindings, ConjunctiveQuery,
    DomainType, EqFilter, IndexCache, Instance, RelationalSchema, Skeleton, Term, Value,
};

/// Run the static plan verifier *unconditionally* (not just as a debug
/// assertion) on the plan the planner would emit for `query`: the fuzzer
/// must never see a structurally unsound plan, whatever the optimisation
/// level.
fn assert_verified(schema: &RelationalSchema, skeleton: &Skeleton, query: &ConjunctiveQuery) {
    if let Ok(plan) = plan_query(schema, skeleton, query) {
        reldb::plan::verify(schema, &plan).unwrap_or_else(|e| panic!("{e}\n{plan}"));
    }
}

/// Filtered-planning variant of [`assert_verified`].
fn assert_verified_filtered(
    instance: &Instance,
    cache: &IndexCache,
    query: &ConjunctiveQuery,
    filters: &[EqFilter],
) {
    if let Ok(plan) = plan_query_filtered(instance.schema(), instance, cache, query, filters) {
        reldb::plan::verify(instance.schema(), &plan).unwrap_or_else(|e| panic!("{e}\n{plan}"));
    }
}

/// Canonicalise a binding set for multiset comparison.
fn canonical(bindings: Vec<Bindings>) -> Vec<Vec<(String, String)>> {
    let mut rows: Vec<Vec<(String, String)>> = bindings
        .into_iter()
        .map(|b| {
            let mut row: Vec<(String, String)> =
                b.into_iter().map(|(k, v)| (k, v.key_repr())).collect();
            row.sort();
            row
        })
        .collect();
    rows.sort();
    rows
}

/// The randomised schema: two entity classes, a binary and a ternary
/// relationship — enough shape diversity for join-order bugs to surface.
fn schema() -> RelationalSchema {
    let mut s = RelationalSchema::new();
    s.add_entity("Person").unwrap();
    s.add_entity("Paper").unwrap();
    s.add_relationship("Writes", &["Person", "Paper"]).unwrap();
    s.add_relationship("Reviews", &["Person", "Paper", "Person"])
        .unwrap();
    s
}

fn skeleton_from(
    people: usize,
    papers: usize,
    writes: &[(usize, usize)],
    reviews: &[(usize, usize, usize)],
) -> Skeleton {
    let mut sk = Skeleton::new();
    for i in 0..people {
        sk.add_entity("Person", Value::from(format!("p{i}")));
    }
    for i in 0..papers {
        sk.add_entity("Paper", Value::from(format!("d{i}")));
    }
    for &(a, d) in writes {
        sk.add_relationship(
            "Writes",
            vec![Value::from(format!("p{a}")), Value::from(format!("d{d}"))],
        );
    }
    for &(a, d, b) in reviews {
        sk.add_relationship(
            "Reviews",
            vec![
                Value::from(format!("p{a}")),
                Value::from(format!("d{d}")),
                Value::from(format!("p{b}")),
            ],
        );
    }
    sk
}

/// Build one random atom. `shape` picks the predicate, `vars` the variable
/// names per position (variables are drawn from a tiny pool so repeats —
/// equality joins, self-joins and cross products — are all common), `konst`
/// optionally turns a position into a constant. Constants reference a key
/// space slightly larger than the skeleton's (`k % 6` against 4 stored
/// keys) so they sometimes hit and sometimes miss, producing empty results.
fn atom_from(shape: u8, vars: &[u8], konst: Option<(u8, u8)>) -> Atom {
    const POOL: [&str; 4] = ["A", "B", "C", "D"];
    let term = |pos: usize| -> Term {
        if let Some((p, k)) = konst {
            if usize::from(p) == pos {
                return if shape.is_multiple_of(2) {
                    Term::constant(format!("p{}", k % 6))
                } else {
                    Term::constant(format!("d{}", k % 6))
                };
            }
        }
        Term::var(POOL[usize::from(vars[pos % vars.len()]) % POOL.len()])
    };
    match shape % 4 {
        0 => Atom::new("Person", vec![term(0)]),
        1 => Atom::new("Paper", vec![term(0)]),
        2 => Atom::new("Writes", vec![term(0), term(1)]),
        _ => Atom::new("Reviews", vec![term(0), term(1), term(2)]),
    }
}

type AtomShape = (u8, Vec<u8>, Option<(u8, u8)>);

fn query_from(shapes: &[AtomShape]) -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        shapes
            .iter()
            .map(|(shape, vars, konst)| atom_from(*shape, vars, *konst))
            .collect(),
    )
}

fn arb_shapes(max_atoms: usize) -> impl Strategy<Value = Vec<AtomShape>> {
    proptest::collection::vec(
        (
            0u8..4,
            proptest::collection::vec(0u8..4, 3..4),
            proptest::option::of((0u8..3, 0u8..6)),
        ),
        1..max_atoms,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed, reordered, semi-join-pruned evaluation returns exactly the
    /// reference binding multiset on random skeletons and random
    /// multi-atom queries.
    #[test]
    fn indexed_evaluation_matches_nested_loop_reference(
        writes in proptest::collection::vec((0usize..4, 0usize..4), 0..10),
        reviews in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..8),
        shapes in arb_shapes(5),
    ) {
        let schema = schema();
        let skeleton = skeleton_from(4, 4, &writes, &reviews);
        let query = query_from(&shapes);
        assert_verified(&schema, &skeleton, &query);
        let fast = evaluate(&schema, &skeleton, &query).unwrap();
        let slow = canonical(evaluate_naive(&schema, &skeleton, &query).unwrap());
        prop_assert_eq!(
            canonical(fast),
            slow.clone(),
            "query {} over {} writes / {} reviews",
            query,
            writes.len(),
            reviews.len()
        );
        // The raw tuple interface (converted at the boundary) agrees too.
        let cache = IndexCache::for_skeleton(&skeleton);
        let tuples = evaluate_tuples(&cache, &schema, &skeleton, &query).unwrap();
        prop_assert_eq!(canonical(tuples.to_bindings()), slow, "tuples {}", query);
    }

    /// Single-atom queries with constants agree too (exercises the indexed
    /// probe path — including constants missing the key space entirely —
    /// against the full scan).
    #[test]
    fn constant_probes_match_full_scans(
        writes in proptest::collection::vec((0usize..4, 0usize..4), 0..12),
        person in 0usize..6,
        position in 0usize..2,
    ) {
        let schema = schema();
        let skeleton = skeleton_from(4, 4, &writes, &[]);
        let terms = if position == 0 {
            vec![Term::constant(format!("p{person}")), Term::var("X")]
        } else {
            vec![Term::var("X"), Term::constant(format!("d{person}"))]
        };
        let query = ConjunctiveQuery::new(vec![Atom::new("Writes", terms)]);
        assert_verified(&schema, &skeleton, &query);
        let fast = evaluate(&schema, &skeleton, &query).unwrap();
        let slow = canonical(evaluate_naive(&schema, &skeleton, &query).unwrap());
        prop_assert_eq!(canonical(fast), slow.clone());
        let cache = IndexCache::for_skeleton(&skeleton);
        let tuples = evaluate_tuples(&cache, &schema, &skeleton, &query).unwrap();
        prop_assert_eq!(canonical(tuples.to_bindings()), slow);
    }

    /// One `IndexCache` reused across a whole batch of queries over the
    /// same skeleton gives the same answers as fresh per-query evaluation
    /// (catches index-cache corruption and cross-query contamination).
    #[test]
    fn shared_cache_reuse_matches_fresh_evaluation(
        writes in proptest::collection::vec((0usize..4, 0usize..4), 0..10),
        reviews in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..6),
        batch in proptest::collection::vec(arb_shapes(4), 1..4),
    ) {
        let schema = schema();
        let skeleton = skeleton_from(4, 4, &writes, &reviews);
        let cache = IndexCache::for_skeleton(&skeleton);
        for shapes in &batch {
            let query = query_from(shapes);
            assert_verified(&schema, &skeleton, &query);
            let shared = evaluate_in(&cache, &schema, &skeleton, &query).unwrap();
            let fresh = canonical(evaluate(&schema, &skeleton, &query).unwrap());
            prop_assert_eq!(canonical(shared), fresh.clone(), "query {}", query);
            // The raw tuple interface through the same shared cache.
            let tuples = evaluate_tuples(&cache, &schema, &skeleton, &query).unwrap();
            prop_assert_eq!(canonical(tuples.to_bindings()), fresh, "tuples {}", query);
        }
    }

    /// `evaluate_filtered` (equality filters pushed into the plan, possibly
    /// replacing scans with attribute-index fetches) agrees with naive
    /// evaluation followed by post-hoc filtering.
    #[test]
    fn filtered_evaluation_matches_post_hoc_filtering(
        writes in proptest::collection::vec((0usize..4, 0usize..4), 0..10),
        flags in proptest::collection::vec(proptest::option::of(any::<bool>()), 4..5),
        shapes in arb_shapes(4),
        filter_var in 0usize..4,
        filter_value in any::<bool>(),
    ) {
        const POOL: [&str; 4] = ["A", "B", "C", "D"];
        let mut schema = schema();
        schema.add_attribute("Flag", "Person", DomainType::Bool, true).unwrap();
        let mut instance = Instance::new(schema);
        for i in 0..4 {
            instance.add_entity("Person", Value::from(format!("p{i}"))).unwrap();
            instance.add_entity("Paper", Value::from(format!("d{i}"))).unwrap();
        }
        // Some people have no Flag assignment at all (missing values must
        // never satisfy a filter).
        for (i, flag) in flags.iter().enumerate() {
            if let Some(flag) = flag {
                instance
                    .set_attribute("Flag", &[Value::from(format!("p{i}"))], Value::Bool(*flag))
                    .unwrap();
            }
        }
        for &(a, d) in &writes {
            instance
                .add_relationship(
                    "Writes",
                    vec![Value::from(format!("p{a}")), Value::from(format!("d{d}"))],
                )
                .unwrap();
        }
        let query = query_from(&shapes);
        let filters = vec![EqFilter {
            attr: "Flag".to_string(),
            args: vec![Term::var(POOL[filter_var])],
            value: Value::Bool(filter_value),
        }];

        let cache = IndexCache::for_instance(&instance);
        assert_verified_filtered(&instance, &cache, &query, &filters);
        let fast =
            evaluate_filtered(&cache, instance.schema(), &instance, &query, &filters).unwrap();
        let reference: Vec<Bindings> =
            evaluate_naive(instance.schema(), instance.skeleton(), &query)
                .unwrap()
                .into_iter()
                .filter(|b| match b.get(POOL[filter_var]) {
                    Some(v) => {
                        instance.attribute("Flag", std::slice::from_ref(v))
                            == Some(&Value::Bool(filter_value))
                    }
                    // Unbound filter variables never satisfy the filter.
                    None => false,
                })
                .collect();
        let reference = canonical(reference);
        prop_assert_eq!(canonical(fast), reference.clone(), "query {}", query);
        let tuples =
            evaluate_tuples_filtered(&cache, instance.schema(), &instance, &query, &filters)
                .unwrap();
        prop_assert_eq!(canonical(tuples.to_bindings()), reference, "tuples {}", query);
    }

    /// Cyclic join shapes — triangles and longer `Reviews` chains that
    /// close back on their first variable (`Reviews(X0,·,X1),
    /// Reviews(X1,·,X2), …, Reviews(Xn-1,·,X0)`) — match the reference.
    /// Cycles stress the planner differently from the chains `arb_shapes`
    /// mostly produces: every atom shares variables with two others, so
    /// greedy ordering always leaves a closing atom whose both endpoint
    /// variables are already bound.
    #[test]
    fn cyclic_join_chains_match_the_reference(
        writes in proptest::collection::vec((0usize..4, 0usize..4), 0..8),
        reviews in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..12),
        hops in 2usize..5,
        share_paper in any::<bool>(),
    ) {
        const POOL: [&str; 4] = ["A", "B", "C", "D"];
        let schema = schema();
        let skeleton = skeleton_from(4, 4, &writes, &reviews);
        let atoms: Vec<Atom> = (0..hops)
            .map(|i| {
                let from = POOL[i];
                let to = POOL[(i + 1) % hops];
                // One shared paper variable makes the cycle "about" a single
                // paper (triangle reviews of one submission); distinct paper
                // variables leave the cycle only through the person column.
                let paper = if share_paper {
                    "P".to_string()
                } else {
                    format!("P{i}")
                };
                Atom::new(
                    "Reviews",
                    vec![Term::var(from), Term::var(&paper), Term::var(to)],
                )
            })
            .collect();
        let query = ConjunctiveQuery::new(atoms);
        assert_verified(&schema, &skeleton, &query);
        let slow = canonical(evaluate_naive(&schema, &skeleton, &query).unwrap());
        let fast = evaluate(&schema, &skeleton, &query).unwrap();
        prop_assert_eq!(canonical(fast), slow.clone(), "query {}", query);
        let cache = IndexCache::for_skeleton(&skeleton);
        let tuples = evaluate_tuples(&cache, &schema, &skeleton, &query).unwrap();
        prop_assert_eq!(canonical(tuples.to_bindings()), slow, "tuples {}", query);
    }

    /// Both evaluators reject exactly the same malformed queries.
    #[test]
    fn error_behaviour_matches(
        predicate in prop_oneof![
            Just("Person"), Just("Writes"), Just("Reviews"), Just("Nope")
        ],
        arity in 0usize..4,
    ) {
        let schema = schema();
        let skeleton = skeleton_from(2, 2, &[(0, 1)], &[]);
        let terms: Vec<Term> = (0..arity).map(|i| Term::var(&format!("V{i}"))).collect();
        let query = ConjunctiveQuery::new(vec![Atom::new(predicate, terms)]);
        assert_verified(&schema, &skeleton, &query);
        let fast = evaluate(&schema, &skeleton, &query);
        let slow = evaluate_naive(&schema, &skeleton, &query);
        prop_assert_eq!(fast.is_ok(), slow.is_ok(), "query {}", query);
        if let (Err(a), Err(b)) = (fast, slow) {
            prop_assert_eq!(a.to_string(), b.to_string());
        }
    }
}

/// A deterministic adversarial case: the selectivity heuristic strongly
/// wants to reorder (one empty entity atom, one fat relationship atom), and
/// a repeated variable forces an equality join across atoms.
#[test]
fn reordering_with_repeated_variables_is_sound() {
    let schema = schema();
    let writes: Vec<(usize, usize)> = (0..4).flat_map(|a| (0..4).map(move |d| (a, d))).collect();
    let reviews = vec![(0, 1, 2), (1, 1, 1), (2, 3, 0)];
    let skeleton = skeleton_from(4, 4, &writes, &reviews);
    // Reviews(A, P, A): reviewer equals the reviewed author.
    let query = ConjunctiveQuery::new(vec![
        Atom::new("Writes", vec![Term::var("A"), Term::var("P")]),
        Atom::new(
            "Reviews",
            vec![Term::var("A"), Term::var("P"), Term::var("A")],
        ),
    ]);
    let fast = evaluate(&schema, &skeleton, &query).unwrap();
    let slow = evaluate_naive(&schema, &skeleton, &query).unwrap();
    assert_eq!(canonical(fast), canonical(slow));
    // And the self-review case really matches only (1, 1, 1).
    assert_eq!(evaluate_naive(&schema, &skeleton, &query).unwrap().len(), 1);
}

/// Deterministic cross-product case: atoms sharing no variables multiply,
/// and the multiset (not set) semantics must be preserved by the planner.
#[test]
fn cross_products_preserve_multiplicity() {
    let schema = schema();
    let skeleton = skeleton_from(3, 2, &[(0, 0), (1, 1)], &[]);
    let query = ConjunctiveQuery::new(vec![
        Atom::new("Person", vec![Term::var("A")]),
        Atom::new("Writes", vec![Term::var("B"), Term::var("P")]),
    ]);
    let fast = evaluate(&schema, &skeleton, &query).unwrap();
    let slow = evaluate_naive(&schema, &skeleton, &query).unwrap();
    assert_eq!(fast.len(), 6);
    assert_eq!(canonical(fast), canonical(slow));
}
