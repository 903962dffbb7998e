//! The skeleton store against a naive model.
//!
//! [`Skeleton`] keeps each entity key and relationship tuple once, as
//! interned symbols, and answers membership and duplicate detection from
//! its rows and positional indexes. The model here is the obvious
//! alternative: per predicate, a `Vec` of `Value` rows deduplicated by
//! `Value` equality, each value replaced by the first value equal to it
//! that was ever added (the interner's representative).
//!
//! Random sequences of entity adds, relationship adds and removes, and
//! batched removes (`remove_relationships`, absent and repeated tuples
//! included) — duplicates, zero-arity and mixed-arity tuples, and the
//! `Value`-equal keys `Int(2)` and `Float(2.0)` included — are applied to
//! both. After every operation the two must agree on what each remove
//! reported, counts, stored order (variant for variant),
//! `has_relationship`, `rows_with` at every position, `units_of`, and the
//! fingerprint, which must equal that of a skeleton rebuilt from the
//! model's rows.

use proptest::prelude::*;
use reldb::{RelationalSchema, Skeleton, UnitKey, Value};
use std::collections::BTreeMap;

const CLASSES: [&str; 2] = ["Person", "Paper"];
const RELS: [&str; 2] = ["Writes", "Cites"];
/// Tuples are drawn up to this width, beyond every declared arity.
const MAX_WIDTH: usize = 3;

fn pool() -> Vec<Value> {
    vec![
        Value::from("a"),
        Value::from("b"),
        Value::from("c"),
        Value::Int(2),
        Value::Float(2.0),
        Value::Int(3),
        Value::Null,
    ]
}

fn value() -> impl Strategy<Value = Value> {
    (0..pool().len()).prop_map(|i| pool()[i].clone())
}

fn tuple() -> impl Strategy<Value = UnitKey> {
    proptest::collection::vec(value(), 0..MAX_WIDTH + 1)
}

#[derive(Debug, Clone)]
enum Op {
    AddEntity(&'static str, Value),
    AddRelationship(&'static str, UnitKey),
    RemoveRelationship(&'static str, UnitKey),
    RemoveBatch(&'static str, Vec<UnitKey>),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..CLASSES.len(), value()).prop_map(|(c, key)| Op::AddEntity(CLASSES[c], key)),
        3 => (0..RELS.len(), tuple()).prop_map(|(r, t)| Op::AddRelationship(RELS[r], t)),
        2 => (0..RELS.len(), tuple()).prop_map(|(r, t)| Op::RemoveRelationship(RELS[r], t)),
        1 => (0..RELS.len(), proptest::collection::vec(tuple(), 0..6))
            .prop_map(|(r, ts)| Op::RemoveBatch(RELS[r], ts)),
    ]
}

/// Per predicate, `Value` rows deduplicated by `Value` equality.
#[derive(Debug, Default)]
struct Model {
    /// The first value added of each `Value`-equality class.
    representatives: Vec<Value>,
    entities: BTreeMap<String, Vec<Value>>,
    relationships: BTreeMap<String, Vec<UnitKey>>,
}

impl Model {
    fn representative(&mut self, value: &Value) -> Value {
        if let Some(rep) = self.representatives.iter().find(|r| *r == value) {
            return rep.clone();
        }
        self.representatives.push(value.clone());
        value.clone()
    }

    /// Apply `op`, returning what each of its removes reported.
    fn apply(&mut self, op: &Op) -> Vec<bool> {
        match op {
            Op::AddEntity(class, key) => {
                let key = self.representative(key);
                let keys = self.entities.entry(class.to_string()).or_default();
                if !keys.contains(&key) {
                    keys.push(key);
                }
                vec![]
            }
            Op::AddRelationship(rel, tuple) => {
                let tuple: UnitKey = tuple.iter().map(|v| self.representative(v)).collect();
                let rows = self.relationships.entry(rel.to_string()).or_default();
                if !rows.contains(&tuple) {
                    rows.push(tuple);
                }
                vec![]
            }
            Op::RemoveRelationship(rel, tuple) => vec![self.remove(rel, tuple)],
            Op::RemoveBatch(rel, tuples) => tuples.iter().map(|t| self.remove(rel, t)).collect(),
        }
    }

    fn remove(&mut self, rel: &str, tuple: &[Value]) -> bool {
        let Some(rows) = self.relationships.get_mut(rel) else {
            return false;
        };
        match rows.iter().position(|r| r == tuple) {
            Some(row) => {
                rows.remove(row);
                true
            }
            None => false,
        }
    }

    /// A fresh skeleton holding the model's rows, added in model order.
    fn rebuilt(&self) -> Skeleton {
        let mut sk = Skeleton::new();
        for (class, keys) in &self.entities {
            for key in keys {
                sk.add_entity(class, key.clone());
            }
        }
        for (rel, rows) in &self.relationships {
            if rows.is_empty() {
                // A relationship emptied by removals still has its record.
                sk.add_relationship(rel, vec![]);
                sk.remove_relationship(rel, &[]);
            }
            for row in rows {
                sk.add_relationship(rel, row.clone());
            }
        }
        sk
    }
}

fn apply(sk: &mut Skeleton, op: &Op) -> Vec<bool> {
    match op {
        Op::AddEntity(class, key) => {
            sk.add_entity(class, key.clone());
            vec![]
        }
        Op::AddRelationship(rel, tuple) => {
            sk.add_relationship(rel, tuple.clone());
            vec![]
        }
        Op::RemoveRelationship(rel, tuple) => vec![sk.remove_relationship(rel, tuple)],
        Op::RemoveBatch(rel, tuples) => {
            let tuples: Vec<&[Value]> = tuples.iter().map(Vec::as_slice).collect();
            sk.remove_relationships(rel, &tuples)
        }
    }
}

/// `Value` equality equates `Int(2)` and `Float(2.0)`; the stored order is
/// compared variant for variant through the `Debug` rendering.
fn strict<T: std::fmt::Debug>(values: &T) -> String {
    format!("{values:?}")
}

fn schema() -> RelationalSchema {
    let mut s = RelationalSchema::new();
    s.add_entity("Person").unwrap();
    s.add_entity("Paper").unwrap();
    s.add_relationship("Writes", &["Person", "Paper"]).unwrap();
    s.add_relationship("Cites", &["Paper", "Paper"]).unwrap();
    s
}

fn check(sk: &Skeleton, model: &Model, schema: &RelationalSchema, probes: &[(&str, UnitKey)]) {
    let empty = Vec::new();
    for class in CLASSES {
        let want = model.entities.get(class).unwrap_or(&empty);
        let got: Vec<&Value> = sk.entity_keys(class).collect();
        assert_eq!(sk.entity_count(class), want.len(), "{class} count");
        assert_eq!(
            strict(&got),
            strict(&want.iter().collect::<Vec<_>>()),
            "{class}"
        );
        let units = sk.units_of(schema, class).unwrap();
        let want_units: Vec<UnitKey> = want.iter().map(|k| vec![k.clone()]).collect();
        assert_eq!(strict(&units), strict(&want_units), "{class} units");
        for key in want {
            assert!(sk.has_entity(class, key), "{class} has {key:?}");
        }
    }
    assert_eq!(
        sk.total_entities(),
        model.entities.values().map(Vec::len).sum::<usize>()
    );

    let empty = Vec::new();
    for rel in RELS {
        let want = model.relationships.get(rel).unwrap_or(&empty);
        let got: Vec<UnitKey> = sk.relationship_tuples(rel).collect();
        assert_eq!(sk.relationship_count(rel), want.len(), "{rel} count");
        assert_eq!(strict(&got), strict(want), "{rel} tuples");
        assert_eq!(
            strict(&sk.units_of(schema, rel).unwrap()),
            strict(want),
            "{rel} units"
        );
        for row in want {
            assert!(sk.has_relationship(rel, row), "{rel} has {row:?}");
        }
        for position in 0..MAX_WIDTH {
            for v in pool() {
                let want_rows: Vec<u32> = (0..want.len() as u32)
                    .filter(|&r| want[r as usize].get(position) == Some(&v))
                    .collect();
                let got_rows = sk
                    .interner()
                    .get(&v)
                    .map_or(&[][..], |sym| sk.rows_with(rel, position, sym));
                assert_eq!(got_rows, want_rows, "{rel} rows with {v:?} at {position}");
            }
        }
    }
    assert_eq!(
        sk.total_relationship_tuples(),
        model.relationships.values().map(Vec::len).sum::<usize>()
    );
    for (rel, tuple) in probes {
        let want = model
            .relationships
            .get(*rel)
            .is_some_and(|rows| rows.contains(tuple));
        assert_eq!(sk.has_relationship(rel, tuple), want, "{rel} has {tuple:?}");
    }
    assert_eq!(
        sk.fingerprint(),
        model.rebuilt().fingerprint(),
        "fingerprint"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skeleton_matches_the_naive_model(
        ops in proptest::collection::vec(op(), 1..48),
        probes in proptest::collection::vec((0..RELS.len(), tuple()), 4..5),
    ) {
        let schema = schema();
        let probes: Vec<(&str, UnitKey)> =
            probes.into_iter().map(|(r, t)| (RELS[r], t)).collect();
        let mut sk = Skeleton::new();
        let mut model = Model::default();
        for op in &ops {
            assert_eq!(apply(&mut sk, op), model.apply(op), "{op:?} reported");
            let mut probes = probes.clone();
            let touched = match op {
                Op::AddRelationship(_, t) | Op::RemoveRelationship(_, t) => vec![t.clone()],
                Op::RemoveBatch(_, ts) => ts.clone(),
                Op::AddEntity(..) => vec![],
            };
            for t in touched {
                for rel in RELS {
                    probes.push((rel, t.clone()));
                }
            }
            check(&sk, &model, &schema, &probes);
        }
    }
}

/// The cases the random sequences must reach, pinned explicitly.
#[test]
fn duplicates_empty_and_mixed_arity_tuples_are_stored_once() {
    let schema = schema();
    let (a, b) = (Value::from("a"), Value::from("b"));
    let ops = [
        Op::AddEntity("Person", Value::Int(2)),
        Op::AddEntity("Person", Value::Float(2.0)),
        Op::AddRelationship("Writes", vec![]),
        Op::AddRelationship("Writes", vec![]),
        Op::AddRelationship("Writes", vec![a.clone(), b.clone()]),
        Op::AddRelationship("Writes", vec![a.clone()]),
        Op::AddRelationship("Writes", vec![a.clone(), b.clone(), a.clone()]),
        Op::AddRelationship("Writes", vec![a.clone(), b.clone()]),
        Op::AddRelationship("Cites", vec![Value::Float(2.0), b.clone()]),
        Op::AddRelationship("Cites", vec![Value::Int(2), b.clone()]),
        Op::RemoveRelationship("Writes", vec![]),
        Op::RemoveRelationship("Writes", vec![a.clone()]),
        Op::RemoveRelationship("Cites", vec![Value::Float(2.0), b.clone()]),
        Op::AddRelationship("Writes", vec![]),
    ];
    let mut sk = Skeleton::new();
    let mut model = Model::default();
    let probes = vec![("Writes", vec![]), ("Writes", vec![a.clone()])];
    for op in &ops {
        assert_eq!(apply(&mut sk, op), model.apply(op), "{op:?} reported");
        check(&sk, &model, &schema, &probes);
    }
    assert_eq!(sk.entity_count("Person"), 1);
    assert_eq!(sk.relationship_count("Writes"), 3);
    assert_eq!(sk.relationship_count("Cites"), 0);
}

/// A batch removes each present tuple once, in one compaction that keeps
/// the remaining rows in stored order; absent and repeated tuples report
/// `false`.
#[test]
fn batched_removes_match_removing_one_at_a_time() {
    let schema = schema();
    let v = |i: i64| Value::Int(i);
    let mut ops: Vec<Op> = (0..8)
        .map(|i| Op::AddRelationship("Writes", vec![v(i), v(i % 3)]))
        .collect();
    ops.push(Op::AddRelationship("Writes", vec![]));
    ops.push(Op::RemoveBatch(
        "Writes",
        vec![
            vec![v(6), v(0)],
            vec![v(1), v(1)],
            vec![v(9), v(0)],
            vec![Value::Float(6.0), v(0)],
            vec![],
            vec![v(7)],
            vec![v(0), v(0)],
        ],
    ));
    ops.push(Op::RemoveBatch("Cites", vec![vec![v(1), v(1)]]));
    ops.push(Op::RemoveBatch("Writes", vec![]));
    let mut sk = Skeleton::new();
    let mut model = Model::default();
    let mut reported = Vec::new();
    for op in &ops {
        let got = apply(&mut sk, op);
        assert_eq!(got, model.apply(op), "{op:?} reported");
        reported.push(got);
        check(&sk, &model, &schema, &[]);
    }
    assert_eq!(
        reported[9],
        [true, true, false, false, true, false, true],
        "the batch's reports"
    );
    assert_eq!(sk.relationship_count("Writes"), 5);
}
