//! The attribute store against an independent oracle.
//!
//! Random mutation batches over the review-example schema (extended with a
//! relationship attribute, `Share[Author]`, so tuple-keyed cells are
//! exercised too) are applied to an [`Instance`] and to a naive model: a
//! `BTreeMap<(attribute, key), value>`. After every batch each read of the
//! store — by key, by row, by symbol, counts, the assignment set and the
//! total — must agree with the model.
//!
//! The fingerprint is checked alongside:
//!
//! * equal content gives an equal fingerprint however it was written: the
//!   model's cells, written in forward or reverse order onto the same
//!   skeleton, reproduce the store's fingerprint;
//! * every effective change changes it, and a batch with an empty delta
//!   leaves it alone.
//!
//! Cells may be written for keys that are not (yet) units of the subject
//! class. They must stay readable by key, like any other cell, and move
//! into the column once the unit is added; the model, which knows nothing
//! of units, pins exactly that.

use proptest::prelude::*;
use reldb::{DomainType, Instance, Mutation, RelationalSchema, UnitKey, Value, ValueKey};
use std::collections::BTreeMap;

type Model = BTreeMap<(String, UnitKey), Value>;

const PEOPLE: [&str; 5] = ["Bob", "Carlos", "Eva", "Dana", "Zed"];
const SUBMISSIONS: [&str; 5] = ["s1", "s2", "s3", "s4", "s9"];
/// Attributes written by the generated batches (and read back).
const ATTRS: [&str; 4] = ["Qualification", "Prestige", "Score", "Share"];

fn schema() -> RelationalSchema {
    let mut schema = RelationalSchema::review_example();
    schema
        .add_attribute("Share", "Author", DomainType::Float, true)
        .expect("fresh attribute");
    schema
}

/// The review example (Figure 2) on the extended schema, with its model.
fn base() -> (Instance, Model) {
    let mut inst = Instance::new(schema());
    let mut model = Model::new();
    let mut set = |inst: &mut Instance, attr: &str, key: UnitKey, value: Value| {
        inst.set_attribute(attr, &key, value.clone())
            .expect("valid cell");
        model.insert((attr.to_string(), key), value);
    };
    for (person, prestige, qual) in [("Bob", 1, 50.0), ("Carlos", 0, 20.0), ("Eva", 1, 2.0)] {
        inst.add_entity("Person", Value::from(person)).unwrap();
        set(
            &mut inst,
            "Prestige",
            vec![Value::from(person)],
            Value::Int(prestige),
        );
        set(
            &mut inst,
            "Qualification",
            vec![Value::from(person)],
            Value::Float(qual),
        );
    }
    for (sub, score) in [("s1", 0.75), ("s2", 0.4), ("s3", 0.1)] {
        inst.add_entity("Submission", Value::from(sub)).unwrap();
        set(
            &mut inst,
            "Score",
            vec![Value::from(sub)],
            Value::Float(score),
        );
    }
    for (conf, blind) in [("ConfDB", false), ("ConfAI", true)] {
        inst.add_entity("Conference", Value::from(conf)).unwrap();
        set(
            &mut inst,
            "Blind",
            vec![Value::from(conf)],
            Value::Bool(blind),
        );
    }
    for (a, s) in [
        ("Bob", "s1"),
        ("Eva", "s1"),
        ("Eva", "s2"),
        ("Eva", "s3"),
        ("Carlos", "s3"),
    ] {
        let tuple = vec![Value::from(a), Value::from(s)];
        inst.add_relationship("Author", tuple.clone()).unwrap();
        set(&mut inst, "Share", tuple, Value::Float(0.5));
    }
    for (s, c) in [("s1", "ConfDB"), ("s2", "ConfAI"), ("s3", "ConfAI")] {
        inst.add_relationship("Submitted", vec![Value::from(s), Value::from(c)])
            .unwrap();
    }
    (inst, model)
}

fn person() -> impl Strategy<Value = Value> {
    (0usize..PEOPLE.len()).prop_map(|i| Value::from(PEOPLE[i]))
}

fn submission() -> impl Strategy<Value = Value> {
    (0usize..SUBMISSIONS.len()).prop_map(|i| Value::from(SUBMISSIONS[i]))
}

/// An authorship between people and submissions that exist from the first
/// batch on, so relationship inserts always validate.
fn author_tuple() -> impl Strategy<Value = UnitKey> {
    ((0usize..4), (0usize..4))
        .prop_map(|(p, s)| vec![Value::from(PEOPLE[p]), Value::from(SUBMISSIONS[s])])
}

/// Any authorship key, including ones whose endpoints never exist.
fn share_key() -> impl Strategy<Value = UnitKey> {
    (person(), submission()).prop_map(|(p, s)| vec![p, s])
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        1 => person().prop_map(|key| Mutation::InsertEntity {
            entity: "Person".into(),
            key,
        }),
        1 => submission().prop_map(|key| Mutation::InsertEntity {
            entity: "Submission".into(),
            key,
        }),
        1 => author_tuple().prop_map(|tuple| Mutation::InsertRelationship {
            rel: "Author".into(),
            tuple,
        }),
        1 => author_tuple().prop_map(|tuple| Mutation::DeleteRelationship {
            rel: "Author".into(),
            tuple,
        }),
        3 => (person(), -3i64..3).prop_map(|(p, q)| Mutation::SetAttribute {
            attr: "Qualification".into(),
            key: vec![p],
            // Small ranges so rewrites of identical bits (no-op deltas)
            // happen; Int and Float of one number are distinct contents.
            value: if q % 2 == 0 { Value::Int(q) } else { Value::Float(q as f64) },
        }),
        1 => (person(), 0i64..2).prop_map(|(p, b)| Mutation::SetAttribute {
            attr: "Prestige".into(),
            key: vec![p],
            value: Value::Int(b),
        }),
        2 => (submission(), 0i64..4).prop_map(|(s, v)| Mutation::SetAttribute {
            attr: "Score".into(),
            key: vec![s],
            value: Value::Float(v as f64 / 4.0),
        }),
        2 => (share_key(), 0i64..3).prop_map(|(key, v)| Mutation::SetAttribute {
            attr: "Share".into(),
            key,
            value: Value::Float(v as f64),
        }),
        1 => person().prop_map(|p| Mutation::ClearAttribute {
            attr: "Qualification".into(),
            key: vec![p],
        }),
        1 => submission().prop_map(|s| Mutation::ClearAttribute {
            attr: "Score".into(),
            key: vec![s],
        }),
        1 => share_key().prop_map(|key| Mutation::ClearAttribute {
            attr: "Share".into(),
            key,
        }),
    ]
}

/// Every batch starts by inserting the entities `author_tuple` draws from,
/// so its relationship inserts validate; `Zed` and `s9` are inserted only by
/// the random mutations, so cells written for them before that wait as
/// cells of non-units.
fn seeded(muts: Vec<Mutation>) -> Vec<Mutation> {
    let mut batch = vec![
        Mutation::InsertEntity {
            entity: "Person".into(),
            key: Value::from("Dana"),
        },
        Mutation::InsertEntity {
            entity: "Submission".into(),
            key: Value::from("s4"),
        },
    ];
    batch.extend(muts);
    batch
}

/// Apply one mutation to the model (the store's semantics, naively).
fn apply_model(model: &mut Model, m: &Mutation) {
    match m {
        Mutation::SetAttribute { attr, key, value } => {
            model.insert((attr.clone(), key.clone()), value.clone());
        }
        Mutation::ClearAttribute { attr, key } => {
            model.remove(&(attr.clone(), key.clone()));
        }
        _ => {}
    }
}

/// Strict (variant- and bit-exact) equality of two optional cells.
fn same(a: Option<&Value>, b: Option<&Value>) -> bool {
    a.map(ValueKey) == b.map(ValueKey)
}

/// Every key the generated batches can address, per written attribute.
fn keys_of(attr: &str) -> Vec<UnitKey> {
    match attr {
        "Qualification" | "Prestige" => PEOPLE.iter().map(|p| vec![Value::from(*p)]).collect(),
        "Score" | "Quality" => SUBMISSIONS.iter().map(|s| vec![Value::from(*s)]).collect(),
        "Blind" => ["ConfDB", "ConfAI", "ConfX"]
            .iter()
            .map(|c| vec![Value::from(*c)])
            .collect(),
        _ => PEOPLE
            .iter()
            .flat_map(|p| {
                SUBMISSIONS
                    .iter()
                    .map(move |s| vec![Value::from(*p), Value::from(*s)])
            })
            .collect(),
    }
}

/// Check every read of `inst` against `model`.
fn check_reads(inst: &Instance, model: &Model) {
    let interner = inst.skeleton().interner();
    for attr in ATTRS.iter().chain(&["Blind", "Quality"]) {
        let expected: Vec<(UnitKey, Value)> = model
            .iter()
            .filter(|((a, _), _)| a == attr)
            .map(|((_, k), v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(
            inst.attribute_count(attr),
            expected.len(),
            "count of {attr}"
        );
        let mut actual: Vec<(UnitKey, Value)> = inst
            .attribute_assignments(attr)
            .map(|(k, v)| (k.into_owned(), v.clone()))
            .collect();
        actual.sort();
        assert_eq!(actual.len(), expected.len(), "assignments of {attr}");
        for ((ka, va), (ke, ve)) in actual.iter().zip(&expected) {
            assert_eq!(ka, ke, "assignment keys of {attr}");
            assert!(same(Some(va), Some(ve)), "{attr}[{ka:?}]: {va:?} vs {ve:?}");
        }

        let reader = inst.attribute_reader(attr);
        for key in keys_of(attr) {
            let want = model.get(&(attr.to_string(), key.clone()));
            let got = inst.attribute(attr, &key);
            assert!(
                same(got, want),
                "{attr}[{key:?}]: {got:?} vs model {want:?}"
            );
            assert_eq!(
                inst.attribute_f64(attr, &key).map(f64::to_bits),
                want.and_then(Value::as_f64).map(f64::to_bits),
                "{attr}[{key:?}] as f64"
            );
            // Symbol-addressed reads agree wherever the key is interned.
            let syms: Option<Vec<_>> = key.iter().map(|v| interner.get(v)).collect();
            if let Some(syms) = syms {
                assert!(
                    same(reader.at_syms(&syms), want),
                    "{attr}[{key:?}] by symbol"
                );
            }
        }
        // Row-addressed reads agree on every row of an entity subject.
        if let Some(class) = inst.schema().attribute(attr).map(|d| d.subject.clone()) {
            for (row, key) in inst.skeleton().entity_keys(&class).enumerate() {
                let want = model.get(&(attr.to_string(), vec![key.clone()]));
                assert!(same(reader.at_row(row), want), "{attr} row {row} (reader)");
            }
        }
    }
    assert_eq!(inst.total_attribute_assignments(), model.len(), "total");
}

/// The model's cells written onto a copy of `inst`'s skeleton in the given
/// order: equal content reached by a different write history.
fn rebuilt(inst: &Instance, model: &Model, reverse: bool) -> Instance {
    let mut out = Instance::new(schema());
    let skeleton = inst.skeleton();
    for class in ["Person", "Submission", "Conference"] {
        for key in skeleton.entity_keys(class) {
            out.add_entity(class, key.clone()).unwrap();
        }
    }
    for rel in ["Author", "Submitted"] {
        for tuple in skeleton.relationship_tuples(rel) {
            out.add_relationship(rel, tuple.clone()).unwrap();
        }
    }
    let mut cells: Vec<_> = model.iter().collect();
    if reverse {
        cells.reverse();
    }
    for ((attr, key), value) in cells {
        out.set_attribute(attr, key, value.clone()).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every read agrees with the naive model after every batch, and the
    /// fingerprint depends on content only.
    #[test]
    fn reads_match_the_model_and_fingerprints_track_content(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 0..12),
            1..6,
        ),
    ) {
        let (mut inst, mut model) = base();
        check_reads(&inst, &model);
        for muts in batches {
            let batch = seeded(muts);
            let before = inst.fingerprint();
            let (next, delta) = inst.apply_with_delta(&batch).expect("batch validates");
            // Copy-on-write: the base epoch is untouched.
            prop_assert_eq!(inst.fingerprint(), before);
            if delta.is_empty() {
                prop_assert_eq!(next.fingerprint(), before);
            }
            for m in &batch {
                apply_model(&mut model, m);
            }
            inst = next;
            check_reads(&inst, &model);
            let fp = inst.fingerprint();
            prop_assert_eq!(rebuilt(&inst, &model, false).fingerprint(), fp);
            prop_assert_eq!(rebuilt(&inst, &model, true).fingerprint(), fp);
        }
    }

    /// Applied one mutation at a time, every effective change moves the
    /// fingerprint and every no-op leaves it where it was.
    #[test]
    fn every_effective_change_changes_the_fingerprint(
        muts in proptest::collection::vec(arb_mutation(), 1..24),
    ) {
        let (mut inst, _) = base();
        for m in seeded(muts) {
            let before = inst.fingerprint();
            let (next, delta) = inst.apply_with_delta(std::slice::from_ref(&m)).expect("validates");
            if delta.is_empty() {
                prop_assert_eq!(next.fingerprint(), before, "no-op {:?}", m);
            } else {
                prop_assert_ne!(next.fingerprint(), before, "effective {:?}", m);
            }
            inst = next;
        }
    }
}

/// A cell written for a key that is not a unit is readable by key, is
/// counted, and moves into the column — readable by row and symbol — once
/// its unit is added.
#[test]
fn cells_of_absent_units_stay_readable_and_join_their_column() {
    let (inst, _) = base();
    let zed = vec![Value::from("Zed")];
    let next = inst
        .apply(&[Mutation::SetAttribute {
            attr: "Qualification".into(),
            key: zed.clone(),
            value: Value::Float(7.0),
        }])
        .expect("a key outside the skeleton is accepted");
    assert_eq!(
        next.attribute("Qualification", &zed),
        Some(&Value::Float(7.0))
    );
    assert_eq!(next.attribute_count("Qualification"), 4);
    assert!(next.skeleton().entity_row("Person", &zed[0]).is_none());

    let joined = next
        .apply(&[Mutation::InsertEntity {
            entity: "Person".into(),
            key: zed[0].clone(),
        }])
        .unwrap();
    let row = joined
        .skeleton()
        .entity_row("Person", &zed[0])
        .expect("a row");
    assert_eq!(
        joined.attribute_reader("Qualification").at_row(row),
        Some(&Value::Float(7.0))
    );
    let sym = joined.skeleton().interner().get(&zed[0]).unwrap();
    assert_eq!(
        joined.attribute_reader("Qualification").at_sym(sym),
        Some(&Value::Float(7.0))
    );
    assert_eq!(joined.attribute_count("Qualification"), 4);
    // Where the cell is stored does not enter the fingerprint: the same
    // content written after the insert fingerprints the same.
    let direct = inst
        .apply(&[
            Mutation::InsertEntity {
                entity: "Person".into(),
                key: zed[0].clone(),
            },
            Mutation::SetAttribute {
                attr: "Qualification".into(),
                key: zed,
                value: Value::Float(7.0),
            },
        ])
        .unwrap();
    assert_eq!(direct.fingerprint(), joined.fingerprint());
}

/// Many cells written for keys that are not units leave every read of the
/// units as it was, stay readable themselves (by key, and by symbol where
/// the key is interned), and are cleared and adopted one by one.
#[test]
fn many_cells_of_absent_units_leave_unit_reads_alone() {
    let (inst, model) = base();
    const GHOSTS: i64 = 2_000;
    let mut batch: Vec<Mutation> = (0..GHOSTS)
        .map(|i| Mutation::SetAttribute {
            attr: "Qualification".into(),
            key: vec![Value::from(format!("ghost{i}").as_str())],
            value: Value::Int(i),
        })
        .collect();
    // Interned values that are not units of the subject: a submission key
    // as a person, and an authorship that is not a tuple of `Author`.
    let s1_as_person = vec![Value::from("s1")];
    let not_an_author = vec![Value::from("Carlos"), Value::from("s1")];
    batch.push(Mutation::SetAttribute {
        attr: "Qualification".into(),
        key: s1_as_person.clone(),
        value: Value::Float(-1.0),
    });
    batch.push(Mutation::SetAttribute {
        attr: "Share".into(),
        key: not_an_author.clone(),
        value: Value::Float(0.25),
    });
    // `Value`-equal keys address one cell, as they do for units.
    for (key, value) in [(Value::Int(2), 1.0), (Value::Float(2.0), 2.0)] {
        batch.push(Mutation::SetAttribute {
            attr: "Qualification".into(),
            key: vec![key],
            value: Value::Float(value),
        });
    }
    let next = inst
        .apply(&batch)
        .expect("keys outside the skeleton are accepted");

    // Every read agrees with the model, and every unit reads what it read
    // before, by key, row and symbol.
    let mut expected = model.clone();
    for m in &batch {
        apply_model(&mut expected, m);
    }
    check_reads(&next, &expected);
    let interner = next.skeleton().interner();
    for attr in ["Qualification", "Prestige"] {
        let reader = next.attribute_reader(attr);
        for (row, key) in next.skeleton().entity_keys("Person").enumerate() {
            let want = model.get(&(attr.to_string(), vec![key.clone()]));
            assert!(same(reader.at_row(row), want), "{attr} row {row}");
            let sym = interner.get(key).unwrap();
            assert!(same(reader.at_sym(sym), want), "{attr}[{key}] by symbol");
        }
    }

    // The non-unit cells themselves.
    for i in [0, GHOSTS / 2, GHOSTS - 1] {
        let key = vec![Value::from(format!("ghost{i}").as_str())];
        assert_eq!(next.attribute("Qualification", &key), Some(&Value::Int(i)));
    }
    let sym = interner.get(&s1_as_person[0]).unwrap();
    assert_eq!(
        next.attribute_reader("Qualification").at_sym(sym),
        Some(&Value::Float(-1.0))
    );
    let syms: Vec<_> = not_an_author
        .iter()
        .map(|v| interner.get(v).unwrap())
        .collect();
    assert_eq!(
        next.attribute_reader("Share").at_syms(&syms),
        Some(&Value::Float(0.25))
    );
    assert_eq!(
        next.attribute("Qualification", &[Value::Int(2)]),
        Some(&Value::Float(2.0))
    );
    assert_eq!(
        next.attribute_count("Qualification"),
        3 + GHOSTS as usize + 2
    );

    // Clearing and adopting address the same cells.
    let cleared = next
        .apply(&[
            Mutation::ClearAttribute {
                attr: "Qualification".into(),
                key: vec![Value::from("ghost7")],
            },
            Mutation::InsertEntity {
                entity: "Person".into(),
                key: Value::from("ghost8"),
            },
        ])
        .unwrap();
    assert_eq!(
        cleared.attribute("Qualification", &[Value::from("ghost7")]),
        None
    );
    let row = cleared
        .skeleton()
        .entity_row("Person", &Value::from("ghost8"))
        .unwrap();
    assert_eq!(
        cleared.attribute_reader("Qualification").at_row(row),
        Some(&Value::Int(8))
    );
    assert_eq!(
        cleared.attribute_count("Qualification"),
        3 + GHOSTS as usize + 1
    );
}
