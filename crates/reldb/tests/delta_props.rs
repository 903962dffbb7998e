//! Property-based tests for `apply_with_delta` — the typed delta stream
//! feeding incremental grounding.
//!
//! * Atomicity: a batch that fails validation changes nothing and leaks
//!   no partial state.
//! * No phantom retractions: deletes/clears aimed at never-present keys
//!   emit no delta ops and leave the fingerprint unchanged.
//! * Empty delta ⇒ identical fingerprint (the fast path may skip all
//!   work for such commits).
//! * Determinism: replaying a batch from the same base reproduces the
//!   same epoch and the same delta, and re-applying a batch to its own
//!   result is a fixpoint of the instance state.

use proptest::prelude::*;
use reldb::{DeltaOp, Instance, Mutation, Value};

fn person() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::from("Bob")),
        Just(Value::from("Carlos")),
        Just(Value::from("Eva")),
        Just(Value::from("Dana")),
    ]
}

fn submission() -> impl Strategy<Value = Value> {
    (1u8..5).prop_map(|i| Value::from(format!("s{i}")))
}

/// One random mutation over the review-example schema (plus the fresh
/// entities `Dana` and `s4`, inserted by [`seeded_batch`] so endpoints
/// always exist and mid-batch validation errors stay a separate test).
fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        person().prop_map(|key| Mutation::InsertEntity {
            entity: "Person".into(),
            key,
        }),
        submission().prop_map(|key| Mutation::InsertEntity {
            entity: "Submission".into(),
            key,
        }),
        (person(), submission()).prop_map(|(p, s)| Mutation::InsertRelationship {
            rel: "Author".into(),
            tuple: vec![p, s],
        }),
        (person(), submission()).prop_map(|(p, s)| Mutation::DeleteRelationship {
            rel: "Author".into(),
            tuple: vec![p, s],
        }),
        (person(), -100.0f64..100.0).prop_map(|(p, q)| Mutation::SetAttribute {
            attr: "Qualification".into(),
            key: vec![p],
            value: Value::Float(q),
        }),
        (submission(), -1.0f64..1.0).prop_map(|(s, v)| Mutation::SetAttribute {
            attr: "Score".into(),
            key: vec![s],
            value: Value::Float(v),
        }),
        person().prop_map(|p| Mutation::ClearAttribute {
            attr: "Qualification".into(),
            key: vec![p],
        }),
        submission().prop_map(|s| Mutation::ClearAttribute {
            attr: "Score".into(),
            key: vec![s],
        }),
    ]
}

/// Prefix a random batch with inserts of the two fresh entities so every
/// generated endpoint exists and the batch applies cleanly.
fn seeded_batch(muts: Vec<Mutation>) -> Vec<Mutation> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized batches: empty delta implies an unchanged fingerprint,
    /// replays are deterministic, and re-applying a batch to its own
    /// result is a state fixpoint (the mutation language is last-write-
    /// wins per cell/tuple).
    #[test]
    fn deltas_are_deterministic_and_track_effective_change(
        muts in proptest::collection::vec(arb_mutation(), 0..24),
    ) {
        let base = Instance::review_example();
        let batch = seeded_batch(muts);

        let (next, delta) = base.apply_with_delta(&batch).unwrap();
        if delta.is_empty() {
            prop_assert_eq!(base.fingerprint(), next.fingerprint());
        }
        // Structural flags agree with the op stream.
        prop_assert_eq!(
            delta.is_structural(),
            delta.ops().iter().any(DeltaOp::is_structural)
        );
        // Every changed cell names a touched attribute.
        let touched = delta.touched_attrs();
        for (attr, _) in delta.changed_cells() {
            prop_assert!(touched.contains(attr), "changed cell on untouched {attr}");
        }

        // Replay determinism: same base + same batch ⇒ same epoch, same delta.
        let (next2, delta2) = base.apply_with_delta(&batch).unwrap();
        prop_assert_eq!(next.fingerprint(), next2.fingerprint());
        prop_assert_eq!(&delta, &delta2);

        // Re-applying the batch to its own result is a *logical* fixpoint:
        // same entities, same relationship sets, same attribute cells. (The
        // fingerprint may still differ — a delete/insert pair over a present
        // tuple rotates storage order, which the fingerprint observes.)
        let (fixed, _) = next.apply_with_delta(&batch).unwrap();
        for entity in ["Person", "Submission", "Conference"] {
            let mut a = next.skeleton().entity_keys(entity).cloned().collect::<Vec<_>>();
            let mut b = fixed.skeleton().entity_keys(entity).cloned().collect::<Vec<_>>();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "entity set drifted for {}", entity);
        }
        for rel in ["Author", "Submitted"] {
            let mut a = next.skeleton().relationship_tuples(rel).collect::<Vec<_>>();
            let mut b = fixed.skeleton().relationship_tuples(rel).collect::<Vec<_>>();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "relationship set drifted for {}", rel);
        }
        for (attr, keys) in [
            ("Qualification", ["Bob", "Carlos", "Eva", "Dana"]),
            ("Score", ["s1", "s2", "s3", "s4"]),
        ] {
            for key in keys {
                let key = [Value::from(key)];
                prop_assert_eq!(
                    next.attribute(attr, &key),
                    fixed.attribute(attr, &key),
                    "cell drifted for {}[{:?}]",
                    attr,
                    &key[0]
                );
            }
        }
    }

    /// Deletes and clears aimed at keys that were never present emit NO
    /// delta ops (no phantom retractions) and leave the epoch identical.
    #[test]
    fn absent_key_retractions_emit_no_phantom_deltas(
        muts in proptest::collection::vec(
            prop_oneof![
                (person(), submission()).prop_map(|(p, s)| Mutation::DeleteRelationship {
                    rel: "Author".into(),
                    tuple: vec![p, s],
                }),
                person().prop_map(|p| Mutation::ClearAttribute {
                    attr: "Qualification".into(),
                    key: vec![p],
                }),
                submission().prop_map(|s| Mutation::ClearAttribute {
                    attr: "Score".into(),
                    key: vec![s],
                }),
            ],
            1..16,
        ),
    ) {
        // Set up an instance where Dana and s4 exist but carry no
        // attributes or authorships, then keep only the retractions whose
        // target is absent from it.
        let (setup, _) = Instance::review_example()
            .apply_with_delta(&seeded_batch(vec![]))
            .unwrap();
        let absent: Vec<Mutation> = muts
            .into_iter()
            .filter(|m| match m {
                Mutation::DeleteRelationship { rel, tuple } => {
                    !setup.skeleton().relationship_tuples(rel).any(|t| &t == tuple)
                }
                Mutation::ClearAttribute { attr, key } => {
                    setup.attribute(attr, key).is_none()
                }
                _ => unreachable!("strategy only yields retractions"),
            })
            .collect();
        if !absent.is_empty() {
            let (next, delta) = setup.apply_with_delta(&absent).unwrap();
            prop_assert!(
                delta.is_empty(),
                "phantom retraction ops: {:?}",
                delta.ops()
            );
            prop_assert_eq!(setup.fingerprint(), next.fingerprint());
        }
    }

    /// A batch poisoned anywhere by an invalid mutation fails as a whole:
    /// the error surfaces, the base is untouched, and no partial epoch or
    /// delta escapes.
    #[test]
    fn poisoned_batches_fail_atomically(
        muts in proptest::collection::vec(arb_mutation(), 0..12),
        poison_at in 0usize..13,
    ) {
        let base = Instance::review_example();
        let before = base.fingerprint();

        let mut batch = seeded_batch(muts);
        let at = 2 + poison_at.min(batch.len() - 2); // after the seed inserts
        batch.insert(at, Mutation::InsertRelationship {
            rel: "NoSuchRel".into(),
            tuple: vec![Value::from("Bob"), Value::from("s1")],
        });

        prop_assert!(base.apply_with_delta(&batch).is_err());
        prop_assert_eq!(base.fingerprint(), before);

        // Removing the poison makes the same batch apply cleanly.
        batch.remove(at);
        prop_assert!(base.apply_with_delta(&batch).is_ok());
    }
}
