//! Epoch-based snapshot concurrency for the CaRL engine.
//!
//! The paper's workload is interactive: an analyst loads an instance, asks
//! causal queries, edits the data (new relationships, corrected attribute
//! values), and asks again. [`SnapshotEngine`] supports that loop under
//! concurrency with a simple, auditable discipline:
//!
//! * every committed state of the database is an immutable **epoch** — an
//!   [`EngineSnapshot`] holding a full [`CarlEngine`] built over an
//!   immutable [`Instance`];
//! * readers grab the current snapshot (one `RwLock` read + `Arc` clone)
//!   and answer any number of queries against that consistent epoch, never
//!   blocking on writers;
//! * a single writer at a time applies a batch of [`Mutation`]s through
//!   [`Instance::apply`] (atomic: the whole batch or nothing), builds a
//!   **fresh** engine — fresh grounding-result cache, fresh secondary-index
//!   and plan caches, keyed by the new fingerprint — and installs it with
//!   one `RwLock` write.
//!
//! Building a fresh engine per epoch is what makes stale caches impossible
//! by construction: no cache object survives an epoch boundary, so a query
//! answered after a commit can never observe pre-mutation index state.
//! Queries in flight on the previous epoch keep their `Arc` and finish on
//! the old, still-consistent engine.
//!
//! # Incremental commits (delta grounding)
//!
//! "Fresh engine per epoch" does not have to mean "cold engine per epoch".
//! [`Instance::apply_with_delta`] reports exactly which cells a batch
//! changed, and when the delta is attribute-only and touches nothing that
//! can change grounding *structure* ([`CarlEngine::can_patch`]), commit
//! takes a fast path: the next epoch's engine is built by
//! [`CarlEngine::patched_next`], inheriting the skeleton-valid secondary
//! indexes and incrementally maintaining the previous epoch's streamed
//! base grounding instead of throwing the grounded world away. The decision
//! rule is:
//!
//! * structural delta (entities/relationship tuples changed), a touched
//!   attribute appearing in a rule/aggregate condition comparison, or a
//!   touched attribute that is itself an aggregate head → **cold rebuild**
//!   (always correct, same as PR 7);
//! * otherwise → **patch**: copy-on-write, so the previous snapshot and
//!   its caches are never mutated, and the new engine is still keyed by
//!   the new fingerprint.
//!
//! Either way the installed epoch is indistinguishable from a cold
//! re-ground — `crate::history::check_history` re-validates recorded runs
//! against cold re-grounds bit for bit, making the harness the
//! differential oracle for the fast path. [`SnapshotEngine::commit_stats`]
//! reports which path commits actually took.
//!
//! The [`crate::history`] module records installs and query observations
//! from such a service and re-validates them offline against cold
//! re-grounds of every epoch.
//!
//! ```
//! use carl::snapshot::SnapshotEngine;
//! use reldb::{Instance, Mutation, Value};
//!
//! let service = SnapshotEngine::new(
//!     Instance::review_example(),
//!     r#"
//!     Prestige[A]  <= Qualification[A]              WHERE Person(A)
//!     Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
//!     Score[S]     <= Prestige[A]                   WHERE Author(A, S)
//!     Score[S]     <= Quality[S]                    WHERE Submission(S)
//!     AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(service.epoch(), 0);
//!
//! let before = service.snapshot();
//! service
//!     .commit(&[Mutation::InsertEntity {
//!         entity: "Person".into(),
//!         key: Value::from("Dana"),
//!     }])
//!     .unwrap();
//! assert_eq!(service.epoch(), 1);
//! // The pre-commit snapshot is untouched — readers holding it are safe.
//! assert_eq!(before.epoch(), 0);
//! assert_eq!(before.engine().instance().skeleton().entity_count("Person"), 3);
//! ```

use crate::engine::CarlEngine;
use crate::error::CarlResult;
use crate::estimate::QueryAnswer;
use carl_lang::{parse_program, CausalQuery, Program};
use reldb::{Instance, Mutation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// How many commits each path served (see [`SnapshotEngine::commit_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Commits that patched the previous epoch's engine.
    pub incremental: u64,
    /// Commits that rebuilt the engine cold (structural or otherwise
    /// unpatchable deltas).
    pub cold: u64,
}

/// One immutable epoch of the database together with the engine built over
/// it. Shared between reader threads via `Arc`; never mutated after
/// construction.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// Epoch number: 0 for the base instance, incremented by each commit.
    epoch: u64,
    /// The engine over this epoch's instance, with caches keyed by this
    /// epoch's fingerprint and shared by every reader of the snapshot.
    engine: CarlEngine,
}

impl EngineSnapshot {
    /// The epoch number (0 = the base instance).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine answering queries against this epoch.
    pub fn engine(&self) -> &CarlEngine {
        &self.engine
    }

    /// The instance of this epoch.
    pub fn instance(&self) -> &Instance {
        self.engine.instance()
    }

    /// The content fingerprint of this epoch's instance.
    pub fn fingerprint(&self) -> u64 {
        self.engine.instance_fingerprint()
    }
}

/// A concurrent snapshot query service over one CaRL program.
///
/// Readers call [`SnapshotEngine::snapshot`] (or the [`SnapshotEngine::answer_str`]
/// convenience) and work against a consistent epoch; writers call
/// [`SnapshotEngine::commit`] with a batch of mutations. See the module
/// docs for the consistency argument.
#[derive(Debug)]
pub struct SnapshotEngine {
    /// The currently installed epoch. Readers take a read lock just long
    /// enough to clone the `Arc`.
    current: RwLock<Arc<EngineSnapshot>>,
    /// The parsed program, re-bound to each new epoch's instance.
    program: Program,
    /// Serialises writers so epochs install in commit order. Readers never
    /// touch this lock.
    writer: Mutex<()>,
    /// Fast-path commits served so far.
    incremental_commits: AtomicU64,
    /// Cold-rebuild commits served so far.
    cold_commits: AtomicU64,
}

impl SnapshotEngine {
    /// Build the service from a base instance and CaRL program source.
    /// The base instance becomes epoch 0.
    pub fn new(instance: Instance, rules: &str) -> CarlResult<Self> {
        Self::with_program(instance, parse_program(rules)?)
    }

    /// Build the service from a base instance and an already-parsed
    /// program.
    pub fn with_program(instance: Instance, program: Program) -> CarlResult<Self> {
        let engine = CarlEngine::with_program(instance, program.clone())?;
        Ok(Self {
            current: RwLock::new(Arc::new(EngineSnapshot { epoch: 0, engine })),
            program,
            writer: Mutex::new(()),
            incremental_commits: AtomicU64::new(0),
            cold_commits: AtomicU64::new(0),
        })
    }

    /// The program every epoch's engine is built from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// How many commits took the incremental fast path vs a cold rebuild.
    pub fn commit_stats(&self) -> CommitStats {
        CommitStats {
            incremental: self.incremental_commits.load(Ordering::Relaxed),
            cold: self.cold_commits.load(Ordering::Relaxed),
        }
    }

    /// The currently installed snapshot. Cheap (`RwLock` read + `Arc`
    /// clone); the returned snapshot stays valid — and consistent — however
    /// many commits happen afterwards.
    ///
    /// A poisoned lock is recovered: the data under it is an `Arc` swapped
    /// atomically by [`SnapshotEngine::commit`], so it is always a fully
    /// installed epoch.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Apply a batch of mutations atomically, producing and installing the
    /// next epoch. Returns the newly installed snapshot.
    ///
    /// On error (any invalid mutation, or a program that fails to re-bind)
    /// nothing is installed and the current epoch is unchanged — readers
    /// never observe a partially applied batch. Writers are serialised;
    /// readers are only blocked for the final pointer swap.
    /// See the module docs for the incremental fast path: attribute-only
    /// deltas that cannot change grounding structure patch the previous
    /// epoch's engine; everything else rebuilds cold.
    pub fn commit(&self, mutations: &[Mutation]) -> CarlResult<Arc<EngineSnapshot>> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.snapshot();
        // The expensive part — applying mutations and building the next
        // engine (patched or cold) — happens outside the read/write lock,
        // on the writer's thread only.
        let (next_instance, delta) = base.instance().apply_with_delta(mutations)?;
        let engine = if base.engine().can_patch(&delta) {
            self.incremental_commits.fetch_add(1, Ordering::Relaxed);
            base.engine().patched_next(next_instance, &delta)?
        } else {
            self.cold_commits.fetch_add(1, Ordering::Relaxed);
            CarlEngine::with_program(next_instance, self.program.clone())?
        };
        let next = Arc::new(EngineSnapshot {
            epoch: base.epoch() + 1,
            engine,
        });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&next);
        Ok(next)
    }

    /// Answer a parsed query against the current snapshot, returning the
    /// epoch the answer was computed on alongside the result. The whole
    /// answer is computed on one epoch even if commits land mid-query.
    pub fn answer(&self, query: &CausalQuery) -> (u64, CarlResult<QueryAnswer>) {
        let snap = self.snapshot();
        (snap.epoch(), snap.engine().answer(query))
    }

    /// Answer a query given as CaRL source text against the current
    /// snapshot; see [`SnapshotEngine::answer`].
    pub fn answer_str(&self, query: &str) -> (u64, CarlResult<QueryAnswer>) {
        let snap = self.snapshot();
        (snap.epoch(), snap.engine().answer_str(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::Value;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    const REVIEW_RULES: &str = r#"
        Prestige[A]  <= Qualification[A]              WHERE Person(A)
        Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
        Score[S]     <= Prestige[A]                   WHERE Author(A, S)
        Score[S]     <= Quality[S]                    WHERE Submission(S)
        AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
    "#;

    fn service() -> SnapshotEngine {
        SnapshotEngine::new(Instance::review_example(), REVIEW_RULES).unwrap()
    }

    #[test]
    fn commit_installs_new_epoch_and_leaves_old_snapshots_alone() {
        let service = service();
        let before = service.snapshot();
        let base_fp = before.fingerprint();

        let after = service
            .commit(&[
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Dana"),
                },
                Mutation::SetAttribute {
                    attr: "Qualification".into(),
                    key: vec![Value::from("Dana")],
                    value: Value::Float(30.0),
                },
            ])
            .unwrap();

        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        assert_eq!(service.epoch(), 1);
        assert_ne!(after.fingerprint(), base_fp);
        // The old snapshot still sees the old data.
        assert_eq!(before.instance().skeleton().entity_count("Person"), 3);
        assert_eq!(after.instance().skeleton().entity_count("Person"), 4);
        // Replaying the same batch on the old snapshot's instance
        // reproduces the new epoch's fingerprint (determinism the history
        // checker relies on).
        let replayed = before
            .instance()
            .apply(&[
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Dana"),
                },
                Mutation::SetAttribute {
                    attr: "Qualification".into(),
                    key: vec![Value::from("Dana")],
                    value: Value::Float(30.0),
                },
            ])
            .unwrap();
        assert_eq!(replayed.fingerprint(), after.fingerprint());
    }

    #[test]
    fn failed_commit_installs_nothing() {
        let service = service();
        let err = service.commit(&[Mutation::InsertRelationship {
            rel: "NoSuchRel".into(),
            tuple: vec![Value::from("Bob"), Value::from("s1")],
        }]);
        assert!(err.is_err());
        assert_eq!(service.epoch(), 0);

        // A batch whose *last* mutation is invalid must also install
        // nothing, even though its first mutation was fine.
        let err = service.commit(&[
            Mutation::InsertEntity {
                entity: "Person".into(),
                key: Value::from("Dana"),
            },
            Mutation::InsertRelationship {
                rel: "NoSuchRel".into(),
                tuple: vec![Value::from("Bob"), Value::from("s1")],
            },
        ]);
        assert!(err.is_err());
        assert_eq!(service.epoch(), 0);
        assert_eq!(
            service
                .snapshot()
                .instance()
                .skeleton()
                .entity_count("Person"),
            3
        );
    }

    #[test]
    fn fresh_engine_per_epoch_means_no_stale_index_state() {
        // Satellite regression: a query answered after a commit must never
        // see pre-mutation index state. `prepare_str` exercises the
        // secondary-index and grounding caches; the unit-table length
        // reflects what the indexes actually contain.
        let service = service();
        let base = service.snapshot();
        let before = base
            .engine()
            .prepare_str("AVG_Score[A] <= Prestige[A]?")
            .unwrap();
        assert_eq!(before.unit_table.len(), 3);

        // Dana writes s1 too, so a fourth author unit appears.
        service
            .commit(&[
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Dana"),
                },
                Mutation::SetAttribute {
                    attr: "Qualification".into(),
                    key: vec![Value::from("Dana")],
                    value: Value::Float(25.0),
                },
                Mutation::SetAttribute {
                    attr: "Prestige".into(),
                    key: vec![Value::from("Dana")],
                    value: Value::Int(1),
                },
                Mutation::InsertRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("Dana"), Value::from("s1")],
                },
            ])
            .unwrap();

        let snap = service.snapshot();
        let after = snap
            .engine()
            .prepare_str("AVG_Score[A] <= Prestige[A]?")
            .unwrap();
        assert_eq!(after.unit_table.len(), 4, "stale pre-mutation index state");
        // The new epoch's caches are its own: fingerprint-keyed and fresh,
        // while the old snapshot's engine still answers over the old data.
        assert_ne!(snap.fingerprint(), base.fingerprint());
        assert_eq!(
            base.engine()
                .prepare_str("AVG_Score[A] <= Prestige[A]?")
                .unwrap()
                .unit_table
                .len(),
            3
        );
    }

    #[test]
    fn attribute_commits_take_the_incremental_fast_path() {
        let service = service();
        // Warm the base grounding so the patch has something to maintain.
        let _ = service
            .snapshot()
            .engine()
            .answer_str("AVG_Score[A] <= Prestige[A]?");

        // Attribute-only commit: Score feeds values, never structure.
        let snap = service
            .commit(&[Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from("s1")],
                value: Value::Float(0.95),
            }])
            .unwrap();
        let stats = service.commit_stats();
        assert_eq!((stats.incremental, stats.cold), (1, 0));
        // The patched epoch answers bit-identically to a cold rebuild of
        // the same data.
        let cold =
            CarlEngine::with_program(snap.instance().clone(), service.program().clone()).unwrap();
        let fast = snap.engine().answer_str("AVG_Score[A] <= Prestige[A]?");
        let slow = cold.answer_str("AVG_Score[A] <= Prestige[A]?");
        assert_eq!(
            crate::history::digest_answer(&fast),
            crate::history::digest_answer(&slow)
        );

        // A structural commit falls back to the cold path, and its epoch
        // answers bit-identically to an engine built from scratch.
        let snap = service
            .commit(&[Mutation::InsertEntity {
                entity: "Person".into(),
                key: Value::from("Dana"),
            }])
            .unwrap();
        let stats = service.commit_stats();
        assert_eq!((stats.incremental, stats.cold), (1, 1));
        let cold =
            CarlEngine::with_program(snap.instance().clone(), service.program().clone()).unwrap();
        assert_eq!(
            crate::history::digest_answer(
                &snap.engine().answer_str("AVG_Score[A] <= Prestige[A]?")
            ),
            crate::history::digest_answer(&cold.answer_str("AVG_Score[A] <= Prestige[A]?"))
        );
    }

    #[test]
    fn incremental_commit_leaves_previous_snapshot_untouched() {
        let service = service();
        let before = service.snapshot();
        // Warm epoch 0's base grounding, then patch an attribute.
        let (_, a0) = service.answer_str("AVG_Score[A] <= Prestige[A]?");
        service
            .commit(&[Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from("s1")],
                value: Value::Float(0.95),
            }])
            .unwrap();
        assert_eq!(service.commit_stats().incremental, 1);
        // The old snapshot still answers over the old data, bit-identically
        // to its pre-commit answer (copy-on-write: the patch cloned, never
        // mutated, the shared grounded state).
        let a0_again = before.engine().answer_str("AVG_Score[A] <= Prestige[A]?");
        assert_eq!(
            crate::history::digest_answer(&a0),
            crate::history::digest_answer(&a0_again)
        );
        assert_eq!(
            before.instance().attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.75))
        );
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_epoch() {
        // Readers race a writer; every observation must match one of the
        // two legal states exactly (no torn mixtures).
        let service = Arc::new(service());
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                let mut observations = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    let people = snap.instance().skeleton().entity_count("Person");
                    let authors = snap.instance().skeleton().relationship_count("Author");
                    observations.push((snap.epoch(), people, authors));
                }
                observations
            }));
        }

        for i in 0..8u32 {
            service
                .commit(&[
                    Mutation::InsertEntity {
                        entity: "Person".into(),
                        key: Value::from(format!("extra{i}")),
                    },
                    Mutation::InsertRelationship {
                        rel: "Author".into(),
                        tuple: vec![Value::from(format!("extra{i}")), Value::from("s1")],
                    },
                ])
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);

        for reader in readers {
            for (epoch, people, authors) in reader.join().unwrap() {
                // Epoch k has exactly 3+k people and 5+k author tuples:
                // both counts must agree with the *same* k.
                assert_eq!(people as u64, 3 + epoch, "torn snapshot");
                assert_eq!(authors as u64, 5 + epoch, "torn snapshot");
            }
        }
    }
}
