//! Observed relational instances: a skeleton plus attribute assignments
//! (Section 3.1).
//!
//! The skeleton holds every entity key and relationship tuple once, as
//! symbols of its interner (see [`crate::skeleton`]); attribute columns
//! address those keys by entity row or tuple symbols, so an instance keeps
//! no second copy of a key as a `Value`.

use crate::attr_column::{component_hash, key_hash, AttrColumn, AttrReader, CellAddr};
use crate::error::{RelError, RelResult};
use crate::schema::{PredicateKind, RelationalSchema};
use crate::skeleton::{Skeleton, UnitKey};
use crate::symbols::Sym;
use crate::value::{fnv1a, Value, ValueKey};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A single edit to an [`Instance`], applied in batches by
/// [`Instance::apply`] to produce a new immutable epoch.
///
/// Mutations are plain data so a recorded history of committed batches can
/// be replayed deterministically by a checker: applying the same batches to
/// the same base instance reproduces the same epoch instances (and hence
/// the same [`Instance::fingerprint`] per epoch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Add a grounded entity (idempotent, like [`Instance::add_entity`]).
    InsertEntity {
        /// Entity class name.
        entity: String,
        /// Key of the new entity.
        key: Value,
    },
    /// Add a relationship tuple (idempotent; arity and referential
    /// integrity checked, like [`Instance::add_relationship`]).
    InsertRelationship {
        /// Relationship name.
        rel: String,
        /// The tuple to insert.
        tuple: UnitKey,
    },
    /// Remove a relationship tuple (no-op if absent).
    DeleteRelationship {
        /// Relationship name.
        rel: String,
        /// The tuple to remove.
        tuple: UnitKey,
    },
    /// Assign (insert or overwrite) an attribute value, with domain and
    /// arity checks, like [`Instance::set_attribute`].
    SetAttribute {
        /// Attribute name.
        attr: String,
        /// Unit key the value attaches to.
        key: UnitKey,
        /// The value to assign.
        value: Value,
    },
    /// Remove an attribute assignment (no-op if unassigned).
    ClearAttribute {
        /// Attribute name.
        attr: String,
        /// Unit key whose assignment is removed.
        key: UnitKey,
    },
}

/// One *effective* change produced by applying a [`Mutation`] batch.
///
/// Deltas describe what actually changed between two epochs, not what was
/// requested: an idempotent re-insert, a delete of an absent tuple, or a
/// `SetAttribute` overwriting a cell with a bit-identical value emits no
/// delta at all. This is the contract incremental view maintenance relies
/// on — an empty [`DeltaSet`] guarantees the two epochs have identical
/// content (and hence identical [`Instance::fingerprint`]s).
///
/// Cell comparisons are *strict* (variant- and bit-exact, like
/// [`crate::ValueKey`] and the fingerprint), not coercing like `Value`
/// equality: overwriting `Int(2)` with `Float(2.0)` changes the stored
/// bytes and therefore *is* a delta, even though the two values compare
/// equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// A previously absent entity key was added to the skeleton.
    EntityAdded {
        /// Entity class name.
        entity: String,
        /// Key of the added entity.
        key: Value,
    },
    /// A previously absent relationship tuple was added to the skeleton.
    RelationshipAdded {
        /// Relationship name.
        rel: String,
        /// The added tuple.
        tuple: UnitKey,
    },
    /// A previously present relationship tuple was removed.
    RelationshipRemoved {
        /// Relationship name.
        rel: String,
        /// The removed tuple.
        tuple: UnitKey,
    },
    /// An attribute cell changed value (or was assigned for the first
    /// time, in which case `old` is `None`).
    CellSet {
        /// Attribute name.
        attr: String,
        /// Unit key of the changed cell.
        key: UnitKey,
        /// The previous value, if the cell was assigned.
        old: Option<Value>,
        /// The new value.
        new: Value,
    },
    /// A previously assigned attribute cell was cleared.
    CellCleared {
        /// Attribute name.
        attr: String,
        /// Unit key of the cleared cell.
        key: UnitKey,
        /// The value that was removed.
        old: Value,
    },
}

impl DeltaOp {
    /// Whether this op changes the relational skeleton (entity set or
    /// relationship tuples) rather than just attribute cells.
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            DeltaOp::EntityAdded { .. }
                | DeltaOp::RelationshipAdded { .. }
                | DeltaOp::RelationshipRemoved { .. }
        )
    }
}

/// The ordered stream of effective changes from one [`Instance::apply`]
/// batch, produced by [`Instance::apply_with_delta`].
///
/// Ops appear in application order. Because only *effective* changes are
/// recorded, the set is empty exactly when the batch was a no-op, and a
/// later op on the same cell reflects the state left by earlier ops in the
/// same batch (e.g. set-then-clear of a previously absent cell emits
/// `CellSet { old: None, .. }` followed by `CellCleared`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaSet {
    ops: Vec<DeltaOp>,
}

impl DeltaSet {
    /// The recorded ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of effective changes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether any op touches the skeleton. Structural deltas invalidate
    /// node tables and join results; attribute-only deltas can be patched
    /// into grounded state in place.
    pub fn is_structural(&self) -> bool {
        self.ops.iter().any(DeltaOp::is_structural)
    }

    /// The set of attribute names with at least one changed cell.
    pub fn touched_attrs(&self) -> BTreeSet<&str> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                DeltaOp::CellSet { attr, .. } | DeltaOp::CellCleared { attr, .. } => {
                    Some(attr.as_str())
                }
                _ => None,
            })
            .collect()
    }

    /// Deduplicated `(attr, key)` pairs of every changed attribute cell,
    /// in first-touched order. For patching, only *which* cells changed
    /// matters — the new value is read back from the new epoch.
    pub fn changed_cells(&self) -> Vec<(&str, &UnitKey)> {
        let mut seen: BTreeSet<(&str, Vec<String>)> = BTreeSet::new();
        let mut cells = Vec::new();
        for op in &self.ops {
            if let DeltaOp::CellSet { attr, key, .. } | DeltaOp::CellCleared { attr, key, .. } = op
            {
                let repr: Vec<String> = key.iter().map(Value::key_repr).collect();
                if seen.insert((attr.as_str(), repr)) {
                    cells.push((attr.as_str(), key));
                }
            }
        }
        cells
    }

    fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }
}

/// An observed relational instance conforming to a [`RelationalSchema`].
///
/// The instance owns its schema, its relational skeleton, and one column
/// per attribute function. Unobserved attribute functions (e.g.
/// `Quality[S]` in the running example) simply have no stored cells.
///
/// # Storage layout
///
/// Each attribute is stored once, addressed by the skeleton rather than by
/// hashed `UnitKey`s (see [`crate::attr_column`]):
///
/// * an attribute of an entity class is a column aligned to that class's
///   rows ([`Skeleton::entity_syms`]) — the attribute `Value` of each row
///   plus a presence bitmap. Entity rows are append-only, so cells never
///   shift;
/// * an attribute of a relationship (e.g. MIMIC's `Dose[D, P]`) keys each
///   cell by its tuple's interned symbols.
///
/// Key-addressed reads ([`Instance::attribute`]) resolve the key to a row
/// or symbol tuple; [`Instance::attribute_reader`] resolves an attribute
/// once so per-unit reads by row ([`AttrReader::at_row`]) or by symbol
/// ([`AttrReader::at_sym`]) do no `Value` hashing at all.
///
/// # Copy-on-write
///
/// The skeleton and each attribute column live behind [`Arc`]s with
/// copy-on-write mutation ([`Arc::make_mut`]): cloning an instance — the
/// first step of every [`Instance::apply`], i.e. of every committed epoch —
/// is O(#attributes) pointer bumps, and a mutation batch deep-copies only
/// the columns it actually writes. An attribute-only commit therefore never
/// re-copies the skeleton (or the untouched columns), which is what keeps
/// epoch creation proportional to the touched columns rather than the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    schema: RelationalSchema,
    skeleton: Arc<Skeleton>,
    /// attribute name → its cells
    attributes: BTreeMap<String, Arc<AttrColumn>>,
}

impl Instance {
    /// Create an empty instance over `schema`.
    pub fn new(schema: RelationalSchema) -> Self {
        Self {
            schema,
            skeleton: Arc::new(Skeleton::new()),
            attributes: BTreeMap::new(),
        }
    }

    /// The schema this instance conforms to.
    pub fn schema(&self) -> &RelationalSchema {
        &self.schema
    }

    /// The relational skeleton Δ of this instance.
    pub fn skeleton(&self) -> &Skeleton {
        &self.skeleton
    }

    /// A shared handle to the skeleton, for groundings that outlive the
    /// borrow of `self` (e.g. streamed models resolving interned node
    /// identities after grounding).
    pub fn skeleton_shared(&self) -> Arc<Skeleton> {
        Arc::clone(&self.skeleton)
    }

    /// Add a grounded entity.
    pub fn add_entity(&mut self, entity: &str, key: Value) -> RelResult<()> {
        match self.schema.require_predicate(entity)? {
            PredicateKind::Entity => {
                let adopt = self.has_orphans().then(|| key.clone());
                Arc::make_mut(&mut self.skeleton).add_entity(entity, key);
                if let Some(key) = adopt {
                    self.adopt_orphans(entity, &[key]);
                }
                Ok(())
            }
            PredicateKind::Relationship => Err(RelError::UnknownPredicate(format!(
                "`{entity}` is a relationship, not an entity"
            ))),
        }
    }

    /// Add a grounded relationship tuple, checking arity and that the
    /// referenced entities exist.
    pub fn add_relationship(&mut self, rel: &str, tuple: UnitKey) -> RelResult<()> {
        let positions = self
            .schema
            .predicate_positions(rel)
            .ok_or_else(|| RelError::UnknownPredicate(rel.to_string()))?;
        if self.schema.predicate_kind(rel) != Some(PredicateKind::Relationship) {
            return Err(RelError::UnknownPredicate(format!(
                "`{rel}` is an entity, not a relationship"
            )));
        }
        if tuple.len() != positions.len() {
            return Err(RelError::ArityMismatch {
                predicate: rel.to_string(),
                expected: positions.len(),
                actual: tuple.len(),
            });
        }
        for (entity, key) in positions.iter().zip(tuple.iter()) {
            if !self.skeleton.has_entity(entity, key) {
                return Err(RelError::DanglingReference {
                    rel: rel.to_string(),
                    entity: entity.clone(),
                    key: key.to_string(),
                });
            }
        }
        let adopt = self.has_orphans().then(|| tuple.clone());
        Arc::make_mut(&mut self.skeleton).add_relationship(rel, tuple);
        if let Some(tuple) = adopt {
            self.adopt_orphans(rel, &tuple);
        }
        Ok(())
    }

    /// Whether any attribute holds a cell whose key is not a unit.
    fn has_orphans(&self) -> bool {
        self.attributes.values().any(|c| c.has_orphans())
    }

    /// Move cells stored for `key` before it was a unit of `predicate`
    /// into their columns. Copies only a column that adopts a cell.
    fn adopt_orphans(&mut self, predicate: &str, key: &[Value]) {
        for column in self.attributes.values_mut() {
            if !column.has_orphans() || column.subject() != predicate {
                continue;
            }
            let addr = column.locate(&self.skeleton, key);
            if addr != CellAddr::Orphan {
                Arc::make_mut(column).adopt(key, addr);
            }
        }
    }

    /// Where the cell of `attr` for `key` lives, with the attribute's
    /// column if it has one.
    fn cell(&self, attr: &str, key: &[Value]) -> Option<(&Arc<AttrColumn>, CellAddr)> {
        let column = self.attributes.get(attr)?;
        Some((column, column.locate(&self.skeleton, key)))
    }

    /// Assign `value` to attribute `attr` of the unit identified by `key`.
    /// Returns the previous value of the cell, if it was assigned — delta
    /// emission uses this to distinguish effective changes from rewrites
    /// of the same bits.
    ///
    /// A key that is not (yet) a unit of the attribute's subject class is
    /// accepted: the cell stays readable by key and moves into the column
    /// once its unit is added to the skeleton.
    pub fn set_attribute(
        &mut self,
        attr: &str,
        key: &[Value],
        value: Value,
    ) -> RelResult<Option<Value>> {
        let def = self.schema.require_attribute(attr)?;
        let kind = self
            .schema
            .predicate_kind(&def.subject)
            .expect("attribute subject must be a declared predicate");
        let arity = self
            .schema
            .predicate_arity(&def.subject)
            .expect("attribute subject must be a declared predicate");
        if key.len() != arity {
            return Err(RelError::ArityMismatch {
                predicate: def.subject.clone(),
                expected: arity,
                actual: key.len(),
            });
        }
        if !def.domain.admits(&value) {
            return Err(RelError::DomainMismatch {
                attribute: attr.to_string(),
                domain: def.domain.to_string(),
                value: value.to_string(),
            });
        }
        let column = self.attributes.entry(attr.to_string()).or_insert_with(|| {
            Arc::new(AttrColumn::new(&def.subject, kind == PredicateKind::Entity))
        });
        let addr = column.locate(&self.skeleton, key);
        Ok(Arc::make_mut(column).set(addr, key, value))
    }

    /// Remove a relationship tuple. Returns `Ok(true)` if the tuple was
    /// present, `Ok(false)` if absent; errors only on an unknown or
    /// non-relationship predicate.
    pub fn delete_relationship(&mut self, rel: &str, tuple: &[Value]) -> RelResult<bool> {
        Ok(self.delete_relationships(rel, &[tuple])?[0])
    }

    /// Remove a batch of tuples of relationship `rel` in one compaction of
    /// its rows (see [`Skeleton::remove_relationships`]). Returns, per
    /// tuple, whether it was present and not already removed by an earlier
    /// tuple of the batch; errors as [`Instance::delete_relationship`].
    pub fn delete_relationships(&mut self, rel: &str, tuples: &[&[Value]]) -> RelResult<Vec<bool>> {
        if self.schema.predicate_positions(rel).is_none() {
            return Err(RelError::UnknownPredicate(rel.to_string()));
        }
        if self.schema.predicate_kind(rel) != Some(PredicateKind::Relationship) {
            return Err(RelError::UnknownPredicate(format!(
                "`{rel}` is an entity, not a relationship"
            )));
        }
        // Probe before `make_mut`: a retraction of absent tuples must stay
        // a no-op, not force a deep copy of a shared skeleton.
        if !tuples
            .iter()
            .any(|t| self.skeleton.has_relationship(rel, t))
        {
            return Ok(vec![false; tuples.len()]);
        }
        Ok(Arc::make_mut(&mut self.skeleton).remove_relationships(rel, tuples))
    }

    /// Remove the assignment of attribute `attr` for unit `key`. Returns
    /// the removed value if an assignment was present, `Ok(None)` if the
    /// cell was never assigned; errors on an unknown attribute.
    pub fn clear_attribute(&mut self, attr: &str, key: &[Value]) -> RelResult<Option<Value>> {
        self.schema.require_attribute(attr)?;
        // Probe before `make_mut`: clearing an unassigned cell must stay a
        // no-op, not force a deep copy of a shared column.
        let Some((column, addr)) = self.cell(attr, key) else {
            return Ok(None);
        };
        if column.get(&addr, key).is_none() {
            return Ok(None);
        }
        let column = self.attributes.get_mut(attr).expect("probed above");
        Ok(Arc::make_mut(column).remove(&addr, key))
    }

    /// Apply a batch of [`Mutation`]s to a copy of this instance, returning
    /// the mutated copy as a new immutable epoch. `self` is untouched —
    /// readers holding it keep a consistent snapshot while the returned
    /// instance becomes the next epoch.
    ///
    /// The batch is atomic: the first failing mutation aborts the whole
    /// application and no partial epoch is produced. Application order is
    /// the slice order, so replaying recorded batches is deterministic.
    pub fn apply(&self, mutations: &[Mutation]) -> RelResult<Instance> {
        self.apply_with_delta(mutations).map(|(next, _)| next)
    }

    /// Like [`Instance::apply`], but also returns the [`DeltaSet`] of
    /// *effective* changes: ops appear in application order and only when
    /// they changed stored content. Idempotent inserts, deletes/clears of
    /// absent tuples/cells, and attribute writes of bit-identical values
    /// emit nothing — so `delta.is_empty()` implies the returned epoch has
    /// the same fingerprint as `self`, and downstream incremental view
    /// maintenance never sees phantom additions or retractions.
    ///
    /// The batch is atomic exactly like `apply`: on the first failing
    /// mutation, no epoch and no delta are produced.
    pub fn apply_with_delta(&self, mutations: &[Mutation]) -> RelResult<(Instance, DeltaSet)> {
        let mut next = self.clone();
        let mut delta = DeltaSet::default();
        let mut rest = mutations;
        while let Some((m, tail)) = rest.split_first() {
            rest = tail;
            match m {
                Mutation::InsertEntity { entity, key } => {
                    let present = next.skeleton.has_entity(entity, key);
                    next.add_entity(entity, key.clone())?;
                    if !present {
                        delta.push(DeltaOp::EntityAdded {
                            entity: entity.clone(),
                            key: key.clone(),
                        });
                    }
                }
                Mutation::InsertRelationship { rel, tuple } => {
                    let present = next.skeleton.has_relationship(rel, tuple);
                    next.add_relationship(rel, tuple.clone())?;
                    if !present {
                        delta.push(DeltaOp::RelationshipAdded {
                            rel: rel.clone(),
                            tuple: tuple.clone(),
                        });
                    }
                }
                Mutation::DeleteRelationship { rel, tuple } => {
                    // The run of deletes from `rel` starting here goes in
                    // one compaction.
                    let mut tuples = vec![tuple.as_slice()];
                    while let Some((Mutation::DeleteRelationship { rel: r, tuple }, tail)) =
                        rest.split_first()
                    {
                        if r != rel {
                            break;
                        }
                        tuples.push(tuple);
                        rest = tail;
                    }
                    let removed = next.delete_relationships(rel, &tuples)?;
                    for (tuple, _) in tuples.iter().zip(removed).filter(|(_, r)| *r) {
                        delta.push(DeltaOp::RelationshipRemoved {
                            rel: rel.clone(),
                            tuple: tuple.to_vec(),
                        });
                    }
                }
                Mutation::SetAttribute { attr, key, value } => {
                    let old = next.set_attribute(attr, key, value.clone())?;
                    // Strict comparison: Int(2) → Float(2.0) changes the
                    // stored bytes (and the fingerprint) even though the
                    // values compare equal under coercion.
                    let changed = !old.as_ref().is_some_and(|o| ValueKey(o) == ValueKey(value));
                    if changed {
                        delta.push(DeltaOp::CellSet {
                            attr: attr.clone(),
                            key: key.clone(),
                            old,
                            new: value.clone(),
                        });
                    }
                }
                Mutation::ClearAttribute { attr, key } => {
                    if let Some(old) = next.clear_attribute(attr, key)? {
                        delta.push(DeltaOp::CellCleared {
                            attr: attr.clone(),
                            key: key.clone(),
                            old,
                        });
                    }
                }
            }
        }
        Ok((next, delta))
    }

    /// Read the value of attribute `attr` for unit `key`, if assigned.
    pub fn attribute(&self, attr: &str, key: &[Value]) -> Option<&Value> {
        let (column, addr) = self.cell(attr, key)?;
        column.get(&addr, key)
    }

    /// Read the value of `attr` for `key` as an `f64`, treating missing or
    /// non-numeric values as `None`.
    pub fn attribute_f64(&self, attr: &str, key: &[Value]) -> Option<f64> {
        self.attribute(attr, key).and_then(Value::as_f64)
    }

    /// A view of attribute `attr` resolved once, for reads by skeleton row
    /// ([`AttrReader::at_row`]) or interned key symbols
    /// ([`AttrReader::at_sym`], [`AttrReader::at_syms`]). An attribute with
    /// no stored cells reads `None` everywhere.
    pub fn attribute_reader(&self, attr: &str) -> AttrReader<'_> {
        AttrReader::new(self.attributes.get(attr).map(Arc::as_ref), &self.skeleton)
    }

    /// Number of stored assignments for attribute `attr`.
    pub fn attribute_count(&self, attr: &str) -> usize {
        self.attributes.get(attr).map_or(0, |c| c.len())
    }

    /// Iterate over all assignments of attribute `attr`: entity cells in
    /// row order with keys borrowed from the skeleton, relationship cells
    /// with keys rebuilt from their symbols.
    pub fn attribute_assignments(
        &self,
        attr: &str,
    ) -> impl Iterator<Item = (Cow<'_, [Value]>, &Value)> + '_ {
        self.attributes
            .get(attr)
            .into_iter()
            .flat_map(|c| c.cells(&self.skeleton))
    }

    /// All units of the predicate that attribute `attr` attaches to.
    pub fn units_of_attribute(&self, attr: &str) -> RelResult<Vec<UnitKey>> {
        let def = self.schema.require_attribute(attr)?;
        self.skeleton.units_of(&self.schema, &def.subject)
    }

    /// Validate skeleton referential integrity.
    pub fn validate(&self) -> RelResult<()> {
        self.skeleton.validate(&self.schema)
    }

    /// A stable 64-bit fingerprint of the full instance content: the
    /// skeleton ([`Skeleton::fingerprint`]) combined with every attribute
    /// assignment. Grounding consumes both (derived aggregate values read
    /// attribute assignments), so this — not the skeleton fingerprint
    /// alone — is the correct grounding-cache key: any content change,
    /// structural or attributive, changes the fingerprint.
    ///
    /// Each cell contributes a hash of its key and value, combined with an
    /// order-independent XOR, so the result depends only on which cells
    /// hold which values, never on the order they were written in or on
    /// where they are stored. Attributes without cells contribute nothing.
    /// A scan hashes every skeleton value once and then walks the columns.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.skeleton.fingerprint();
        let interner = self.skeleton.interner();
        let sym_hashes: Vec<u64> = (0..interner.len())
            .map(|i| component_hash(interner.value(Sym::from_index(i))))
            .collect();
        let mut row_hashes: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (attr, column) in &self.attributes {
            if column.len() == 0 {
                continue;
            }
            let rows: &[u64] = match column.entity() {
                Some(class) => row_hashes.entry(class).or_insert_with(|| {
                    self.skeleton
                        .entity_syms(class)
                        .iter()
                        .map(|s| key_hash([sym_hashes[s.index()]]))
                        .collect()
                }),
                None => &[],
            };
            fnv1a(&mut h, attr.as_bytes());
            fnv1a(&mut h, &[0xfa]);
            let mut combined: u64 = 0;
            column.fold_cells(&sym_hashes, rows, |key, value| {
                let mut entry = key;
                value.fold_key_bytes(&mut |bytes| fnv1a(&mut entry, bytes));
                combined ^= entry;
            });
            h ^= combined;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Total number of attribute assignments across all attributes
    /// (a proxy for "rows" when reporting dataset sizes).
    pub fn total_attribute_assignments(&self) -> usize {
        self.attributes.values().map(|c| c.len()).sum()
    }

    /// Build the full REVIEWDATA instance of the paper's Figure 2,
    /// including the (unobserved) quality attribute left unassigned.
    pub fn review_example() -> Self {
        let schema = RelationalSchema::review_example();
        let mut inst = Instance::new(schema);
        // Authors table.
        for (person, prestige, qual) in [("Bob", 1, 50.0), ("Carlos", 0, 20.0), ("Eva", 1, 2.0)] {
            inst.add_entity("Person", Value::from(person)).unwrap();
            inst.set_attribute("Prestige", &[Value::from(person)], Value::Int(prestige))
                .unwrap();
            inst.set_attribute("Qualification", &[Value::from(person)], Value::Float(qual))
                .unwrap();
        }
        // Submissions table.
        for (sub, score) in [("s1", 0.75), ("s2", 0.4), ("s3", 0.1)] {
            inst.add_entity("Submission", Value::from(sub)).unwrap();
            inst.set_attribute("Score", &[Value::from(sub)], Value::Float(score))
                .unwrap();
        }
        // Conferences table (Single = blind 0 / treated as not double blind).
        for (conf, double_blind) in [("ConfDB", false), ("ConfAI", true)] {
            inst.add_entity("Conference", Value::from(conf)).unwrap();
            inst.set_attribute("Blind", &[Value::from(conf)], Value::Bool(double_blind))
                .unwrap();
        }
        // Authorship table.
        for (a, s) in [
            ("Bob", "s1"),
            ("Eva", "s1"),
            ("Eva", "s2"),
            ("Eva", "s3"),
            ("Carlos", "s3"),
        ] {
            inst.add_relationship("Author", vec![Value::from(a), Value::from(s)])
                .unwrap();
        }
        // Submitted table.
        for (s, c) in [("s1", "ConfDB"), ("s2", "ConfAI"), ("s3", "ConfAI")] {
            inst.add_relationship("Submitted", vec![Value::from(s), Value::from(c)])
                .unwrap();
        }
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn review_example_instance_matches_figure_2() {
        let inst = Instance::review_example();
        assert!(inst.validate().is_ok());
        assert_eq!(inst.skeleton().entity_count("Person"), 3);
        assert_eq!(inst.skeleton().relationship_count("Author"), 5);
        assert_eq!(
            inst.attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.75))
        );
        assert_eq!(
            inst.attribute("Prestige", &[Value::from("Carlos")]),
            Some(&Value::Int(0))
        );
        // Quality is unobserved: no assignments.
        assert_eq!(inst.attribute_count("Quality"), 0);
        assert_eq!(inst.attribute_count("Score"), 3);
    }

    #[test]
    fn set_attribute_validates_domain_and_arity() {
        let mut inst = Instance::review_example();
        // Prestige is boolean; 2 is not an admissible value.
        let err = inst
            .set_attribute("Prestige", &[Value::from("Bob")], Value::Int(2))
            .unwrap_err();
        assert!(matches!(err, RelError::DomainMismatch { .. }));
        let err = inst
            .set_attribute(
                "Score",
                &[Value::from("s1"), Value::from("x")],
                Value::Float(0.5),
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ArityMismatch { .. }));
        let err = inst
            .set_attribute("DoesNotExist", &[Value::from("s1")], Value::Float(0.5))
            .unwrap_err();
        assert!(matches!(err, RelError::UnknownAttribute(_)));
    }

    #[test]
    fn add_relationship_rejects_dangling_and_wrong_kind() {
        let mut inst = Instance::new(RelationalSchema::review_example());
        inst.add_entity("Person", Value::from("Bob")).unwrap();
        let err = inst
            .add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")])
            .unwrap_err();
        assert!(matches!(err, RelError::DanglingReference { .. }));
        let err = inst.add_entity("Author", Value::from("Bob")).unwrap_err();
        assert!(matches!(err, RelError::UnknownPredicate(_)));
    }

    #[test]
    fn units_of_attribute_follow_subject() {
        let inst = Instance::review_example();
        assert_eq!(inst.units_of_attribute("Prestige").unwrap().len(), 3);
        assert_eq!(inst.units_of_attribute("Score").unwrap().len(), 3);
        assert_eq!(inst.units_of_attribute("Blind").unwrap().len(), 2);
    }

    #[test]
    fn attribute_f64_coerces() {
        let inst = Instance::review_example();
        assert_eq!(
            inst.attribute_f64("Prestige", &[Value::from("Bob")]),
            Some(1.0)
        );
        assert_eq!(inst.attribute_f64("Quality", &[Value::from("s1")]), None);
    }

    #[test]
    fn total_assignments_counts_all_attributes() {
        let inst = Instance::review_example();
        // 3 prestige + 3 qualification + 3 score + 2 blind = 11
        assert_eq!(inst.total_attribute_assignments(), 11);
    }

    #[test]
    fn apply_produces_new_epoch_without_touching_base() {
        let base = Instance::review_example();
        let base_fp = base.fingerprint();
        let next = base
            .apply(&[
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Dana"),
                },
                Mutation::SetAttribute {
                    attr: "Prestige".into(),
                    key: vec![Value::from("Dana")],
                    value: Value::Int(1),
                },
                Mutation::InsertRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("Dana"), Value::from("s2")],
                },
                Mutation::DeleteRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("Eva"), Value::from("s3")],
                },
                Mutation::SetAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s1")],
                    value: Value::Float(0.9),
                },
                Mutation::ClearAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s3")],
                },
            ])
            .unwrap();
        // The base epoch is untouched.
        assert_eq!(base.fingerprint(), base_fp);
        assert_eq!(base.skeleton().relationship_count("Author"), 5);
        assert_eq!(
            base.attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.75))
        );
        // The new epoch reflects every mutation, in order.
        assert_ne!(next.fingerprint(), base_fp);
        assert!(next.validate().is_ok());
        assert_eq!(next.skeleton().entity_count("Person"), 4);
        assert_eq!(next.skeleton().relationship_count("Author"), 5);
        assert!(next
            .skeleton()
            .has_relationship("Author", &[Value::from("Dana"), Value::from("s2")]));
        assert!(!next
            .skeleton()
            .has_relationship("Author", &[Value::from("Eva"), Value::from("s3")]));
        assert_eq!(
            next.attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.9))
        );
        assert_eq!(next.attribute("Score", &[Value::from("s3")]), None);
        // Replaying the same batch on the same base is deterministic.
        let replay = base
            .apply(&[Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from("s2")],
                value: Value::Float(0.5),
            }])
            .unwrap();
        let replay2 = base
            .apply(&[Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from("s2")],
                value: Value::Float(0.5),
            }])
            .unwrap();
        assert_eq!(replay.fingerprint(), replay2.fingerprint());
    }

    #[test]
    fn apply_is_atomic_on_error() {
        let base = Instance::review_example();
        // Second mutation dangles (no entity "ghost") → whole batch rejected.
        let err = base
            .apply(&[
                Mutation::SetAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s1")],
                    value: Value::Float(0.99),
                },
                Mutation::InsertRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("ghost"), Value::from("s1")],
                },
            ])
            .unwrap_err();
        assert!(matches!(err, RelError::DanglingReference { .. }));
        // Nothing leaked into the base.
        assert_eq!(
            base.attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.75))
        );
    }

    #[test]
    fn delete_and_clear_validate_predicates() {
        let mut inst = Instance::review_example();
        assert!(matches!(
            inst.delete_relationship("Nope", &[Value::from("x")]),
            Err(RelError::UnknownPredicate(_))
        ));
        assert!(matches!(
            inst.delete_relationship("Person", &[Value::from("Bob")]),
            Err(RelError::UnknownPredicate(_))
        ));
        assert!(matches!(
            inst.clear_attribute("Nope", &[Value::from("x")]),
            Err(RelError::UnknownAttribute(_))
        ));
        // Absent tuple / assignment → no-op results.
        assert_eq!(
            inst.delete_relationship("Author", &[Value::from("Bob"), Value::from("s3")]),
            Ok(false)
        );
        assert_eq!(
            inst.clear_attribute("Quality", &[Value::from("s1")]),
            Ok(None)
        );
        // Present → removed (clear reports the removed value).
        assert_eq!(
            inst.delete_relationship("Author", &[Value::from("Bob"), Value::from("s1")]),
            Ok(true)
        );
        assert_eq!(
            inst.clear_attribute("Score", &[Value::from("s1")]),
            Ok(Some(Value::Float(0.75)))
        );
    }

    #[test]
    fn epoch_clones_share_storage_copy_on_write() {
        let base = Instance::review_example();
        let next = base
            .apply(&[Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from("s1")],
                value: Value::Float(0.9),
            }])
            .expect("attribute batch applies");
        // An attribute-only epoch shares the skeleton and every untouched
        // attribute map with its base; only the written map is re-allocated.
        assert!(Arc::ptr_eq(&base.skeleton, &next.skeleton));
        assert!(Arc::ptr_eq(
            &base.attributes["Prestige"],
            &next.attributes["Prestige"]
        ));
        assert!(!Arc::ptr_eq(
            &base.attributes["Score"],
            &next.attributes["Score"]
        ));
        // Copy-on-write isolation: the base still reads the old value.
        assert_eq!(
            base.attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.75))
        );
        assert_eq!(
            next.attribute("Score", &[Value::from("s1")]),
            Some(&Value::Float(0.9))
        );
        // No-op retractions (absent tuple, unassigned cell) deep-copy
        // nothing: the probe-before-`make_mut` guards keep sharing intact.
        let noop = next
            .apply(&[
                Mutation::DeleteRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("Bob"), Value::from("s2")],
                },
                Mutation::ClearAttribute {
                    attr: "Quality".into(),
                    key: vec![Value::from("s1")],
                },
            ])
            .expect("no-op batch applies");
        assert!(Arc::ptr_eq(&next.skeleton, &noop.skeleton));
        assert!(Arc::ptr_eq(
            &next.attributes["Score"],
            &noop.attributes["Score"]
        ));
        assert_eq!(base.fingerprint(), {
            let mut b = base.clone();
            b.set_attribute("Prestige", &[Value::from("Bob")], Value::Int(1))
                .expect("rewrite of identical value");
            b.fingerprint()
        });
    }

    #[test]
    fn a_run_of_deletes_matches_deleting_one_mutation_at_a_time() {
        let base = Instance::review_example();
        let delete = |rel: &str, a: &str, s: &str| Mutation::DeleteRelationship {
            rel: rel.into(),
            tuple: vec![Value::from(a), Value::from(s)],
        };
        let batch = [
            delete("Author", "Eva", "s2"),
            delete("Author", "Carlos", "s1"), // absent
            delete("Author", "Bob", "s1"),
            delete("Author", "Eva", "s2"), // repeated
            delete("Submitted", "s1", "ConfDB"),
            delete("Author", "Eva", "s3"),
        ];
        let (batched, delta) = base.apply_with_delta(&batch).expect("batch applies");
        let mut one_by_one = base.clone();
        let mut ops = Vec::new();
        for m in &batch {
            let (next, d) = one_by_one
                .apply_with_delta(std::slice::from_ref(m))
                .unwrap();
            ops.extend(d.ops().iter().cloned());
            one_by_one = next;
        }
        assert_eq!(delta.ops(), ops.as_slice());
        assert_eq!(delta.len(), 4);
        assert_eq!(batched.fingerprint(), one_by_one.fingerprint());
        let rows = |i: &Instance| {
            i.skeleton()
                .relationship_tuples("Author")
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&batched), rows(&one_by_one), "stored order");
        // A run naming an unknown relationship fails the whole batch.
        assert!(base
            .apply_with_delta(&[delete("Author", "Eva", "s2"), delete("Nope", "a", "b")])
            .is_err());
    }

    #[test]
    fn apply_with_delta_records_only_effective_changes() {
        let base = Instance::review_example();
        let (next, delta) = base
            .apply_with_delta(&[
                // Idempotent re-insert of an existing entity: no delta.
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Bob"),
                },
                // Fresh entity: delta.
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Dana"),
                },
                // Re-insert of an existing relationship tuple: no delta.
                Mutation::InsertRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("Bob"), Value::from("s1")],
                },
                // Delete of an absent tuple: no phantom retraction.
                Mutation::DeleteRelationship {
                    rel: "Author".into(),
                    tuple: vec![Value::from("Carlos"), Value::from("s1")],
                },
                // Overwrite with bit-identical value: no delta.
                Mutation::SetAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s1")],
                    value: Value::Float(0.75),
                },
                // Effective overwrite: delta with the old value.
                Mutation::SetAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s2")],
                    value: Value::Float(0.9),
                },
                // Clear of a never-assigned cell: no phantom retraction.
                Mutation::ClearAttribute {
                    attr: "Quality".into(),
                    key: vec![Value::from("s1")],
                },
                // Effective clear.
                Mutation::ClearAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s3")],
                },
            ])
            .unwrap();
        assert_eq!(
            delta.ops(),
            &[
                DeltaOp::EntityAdded {
                    entity: "Person".into(),
                    key: Value::from("Dana"),
                },
                DeltaOp::CellSet {
                    attr: "Score".into(),
                    key: vec![Value::from("s2")],
                    old: Some(Value::Float(0.4)),
                    new: Value::Float(0.9),
                },
                DeltaOp::CellCleared {
                    attr: "Score".into(),
                    key: vec![Value::from("s3")],
                    old: Value::Float(0.1),
                },
            ]
        );
        assert!(delta.is_structural());
        assert_eq!(
            delta.touched_attrs().into_iter().collect::<Vec<_>>(),
            ["Score"]
        );
        assert_eq!(delta.changed_cells().len(), 2);
        assert_eq!(next.skeleton().entity_count("Person"), 4);
    }

    #[test]
    fn empty_delta_means_identical_fingerprint() {
        let base = Instance::review_example();
        let (next, delta) = base
            .apply_with_delta(&[
                Mutation::InsertEntity {
                    entity: "Person".into(),
                    key: Value::from("Bob"),
                },
                Mutation::SetAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s1")],
                    value: Value::Float(0.75),
                },
                Mutation::ClearAttribute {
                    attr: "Quality".into(),
                    key: vec![Value::from("s1")],
                },
            ])
            .unwrap();
        assert!(delta.is_empty());
        assert!(!delta.is_structural());
        assert_eq!(next.fingerprint(), base.fingerprint());
    }

    #[test]
    fn strict_cell_comparison_sees_int_to_float_rewrites() {
        let base = Instance::review_example();
        // Qualification holds floats; overwrite Prestige (Bool domain admits
        // ints 0/1) — Int(1) → Float(1.0)? Bool domain rejects floats, so use
        // Qualification: Float(50.0) → Int(50) is an effective change even
        // though Value::eq coerces them equal.
        let (_, delta) = base
            .apply_with_delta(&[Mutation::SetAttribute {
                attr: "Qualification".into(),
                key: vec![Value::from("Bob")],
                value: Value::Int(50),
            }])
            .unwrap();
        assert_eq!(delta.len(), 1);
        assert!(matches!(
            &delta.ops()[0],
            DeltaOp::CellSet { old: Some(Value::Float(f)), new: Value::Int(50), .. } if *f == 50.0
        ));
    }

    #[test]
    fn fingerprint_covers_skeleton_and_attribute_content() {
        let inst = Instance::review_example();
        let fp = inst.fingerprint();
        // Stable across clones (attribute maps iterate in arbitrary order;
        // the hash must not depend on it).
        assert_eq!(inst.clone().fingerprint(), fp);
        assert_eq!(Instance::review_example().fingerprint(), fp);
        // A skeleton change changes it.
        let mut grown = inst.clone();
        grown.add_entity("Person", Value::from("Dana")).unwrap();
        assert_ne!(grown.fingerprint(), fp);
        // An attribute-only change changes it too (same skeleton!): this is
        // what the grounding cache relies on, since derived aggregate
        // values read attribute assignments.
        let mut rescored = inst.clone();
        rescored
            .set_attribute("Score", &[Value::from("s1")], Value::Float(0.9))
            .unwrap();
        assert_eq!(
            rescored.skeleton().fingerprint(),
            inst.skeleton().fingerprint()
        );
        assert_ne!(rescored.fingerprint(), fp);
    }
}
