//! Relational skeletons: the grounded entities and relationship tuples of an
//! instance (Section 3.1).
//!
//! The skeleton `Δ` is the part of an observed instance that excludes the
//! grounded attribute functions. Grounding relational causal rules (Def 3.5)
//! and constructing relational paths (§4.3) only consult the skeleton.
//!
//! The skeleton holds one copy of its content, as symbols. Every entity key
//! and relationship-tuple component is interned into a [`SymbolTable`] the
//! moment it is added, and that table is the only holder of `Value`s. Each
//! predicate has one record, keyed once by name:
//!
//! * an entity class is its key symbols in row order plus the key → row
//!   index (the class's one membership index);
//! * a relationship is its tuples as rows of one flat symbol array with row
//!   offsets, plus one positional index (symbol → rows) per position.
//!   Membership and duplicate detection probe the shortest posting list of
//!   the tuple's symbols and compare row slices, so no tuple is stored
//!   twice.
//!
//! The tuple executor in [`crate::eval`] runs on these rows. `Value`s are
//! resolved only at the API edges ([`Skeleton::entity_keys`],
//! [`Skeleton::relationship_tuples`], [`Skeleton::units_of`]), as the
//! interner's representatives: a key added as `Float(2.0)` after an equal
//! `Int(2)` was interned reads back as `Int(2)`.
//!
//! Entity rows are append-only: the key at row `r` of a class never moves,
//! so the instance's attribute columns (see [`crate::Instance`]) align to
//! these rows.

use crate::error::{RelError, RelResult};
use crate::schema::{PredicateKind, RelationalSchema};
use crate::symbols::{Sym, SymMap, SymbolTable};
use crate::value::{fnv1a, Value, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The key of a grounded unit: a tuple of entity keys.
///
/// Units of an entity class have a single component (e.g. `["Bob"]`);
/// units of a relationship class have one component per position
/// (e.g. `["Bob", "s1"]` for `Author(Bob, s1)`).
pub type UnitKey = Vec<Value>;

/// The relational skeleton of an instance: sets of grounded entities and
/// relationship tuples, stored as interned symbols with their indexes.
///
/// Entity keys are stored per class in insertion order; a key's position
/// is its **row**. Rows are append-only (entities are never removed), so
/// the instance's attribute columns align to them, and each class has one
/// index, key symbol → row ([`Skeleton::entity_rows`]), that serves both
/// membership tests and row lookups. Relationship tuples are stored per
/// relationship; their rows shift when a tuple is removed.
///
/// The skeleton is one copy-on-write unit of an [`crate::Instance`]: a
/// structural commit copies it whole, an attribute-only commit shares it.
/// The symbol table is append-only, so symbols handed out earlier stay
/// valid for the skeleton's lifetime, removals included.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Skeleton {
    /// The only holder of the skeleton's `Value`s.
    interner: SymbolTable,
    /// Entity class name → its rows.
    entities: BTreeMap<String, EntityClass>,
    /// Relationship name → its tuples.
    relationships: BTreeMap<String, Relation>,
}

/// One entity class: key symbols in row order and the key → row index.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct EntityClass {
    keys: Vec<Sym>,
    rows: SymMap<Sym, u32>,
}

/// One relationship: its tuples as rows of symbols, stored flat, with one
/// index per position. Rows may differ in width, because the raw API does
/// not enforce arity; a zero-width row appears in no positional index.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Relation {
    /// Every row's symbols, row after row.
    syms: Vec<Sym>,
    /// Row `r` is `syms[offsets[r]..offsets[r + 1]]`; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Position → symbol → the rows holding it there, in row order.
    index: Vec<PositionIndex>,
}

/// Symbol → row ids, for one position of one relationship.
type PositionIndex = SymMap<Sym, Vec<u32>>;

impl Default for Relation {
    fn default() -> Self {
        Self {
            syms: Vec::new(),
            offsets: vec![0],
            index: Vec::new(),
        }
    }
}

impl Relation {
    fn rows(&self) -> RelRows<'_> {
        RelRows {
            syms: &self.syms,
            offsets: &self.offsets,
        }
    }

    /// The row holding exactly `tuple`: the candidates are the shortest
    /// posting list among the tuple's positions, compared by row slice.
    fn find(&self, tuple: &[Sym]) -> Option<usize> {
        let rows = self.rows();
        if tuple.is_empty() {
            return (0..rows.len()).find(|&r| rows.row(r).is_empty());
        }
        let mut shortest: Option<&[u32]> = None;
        for (index, sym) in self.index.get(..tuple.len())?.iter().zip(tuple) {
            let hits = index.get(sym)?;
            if shortest.is_none_or(|s| hits.len() < s.len()) {
                shortest = Some(hits);
            }
        }
        shortest?
            .iter()
            .map(|&r| r as usize)
            .find(|&r| rows.row(r) == tuple)
    }

    fn push(&mut self, tuple: &[Sym]) {
        let row = u32::try_from(self.rows().len()).expect("more than u32::MAX tuples");
        index_row(&mut self.index, row, tuple);
        self.syms.extend_from_slice(tuple);
        self.offsets
            .push(u32::try_from(self.syms.len()).expect("more than u32::MAX tuple components"));
    }

    /// Remove the rows `drop` marks, in one compaction that keeps the
    /// others in stored order. Later rows shift down, so the positional
    /// indexes are rebuilt, once.
    fn remove_rows(&mut self, drop: &[bool]) {
        let mut syms = Vec::with_capacity(self.syms.len());
        let mut offsets = vec![0];
        for (tuple, _) in self.rows().iter().zip(drop).filter(|(_, &d)| !d) {
            syms.extend_from_slice(tuple);
            offsets.push(u32::try_from(syms.len()).expect("no longer than before"));
        }
        self.syms = syms;
        self.offsets = offsets;
        let mut index = Vec::new();
        for (r, tuple) in self.rows().iter().enumerate() {
            index_row(&mut index, r as u32, tuple);
        }
        self.index = index;
    }
}

/// Record `tuple` as row `row` in the positional indexes.
fn index_row(index: &mut Vec<PositionIndex>, row: u32, tuple: &[Sym]) {
    if index.len() < tuple.len() {
        index.resize_with(tuple.len(), PositionIndex::default);
    }
    for (position, &sym) in index.iter_mut().zip(tuple) {
        position.entry(sym).or_default().push(row);
    }
}

/// The tuples of one relationship as rows of interned symbols, in stored
/// order (see [`Skeleton::relationship_syms`]).
#[derive(Debug, Clone, Copy)]
pub struct RelRows<'a> {
    syms: &'a [Sym],
    offsets: &'a [u32],
}

impl<'a> RelRows<'a> {
    const EMPTY: RelRows<'static> = RelRows {
        syms: &[],
        offsets: &[0],
    };

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbols of row `row`.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    pub fn row(&self, row: usize) -> &'a [Sym] {
        &self.syms[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// Every row, in stored order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [Sym]> + 'a {
        let syms = self.syms;
        self.offsets
            .windows(2)
            .map(move |w| &syms[w[0] as usize..w[1] as usize])
    }
}

/// The record of `name` in `map`, created empty on first use (without
/// allocating the name again once it exists).
fn record<'m, T: Default>(map: &'m mut BTreeMap<String, T>, name: &str) -> &'m mut T {
    if !map.contains_key(name) {
        map.insert(name.to_string(), T::default());
    }
    map.get_mut(name).expect("inserted above")
}

impl Skeleton {
    /// Create an empty skeleton.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a grounded entity with key `key` to class `entity`.
    /// Duplicate keys are ignored (idempotent).
    pub fn add_entity(&mut self, entity: &str, key: Value) {
        let sym = self.interner.intern(&key);
        let class = record(&mut self.entities, entity);
        let row = u32::try_from(class.keys.len()).expect("more than u32::MAX entities");
        if let std::collections::hash_map::Entry::Vacant(slot) = class.rows.entry(sym) {
            slot.insert(row);
            class.keys.push(sym);
        }
    }

    /// Add a grounded relationship tuple. Duplicates are stored only once,
    /// zero-arity and mixed-arity tuples included.
    pub fn add_relationship(&mut self, rel: &str, tuple: UnitKey) {
        let syms: Vec<Sym> = tuple.iter().map(|v| self.interner.intern(v)).collect();
        let relation = record(&mut self.relationships, rel);
        if relation.find(&syms).is_none() {
            relation.push(&syms);
        }
    }

    /// Remove a grounded relationship tuple. Returns `true` if the tuple
    /// was present (and removed), `false` if it was absent.
    ///
    /// Removal shifts the row ids of every later tuple of `rel`. The
    /// interner is append-only and untouched: symbols issued earlier stay
    /// valid.
    pub fn remove_relationship(&mut self, rel: &str, tuple: &[Value]) -> bool {
        self.remove_relationships(rel, &[tuple])[0]
    }

    /// Remove a batch of tuples of `rel` in one compaction of its rows, so
    /// the batch costs one rebuild of the positional indexes rather than
    /// one per tuple. Returns, per tuple, whether it was removed: `false`
    /// for a tuple that was absent or repeats an earlier one of the batch,
    /// exactly as removing them one at a time would report.
    pub fn remove_relationships(&mut self, rel: &str, tuples: &[&[Value]]) -> Vec<bool> {
        let mut removed = vec![false; tuples.len()];
        let found: Vec<Option<Vec<Sym>>> = tuples.iter().map(|t| self.syms_of(t)).collect();
        let Some(relation) = self.relationships.get_mut(rel) else {
            return removed;
        };
        let mut drop = vec![false; relation.rows().len()];
        for (syms, removed) in found.iter().zip(&mut removed) {
            if let Some(row) = syms.as_deref().and_then(|syms| relation.find(syms)) {
                *removed = !std::mem::replace(&mut drop[row], true);
            }
        }
        if removed.contains(&true) {
            relation.remove_rows(&drop);
        }
        removed
    }

    /// The symbols of `tuple`, if every component has been interned.
    fn syms_of(&self, tuple: &[Value]) -> Option<Vec<Sym>> {
        tuple.iter().map(|v| self.interner.get(v)).collect()
    }

    /// The skeleton's value interner: the one holder of its `Value`s.
    /// Append-only: symbols stay valid for the lifetime of the skeleton.
    pub fn interner(&self) -> &SymbolTable {
        &self.interner
    }

    /// Whether entity class `entity` contains `key`.
    pub fn has_entity(&self, entity: &str, key: &Value) -> bool {
        self.interner
            .get(key)
            .is_some_and(|sym| self.has_entity_sym(entity, sym))
    }

    /// Whether entity class `entity` contains the interned key `sym`.
    pub fn has_entity_sym(&self, entity: &str, sym: Sym) -> bool {
        self.entity_row_sym(entity, sym).is_some()
    }

    /// The row of `key` in entity class `entity` (its position in
    /// [`Skeleton::entity_keys`]), if the class contains it.
    pub fn entity_row(&self, entity: &str, key: &Value) -> Option<usize> {
        self.entity_row_sym(entity, self.interner.get(key)?)
    }

    /// The row of the interned key `sym` in entity class `entity`.
    pub fn entity_row_sym(&self, entity: &str, sym: Sym) -> Option<usize> {
        self.entity_rows(entity)?.get(&sym).map(|&row| row as usize)
    }

    /// The whole row index of entity class `entity`: key symbol → row.
    /// Readers resolve it once per class so each per-unit probe is a
    /// single symbol hash.
    pub fn entity_rows(&self, entity: &str) -> Option<&SymMap<Sym, u32>> {
        self.entities.get(entity).map(|class| &class.rows)
    }

    /// Every key of entity class `entity`, in row order, as the interner's
    /// representatives (empty if the class is empty).
    pub fn entity_keys(&self, entity: &str) -> impl ExactSizeIterator<Item = &Value> + '_ {
        self.entity_syms(entity)
            .iter()
            .map(|&sym| self.interner.value(sym))
    }

    /// The interned key of every row of `entity`, in row order.
    pub fn entity_syms(&self, entity: &str) -> &[Sym] {
        self.entities
            .get(entity)
            .map_or(&[], |class| class.keys.as_slice())
    }

    /// Number of grounded entities in class `entity`.
    pub fn entity_count(&self, entity: &str) -> usize {
        self.entity_syms(entity).len()
    }

    /// Every tuple of relationship `rel`, in stored order, built from the
    /// interner's representatives.
    pub fn relationship_tuples(&self, rel: &str) -> impl ExactSizeIterator<Item = UnitKey> + '_ {
        self.relationship_syms(rel)
            .iter()
            .map(|row| self.values_of(row))
    }

    /// The tuples of `rel` as rows of interned symbols, in stored order.
    pub fn relationship_syms(&self, rel: &str) -> RelRows<'_> {
        self.relationships
            .get(rel)
            .map_or(RelRows::EMPTY, Relation::rows)
    }

    /// The values of an interned tuple.
    fn values_of(&self, row: &[Sym]) -> UnitKey {
        row.iter()
            .map(|&s| self.interner.value(s).clone())
            .collect()
    }

    /// Number of tuples of relationship `rel`.
    pub fn relationship_count(&self, rel: &str) -> usize {
        self.relationship_syms(rel).len()
    }

    /// Tuples of `rel` whose component at `position` equals `key`.
    pub fn relationship_tuples_with(
        &self,
        rel: &str,
        position: usize,
        key: &Value,
    ) -> Vec<UnitKey> {
        let Some(sym) = self.interner.get(key) else {
            return Vec::new();
        };
        let rows = self.relationship_syms(rel);
        self.rows_with(rel, position, sym)
            .iter()
            .map(|&r| self.values_of(rows.row(r as usize)))
            .collect()
    }

    /// Row indexes of `rel` whose component at `position` is the interned
    /// symbol `sym` (the dense positional probe of the tuple executor).
    pub fn rows_with(&self, rel: &str, position: usize, sym: Sym) -> &[u32] {
        self.positional_index(rel, position)
            .and_then(|idx| idx.get(&sym))
            .map_or(&[], Vec::as_slice)
    }

    /// The whole positional index of `(rel, position)`: symbol → row ids.
    /// Executors resolve this once per plan step so the per-row probe is a
    /// single symbol hash (no per-row key construction).
    pub fn positional_index(&self, rel: &str, position: usize) -> Option<&SymMap<Sym, Vec<u32>>> {
        self.relationships.get(rel)?.index.get(position)
    }

    /// Number of distinct values appearing at `position` of relationship
    /// `rel`. Used by the query planner as a selectivity estimate: a hash
    /// probe on this position returns `count / distinct` tuples on average.
    pub fn distinct_count(&self, rel: &str, position: usize) -> usize {
        self.positional_index(rel, position).map_or(0, SymMap::len)
    }

    /// Whether any tuple of `rel` has value `key` at `position` (an O(1)
    /// semi-join membership test against the positional index).
    pub fn contains_at(&self, rel: &str, position: usize, key: &Value) -> bool {
        self.interner
            .get(key)
            .is_some_and(|sym| self.contains_sym_at(rel, position, sym))
    }

    /// Dense variant of [`Skeleton::contains_at`] for an interned symbol.
    pub fn contains_sym_at(&self, rel: &str, position: usize, sym: Sym) -> bool {
        self.positional_index(rel, position)
            .is_some_and(|idx| idx.contains_key(&sym))
    }

    /// Whether relationship `rel` contains exactly `tuple`.
    pub fn has_relationship(&self, rel: &str, tuple: &[Value]) -> bool {
        self.syms_of(tuple)
            .is_some_and(|syms| self.has_relationship_syms(rel, &syms))
    }

    /// Dense variant of [`Skeleton::has_relationship`] for interned tuples.
    pub fn has_relationship_syms(&self, rel: &str, tuple: &[Sym]) -> bool {
        self.relationships
            .get(rel)
            .is_some_and(|relation| relation.find(tuple).is_some())
    }

    /// Grounded units of a predicate: single-component keys for entities,
    /// full tuples for relationships.
    pub fn units_of(&self, schema: &RelationalSchema, predicate: &str) -> RelResult<Vec<UnitKey>> {
        match schema.require_predicate(predicate)? {
            PredicateKind::Entity => Ok(self
                .entity_keys(predicate)
                .map(|k| vec![k.clone()])
                .collect()),
            PredicateKind::Relationship => Ok(self.relationship_tuples(predicate).collect()),
        }
    }

    /// Validate that every relationship tuple references existing entities
    /// and has the declared arity.
    pub fn validate(&self, schema: &RelationalSchema) -> RelResult<()> {
        for (rel, relation) in &self.relationships {
            let positions = schema
                .predicate_positions(rel)
                .ok_or_else(|| RelError::UnknownPredicate(rel.clone()))?;
            for tuple in relation.rows().iter() {
                if tuple.len() != positions.len() {
                    return Err(RelError::ArityMismatch {
                        predicate: rel.clone(),
                        expected: positions.len(),
                        actual: tuple.len(),
                    });
                }
                for (entity, &sym) in positions.iter().zip(tuple) {
                    if !self.has_entity_sym(entity, sym) {
                        return Err(RelError::DanglingReference {
                            rel: rel.clone(),
                            entity: entity.clone(),
                            key: self.interner.value(sym).to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of grounded entities across all classes.
    pub fn total_entities(&self) -> usize {
        self.entities.values().map(|class| class.keys.len()).sum()
    }

    /// Total number of relationship tuples across all classes.
    pub fn total_relationship_tuples(&self) -> usize {
        self.relationships.values().map(|r| r.rows().len()).sum()
    }

    /// A stable 64-bit fingerprint of the skeleton's content (every entity
    /// key and relationship tuple, per class, in stored order).
    ///
    /// Two skeletons with the same content produce the same fingerprint in
    /// any process on any platform (the hash is an explicit FNV-1a over a
    /// canonical byte rendering fed by [`Value::fold_key_bytes`], not a
    /// `RandomState` hash), which makes it usable as a grounding-cache key:
    /// a cache entry keyed by `(rule, fingerprint)` stays valid exactly as
    /// long as the skeleton it was computed from is unchanged. Content
    /// insertions always change the fingerprint; permuting insertion order
    /// may change it too, which for a cache key is merely a conservative
    /// miss.
    pub fn fingerprint(&self) -> u64 {
        let mix = fnv1a;
        let mut h = FNV_OFFSET;
        for (entity, class) in &self.entities {
            mix(&mut h, entity.as_bytes());
            mix(&mut h, &[0xff]);
            for &key in &class.keys {
                self.interner
                    .value(key)
                    .fold_key_bytes(&mut |bytes| mix(&mut h, bytes));
                mix(&mut h, &[0xfe]);
            }
        }
        for (rel, relation) in &self.relationships {
            mix(&mut h, rel.as_bytes());
            mix(&mut h, &[0xfd]);
            for tuple in relation.rows().iter() {
                for &sym in tuple {
                    self.interner
                        .value(sym)
                        .fold_key_bytes(&mut |bytes| mix(&mut h, bytes));
                    mix(&mut h, &[0xfc]);
                }
                mix(&mut h, &[0xfb]);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationalSchema;

    fn paper_skeleton() -> (RelationalSchema, Skeleton) {
        let schema = RelationalSchema::review_example();
        let mut sk = Skeleton::new();
        for p in ["Bob", "Carlos", "Eva"] {
            sk.add_entity("Person", Value::from(p));
        }
        for s in ["s1", "s2", "s3"] {
            sk.add_entity("Submission", Value::from(s));
        }
        for c in ["ConfDB", "ConfAI"] {
            sk.add_entity("Conference", Value::from(c));
        }
        for (a, s) in [
            ("Bob", "s1"),
            ("Eva", "s1"),
            ("Eva", "s2"),
            ("Eva", "s3"),
            ("Carlos", "s3"),
        ] {
            sk.add_relationship("Author", vec![Value::from(a), Value::from(s)]);
        }
        for (s, c) in [("s1", "ConfDB"), ("s2", "ConfAI"), ("s3", "ConfAI")] {
            sk.add_relationship("Submitted", vec![Value::from(s), Value::from(c)]);
        }
        (schema, sk)
    }

    #[test]
    fn counts_match_figure_2() {
        let (schema, sk) = paper_skeleton();
        assert_eq!(sk.entity_count("Person"), 3);
        assert_eq!(sk.entity_count("Submission"), 3);
        assert_eq!(sk.relationship_count("Author"), 5);
        assert_eq!(sk.relationship_count("Submitted"), 3);
        assert!(sk.validate(&schema).is_ok());
        assert_eq!(sk.total_entities(), 8);
        assert_eq!(sk.total_relationship_tuples(), 8);
    }

    #[test]
    fn duplicate_entities_and_tuples_are_deduplicated() {
        let mut sk = Skeleton::new();
        sk.add_entity("Person", Value::from("Bob"));
        sk.add_entity("Person", Value::from("Bob"));
        assert_eq!(sk.entity_count("Person"), 1);
        sk.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]);
        sk.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]);
        assert_eq!(sk.relationship_count("Author"), 1);
    }

    #[test]
    fn positional_lookup() {
        let (_, sk) = paper_skeleton();
        let evas = sk.relationship_tuples_with("Author", 0, &Value::from("Eva"));
        assert_eq!(evas.len(), 3);
        let s3 = sk.relationship_tuples_with("Author", 1, &Value::from("s3"));
        assert_eq!(s3.len(), 2);
        assert!(sk
            .relationship_tuples_with("Author", 0, &Value::from("Nobody"))
            .is_empty());
    }

    #[test]
    fn symbol_rows_resolve_to_the_added_values() {
        let (_, sk) = paper_skeleton();
        let interner = sk.interner();
        // Entity rows resolve back to the added keys, row for row.
        let people: Vec<&Value> = sk.entity_keys("Person").collect();
        assert_eq!(
            people,
            [
                &Value::from("Bob"),
                &Value::from("Carlos"),
                &Value::from("Eva")
            ]
        );
        for entity in ["Person", "Submission", "Conference"] {
            let syms = sk.entity_syms(entity);
            assert_eq!(sk.entity_keys(entity).len(), syms.len());
            for (key, &sym) in sk.entity_keys(entity).zip(syms) {
                assert_eq!(interner.value(sym), key);
                assert!(sk.has_entity_sym(entity, sym));
            }
        }
        // Relationship rows too.
        let rows = sk.relationship_syms("Author");
        assert_eq!(sk.relationship_tuples("Author").len(), rows.len());
        for (r, tuple) in sk.relationship_tuples("Author").enumerate() {
            let row = rows.row(r);
            for (v, &s) in tuple.iter().zip(row) {
                assert_eq!(interner.value(s), v);
            }
            assert!(sk.has_relationship_syms("Author", row));
        }
        // Dense positional probe agrees with the Value-level one.
        let eva = interner.get(&Value::from("Eva")).unwrap();
        assert_eq!(sk.rows_with("Author", 0, eva).len(), 3);
        assert!(sk.contains_sym_at("Author", 0, eva));
        assert!(!sk.contains_sym_at("Submitted", 0, eva));
    }

    #[test]
    fn keys_read_back_as_the_first_interned_equal_value() {
        let mut sk = Skeleton::new();
        sk.add_entity("Year", Value::Int(2));
        sk.add_entity("Grade", Value::Float(2.0));
        sk.add_relationship("Takes", vec![Value::Float(2.0), Value::Int(2)]);
        assert!(matches!(
            sk.entity_keys("Grade").next(),
            Some(Value::Int(2))
        ));
        let tuples: Vec<UnitKey> = sk.relationship_tuples("Takes").collect();
        assert!(matches!(
            tuples[0].as_slice(),
            [Value::Int(2), Value::Int(2)]
        ));
        assert!(sk.has_relationship("Takes", &[Value::Int(2), Value::Float(2.0)]));
    }

    #[test]
    fn validation_catches_dangling_and_arity() {
        let schema = RelationalSchema::review_example();
        let mut sk = Skeleton::new();
        sk.add_entity("Person", Value::from("Bob"));
        sk.add_relationship("Author", vec![Value::from("Bob"), Value::from("ghost")]);
        assert!(matches!(
            sk.validate(&schema),
            Err(RelError::DanglingReference { .. })
        ));

        let mut sk2 = Skeleton::new();
        sk2.add_entity("Person", Value::from("Bob"));
        sk2.add_relationship("Author", vec![Value::from("Bob")]);
        assert!(matches!(
            sk2.validate(&schema),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn units_of_entity_and_relationship() {
        let (schema, sk) = paper_skeleton();
        let people = sk.units_of(&schema, "Person").unwrap();
        assert_eq!(people.len(), 3);
        assert_eq!(people[0].len(), 1);
        let authorships = sk.units_of(&schema, "Author").unwrap();
        assert_eq!(authorships.len(), 5);
        assert_eq!(authorships[0].len(), 2);
    }

    #[test]
    fn dedup_is_authoritative_without_a_position_0_index() {
        // Regression: duplicate detection once consulted only the
        // position-0 index, which zero-arity tuples never populate, so they
        // were stored twice. Their membership is answered from the rows.
        let mut sk = Skeleton::new();
        sk.add_relationship("Marker", vec![]);
        sk.add_relationship("Marker", vec![]);
        assert_eq!(sk.relationship_count("Marker"), 1);
        assert!(sk.has_relationship("Marker", &[]));

        // A prefix of a stored tuple is a different tuple, and vice versa.
        let (bob, s1) = (Value::from("Bob"), Value::from("s1"));
        sk.add_relationship("Marker", vec![bob.clone(), s1.clone()]);
        sk.add_relationship("Marker", vec![bob.clone()]);
        sk.add_relationship("Marker", vec![bob.clone(), s1.clone()]);
        sk.add_relationship("Marker", vec![bob.clone()]);
        assert_eq!(sk.relationship_count("Marker"), 3);
        assert!(!sk.has_relationship("Marker", std::slice::from_ref(&s1)));
        assert!(!sk.has_relationship("Marker", &[bob.clone(), s1.clone(), bob.clone()]));
        assert!(sk.remove_relationship("Marker", &[]));
        assert!(!sk.has_relationship("Marker", &[]));
        assert!(sk.has_relationship("Marker", std::slice::from_ref(&bob)));
        assert_eq!(
            sk.rows_with("Marker", 0, sk.interner().get(&bob).unwrap()),
            &[0, 1]
        );
    }

    #[test]
    fn remove_relationship_resyncs_derived_state() {
        let (schema, mut sk) = paper_skeleton();
        let fp = sk.fingerprint();
        assert!(sk.remove_relationship("Author", &[Value::from("Eva"), Value::from("s2")]));
        assert_eq!(sk.relationship_count("Author"), 4);
        assert_ne!(sk.fingerprint(), fp);
        // The positional indexes, membership and the rows all agree.
        assert_eq!(
            sk.relationship_tuples_with("Author", 0, &Value::from("Eva"))
                .len(),
            2
        );
        assert!(!sk.has_relationship("Author", &[Value::from("Eva"), Value::from("s2")]));
        assert_eq!(sk.relationship_syms("Author").len(), 4);
        assert!(sk.validate(&schema).is_ok());
        // The tuple can be re-added (membership no longer finds it).
        sk.add_relationship("Author", vec![Value::from("Eva"), Value::from("s2")]);
        assert_eq!(sk.relationship_count("Author"), 5);
        // Removing an absent tuple or unknown relationship is a no-op.
        assert!(!sk.remove_relationship("Author", &[Value::from("Bob"), Value::from("s9")]));
        assert!(!sk.remove_relationship("Nope", &[Value::from("Bob")]));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let (_, sk) = paper_skeleton();
        let fp = sk.fingerprint();
        // Stable across clones.
        let mut clone = sk.clone();
        assert_eq!(clone.fingerprint(), fp);
        // Re-adding existing content is a no-op for the fingerprint.
        clone.add_entity("Person", Value::from("Bob"));
        clone.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]);
        assert_eq!(clone.fingerprint(), fp);
        // Any content change changes it.
        let mut grown = sk.clone();
        grown.add_entity("Person", Value::from("Dana"));
        assert_ne!(grown.fingerprint(), fp);
        let mut rewired = sk.clone();
        rewired.add_relationship("Author", vec![Value::from("Carlos"), Value::from("s1")]);
        assert_ne!(rewired.fingerprint(), fp);
        // The empty skeleton has its own fingerprint.
        assert_ne!(Skeleton::new().fingerprint(), fp);
        assert_eq!(Skeleton::new().fingerprint(), Skeleton::new().fingerprint());
    }

    #[test]
    fn symbols_stay_valid_across_removals() {
        let (_, mut sk) = paper_skeleton();
        let eva_before = sk.interner().get(&Value::from("Eva")).unwrap();
        assert!(sk.remove_relationship("Author", &[Value::from("Eva"), Value::from("s1")]));
        assert!(sk.remove_relationship("Author", &[Value::from("Eva"), Value::from("s3")]));
        assert_eq!(sk.rows_with("Author", 0, eva_before), &[1]);
        assert_eq!(sk.relationship_syms("Author").row(1)[0], eva_before);
        // Symbols issued before the removals still resolve (append-only).
        assert_eq!(sk.interner().get(&Value::from("Eva")), Some(eva_before));
        assert_eq!(sk.interner().value(eva_before), &Value::from("Eva"));
    }
}
