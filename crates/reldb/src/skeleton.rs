//! Relational skeletons: the grounded entities and relationship tuples of an
//! instance (Section 3.1).
//!
//! The skeleton `Δ` is the part of an observed instance that excludes the
//! grounded attribute functions. Grounding relational causal rules (Def 3.5)
//! and constructing relational paths (§4.3) only consult the skeleton.
//!
//! Every entity key and relationship-tuple component is interned into a
//! [`SymbolTable`] the moment it is added: alongside the canonical `Value`
//! storage the skeleton maintains *dense mirrors* (`Vec<Sym>` per entity
//! class, `Vec<Vec<Sym>>` per relationship) and keys its positional indexes
//! and duplicate-detection sets on 4-byte symbols instead of heap values.
//! The tuple executor in [`crate::eval`] runs entirely over these mirrors.
//!
//! Entity rows are append-only: the key at row `r` of a class never moves,
//! so the instance's attribute columns (see [`crate::Instance`]) align to
//! these rows, and each class's one membership index maps a key symbol to
//! its row.

use crate::error::{RelError, RelResult};
use crate::schema::{PredicateKind, RelationalSchema};
use crate::symbols::{Sym, SymMap, SymSet, SymbolTable};
use crate::value::{fnv1a, Value, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// The key of a grounded unit: a tuple of entity keys.
///
/// Units of an entity class have a single component (e.g. `["Bob"]`);
/// units of a relationship class have one component per position
/// (e.g. `["Bob", "s1"]` for `Author(Bob, s1)`).
pub type UnitKey = Vec<Value>;

/// The relational skeleton of an instance: sets of grounded entities and
/// relationship tuples, with interned dense mirrors and adjacency indexes
/// for efficient traversal.
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
///
/// All `#[serde(skip)]` fields are derived state. They are maintained
/// eagerly by `add_entity`/`add_relationship` and rebuilt by
/// [`Skeleton::rebuild_indexes`], which must be called after
/// deserialisation (the same contract the positional indexes have always
/// had). The symbol table is append-only and never cleared, so symbols
/// handed out earlier stay valid across index rebuilds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Skeleton {
    /// Entity class name → set of keys (insertion-ordered).
    entities: BTreeMap<String, Vec<Value>>,
    /// Relationship name → list of tuples.
    relationships: BTreeMap<String, Vec<UnitKey>>,
    /// The value interner shared by every dense mirror below.
    #[serde(skip)]
    interner: SymbolTable,
    /// Dense mirror of `entities` (aligned per class).
    #[serde(skip)]
    entity_syms: BTreeMap<String, Vec<Sym>>,
    /// Per entity class: key symbol → row in `entities[class]` (the one
    /// membership index of the class; rows never move).
    #[serde(skip)]
    entity_index: BTreeMap<String, SymMap<Sym, u32>>,
    /// Dense mirror of `relationships` (aligned per relationship).
    #[serde(skip)]
    rel_syms: BTreeMap<String, Vec<Vec<Sym>>>,
    /// (relationship, position, symbol) → row indexes into
    /// `relationships[rel]`.
    #[serde(skip)]
    rel_index: HashMap<(String, usize), SymMap<Sym, Vec<u32>>>,
    /// Authoritative per-relationship membership sets for duplicate
    /// detection, keyed on interned tuples (no `UnitKey` clones).
    #[serde(skip)]
    rel_set: BTreeMap<String, SymSet<Vec<Sym>>>,
}

impl Skeleton {
    /// Create an empty skeleton.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a grounded entity with key `key` to class `entity`.
    /// Duplicate keys are ignored (idempotent).
    pub fn add_entity(&mut self, entity: &str, key: Value) {
        // Resynchronise the derived mirror if it is stale (deserialisation).
        let stored = self.entities.entry(entity.to_string()).or_default().len();
        let mirrored = self.entity_syms.get(entity).map_or(0, Vec::len);
        if mirrored != stored {
            self.resync_entity(entity);
        }
        let sym = self.interner.intern(&key);
        let index = self.entity_index.entry(entity.to_string()).or_default();
        if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(sym) {
            slot.insert(u32::try_from(stored).expect("more than u32::MAX entities"));
            self.entities
                .get_mut(entity)
                .expect("entry created above")
                .push(key);
            self.entity_syms
                .entry(entity.to_string())
                .or_default()
                .push(sym);
        }
    }

    /// Add a grounded relationship tuple. Duplicates are stored only once.
    ///
    /// Duplicate detection is authoritative: it consults a per-relationship
    /// membership set of interned tuples rather than the positional index,
    /// so it keeps working for zero-arity tuples and after deserialisation
    /// (where the derived indexes start out empty and are resynchronised
    /// lazily here).
    pub fn add_relationship(&mut self, rel: &str, tuple: UnitKey) {
        let stored = self.relationships.entry(rel.to_string()).or_default().len();
        let mirrored = self.rel_syms.get(rel).map_or(0, Vec::len);
        if mirrored != stored {
            self.resync_relationship(rel);
        }
        let syms: Vec<Sym> = tuple.iter().map(|v| self.interner.intern(v)).collect();
        if !self
            .rel_set
            .entry(rel.to_string())
            .or_default()
            .insert(syms.clone())
        {
            return;
        }
        let rows = self
            .relationships
            .get_mut(rel)
            .expect("entry created above");
        let row_id = u32::try_from(rows.len()).expect("more than u32::MAX tuples");
        rows.push(tuple);
        for (pos, &sym) in syms.iter().enumerate() {
            self.rel_index
                .entry((rel.to_string(), pos))
                .or_default()
                .entry(sym)
                .or_default()
                .push(row_id);
        }
        self.rel_syms.entry(rel.to_string()).or_default().push(syms);
    }

    /// Remove a grounded relationship tuple. Returns `true` if the tuple
    /// was present (and removed), `false` if it was absent.
    ///
    /// Removal shifts the row ids of every later tuple of `rel`, so the
    /// derived positional state for that relationship is rebuilt from
    /// canonical storage. The interner is append-only and untouched:
    /// symbols issued earlier stay valid.
    pub fn remove_relationship(&mut self, rel: &str, tuple: &[Value]) -> bool {
        let Some(rows) = self.relationships.get_mut(rel) else {
            return false;
        };
        let Some(pos) = rows.iter().position(|t| t.as_slice() == tuple) else {
            return false;
        };
        rows.remove(pos);
        self.resync_relationship(rel);
        true
    }

    /// Rebuild the derived state of one entity class from canonical storage.
    fn resync_entity(&mut self, entity: &str) {
        let keys = self.entities.get(entity).cloned().unwrap_or_default();
        let syms: Vec<Sym> = keys.iter().map(|k| self.interner.intern(k)).collect();
        let rows = syms
            .iter()
            .enumerate()
            .map(|(row, &sym)| {
                (
                    sym,
                    u32::try_from(row).expect("more than u32::MAX entities"),
                )
            })
            .collect();
        self.entity_index.insert(entity.to_string(), rows);
        self.entity_syms.insert(entity.to_string(), syms);
    }

    /// Rebuild the derived state of one relationship from canonical storage.
    fn resync_relationship(&mut self, rel: &str) {
        let tuples = self.relationships.get(rel).cloned().unwrap_or_default();
        let syms: Vec<Vec<Sym>> = tuples
            .iter()
            .map(|t| t.iter().map(|v| self.interner.intern(v)).collect())
            .collect();
        self.rel_index.retain(|(r, _), _| r != rel);
        for (row_id, tuple) in syms.iter().enumerate() {
            for (pos, &sym) in tuple.iter().enumerate() {
                self.rel_index
                    .entry((rel.to_string(), pos))
                    .or_default()
                    .entry(sym)
                    .or_default()
                    .push(row_id as u32);
            }
        }
        self.rel_set
            .insert(rel.to_string(), syms.iter().cloned().collect());
        self.rel_syms.insert(rel.to_string(), syms);
    }

    /// The skeleton's value interner. Append-only: symbols stay valid for
    /// the lifetime of the skeleton (including across
    /// [`Skeleton::rebuild_indexes`]).
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
        self.entity_index.get(entity)
    }

    /// All keys of entity class `entity` (empty slice if the class is empty).
    pub fn entity_keys(&self, entity: &str) -> &[Value] {
        self.entities
            .get(entity)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Dense mirror of [`Skeleton::entity_keys`]: the interned symbols of
    /// every key of `entity`, in stored order.
    pub fn entity_syms(&self, entity: &str) -> &[Sym] {
        self.entity_syms
            .get(entity)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of grounded entities in class `entity`.
    pub fn entity_count(&self, entity: &str) -> usize {
        self.entities.get(entity).map_or(0, Vec::len)
    }

    /// All tuples of relationship `rel`.
    pub fn relationship_tuples(&self, rel: &str) -> &[UnitKey] {
        self.relationships
            .get(rel)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Dense mirror of [`Skeleton::relationship_tuples`]: the interned
    /// tuples of `rel`, aligned row for row with the `Value` storage.
    pub fn relationship_syms(&self, rel: &str) -> &[Vec<Sym>] {
        self.rel_syms.get(rel).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of tuples of relationship `rel`.
    pub fn relationship_count(&self, rel: &str) -> usize {
        self.relationships.get(rel).map_or(0, Vec::len)
    }

    /// Tuples of `rel` whose component at `position` equals `key`.
    pub fn relationship_tuples_with(
        &self,
        rel: &str,
        position: usize,
        key: &Value,
    ) -> Vec<&UnitKey> {
        let Some(sym) = self.interner.get(key) else {
            return Vec::new();
        };
        let table = self.relationship_tuples(rel);
        self.rows_with(rel, position, sym)
            .iter()
            .map(|&r| &table[r as usize])
            .collect()
    }

    /// Row indexes of `rel` whose component at `position` is the interned
    /// symbol `sym` (the dense positional probe of the tuple executor).
    pub fn rows_with(&self, rel: &str, position: usize, sym: Sym) -> &[u32] {
        self.positional_index(rel, position)
            .and_then(|idx| idx.get(&sym))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The whole positional index of `(rel, position)`: symbol → row ids.
    /// Executors resolve this once per plan step so the per-row probe is a
    /// single symbol hash (no per-row key construction).
    pub fn positional_index(&self, rel: &str, position: usize) -> Option<&SymMap<Sym, Vec<u32>>> {
        self.rel_index.get(&(rel.to_string(), position))
    }

    /// Number of distinct values appearing at `position` of relationship
    /// `rel`. Used by the query planner as a selectivity estimate: a hash
    /// probe on this position returns `count / distinct` tuples on average.
    pub fn distinct_count(&self, rel: &str, position: usize) -> usize {
        self.rel_index
            .get(&(rel.to_string(), position))
            .map_or(0, SymMap::len)
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
        self.rel_index
            .get(&(rel.to_string(), position))
            .is_some_and(|idx| idx.contains_key(&sym))
    }

    /// Whether relationship `rel` contains exactly `tuple`.
    pub fn has_relationship(&self, rel: &str, tuple: &[Value]) -> bool {
        let syms: Option<Vec<Sym>> = tuple.iter().map(|v| self.interner.get(v)).collect();
        match syms {
            Some(syms) => self.has_relationship_syms(rel, &syms),
            None => false,
        }
    }

    /// Dense variant of [`Skeleton::has_relationship`] for interned tuples.
    pub fn has_relationship_syms(&self, rel: &str, tuple: &[Sym]) -> bool {
        self.rel_set.get(rel).is_some_and(|s| s.contains(tuple))
    }

    /// Grounded units of a predicate: single-component keys for entities,
    /// full tuples for relationships.
    pub fn units_of(&self, schema: &RelationalSchema, predicate: &str) -> RelResult<Vec<UnitKey>> {
        match schema.require_predicate(predicate)? {
            PredicateKind::Entity => Ok(self
                .entity_keys(predicate)
                .iter()
                .map(|k| vec![k.clone()])
                .collect()),
            PredicateKind::Relationship => Ok(self.relationship_tuples(predicate).to_vec()),
        }
    }

    /// Validate that every relationship tuple references existing entities
    /// and has the declared arity.
    pub fn validate(&self, schema: &RelationalSchema) -> RelResult<()> {
        for (rel, tuples) in &self.relationships {
            let positions = schema
                .predicate_positions(rel)
                .ok_or_else(|| RelError::UnknownPredicate(rel.clone()))?;
            for tuple in tuples {
                if tuple.len() != positions.len() {
                    return Err(RelError::ArityMismatch {
                        predicate: rel.clone(),
                        expected: positions.len(),
                        actual: tuple.len(),
                    });
                }
                for (entity, key) in positions.iter().zip(tuple.iter()) {
                    if !self.has_entity(entity, key) {
                        return Err(RelError::DanglingReference {
                            rel: rel.clone(),
                            entity: entity.clone(),
                            key: key.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of grounded entities across all classes.
    pub fn total_entities(&self) -> usize {
        self.entities.values().map(Vec::len).sum()
    }

    /// Total number of relationship tuples across all classes.
    pub fn total_relationship_tuples(&self) -> usize {
        self.relationships.values().map(Vec::len).sum()
    }

    /// Rebuild the dense mirrors and positional indexes from the canonical
    /// `Value` storage (needed after deserialisation, since all derived
    /// state is skipped by serde).
    ///
    /// The interner is *extended*, never cleared: symbols issued before the
    /// rebuild keep their meaning, so caches keyed on symbols (see
    /// [`crate::index::IndexCache`]) are not silently remapped.
    pub fn rebuild_indexes(&mut self) {
        let classes: Vec<String> = self.entities.keys().cloned().collect();
        for entity in classes {
            self.resync_entity(&entity);
        }
        let rels: Vec<String> = self.relationships.keys().cloned().collect();
        for rel in rels {
            self.resync_relationship(&rel);
        }
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
        for (entity, keys) in &self.entities {
            mix(&mut h, entity.as_bytes());
            mix(&mut h, &[0xff]);
            for key in keys {
                key.fold_key_bytes(&mut |bytes| mix(&mut h, bytes));
                mix(&mut h, &[0xfe]);
            }
        }
        for (rel, tuples) in &self.relationships {
            mix(&mut h, rel.as_bytes());
            mix(&mut h, &[0xfd]);
            for tuple in tuples {
                for v in tuple {
                    v.fold_key_bytes(&mut |bytes| mix(&mut h, bytes));
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
    fn dense_mirrors_align_with_value_storage() {
        let (_, sk) = paper_skeleton();
        let interner = sk.interner();
        // Entity mirrors resolve back to the stored keys, row for row.
        for entity in ["Person", "Submission", "Conference"] {
            let keys = sk.entity_keys(entity);
            let syms = sk.entity_syms(entity);
            assert_eq!(keys.len(), syms.len());
            for (key, &sym) in keys.iter().zip(syms) {
                assert_eq!(interner.value(sym), key);
                assert!(sk.has_entity_sym(entity, sym));
            }
        }
        // Relationship mirrors too.
        let tuples = sk.relationship_tuples("Author");
        let syms = sk.relationship_syms("Author");
        assert_eq!(tuples.len(), syms.len());
        for (tuple, row) in tuples.iter().zip(syms) {
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
        // Regression: duplicate detection used to consult only the
        // position-0 positional index, so tuples that never populate it
        // (zero-arity tuples) or a skeleton whose derived indexes are empty
        // were silently stored twice.
        let mut sk = Skeleton::new();
        sk.add_relationship("Marker", vec![]);
        sk.add_relationship("Marker", vec![]);
        assert_eq!(sk.relationship_count("Marker"), 1);

        // Stale derived state (as after deserialisation): wipe the indexes
        // and membership sets, then re-add an existing tuple.
        let mut sk = Skeleton::new();
        sk.add_entity("Person", Value::from("Bob"));
        sk.add_entity("Submission", Value::from("s1"));
        sk.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]);
        sk.rel_index.clear();
        sk.rel_set.clear();
        sk.rel_syms.clear();
        sk.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]);
        assert_eq!(sk.relationship_count("Author"), 1);
        // The lazy resync restored the dense state too.
        assert_eq!(sk.relationship_syms("Author").len(), 1);
        assert_eq!(
            sk.relationship_tuples_with("Author", 0, &Value::from("Bob"))
                .len(),
            1
        );
    }

    #[test]
    fn remove_relationship_resyncs_derived_state() {
        let (schema, mut sk) = paper_skeleton();
        let fp = sk.fingerprint();
        assert!(sk.remove_relationship("Author", &[Value::from("Eva"), Value::from("s2")]));
        assert_eq!(sk.relationship_count("Author"), 4);
        assert_ne!(sk.fingerprint(), fp);
        // Positional indexes, membership sets, and dense mirrors all agree.
        assert_eq!(
            sk.relationship_tuples_with("Author", 0, &Value::from("Eva"))
                .len(),
            2
        );
        assert!(!sk.has_relationship("Author", &[Value::from("Eva"), Value::from("s2")]));
        assert_eq!(sk.relationship_syms("Author").len(), 4);
        assert!(sk.validate(&schema).is_ok());
        // The tuple can be re-added (dedupe set was rebuilt correctly).
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
        // Stable across clones and index rebuilds (derived state is not hashed).
        let mut clone = sk.clone();
        assert_eq!(clone.fingerprint(), fp);
        clone.rebuild_indexes();
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
    fn rebuild_indexes_is_idempotent_and_keeps_symbols_valid() {
        let (_, mut sk) = paper_skeleton();
        let eva_before = sk.interner().get(&Value::from("Eva")).unwrap();
        sk.rebuild_indexes();
        sk.rebuild_indexes();
        assert_eq!(
            sk.relationship_tuples_with("Author", 0, &Value::from("Eva"))
                .len(),
            3
        );
        // Symbols issued before the rebuild still resolve (append-only).
        assert_eq!(sk.interner().get(&Value::from("Eva")), Some(eva_before));
        assert_eq!(sk.interner().value(eva_before), &Value::from("Eva"));
    }
}
