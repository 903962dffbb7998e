//! Lazily built, cached secondary hash indexes over skeletons and
//! attribute tables.
//!
//! The skeleton maintains its single-position indexes eagerly (they are
//! cheap, universally useful, and answer its own membership tests).
//! Everything beyond that — composite indexes over several key positions
//! at once, built from the skeleton's symbol rows, and equality indexes
//! over attribute assignments — is built on demand by an [`IndexCache`]
//! the first time a query plan probes it, then reused by every later query
//! over the same instance.
//!
//! Invalidation is by content fingerprint: a cache remembers the
//! [`Skeleton::fingerprint`] / [`Instance::fingerprint`] it was built
//! against, and [`IndexCache::revalidate`] drops every index when the
//! content has changed. The engine constructs one cache per (immutable)
//! instance, so in steady state indexes are built exactly once.

use crate::instance::Instance;
use crate::plan::Plan;
use crate::skeleton::{Skeleton, UnitKey};
use crate::symbols::{Sym, SymMap};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A hash index over the tuples of one relationship, keyed by the interned
/// symbols at a fixed set of positions.
///
/// `positions` is sorted and deduplicated; bucket keys are the tuple
/// symbols at those positions, in the same order (see
/// [`Skeleton::interner`]) — probing hashes a handful of `u32`s instead of
/// heap values. Buckets store row indexes into the relationship's symbol
/// rows ([`Skeleton::relationship_syms`]), in insertion order, so probe
/// results are deterministic.
#[derive(Debug)]
pub struct CompositeIndex {
    positions: Vec<usize>,
    buckets: SymMap<Vec<Sym>, Vec<u32>>,
}

impl CompositeIndex {
    /// Build the index for `rel` over `positions` (sorted). Tuples too
    /// short to have every indexed position are skipped: `Skeleton` does
    /// not enforce arity, and such tuples can never unify with a
    /// schema-arity atom anyway.
    fn build(skeleton: &Skeleton, rel: &str, positions: &[usize]) -> Self {
        let mut buckets: SymMap<Vec<Sym>, Vec<u32>> = SymMap::default();
        for (row, tuple) in skeleton.relationship_syms(rel).iter().enumerate() {
            if positions.iter().any(|&p| p >= tuple.len()) {
                continue;
            }
            let key: Vec<Sym> = positions.iter().map(|&p| tuple[p]).collect();
            buckets.entry(key).or_default().push(row as u32);
        }
        Self {
            positions: positions.to_vec(),
            buckets,
        }
    }

    /// The positions this index is keyed on.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Row indexes whose symbols at the indexed positions equal `key`.
    pub fn rows(&self, key: &[Sym]) -> &[u32] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct composite keys.
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }
}

/// An equality index over one attribute's assignments: value → unit keys
/// carrying that value.
///
/// Buckets are sorted by unit key so iteration order is deterministic
/// across processes (the underlying assignment map is a `HashMap`).
#[derive(Debug)]
pub struct AttributeIndex {
    buckets: HashMap<Value, Vec<UnitKey>>,
}

impl AttributeIndex {
    fn build(instance: &Instance, attr: &str) -> Self {
        let mut buckets: HashMap<Value, Vec<UnitKey>> = HashMap::new();
        for (key, value) in instance.attribute_assignments(attr) {
            buckets
                .entry(value.clone())
                .or_default()
                .push(key.into_owned());
        }
        for bucket in buckets.values_mut() {
            bucket.sort();
        }
        Self { buckets }
    }

    /// Unit keys whose attribute value equals `value` (sorted).
    pub fn units(&self, value: &Value) -> &[UnitKey] {
        self.buckets.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of units carrying `value`.
    pub fn cardinality(&self, value: &Value) -> usize {
        self.buckets.get(value).map_or(0, Vec::len)
    }
}

/// Counters describing how an [`IndexCache`] has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Number of indexes built (cache misses).
    pub builds: usize,
    /// Number of index requests served from the cache (hits).
    pub hits: usize,
    /// Number of invalidations triggered by a fingerprint change.
    pub invalidations: usize,
}

/// Counters describing the shape-keyed plan cache of an [`IndexCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Template lookups answered from the cache.
    pub hits: usize,
    /// Template lookups that found no entry (followed by a cold plan).
    pub misses: usize,
    /// Number of templates currently stored.
    pub entries: usize,
}

/// Key of a cached composite index: (relationship name, sorted positions).
type CompositeKey = (String, Vec<usize>);

/// A fingerprint-validated cache of lazily built secondary indexes.
///
/// Shareable across threads (`&self` everywhere, internal locking); clones
/// of an engine share one cache via `Arc`.
#[derive(Debug)]
pub struct IndexCache {
    /// Fingerprint of the content the indexes were built from.
    fingerprint: Mutex<u64>,
    composite: Mutex<HashMap<CompositeKey, Arc<CompositeIndex>>>,
    attribute: Mutex<HashMap<String, Arc<AttributeIndex>>>,
    /// Plan templates keyed by query shape ([`crate::plan::shape_key`]):
    /// queries repeating a shape with different constants skip planning via
    /// [`crate::plan::instantiate`].
    plans: Mutex<HashMap<String, Arc<Plan>>>,
    builds: AtomicUsize,
    hits: AtomicUsize,
    invalidations: AtomicUsize,
    plan_hits: AtomicUsize,
    plan_misses: AtomicUsize,
}

impl IndexCache {
    /// An empty cache bound to an explicit content fingerprint (typically
    /// [`Instance::fingerprint`], already computed by the caller).
    pub fn with_fingerprint(fingerprint: u64) -> Self {
        Self {
            fingerprint: Mutex::new(fingerprint),
            composite: Mutex::new(HashMap::new()),
            attribute: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            invalidations: AtomicUsize::new(0),
            plan_hits: AtomicUsize::new(0),
            plan_misses: AtomicUsize::new(0),
        }
    }

    /// An empty cache bound to `instance`'s content fingerprint.
    pub fn for_instance(instance: &Instance) -> Self {
        Self::with_fingerprint(instance.fingerprint())
    }

    /// An empty cache bound to `skeleton`'s content fingerprint (no
    /// attribute indexes will be consistent with an instance's attributes;
    /// use [`IndexCache::for_instance`] when filters are involved).
    pub fn for_skeleton(skeleton: &Skeleton) -> Self {
        Self::with_fingerprint(skeleton.fingerprint())
    }

    /// Drop every cached index if `fingerprint` differs from the one the
    /// cache was built against, and rebind to the new fingerprint. Returns
    /// whether an invalidation happened.
    pub fn revalidate(&self, fingerprint: u64) -> bool {
        let mut current = self
            .fingerprint
            .lock()
            .expect("index cache fingerprint lock");
        if *current == fingerprint {
            return false;
        }
        *current = fingerprint;
        self.composite.lock().expect("composite index lock").clear();
        self.attribute.lock().expect("attribute index lock").clear();
        // Plan templates stay *correct* across content changes (a plan's
        // semantics never depend on data), but their join orders and cost
        // estimates were chosen for the old content; drop them so the new
        // epoch replans against its own cardinalities.
        self.plans.lock().expect("plan template lock").clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The fingerprint the cached indexes are valid for.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .lock()
            .expect("index cache fingerprint lock")
    }

    /// The composite index of `rel` over `positions` (sorted), building it
    /// on first request.
    pub fn relationship_index(
        &self,
        skeleton: &Skeleton,
        rel: &str,
        positions: &[usize],
    ) -> Arc<CompositeIndex> {
        let key = (rel.to_string(), positions.to_vec());
        let mut map = self.composite.lock().expect("composite index lock");
        if let Some(hit) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let built = Arc::new(CompositeIndex::build(skeleton, rel, positions));
        self.builds.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Arc::clone(&built));
        built
    }

    /// The equality index of attribute `attr`, building it on first request.
    pub fn attribute_index(&self, instance: &Instance, attr: &str) -> Arc<AttributeIndex> {
        let mut map = self.attribute.lock().expect("attribute index lock");
        if let Some(hit) = map.get(attr) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let built = Arc::new(AttributeIndex::build(instance, attr));
        self.builds.fetch_add(1, Ordering::Relaxed);
        map.insert(attr.to_string(), Arc::clone(&built));
        built
    }

    /// The cached plan template for `shape` (see [`crate::plan::shape_key`]),
    /// counting a hit or miss.
    pub fn plan_template(&self, shape: &str) -> Option<Arc<Plan>> {
        let map = self.plans.lock().expect("plan template lock");
        match map.get(shape) {
            Some(plan) => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(plan))
            }
            None => {
                self.plan_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `plan` as the template for `shape`. Last writer wins: two
    /// threads planning the same fresh shape concurrently both produce a
    /// correct template (the planner is deterministic, so they are equal).
    pub fn store_plan_template(&self, shape: String, plan: Arc<Plan>) {
        self.plans
            .lock()
            .expect("plan template lock")
            .insert(shape, plan);
    }

    /// Usage counters of the shape-keyed plan cache.
    pub fn plan_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            entries: self.plans.lock().expect("plan template lock").len(),
        }
    }

    /// A new cache for the epoch fingerprinted `fingerprint`, inheriting
    /// every index of `self` that an **attribute-only** delta cannot
    /// invalidate.
    ///
    /// Contract (the caller asserts it, typically from a
    /// [`crate::DeltaSet`] with `is_structural() == false`): the new
    /// epoch's *skeleton* is identical to the one `self`'s indexes were
    /// built from, and only attribute cells of the attrs in
    /// `changed_attrs` differ. Then:
    ///
    /// * composite indexes are skeleton-only → all shared (`Arc` clone);
    /// * attribute indexes of *unchanged* attrs are shared; changed attrs
    ///   are dropped and lazily rebuilt against the new epoch;
    /// * plan templates are **kept** — unlike [`IndexCache::revalidate`]
    ///   (which faces arbitrary content changes), an attribute-only delta
    ///   leaves every relationship cardinality the plans were costed
    ///   against untouched, and a template is always *correct* regardless
    ///   (join order never affects results), so replanning per patched
    ///   epoch would only burn the write-heavy fast path's latency budget.
    ///
    /// Counters start fresh: the inherited indexes were built by the old
    /// epoch and are free here.
    pub fn rebase_for_attribute_delta(
        &self,
        fingerprint: u64,
        changed_attrs: &std::collections::BTreeSet<&str>,
    ) -> IndexCache {
        let composite = self.composite.lock().expect("composite index lock").clone();
        let attribute: HashMap<String, Arc<AttributeIndex>> = self
            .attribute
            .lock()
            .expect("attribute index lock")
            .iter()
            .filter(|(attr, _)| !changed_attrs.contains(attr.as_str()))
            .map(|(attr, idx)| (attr.clone(), Arc::clone(idx)))
            .collect();
        let plans = self.plans.lock().expect("plan template lock").clone();
        IndexCache {
            fingerprint: Mutex::new(fingerprint),
            composite: Mutex::new(composite),
            attribute: Mutex::new(attribute),
            plans: Mutex::new(plans),
            builds: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            invalidations: AtomicUsize::new(0),
            plan_hits: AtomicUsize::new(0),
            plan_misses: AtomicUsize::new(0),
        }
    }

    /// Usage counters (builds, hits, invalidations).
    pub fn stats(&self) -> IndexCacheStats {
        IndexCacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_index_probes_multi_position_keys() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let idx = cache.relationship_index(inst.skeleton(), "Author", &[0, 1]);
        let sym = |v: Value| inst.skeleton().interner().get(&v).unwrap();
        let rows = idx.rows(&[sym(Value::from("Eva")), sym(Value::from("s2"))]);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            inst.skeleton()
                .relationship_tuples("Author")
                .nth(rows[0] as usize)
                .unwrap(),
            vec![Value::from("Eva"), Value::from("s2")]
        );
        assert!(idx
            .rows(&[sym(Value::from("Bob")), sym(Value::from("s3"))])
            .is_empty());
        assert_eq!(idx.distinct_keys(), 5);
        assert_eq!(idx.positions(), &[0, 1]);
    }

    #[test]
    fn indexes_are_built_once_and_hit_afterwards() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        assert_eq!(cache.stats(), IndexCacheStats::default());
        cache.relationship_index(inst.skeleton(), "Author", &[0, 1]);
        cache.relationship_index(inst.skeleton(), "Author", &[0, 1]);
        cache.attribute_index(&inst, "Blind");
        cache.attribute_index(&inst, "Blind");
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn attribute_index_buckets_are_sorted_and_complete() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let idx = cache.attribute_index(&inst, "Prestige");
        // Bob and Eva are prestigious (1), Carlos is not (0).
        let prestigious = idx.units(&Value::Int(1));
        assert_eq!(
            prestigious,
            &[vec![Value::from("Bob")], vec![Value::from("Eva")]]
        );
        assert_eq!(idx.cardinality(&Value::Int(0)), 1);
        assert_eq!(idx.cardinality(&Value::Int(7)), 0);
    }

    #[test]
    fn plan_templates_are_cached_by_shape_and_dropped_on_revalidation() {
        use crate::plan::{plan_query, shape_key};
        use crate::query::{Atom, ConjunctiveQuery, Term};

        let mut inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        assert_eq!(cache.plan_stats(), PlanCacheStats::default());

        let q = ConjunctiveQuery::new(vec![Atom::new(
            "Author",
            vec![Term::var("A"), Term::constant("s3")],
        )]);
        let shape = shape_key(&q, &[]);
        assert!(cache.plan_template(&shape).is_none());
        let plan = Arc::new(plan_query(inst.schema(), inst.skeleton(), &q).unwrap());
        cache.store_plan_template(shape.clone(), Arc::clone(&plan));
        let hit = cache.plan_template(&shape).expect("stored template");
        assert_eq!(*hit, *plan);
        let stats = cache.plan_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // Content change → revalidation drops the templates with the rest.
        inst.add_entity("Person", Value::from("Dana")).unwrap();
        assert!(cache.revalidate(inst.fingerprint()));
        assert!(cache.plan_template(&shape).is_none());
        assert_eq!(cache.plan_stats().entries, 0);
    }

    #[test]
    fn rebase_shares_survivors_and_drops_changed_attrs() {
        use std::collections::BTreeSet;

        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let composite = cache.relationship_index(inst.skeleton(), "Author", &[0, 1]);
        let blind = cache.attribute_index(&inst, "Blind");
        let score = cache.attribute_index(&inst, "Score");
        let query = crate::ConjunctiveQuery::new(vec![crate::Atom::new(
            "Author",
            vec![crate::Term::var("A"), crate::Term::var("S")],
        )]);
        let template =
            Arc::new(crate::plan::plan_query(inst.schema(), inst.skeleton(), &query).unwrap());
        cache.store_plan_template(crate::plan::shape_key(&query, &[]), Arc::clone(&template));

        // Attribute-only epoch change: Score rewritten, skeleton untouched.
        let next = inst
            .apply(&[crate::Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::from("s1")],
                value: Value::Float(0.9),
            }])
            .unwrap();
        let changed: BTreeSet<&str> = ["Score"].into_iter().collect();
        let rebased = cache.rebase_for_attribute_delta(next.fingerprint(), &changed);
        assert_eq!(rebased.fingerprint(), next.fingerprint());
        assert_eq!(rebased.stats(), IndexCacheStats::default());

        // Skeleton-only composite index is shared, not rebuilt.
        let composite2 = rebased.relationship_index(next.skeleton(), "Author", &[0, 1]);
        assert!(Arc::ptr_eq(&composite, &composite2));
        // Unchanged attribute index is shared too.
        let blind2 = rebased.attribute_index(&next, "Blind");
        assert!(Arc::ptr_eq(&blind, &blind2));
        // The changed attr was dropped and rebuilds against the new epoch.
        let score2 = rebased.attribute_index(&next, "Score");
        assert!(!Arc::ptr_eq(&score, &score2));
        assert_eq!(score2.cardinality(&Value::Float(0.9)), 1);
        assert_eq!(score2.cardinality(&Value::Float(0.75)), 0);
        // Sharing counts as hits on the rebased cache, one build for Score.
        assert_eq!(rebased.stats().builds, 1);
        // Plan templates ride along: the skeleton (and so every relationship
        // cardinality the planner costed) is unchanged by an attribute delta.
        assert_eq!(rebased.plan_stats().entries, 1);
        let carried = rebased
            .plan_template(&crate::plan::shape_key(&query, &[]))
            .expect("template survives the rebase");
        assert!(Arc::ptr_eq(&carried, &template));
    }

    #[test]
    fn revalidation_drops_stale_indexes() {
        let mut inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let key_of = |inst: &Instance| {
            let interner = inst.skeleton().interner();
            [
                interner.get(&Value::from("Carlos")).unwrap(),
                interner.get(&Value::from("s1")).unwrap(),
            ]
        };
        let idx = cache.relationship_index(inst.skeleton(), "Author", &[0, 1]);
        assert_eq!(idx.rows(&key_of(&inst)).len(), 0);

        inst.add_relationship("Author", vec![Value::from("Carlos"), Value::from("s1")])
            .unwrap();
        assert!(cache.revalidate(inst.fingerprint()));
        assert!(
            !cache.revalidate(inst.fingerprint()),
            "second call is a no-op"
        );
        let idx = cache.relationship_index(inst.skeleton(), "Author", &[0, 1]);
        assert_eq!(idx.rows(&key_of(&inst)).len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.fingerprint(), inst.fingerprint());
    }
}
