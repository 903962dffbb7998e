//! Grounding of relational causal models (Definition 3.5, Section 3.2).
//!
//! Each relational causal rule is a template: every answer of its `WHERE`
//! condition over the relational skeleton produces one grounded rule, whose
//! head and body groundings become vertices and edges of the grounded
//! causal graph. Aggregate rules additionally produce *derived values*
//! (deterministic functions of their parents) such as `AVG_Score["Bob"]`.
//!
//! There is one production grounder and one reference:
//!
//! * [`ground_streaming`] is the production path. Each condition's register
//!   tuples stream off the dense executor in order-preserving chunks
//!   straight into the merge: rule rows become graph nodes through the
//!   graph's lookup-or-append on (attribute, key signature), one `u32` per
//!   key (its symbol, or the id of its interned tuple); aggregate rows fold
//!   into dense group tables whose results land in per-attribute column
//!   sinks. The merge is a pure
//!   in-order fold, so a grounding is bit-identical under any
//!   `RAYON_NUM_THREADS`. Statements the whole-program analysis proved
//!   dead are skipped. [`ground_aggregate_extension`] streams one
//!   query-synthesised aggregate over a shared base grounding, and
//!   `patch_streamed` maintains derived values across attribute-only
//!   commits.
//! * [`ground`] is the reference: a small sequential loop over each
//!   condition's `Vec<Bindings>` answers, with per-answer substitution,
//!   [`CausalGraph::add_node`] and [`CausalGraph::add_edge`], on a fresh
//!   index cache. It prunes nothing. It shares the graph's node store with
//!   production but none of the merge's slots, group tables or executor,
//!   so the differential suites and the golden digests compare two
//!   independent implementations of Definition 3.5.

use crate::error::{CarlError, CarlResult};
use crate::graph::{
    sym_sig, CausalGraph, GroundedAttr, GroundedNodeId, KeySigs, NodeId, NodeLabel,
};
use crate::model::{RelationalCausalModel, TypedComparison};
use crate::unit_table::FloatColumn;
use carl_lang::{AggName, AggregateRule, ArgTerm, CompareOp};
use reldb::symbols::SymSet;
use reldb::{
    evaluate_filtered, AggFn, Bindings, ConjunctiveQuery, EqFilter, IndexCache, Instance, Sym,
    TupleAnswers, UnitKey, Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The result of grounding a relational causal model against an instance:
/// the grounded causal graph plus the derived values of aggregate attributes.
#[derive(Debug, Clone)]
pub struct GroundedModel {
    /// The grounded relational causal graph `G(Φ_Δ)`, extended with
    /// aggregate vertices.
    pub graph: CausalGraph,
    /// Values of aggregate-defined groundings (e.g. `AVG_Score["Bob"]`),
    /// in a sorted map so diagnostics and iteration are deterministic
    /// regardless of how many threads the grounding merge ran under.
    pub derived: BTreeMap<GroundedAttr, f64>,
}

impl GroundedModel {
    /// The observed or derived numeric value of a grounded attribute.
    ///
    /// Base attributes read from the instance; aggregate attributes read
    /// from the derived map. Unobserved attributes yield `None`.
    pub fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        if let Some(v) = self.derived.get(node) {
            return Some(*v);
        }
        instance.attribute_f64(&node.attr, &node.key)
    }
}

/// The units of analysis as the post-grounding layers address them: their
/// keys, plus — when known — each unit's interned skeleton symbol.
///
/// A caller holding only keys passes [`UnitRows::keys`]; the public layer
/// entry points that also get the instance resolve those keys to symbols
/// once, and the engine, whose units are the rows of an entity class, takes
/// the class's symbols from the skeleton. Groundings and attribute columns
/// read symbol-addressed units without hashing a [`UnitKey`]. The symbols
/// are set only inside this crate, always checked against the keys, so
/// unit `i`'s symbol is always unit `i`'s key.
#[derive(Debug, Clone, Copy)]
pub struct UnitRows<'a> {
    /// The unit keys, in unit order.
    keys: &'a [UnitKey],
    /// Unit `i`'s key as one interned symbol of the instance's skeleton,
    /// present only when every unit is a single interned value.
    syms: Option<&'a [Sym]>,
}

impl<'a> UnitRows<'a> {
    /// Units known only by their keys.
    pub fn keys(keys: &'a [UnitKey]) -> Self {
        Self { keys, syms: None }
    }

    /// Units with their symbols `syms` in `interner` (see
    /// [`UnitRows::resolve`]), which must name `keys` one for one.
    pub(crate) fn with_syms(
        keys: &'a [UnitKey],
        syms: Option<&'a [Sym]>,
        interner: &reldb::SymbolTable,
    ) -> Self {
        if let Some(syms) = syms {
            assert_eq!(syms.len(), keys.len(), "one symbol per unit key");
            debug_assert!(
                keys.iter()
                    .zip(syms)
                    .all(|(key, &sym)| matches!(key.as_slice(), [v] if v == interner.value(sym))),
                "unit symbols name their keys"
            );
        }
        Self { keys, syms }
    }

    /// The units `keys` of entity class `class`, which must be the class's
    /// rows in [`reldb::Skeleton::entity_keys`] order.
    pub(crate) fn of_class(
        skeleton: &'a reldb::Skeleton,
        class: &str,
        keys: &'a [UnitKey],
    ) -> Self {
        Self::with_syms(keys, Some(skeleton.entity_syms(class)), skeleton.interner())
    }

    /// Each key as one interned symbol of `interner`, when every key is a
    /// single interned value (the form [`UnitRows::with_syms`] takes).
    pub(crate) fn resolve(keys: &[UnitKey], interner: &reldb::SymbolTable) -> Option<Vec<Sym>> {
        keys.iter()
            .map(|key| match key.as_slice() {
                [value] => interner.get(value),
                _ => None,
            })
            .collect()
    }

    /// The unit keys, in unit order.
    pub fn unit_keys(&self) -> &'a [UnitKey] {
        self.keys
    }

    /// Number of units.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The cell `reader` (a reader of `attr` over `instance`) holds for
    /// unit `i`: by symbol when the units carry symbols, else by key.
    pub(crate) fn cell<'i>(
        &self,
        instance: &'i Instance,
        attr: &str,
        reader: &reldb::AttrReader<'i>,
        i: usize,
    ) -> Option<&'i Value> {
        match self.syms {
            Some(syms) => reader.at_sym(syms[i]),
            None => instance.attribute(attr, &self.keys[i]),
        }
    }
}

/// A grounded causal model as consumed by the downstream pipeline (peers,
/// covariates, unit tables): a causal graph plus per-node observed-or-
/// derived values.
///
/// Implemented by the materialised [`GroundedModel`] (sorted map of derived
/// values) and by the streamed [`StreamedModel`] (dense signature-indexed
/// derived columns), so `compute_peers`, `covariates` and
/// `build_unit_table` run unchanged — and produce bit-identical output —
/// over either.
///
/// The layers read through the provided methods
/// ([`GroundedValues::unit_nodes`], [`GroundedValues::node_values`],
/// [`GroundedValues::unit_values`]). Node lookups are the graph's own, by
/// attribute id and key signature, for every implementor; the value
/// defaults are the key-addressed [`GroundedValues::value_of`] path, which
/// [`StreamedModel`] overrides to read by node label and unit symbol.
pub trait GroundedValues {
    /// The grounded causal graph.
    fn graph(&self) -> &CausalGraph;

    /// The observed or derived numeric value of a grounded attribute (see
    /// [`GroundedModel::value_of`]).
    fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64>;

    /// The graph node grounding `attr` with `key`, if one exists.
    ///
    /// The default is the graph's lookup ([`CausalGraph::node_of`]): the
    /// attribute by name, the key by its symbols' signature, with no
    /// [`GroundedAttr`] built.
    fn node_of(&self, attr: &str, key: &UnitKey) -> Option<NodeId> {
        self.graph().node_of(attr, key)
    }

    /// The node grounding `attr` for each unit, in unit order (`None` where
    /// a unit has none): by unit symbol (the key signature of a
    /// one-argument key) when the units carry symbols the graph's skeleton
    /// issued, by [`GroundedValues::node_of`] otherwise.
    fn unit_nodes(&self, attr: &str, units: UnitRows<'_>) -> Vec<Option<NodeId>> {
        let graph = self.graph();
        let Some(attr_id) = graph.lookup_attr(attr) else {
            return vec![None; units.len()];
        };
        let skeleton_syms = graph.keys().skeleton_syms();
        match units.syms.filter(|_| graph.attr_arity(attr_id) == 1) {
            Some(syms) => syms
                .iter()
                .zip(units.keys)
                .map(|(&s, key)| {
                    if s.index() < skeleton_syms {
                        graph.lookup(attr_id, sym_sig(s))
                    } else {
                        self.node_of(attr, key)
                    }
                })
                .collect(),
            None => units
                .keys
                .iter()
                .map(|key| self.node_of(attr, key))
                .collect(),
        }
    }

    /// The observed or derived value of each graph node in `nodes`, in
    /// order: what [`GroundedValues::value_of`] gives the node's grounded
    /// attribute, which is the default.
    fn node_values(&self, instance: &Instance, nodes: &[NodeId]) -> Vec<Option<f64>> {
        let graph = self.graph();
        nodes
            .iter()
            .map(|&node| self.value_of(instance, &graph.node(node)))
            .collect()
    }

    /// The observed or derived value of `attr` for each unit, in unit
    /// order, whether or not the graph has a node for it. The default
    /// calls [`GroundedValues::value_of`] per key.
    fn unit_values(
        &self,
        instance: &Instance,
        attr: &str,
        units: UnitRows<'_>,
    ) -> Vec<Option<f64>> {
        let mut node = GroundedAttr::new(attr, Vec::new());
        units
            .keys
            .iter()
            .map(|unit| {
                node.key.clear();
                node.key.extend_from_slice(unit);
                self.value_of(instance, &node)
            })
            .collect()
    }
}

impl GroundedValues for GroundedModel {
    fn graph(&self) -> &CausalGraph {
        &self.graph
    }

    fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        GroundedModel::value_of(self, instance, node)
    }
}

/// Split a rule's typed comparisons into equality filters the query planner
/// can push into evaluation (probing attribute indexes and pinning checks
/// to the step where their variables bind) and residual comparisons that
/// must be checked per answer.
pub fn partition_comparisons(
    comparisons: Vec<TypedComparison>,
) -> (Vec<EqFilter>, Vec<TypedComparison>) {
    let mut filters = Vec::new();
    let mut residual = Vec::new();
    for cmp in comparisons {
        if cmp.op == CompareOp::Eq {
            filters.push(EqFilter {
                attr: cmp.attr,
                args: cmp.args,
                value: cmp.value,
            });
        } else {
            residual.push(cmp);
        }
    }
    (filters, residual)
}

/// A rule or aggregate condition compiled to a query plus filters, ready
/// for (parallel) evaluation, with the residual comparisons kept aside.
pub(crate) struct PreppedCondition {
    pub(crate) query: ConjunctiveQuery,
    pub(crate) filters: Vec<EqFilter>,
    residual: Vec<TypedComparison>,
}

pub(crate) fn prep_condition(
    model: &RelationalCausalModel,
    attr: &str,
    args: &[ArgTerm],
    condition: &carl_lang::Condition,
) -> CarlResult<PreppedCondition> {
    let default_atom = model.implicit_atom(attr, args)?;
    let (query, comparisons) = model.condition_to_query(condition, Some(vec![default_atom]));
    let (filters, residual) = partition_comparisons(comparisons);
    Ok(PreppedCondition {
        query,
        filters,
        residual,
    })
}

/// How one head/body argument is produced from an answer row.
enum ArgSlot {
    /// A constant from the rule text, as its symbol in the grounding's
    /// [`KeySigs`] (the skeleton symbol when the value occurs in the
    /// skeleton, a pseudo-symbol otherwise).
    Const(Sym),
    /// The value in this register slot.
    Slot(usize),
    /// The variable is not bound by the condition: resolving it is an
    /// error (raised only if a row actually survives, matching the
    /// behaviour of per-binding substitution).
    Unbound(String),
}

/// Compile argument terms against an answer's slot layout, minting
/// pseudo-symbols in `keys` for constants the skeleton never interned.
fn arg_slots(args: &[ArgTerm], answers: &TupleAnswers<'_>, keys: &mut KeySigs) -> Vec<ArgSlot> {
    args.iter()
        .map(|arg| match arg {
            ArgTerm::Const(c) => {
                ArgSlot::Const(keys.intern_value(&crate::model::literal_to_value(c)))
            }
            ArgTerm::Var(v) => match answers.slot_of(v) {
                Some(slot) => ArgSlot::Slot(slot),
                None => ArgSlot::Unbound(v.clone()),
            },
        })
        .collect()
}

/// The unbound-variable error per-binding substitution would raise.
fn unbound_error(var: &str) -> CarlError {
    CarlError::InvalidQuery(format!(
        "variable `{var}` is not bound by the rule's WHERE clause"
    ))
}

/// The signature of the key `spec` builds from `row`, interning it on
/// first sight.
fn row_sig(keys: &mut KeySigs, spec: &[ArgSlot], row: &[Sym]) -> CarlResult<u32> {
    keys.intern_args(spec.iter().map(|slot| match slot {
        ArgSlot::Const(sym) => Ok(*sym),
        ArgSlot::Slot(s) => Ok(row[*s]),
        ArgSlot::Unbound(v) => Err(unbound_error(v)),
    }))
}

/// The first unbound variable of a compiled spec, if any.
fn first_unbound(spec: &[ArgSlot]) -> Option<&str> {
    spec.iter().find_map(|a| match a {
        ArgSlot::Unbound(v) => Some(v.as_str()),
        _ => None,
    })
}

/// Residual (non-equality) comparisons compiled against an answer's slot
/// layout, evaluated per register row.
///
/// Each comparison's attribute is resolved once, so a row's check reads the
/// compared cell by the row's key symbols — no key is rebuilt and no
/// `Value` hashed. Only a constant argument the skeleton never interned
/// (which can address only a cell outside the skeleton) reads by key.
pub(crate) struct RowComparisons<'c> {
    compiled: Vec<CompiledComparison<'c>>,
    instance: &'c Instance,
}

struct CompiledComparison<'c> {
    cmp: &'c TypedComparison,
    args: Vec<CmpArg<'c>>,
    reader: reldb::AttrReader<'c>,
    /// Whether every argument has a symbol (the cell reads by symbols).
    by_symbol: bool,
}

enum CmpArg<'c> {
    /// A constant, with its skeleton symbol when the skeleton interned it.
    Const(&'c Value, Option<Sym>),
    Slot(usize),
    /// Unbound comparison variables never satisfy the comparison.
    Unbound,
}

impl<'c> RowComparisons<'c> {
    pub(crate) fn compile(
        comparisons: &'c [TypedComparison],
        answers: &TupleAnswers<'_>,
        instance: &'c Instance,
    ) -> Self {
        let interner = instance.skeleton().interner();
        let compiled = comparisons
            .iter()
            .map(|cmp| {
                let args: Vec<CmpArg<'c>> = cmp
                    .args
                    .iter()
                    .map(|t| match t {
                        reldb::Term::Const(v) => CmpArg::Const(v, interner.get(v)),
                        reldb::Term::Var(v) => match answers.slot_of(v) {
                            Some(slot) => CmpArg::Slot(slot),
                            None => CmpArg::Unbound,
                        },
                    })
                    .collect();
                let by_symbol = args
                    .iter()
                    .all(|a| matches!(a, CmpArg::Slot(_) | CmpArg::Const(_, Some(_))));
                CompiledComparison {
                    cmp,
                    args,
                    reader: instance.attribute_reader(&cmp.attr),
                    by_symbol,
                }
            })
            .collect();
        Self { compiled, instance }
    }

    /// Whether every comparison holds for `row`.
    pub(crate) fn hold(&self, row: &[Sym], answers: &TupleAnswers<'_>) -> bool {
        let mut syms: Vec<Sym> = Vec::new();
        self.compiled.iter().all(|c| {
            if c.args.iter().any(|a| matches!(a, CmpArg::Unbound)) {
                return false;
            }
            let cell = if let (true, [CmpArg::Slot(slot)]) = (c.by_symbol, c.args.as_slice()) {
                c.reader.at_sym(row[*slot])
            } else if c.by_symbol {
                syms.clear();
                syms.extend(c.args.iter().map(|a| match a {
                    CmpArg::Slot(s) => row[*s],
                    CmpArg::Const(_, sym) => sym.expect("by-symbol arguments are interned"),
                    CmpArg::Unbound => unreachable!("checked above"),
                }));
                c.reader.at_syms(&syms)
            } else {
                let key: UnitKey = c
                    .args
                    .iter()
                    .map(|a| match a {
                        CmpArg::Const(v, _) => (*v).clone(),
                        CmpArg::Slot(s) => answers.value(row[*s]).clone(),
                        CmpArg::Unbound => unreachable!("checked above"),
                    })
                    .collect();
                self.instance.attribute(&c.cmp.attr, &key)
            };
            c.cmp.holds(cell)
        })
    }
}

/// The model's aggregates with their program indexes, in the topological
/// order every grounder folds them in, so that aggregates over aggregates
/// read values their sources already derived.
fn aggregates_in_order(model: &RelationalCausalModel) -> Vec<(usize, &AggregateRule)> {
    let order = model.topological_order();
    let mut aggregates: Vec<(usize, &AggregateRule)> =
        model.aggregates().iter().enumerate().collect();
    aggregates.sort_by_key(|(_, a)| {
        order
            .iter()
            .position(|n| *n == a.name)
            .unwrap_or(usize::MAX)
    });
    aggregates
}

/// Ground `model` against `instance` on the reference grounder, producing
/// the grounded causal graph and derived aggregate values.
///
/// The evaluation builds its secondary indexes in a fresh cache that is
/// discarded afterwards, so a fault in a cache the production path shares
/// cannot hide itself by affecting both.
///
/// A sequential loop over each condition's `Vec<Bindings>` answers:
///
/// * rules, in program order: per surviving answer, the head node, then
///   each body node with its edge `(body, head)`;
/// * aggregates, in topological order: source nodes are created as
///   answers arrive; after the last answer, head nodes are created in
///   first-seen group order, each with its sources' edges and derived
///   value.
///
/// It does no analysis pruning and shares nothing with the production
/// merge of [`ground_streaming`], whose graph and values it reproduces
/// node for node, edge for edge and bit for bit.
pub fn ground(model: &RelationalCausalModel, instance: &Instance) -> CarlResult<GroundedModel> {
    let cache = IndexCache::with_fingerprint(0);
    let schema = model.schema();
    let aggregates = aggregates_in_order(model);
    // Compile every condition before evaluating any, so compile errors
    // surface exactly as in the production grounder.
    let rules = model
        .rules()
        .iter()
        .map(|r| prep_condition(model, &r.head.attr, &r.head.args, &r.condition))
        .collect::<CarlResult<Vec<_>>>()?;
    let aggs = aggregates
        .iter()
        .map(|(_, a)| prep_condition(model, &a.source.attr, &a.source.args, &a.condition))
        .collect::<CarlResult<Vec<_>>>()?;
    let answers = |prep: &PreppedCondition| -> CarlResult<Vec<Bindings>> {
        let all = evaluate_filtered(&cache, schema, instance, &prep.query, &prep.filters)?;
        Ok(all
            .into_iter()
            .filter(|b| comparisons_hold(&prep.residual, b, instance))
            .collect())
    };

    let mut graph = CausalGraph::with_skeleton(instance.skeleton_shared());
    for (rule, prep) in model.rules().iter().zip(&rules) {
        for binding in &answers(prep)? {
            let head_key = substitute(&rule.head.args, binding)?;
            let head = graph.add_node(GroundedAttr::new(&rule.head.attr, head_key));
            for body in &rule.body {
                let body_key = substitute(&body.args, binding)?;
                let body = graph.add_node(GroundedAttr::new(&body.attr, body_key));
                graph.add_edge(body, head);
            }
        }
    }

    let mut derived: BTreeMap<GroundedAttr, f64> = BTreeMap::new();
    for ((_, agg), prep) in aggregates.iter().zip(&aggs) {
        // Groups in first-seen order, each with its distinct source nodes
        // in first-seen order.
        let mut group_of: HashMap<UnitKey, usize> = HashMap::new();
        let mut groups: Vec<(UnitKey, Vec<NodeId>)> = Vec::new();
        let mut seen: HashSet<(usize, NodeId)> = HashSet::new();
        for binding in &answers(prep)? {
            let head_key = substitute(&agg.head_args, binding)?;
            let source_key = substitute(&agg.source.args, binding)?;
            let group = match group_of.get(&head_key) {
                Some(&group) => group,
                None => {
                    group_of.insert(head_key.clone(), groups.len());
                    groups.push((head_key, Vec::new()));
                    groups.len() - 1
                }
            };
            let source = graph.add_node(GroundedAttr::new(&agg.source.attr, source_key));
            if seen.insert((group, source)) {
                groups[group].1.push(source);
            }
        }

        // Sources read derived values of earlier aggregates (validation
        // rules out an aggregate over its own head), then observed ones.
        let agg_fn = agg_fn_of(agg.agg);
        for (head_key, sources) in groups {
            let head = graph.add_node(GroundedAttr::new(&agg.name, head_key));
            let mut values = Vec::with_capacity(sources.len());
            for source in sources {
                graph.add_edge(source, head);
                let node = graph.node(source);
                let value = derived.get(&node).copied();
                values.extend(value.or_else(|| instance.attribute_f64(&node.attr, &node.key)));
            }
            if let Some(v) = agg_fn.apply(&values) {
                derived.insert(graph.node(head), v);
            }
        }
    }

    if let Err(attr) = graph.topological_order() {
        return Err(CarlError::CyclicModel(attr));
    }
    Ok(GroundedModel { graph, derived })
}

// ---------------------------------------------------------------------------
// The streaming grounding pipeline.
// ---------------------------------------------------------------------------

/// Dense store of derived aggregate values — the streaming pipeline's
/// replacement for [`GroundedModel::derived`].
///
/// One [`FloatColumn`] + null-bitmap sink per aggregate-derived attribute,
/// indexed by graph attribute id and then by key signature: the
/// column's null bitmap marks signatures that never derived a value, so a
/// lookup is one bounds check and one bit test instead of a sorted-map walk
/// over string-keyed [`GroundedAttr`]s.
#[derive(Debug, Clone, Default)]
struct DerivedStore {
    /// `columns[attr_id]`, present for attributes an aggregate derives.
    columns: Vec<Option<FloatColumn>>,
}

impl DerivedStore {
    /// The column of an attribute, when an aggregate derives it.
    fn column(&self, attr_id: u32) -> Option<&FloatColumn> {
        self.columns.get(attr_id as usize)?.as_ref()
    }

    /// Register attribute `attr_id` (named `name`) as aggregate-derived.
    fn register(&mut self, attr_id: u32, name: &str) {
        let attr_id = attr_id as usize;
        if attr_id >= self.columns.len() {
            self.columns.resize(attr_id + 1, None);
        }
        self.columns[attr_id].get_or_insert_with(|| FloatColumn::new(name));
    }

    /// The derived value with signature `sig`, if any.
    fn get(&self, attr_id: u32, sig: u32) -> Option<f64> {
        self.column(attr_id)?.get(sig as usize)
    }

    /// Store a derived value of a registered attribute.
    fn set(&mut self, attr_id: u32, sig: u32, value: f64) {
        self.columns[attr_id as usize]
            .as_mut()
            .expect("derived attribute registered")
            .set(sig as usize, value);
    }

    /// Remove a derived value (the patch path's inverse of
    /// [`DerivedStore::set`]): the cell reverts to null, exactly as if the
    /// aggregate had never produced a value for this signature.
    fn unset(&mut self, attr_id: u32, sig: u32) {
        self.columns[attr_id as usize]
            .as_mut()
            .expect("derived attribute registered")
            .unset(sig as usize);
    }
}

/// The result of [`ground_streaming`]: the grounded causal graph, which
/// stores every node's identity, and the derived aggregate values in dense
/// signature-indexed columns.
///
/// Semantically this is a [`GroundedModel`] — the graph is identical node
/// for node and edge for edge, and [`StreamedModel::value_of`] returns
/// bit-identical values — but derived values never pass through a sorted
/// `GroundedAttr`-keyed map: aggregate answers streamed straight off the
/// query executor into per-attribute [`FloatColumn`] sinks. Every node is
/// an `(attribute id, key signature)` label, so the layers read nodes,
/// derived cells and observed cells by signature; key-addressed probes
/// resolve a key to its signature once. The materialised form is what the
/// reference grounder ([`ground`]) returns.
#[derive(Debug, Clone)]
pub struct StreamedModel {
    /// The grounded relational causal graph `G(Φ_Δ)` (bit-identical to the
    /// graph [`ground`] produces for the same inputs), with its node store
    /// and the skeleton its key signatures index. Behind an `Arc`: an
    /// attribute-only delta patch (`patch_streamed`) rewrites derived
    /// *values* but never the graph, so patched epochs share one graph
    /// allocation instead of deep-cloning it per commit, and query
    /// extensions layer their key tables over it in place. The skeleton's
    /// interner is append-only, so signatures stay valid across those
    /// patches.
    pub graph: Arc<CausalGraph>,
    /// Derived values, by graph attribute id and key signature.
    derived: DerivedStore,
}

impl StreamedModel {
    /// The observed or derived numeric value of a grounded attribute (the
    /// streamed equivalent of [`GroundedModel::value_of`]).
    pub fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        self.derived_of(&node.attr, &node.key)
            .or_else(|| instance.attribute_f64(&node.attr, &node.key))
    }

    /// The derived value of `attr[key]`, if an aggregate derived one.
    fn derived_of(&self, attr: &str, key: &[Value]) -> Option<f64> {
        let attr_id = self.graph.lookup_attr(attr)?;
        let column = self.derived.column(attr_id)?;
        column.get(self.graph.key_sig(attr_id, key)? as usize)
    }

    /// The graph node grounding `attr` with `key`
    /// ([`CausalGraph::node_of`]): attribute name → dense id, key values →
    /// signature, signature → node, with no [`GroundedAttr`] built.
    pub fn node_of(&self, attr: &str, key: &UnitKey) -> Option<NodeId> {
        self.graph.node_of(attr, key)
    }

    /// The observed numeric value of the node labelled `label`, whose
    /// attribute's cells `source` reads.
    fn observed(&self, source: &ObservedSource<'_>, label: NodeLabel) -> Option<f64> {
        let keys = self.graph.keys();
        keys.with_args(self.graph.attr_arity(label.attr), label.sig, |args| {
            source.cell(keys, args)
        })
        .and_then(Value::as_f64)
    }
}

impl GroundedValues for StreamedModel {
    fn graph(&self) -> &CausalGraph {
        &self.graph
    }

    fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        StreamedModel::value_of(self, instance, node)
    }

    /// The observed or derived values of `nodes`, read through their
    /// labels: a derived column cell, else the instance's cell for the
    /// key's symbols, each attribute resolved once per call. Equal to
    /// [`StreamedModel::value_of`] of each node's grounded attribute;
    /// `instance` must be the instance this model grounds (or an
    /// attribute-only successor of it).
    fn node_values(&self, instance: &Instance, nodes: &[NodeId]) -> Vec<Option<f64>> {
        let mut observed: Vec<Option<ObservedSource<'_>>> = vec![None; self.graph.attr_count()];
        nodes
            .iter()
            .map(|&node| {
                let label = self.graph.label(node);
                if let Some(v) = self.derived.get(label.attr, label.sig) {
                    return Some(v);
                }
                let source = observed[label.attr as usize].get_or_insert_with(|| {
                    ObservedSource::new(instance, self.graph.attr_name(label.attr))
                });
                self.observed(source, label)
            })
            .collect()
    }

    /// The observed or derived values of `attr` for `units` (see
    /// [`GroundedValues::unit_values`]), read by unit symbol or by key.
    fn unit_values(
        &self,
        instance: &Instance,
        attr: &str,
        units: UnitRows<'_>,
    ) -> Vec<Option<f64>> {
        let Some(syms) = units.syms else {
            return units
                .keys
                .iter()
                .map(|key| {
                    self.derived_of(attr, key)
                        .or_else(|| instance.attribute_f64(attr, key))
                })
                .collect();
        };
        let derived = self
            .graph
            .lookup_attr(attr)
            .filter(|&attr_id| self.graph.attr_arity(attr_id) == 1)
            .and_then(|attr_id| self.derived.column(attr_id));
        let reader = instance.attribute_reader(attr);
        syms.iter()
            .enumerate()
            .map(|(i, s)| {
                derived
                    .and_then(|column| column.get(s.index()))
                    .or_else(|| {
                        units
                            .cell(instance, attr, &reader, i)
                            .and_then(Value::as_f64)
                    })
            })
            .collect()
    }
}

/// Stream one condition's answers into a sink that can fail with a
/// [`CarlError`]: the relational layer only transports [`reldb::RelError`],
/// so sink errors are parked and re-raised verbatim.
fn stream_condition<'a>(
    cache: &IndexCache,
    schema: &reldb::RelationalSchema,
    instance: &'a Instance,
    query: &ConjunctiveQuery,
    filters: &[EqFilter],
    mut on_batch: impl FnMut(&TupleAnswers<'a>) -> CarlResult<()>,
) -> CarlResult<()> {
    let mut parked: Option<CarlError> = None;
    let result = reldb::evaluate_tuples_filtered_chunked(
        cache,
        schema,
        instance,
        query,
        filters,
        &mut |batch| {
            on_batch(batch).map_err(|e| {
                parked = Some(e);
                reldb::RelError::MalformedQuery("streaming grounding sink aborted".into())
            })
        },
    );
    match (result, parked) {
        (_, Some(e)) => Err(e),
        (Err(e), None) => Err(CarlError::Rel(e)),
        (Ok(()), None) => Ok(()),
    }
}

/// Sentinel for "no group yet" in the dense group table.
const NO_GROUP: u32 = u32::MAX;

/// Per-rule merge specs, compiled once from the first answer batch (every
/// batch of one plan shares the same slot layout).
struct RuleSpecs<'c> {
    residual: RowComparisons<'c>,
    head_spec: Vec<ArgSlot>,
    head_attr_id: u32,
    body_specs: Vec<(u32, Vec<ArgSlot>)>,
}

/// Fold one batch of a rule condition's answers into the graph.
///
/// A free function taking plain `&mut` parameters rather than a closure
/// over captured state: the row loop is the grounding hot path, and direct
/// (alias-analysable) parameters let it optimise like a plain loop.
fn merge_rule_batch(
    specs: &RuleSpecs<'_>,
    graph: &mut CausalGraph,
    edges: &mut Vec<(u32, u32)>,
    answers: &TupleAnswers<'_>,
) -> CarlResult<()> {
    for row in answers.rows() {
        if !specs.residual.hold(row, answers) {
            continue;
        }
        let sig = row_sig(graph.keys_mut(), &specs.head_spec, row)?;
        let head_id = graph.intern_node(specs.head_attr_id, sig);
        for (attr_id, spec) in &specs.body_specs {
            let sig = row_sig(graph.keys_mut(), spec, row)?;
            let body_id = graph.intern_node(*attr_id, sig);
            edges.push((body_id as u32, head_id as u32));
        }
    }
    Ok(())
}

/// One aggregate group under construction in the streamed merge.
struct SGroup {
    sig: u32,
    /// (source node, observed-or-derived value) per distinct source
    /// grounding, in first-seen order. The node is `None` only for
    /// read-only resolvers probing sources absent from their base graph —
    /// the mutable streamed merge creates every source node on first sight.
    sources: Vec<(Option<GroundedNodeId>, Option<f64>)>,
}

/// Per-aggregate merge specs, compiled once from the first answer batch.
struct AggSpecs<'c> {
    residual: RowComparisons<'c>,
    head_spec: Vec<ArgSlot>,
    source_spec: Vec<ArgSlot>,
    /// The source attribute's observed cells.
    observed: ObservedSource<'c>,
    /// Unbound-variable error to raise if any row survives (matching the
    /// lazy error semantics of per-binding substitution).
    spec_error: Option<String>,
}

impl<'c> AggSpecs<'c> {
    /// Compile `agg`'s specs against the slot layout of `answers`,
    /// minting constant pseudo-symbols in `keys`.
    fn compile(
        agg: &'c AggregateRule,
        residual: &'c [TypedComparison],
        answers: &TupleAnswers<'_>,
        instance: &'c Instance,
        keys: &mut KeySigs,
    ) -> Self {
        let head_spec = arg_slots(&agg.head_args, answers, keys);
        let source_spec = arg_slots(&agg.source.args, answers, keys);
        let spec_error = first_unbound(&head_spec)
            .or_else(|| first_unbound(&source_spec))
            .map(str::to_string);
        Self {
            residual: RowComparisons::compile(residual, answers, instance),
            head_spec,
            source_spec,
            observed: ObservedSource::new(instance, &agg.source.attr),
            spec_error,
        }
    }
}

/// The group and memo tables of one aggregate's streamed merge, all dense
/// in key signatures.
#[derive(Default)]
struct AggTables {
    /// Groups in first-seen order.
    groups: Vec<SGroup>,
    /// Head signature → group index ([`NO_GROUP`] = none yet).
    group_of: Vec<u32>,
    /// `(group, source signature)` pairs seen, packed into one u64.
    pair_seen: SymSet<u64>,
    /// Source-value memo by source signature: 0 unknown, 1 none, 2 some.
    sval_state: Vec<u8>,
    sval: Vec<f64>,
}

/// How the unified aggregate fold ([`merge_agg_batch`]) signs keys and
/// resolves a distinct source grounding to a node identity.
///
/// The streamed cold merge *creates* graph nodes and signs keys in its own
/// graph; a query-synthesised extension resolves read-only against an
/// immutable base grounding and signs what the base lacks in its own key
/// layer. Everything else — group discovery in first-seen order,
/// `(group, source)` dedup, source-value memoisation — is shared, so the
/// bit-identity invariant of the aggregate fold lives in exactly one row
/// loop.
trait SourceResolver {
    /// The key table the fold signs head and source keys in.
    fn keys(&mut self) -> &mut KeySigs;

    /// The node of the source grounding with signature `sig` (created on
    /// first sight by mutable resolvers; looked up read-only otherwise).
    fn node(&mut self, sig: u32) -> Option<GroundedNodeId>;

    /// The source attribute's derived column, when an earlier aggregate
    /// derives it.
    fn derived(&self) -> Option<&FloatColumn>;
}

/// An attribute's observed cells, resolved once.
#[derive(Clone, Copy)]
struct ObservedSource<'a> {
    attr: &'a str,
    reader: reldb::AttrReader<'a>,
    instance: &'a Instance,
    /// Number of skeleton symbols: symbols below it are skeleton symbols,
    /// the rest constant pseudo-symbols.
    skeleton_syms: usize,
}

impl<'a> ObservedSource<'a> {
    fn new(instance: &'a Instance, attr: &'a str) -> Self {
        Self {
            attr,
            reader: instance.attribute_reader(attr),
            instance,
            skeleton_syms: instance.skeleton().interner().len(),
        }
    }

    /// The observed cell of the grounding whose key has argument symbols
    /// `args` in `keys`: read by those symbols, or by the key's values when
    /// a pseudo-symbol names no unit of the skeleton.
    fn cell(&self, keys: &KeySigs, args: &[Sym]) -> Option<&'a Value> {
        if args.iter().all(|s| s.index() < self.skeleton_syms) {
            self.reader.at_syms(args)
        } else {
            self.instance.attribute(self.attr, &keys.key_of(args))
        }
    }
}

/// The streamed cold merge's resolver: keys are signed and source nodes
/// created in the grounding's own graph; derived values come from its
/// partially built store (aggregates over aggregates).
struct MergeSources<'b> {
    source_attr_id: u32,
    /// The source attribute's derived column, when an earlier aggregate
    /// derived values for it.
    derived: Option<&'b FloatColumn>,
    graph: &'b mut CausalGraph,
}

impl SourceResolver for MergeSources<'_> {
    fn keys(&mut self) -> &mut KeySigs {
        self.graph.keys_mut()
    }

    fn node(&mut self, sig: u32) -> Option<GroundedNodeId> {
        let id = self.graph.intern_node(self.source_attr_id, sig);
        Some(GroundedNodeId::from_node(id))
    }

    fn derived(&self) -> Option<&FloatColumn> {
        self.derived
    }
}

/// A query-synthesised extension's resolver: keys the base grounding lacks
/// are signed in the extension's own layer, source nodes are looked up
/// read-only in the immutable base graph (sources absent from it
/// contribute their value but no node), derived values come from the
/// base's sinks.
struct ExtensionSources<'a> {
    keys: &'a mut KeySigs,
    base: &'a CausalGraph,
    /// The base graph's id for the source attribute, if it ever grounded
    /// one.
    source_attr_id: Option<u32>,
    derived: Option<&'a FloatColumn>,
}

impl SourceResolver for ExtensionSources<'_> {
    fn keys(&mut self) -> &mut KeySigs {
        self.keys
    }

    fn node(&mut self, sig: u32) -> Option<GroundedNodeId> {
        let attr_id = self.source_attr_id?;
        self.base
            .lookup(attr_id, sig)
            .map(GroundedNodeId::from_node)
    }

    fn derived(&self) -> Option<&FloatColumn> {
        self.derived
    }
}

/// Fold one batch of an aggregate condition's answers into the group
/// tables (see [`merge_rule_batch`] for why this is a free function).
///
/// This is the one row loop behind both the streamed cold merge and
/// query-synthesised aggregate extensions — the [`SourceResolver`] supplies
/// the only parts that differ. Group creation order, `(group, source)`
/// dedup and the per-signature value memo are byte-for-byte shared, so any
/// change to the fold's bit-identity discipline applies to both paths at
/// once.
fn merge_agg_batch<R: SourceResolver>(
    specs: &AggSpecs<'_>,
    resolver: &mut R,
    t: &mut AggTables,
    answers: &TupleAnswers<'_>,
) -> CarlResult<()> {
    for row in answers.rows() {
        if !specs.residual.hold(row, answers) {
            continue;
        }
        if let Some(var) = &specs.spec_error {
            return Err(unbound_error(var));
        }
        // Group of the row's head signature.
        let sig = row_sig(resolver.keys(), &specs.head_spec, row)?;
        let slot = sig as usize;
        if slot >= t.group_of.len() {
            t.group_of.resize(slot + 1, NO_GROUP);
        }
        if t.group_of[slot] == NO_GROUP {
            t.group_of[slot] = u32::try_from(t.groups.len()).expect("groups fit u32");
            t.groups.push(SGroup {
                sig,
                sources: Vec::new(),
            });
        }
        let gi = t.group_of[slot];
        // Distinct source groundings per group, with the value memoised
        // across groups on the source signature.
        let ssig = row_sig(resolver.keys(), &specs.source_spec, row)?;
        if !t.pair_seen.insert((u64::from(gi) << 32) | u64::from(ssig)) {
            continue;
        }
        let node = resolver.node(ssig);
        let slot = ssig as usize;
        if slot >= t.sval_state.len() {
            t.sval_state.resize(slot + 1, 0);
            t.sval.resize(slot + 1, 0.0);
        }
        let value = match t.sval_state[slot] {
            2 => Some(t.sval[slot]),
            1 => None,
            _ => {
                let value = match resolver.derived().and_then(|column| column.get(slot)) {
                    Some(v) => Some(v),
                    None => {
                        let keys = &*resolver.keys();
                        keys.with_args(specs.source_spec.len(), ssig, |args| {
                            specs.observed.cell(keys, args)
                        })
                        .and_then(Value::as_f64)
                    }
                };
                match value {
                    Some(v) => {
                        t.sval_state[slot] = 2;
                        t.sval[slot] = v;
                    }
                    None => t.sval_state[slot] = 1,
                }
                value
            }
        };
        t.groups[gi as usize].sources.push((node, value));
    }
    Ok(())
}

/// Ground `model` against `instance` on the fused streaming pipeline.
///
/// Each condition's register-tuple chunks pipe straight off the executor
/// into the merge — rule chunks fold into the graph's nodes and a flat
/// edge buffer (folded into the graph's adjacency once, at the end), and
/// aggregate chunks
/// fold into dense signature-indexed group tables whose results land in the
/// per-attribute [`FloatColumn`] sinks of a [`StreamedModel`]. No
/// `O(answers)` intermediate is ever resident and no string-keyed derived
/// map is built.
///
/// Statements the whole-program analysis proved dead pass no row and are
/// skipped. Chunk delivery is order-preserving (and the merge is a pure
/// in-order fold), so the resulting graph and every derived value are
/// bit-identical to the reference grounder's ([`ground`]) at any
/// `RAYON_NUM_THREADS` — the `streaming_vs_materialized`,
/// `parallel_grounding` and `graph_golden` suites pin this.
pub fn ground_streaming(
    model: &RelationalCausalModel,
    instance: &Instance,
    cache: &IndexCache,
) -> CarlResult<StreamedModel> {
    let schema = model.schema();

    // Aggregates in topological order, keeping the original program index
    // for per-statement analysis facts.
    let aggregates = aggregates_in_order(model);

    let mut prepped: Vec<PreppedCondition> = Vec::with_capacity(model.rules().len());
    for rule in model.rules() {
        prepped.push(prep_condition(
            model,
            &rule.head.attr,
            &rule.head.args,
            &rule.condition,
        )?);
    }
    for (_, agg) in &aggregates {
        prepped.push(prep_condition(
            model,
            &agg.source.attr,
            &agg.source.args,
            &agg.condition,
        )?);
    }

    let mut graph = CausalGraph::with_skeleton(instance.skeleton_shared());
    // Every edge of the ground, in insertion order, folded into the graph
    // once both phases are done.
    let mut edges: Vec<(u32, u32)> = Vec::new();

    // Phase 1: stream-merge the causal rules, in rule order. Dead rules
    // (statically unsatisfiable conditions) pass no row; skip their
    // evaluation entirely.
    for (i, (rule, prep)) in model.rules().iter().zip(&prepped).enumerate() {
        if model.rule_is_dead(i) {
            continue;
        }
        let mut specs: Option<RuleSpecs<'_>> = None;
        stream_condition(
            cache,
            schema,
            instance,
            &prep.query,
            &prep.filters,
            |answers| {
                if specs.is_none() {
                    let residual = RowComparisons::compile(&prep.residual, answers, instance);
                    let mut compile = |attr: &carl_lang::AttrRef| {
                        let spec = arg_slots(&attr.args, answers, graph.keys_mut());
                        (graph.attr_id(&attr.attr, attr.args.len()), spec)
                    };
                    let (head_attr_id, head_spec) = compile(&rule.head);
                    let body_specs = rule.body.iter().map(compile).collect();
                    specs = Some(RuleSpecs {
                        residual,
                        head_spec,
                        head_attr_id,
                        body_specs,
                    });
                }
                let specs = specs.as_ref().expect("specs compiled above");
                merge_rule_batch(specs, &mut graph, &mut edges, answers)
            },
        )?;
    }

    // Phase 2: stream-merge the aggregate rules into dense group tables.
    let mut store = DerivedStore::default();
    for ((agg_idx, agg), prep) in aggregates.iter().zip(prepped[model.rules().len()..].iter()) {
        if model.aggregate_is_dead(*agg_idx) {
            continue; // dead aggregate: no row can survive its condition
        }
        let mut tables = AggTables::default();
        let mut specs: Option<AggSpecs<'_>> = None;
        let mut source_attr_id = 0;
        stream_condition(
            cache,
            schema,
            instance,
            &prep.query,
            &prep.filters,
            |answers| {
                if specs.is_none() {
                    specs = Some(AggSpecs::compile(
                        agg,
                        &prep.residual,
                        answers,
                        instance,
                        graph.keys_mut(),
                    ));
                    source_attr_id = graph.attr_id(&agg.source.attr, agg.source.args.len());
                }
                let specs = specs.as_ref().expect("specs compiled above");
                // The source's derived column, when an earlier aggregate
                // derived values for it (aggregates over aggregates;
                // topological order guarantees those values are complete).
                let mut resolver = MergeSources {
                    source_attr_id,
                    derived: store.column(source_attr_id),
                    graph: &mut graph,
                };
                merge_agg_batch(specs, &mut resolver, &mut tables, answers)
            },
        )?;

        let agg_fn = agg_fn_of(agg.agg);
        let head_attr_id = graph.attr_id(&agg.name, agg.head_args.len());
        store.register(head_attr_id, &agg.name);
        for group in tables.groups {
            // A head an earlier statement already grounded (an aggregate of
            // the same name) resolves to that node.
            let head_id = graph.intern_node(head_attr_id, group.sig);
            let mut values = Vec::with_capacity(group.sources.len());
            for &(source_id, value) in &group.sources {
                let source_id = source_id.expect("merge resolver creates every source node");
                edges.push((source_id.0, head_id as u32));
                if let Some(v) = value {
                    values.push(v);
                }
            }
            if let Some(v) = agg_fn.apply(&values) {
                store.set(head_attr_id, group.sig, v);
            }
        }
    }
    graph.fold_edges(&edges);

    if let Err(attr) = graph.topological_order() {
        return Err(CarlError::CyclicModel(attr));
    }
    Ok(StreamedModel {
        graph: Arc::new(graph),
        derived: store,
    })
}

// ---------------------------------------------------------------------------
// Incremental patching of a streamed base grounding (delta grounding).
// ---------------------------------------------------------------------------

/// Why a program (or one of its attributes) blocks the incremental
/// attribute-patch fast path. Machine-readable so tooling (`carl-check
/// --report deps`) can explain every cold rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchBlock {
    /// Two aggregate rules share a head name: `parents_of` of a head node
    /// would mix both folds, so no attribute delta can be patched.
    DuplicateAggregateName(String),
    /// The attribute is read by a condition comparison of a *live*
    /// statement: changing it can change which rows survive, i.e. the
    /// graph structure itself.
    ComparisonRead {
        /// `"rule"` or `"aggregate"`.
        statement_kind: &'static str,
        /// Index of the reading statement in program order.
        index: usize,
        /// The statement's head attribute, for rendering.
        head: String,
    },
    /// The attribute is itself an aggregate head: patching would have to
    /// reason about observed cells shadow-interleaving with derived values.
    AggregateHead,
}

impl std::fmt::Display for PatchBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchBlock::DuplicateAggregateName(name) => {
                write!(f, "aggregate head `{name}` is defined more than once")
            }
            PatchBlock::ComparisonRead {
                statement_kind,
                index,
                head,
            } => write!(
                f,
                "read by a condition comparison of live {statement_kind} {} (`{head}`)",
                index + 1
            ),
            PatchBlock::AggregateHead => write!(f, "attribute is an aggregate head"),
        }
    }
}

/// Precomputed per-program patch-safety classification: which
/// **attribute-only** deltas can be patched into an existing
/// [`StreamedModel`] rather than re-grounding cold.
///
/// The streamed graph's *structure* (nodes, edges, and their insertion
/// order — which fixes `parents_of` order and hence the bit-exact fold
/// order of every aggregate) depends only on the skeleton and on which
/// condition rows survive the rules' comparisons. Attribute values enter
/// structure through exactly one door: condition comparisons. So a delta
/// is patchable when
///
/// * no touched attribute is read by a comparison of a *live* statement
///   (a statement the analysis proved dead filters no row, so its reads
///   are inert), and
/// * no touched attribute is itself an aggregate head (observed cells
///   shadow-interleaving with derived values are not worth the extra
///   reasoning on the fast path), and
/// * aggregate head names are unique (otherwise a head node's
///   `parents_of` mixes two folds and the patch could not reconstruct the
///   cold fold order). A causal rule cannot share an aggregate's head:
///   validation rejects that (E0003) before any model is built.
///
/// Computed once at engine build from the model's statically-analysed
/// structure. Structural deltas ([`reldb::DeltaSet::is_structural`]) are
/// screened out by the caller first; falling back to a cold re-ground is
/// always correct, so this classification only gates the optimisation.
#[derive(Debug, Clone, Default)]
pub struct PatchSafety {
    /// A program-wide blocker: when set, no non-empty attribute delta can
    /// take the fast path (collected over all statements, dead or not —
    /// these concern fold structure, not row survival).
    pub global: Option<PatchBlock>,
    /// Per-attribute blockers: a delta touching any of these attributes
    /// must re-ground cold, for the recorded (first) reason.
    pub unsafe_attrs: BTreeMap<String, PatchBlock>,
}

impl PatchSafety {
    /// Classify `model` once. Comparison reads are collected from live
    /// statements only (skipping statements the analysis proved dead);
    /// aggregate-name constraints are collected from all statements, since
    /// they constrain the fold structure of the grounding itself.
    pub fn of(model: &RelationalCausalModel) -> Self {
        let mut safety = PatchSafety::default();
        let mut record = |attr: &str, block: PatchBlock| {
            safety.unsafe_attrs.entry(attr.to_string()).or_insert(block);
        };

        for (i, rule) in model.rules().iter().enumerate() {
            if model.rule_is_dead(i) {
                continue; // a dead rule filters no row: its reads are inert
            }
            for cmp in &rule.condition.comparisons {
                record(
                    &cmp.attr.attr,
                    PatchBlock::ComparisonRead {
                        statement_kind: "rule",
                        index: i,
                        head: rule.head.attr.clone(),
                    },
                );
            }
        }
        for (i, agg) in model.aggregates().iter().enumerate() {
            if !model.aggregate_is_dead(i) {
                for cmp in &agg.condition.comparisons {
                    record(
                        &cmp.attr.attr,
                        PatchBlock::ComparisonRead {
                            statement_kind: "aggregate",
                            index: i,
                            head: agg.name.clone(),
                        },
                    );
                }
            }
        }

        let mut agg_names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for agg in model.aggregates() {
            if !agg_names.insert(agg.name.as_str()) {
                safety.global = safety
                    .global
                    .take()
                    .or(Some(PatchBlock::DuplicateAggregateName(agg.name.clone())));
            }
            safety
                .unsafe_attrs
                .entry(agg.name.clone())
                .or_insert(PatchBlock::AggregateHead);
        }
        safety
    }

    /// Whether an attribute-only delta touching exactly `touched` can take
    /// the incremental patch fast path. Empty deltas always can.
    pub fn delta_patchable(&self, touched: &std::collections::BTreeSet<&str>) -> bool {
        if touched.is_empty() {
            return true;
        }
        self.global.is_none()
            && !touched
                .iter()
                .any(|attr| self.unsafe_attrs.contains_key(*attr))
    }

    /// Render the classification for `carl-check --report deps`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(block) = &self.global {
            out.push_str(&format!(
                "  every attribute delta re-grounds cold: {block}\n"
            ));
        }
        if self.unsafe_attrs.is_empty() {
            if self.global.is_none() {
                out.push_str("  every attribute delta takes the incremental fast path\n");
            }
            return out;
        }
        for (attr, block) in &self.unsafe_attrs {
            out.push_str(&format!("  `{attr}`: cold rebuild — {block}\n"));
        }
        out.push_str("  (deltas touching none of the above patch incrementally)\n");
        out
    }
}

/// Patch `base` (grounded from the *previous* epoch under `model`) into
/// the grounding of `instance` (the *next* epoch), given that the two
/// epochs differ only in the attribute cells listed in `changed` and that
/// [`PatchSafety::delta_patchable`] held for the touched attributes.
///
/// The graph (with its node store and key table) carries over untouched —
/// the eligibility check proved the structure identical. What can change
/// are derived aggregate values, maintained by incremental view
/// maintenance: for each aggregate in the same topological order the cold
/// merge uses, the dirty cells of its source attribute locate their source
/// nodes in the graph, each affected head refolds its `parents_of` (edge
/// insertion order == the cold merge's first-seen source order, so sums
/// and averages refold in the bit-exact same sequence, with the same
/// derived-before-observed lookup discipline), and heads whose value
/// changed cascade as dirty nodes of the derived attribute for
/// aggregates-over-aggregates downstream.
///
/// Observed (non-derived) values are never copied anywhere — the unit
/// table and `value_of` read them live from `instance` — so cells that no
/// aggregate consumes cost nothing beyond the dirty-map entry.
///
/// Returns `None` when the patch meets a shape it cannot prove it
/// maintains bit-identically (e.g. a head whose parents mix attributes);
/// the caller falls back to a cold re-ground.
pub(crate) fn patch_streamed(
    base: &StreamedModel,
    model: &RelationalCausalModel,
    instance: &Instance,
    changed: &[(&str, &UnitKey)],
) -> Option<StreamedModel> {
    use std::collections::BTreeSet;

    let mut patched = base.clone();
    let graph = Arc::clone(&patched.graph);

    // Dirty nodes per graph attribute: seeded by the delta's observed-cell
    // changes (a cell with no node feeds no group and affects nothing
    // derived), extended by derived-value changes as aggregates cascade.
    let mut dirty: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for (attr, key) in changed {
        if let Some(node) = graph.node_of(attr, key) {
            dirty.entry(graph.label(node).attr).or_default().push(node);
        }
    }

    // Aggregates in the exact topological order `ground_streaming` merges
    // them in — the `registered` set reproduces its "derived lookups only
    // consult attributes an *earlier* aggregate registered" discipline.
    let mut registered: BTreeSet<u32> = BTreeSet::new();
    for (agg_idx, agg) in aggregates_in_order(model) {
        if model.aggregate_is_dead(agg_idx) {
            // The cold pipeline skips dead aggregates (they derive
            // nothing), so the patch skips them identically — their head
            // attribute has no store entry to refold.
            continue;
        }
        let head_attr = graph.lookup_attr(&agg.name)?;
        patched.derived.column(head_attr)?;
        let source_attr = graph.lookup_attr(&agg.source.attr);
        let source = ObservedSource::new(instance, &agg.source.attr);
        let source_registered = source_attr.is_some_and(|a| registered.contains(&a));
        registered.insert(head_attr);

        // Heads whose fold consumed a dirty source cell: the children of
        // the dirty source nodes.
        let mut heads: BTreeSet<usize> = BTreeSet::new();
        if let Some(sources) = source_attr.and_then(|a| dirty.get(&a)) {
            for &sid in sources {
                for &hid in graph.children_of(sid) {
                    if graph.label(hid).attr == head_attr {
                        heads.insert(hid);
                    }
                }
            }
        }

        let agg_fn = agg_fn_of(agg.agg);
        for hid in heads {
            let mut values = Vec::new();
            for &pid in graph.parents_of(hid) {
                let parent = graph.label(pid);
                if Some(parent.attr) != source_attr {
                    // Parents this patch does not understand — give up and
                    // let the caller re-ground cold.
                    return None;
                }
                let v = if source_registered {
                    patched.derived.get(parent.attr, parent.sig)
                } else {
                    None
                }
                .or_else(|| patched.observed(&source, parent));
                if let Some(v) = v {
                    values.push(v);
                }
            }
            let new = agg_fn.apply(&values);
            let sig = graph.label(hid).sig;
            let old = patched.derived.get(head_attr, sig);
            if old.map(f64::to_bits) == new.map(f64::to_bits) {
                continue;
            }
            match new {
                Some(v) => patched.derived.set(head_attr, sig, v),
                None => patched.derived.unset(head_attr, sig),
            }
            dirty.entry(head_attr).or_default().push(hid);
        }
    }
    Some(patched)
}

// ---------------------------------------------------------------------------
// Query-synthesised aggregate extensions over a shared base grounding.
// ---------------------------------------------------------------------------

/// A query-synthesised aggregate rule, streamed *on top of* an immutable
/// shared base grounding instead of re-grounding the whole model.
///
/// The rules of the base model (and its own aggregates) are query-
/// independent: their grounding depends only on the instance, exactly like
/// the engine's secondary indexes. What changes per query is the one
/// synthesised aggregate the unifier folds the query's restriction into.
/// This type holds everything that aggregate adds to the grounded model:
/// the derived values (in the same dense [`FloatColumn`] + null-bitmap
/// sink the unit table reads by signature) and, per group, the base-graph
/// node ids of its source groundings. The aggregate's would-be graph
/// vertices are *leaves* — nothing consumes them except peer computation
/// (which [`crate::peers::compute_peers_streamed`] answers from the group
/// source lists) and the unit table's outcome column (answered from the
/// sink) — so the base graph is never cloned or mutated. Keys are signed
/// in a layer over the base's key table, which is shared, not copied.
#[derive(Debug, Clone)]
pub struct AggregateExtension {
    /// The synthesised aggregate attribute this extension derives.
    pub attr: String,
    /// The key arity of the aggregate's head.
    arity: usize,
    /// The base grounding's key table, plus what this extension minted.
    keys: KeySigs,
    /// Derived value per head signature.
    values: FloatColumn,
    /// Head signature → group index ([`NO_GROUP`] = none).
    group_of: Vec<u32>,
    /// Per group, the interned base-graph node ids of its distinct source
    /// groundings (sources absent from the base graph contribute their
    /// value but no node — exactly the reachability a materialised
    /// grounding would give them, since such nodes have no in-edges).
    group_sources: Vec<Vec<GroundedNodeId>>,
}

impl AggregateExtension {
    /// The derived value of `node`, when it is a grounding of this
    /// extension's aggregate.
    /// `_instance` is not read: the extension holds the skeleton its
    /// signatures index.
    pub fn value_of(&self, _instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        if node.attr != self.attr {
            return None;
        }
        self.values.get(self.head_sig(&node.key)? as usize)
    }

    /// The head signature of `key`, if it has one.
    fn head_sig(&self, key: &[Value]) -> Option<u32> {
        (key.len() == self.arity)
            .then(|| self.keys.key_sig(key))
            .flatten()
    }

    /// The group of a head signature, if any.
    fn group_of_sig(&self, sig: u32) -> Option<usize> {
        match self.group_of.get(sig as usize) {
            Some(&g) if g != NO_GROUP => Some(g as usize),
            _ => None,
        }
    }

    /// The head signature of each unit, in unit order: its symbol when the
    /// units carry symbols and heads have one argument, else its key's.
    fn unit_sigs(&self, units: UnitRows<'_>) -> Vec<Option<u32>> {
        match units.syms.filter(|_| self.arity == 1) {
            Some(syms) => syms.iter().map(|&s| Some(sym_sig(s))).collect(),
            None => units.keys.iter().map(|key| self.head_sig(key)).collect(),
        }
    }

    /// The group derived for each unit, in unit order.
    pub(crate) fn unit_groups(&self, units: UnitRows<'_>) -> Vec<Option<usize>> {
        self.unit_sigs(units)
            .into_iter()
            .map(|sig| self.group_of_sig(sig?))
            .collect()
    }

    /// This extension's derived value for each unit, in unit order (what
    /// [`AggregateExtension::value_of`] gives `attr[unit]`).
    pub(crate) fn unit_values(&self, units: UnitRows<'_>) -> Vec<Option<f64>> {
        self.unit_sigs(units)
            .into_iter()
            .map(|sig| self.values.get(sig? as usize))
            .collect()
    }

    /// The derived value of the head whose key of `arity` arguments has
    /// signature `sig`.
    pub(crate) fn sig_value(&self, arity: usize, sig: u32) -> Option<f64> {
        (arity == self.arity)
            .then(|| self.values.get(sig as usize))
            .flatten()
    }

    /// Interned base-graph node ids of a group's sources.
    pub(crate) fn sources_of(&self, group: usize) -> &[GroundedNodeId] {
        &self.group_sources[group]
    }
}

/// Stream one query-synthesised aggregate over `base` (see
/// [`AggregateExtension`]). `model` is the effective model carrying the
/// synthesised rule; `agg` the rule itself. Keys are signed in a layer over
/// the base grounding's key table, so source lookups in the base node
/// table and derived sinks can never disagree.
pub fn ground_aggregate_extension(
    base: &StreamedModel,
    model: &RelationalCausalModel,
    agg: &AggregateRule,
    instance: &Instance,
    cache: &IndexCache,
) -> CarlResult<AggregateExtension> {
    let schema = model.schema();
    let prep = prep_condition(model, &agg.source.attr, &agg.source.args, &agg.condition)?;
    let mut keys = KeySigs::over(Arc::clone(&base.graph));
    let source_attr_id = base.graph.lookup_attr(&agg.source.attr);
    let derived = source_attr_id.and_then(|id| base.derived.column(id));

    let mut tables = AggTables::default();
    let mut specs: Option<AggSpecs<'_>> = None;
    stream_condition(
        cache,
        schema,
        instance,
        &prep.query,
        &prep.filters,
        |answers| {
            if specs.is_none() {
                specs = Some(AggSpecs::compile(
                    agg,
                    &prep.residual,
                    answers,
                    instance,
                    &mut keys,
                ));
            }
            let specs = specs.as_ref().expect("specs compiled above");
            let mut resolver = ExtensionSources {
                keys: &mut keys,
                base: &base.graph,
                source_attr_id,
                derived,
            };
            merge_agg_batch(specs, &mut resolver, &mut tables, answers)
        },
    )?;

    let agg_fn = agg_fn_of(agg.agg);
    let mut values = FloatColumn::new(&agg.name);
    let mut group_sources: Vec<Vec<GroundedNodeId>> = Vec::with_capacity(tables.groups.len());
    for group in tables.groups {
        let group_values: Vec<f64> = group.sources.iter().filter_map(|&(_, v)| v).collect();
        if let Some(v) = agg_fn.apply(&group_values) {
            values.set(group.sig as usize, v);
        }
        group_sources.push(group.sources.into_iter().filter_map(|(n, _)| n).collect());
    }

    Ok(AggregateExtension {
        attr: agg.name.clone(),
        arity: agg.head_args.len(),
        keys,
        values,
        group_of: tables.group_of,
        group_sources,
    })
}

/// Convert a language aggregate name to the relational substrate's kernel.
pub fn agg_fn_of(agg: AggName) -> AggFn {
    match agg {
        AggName::Avg => AggFn::Avg,
        AggName::Sum => AggFn::Sum,
        AggName::Count => AggFn::Count,
        AggName::Min => AggFn::Min,
        AggName::Max => AggFn::Max,
        AggName::Var => AggFn::Var,
        AggName::Median => AggFn::Median,
    }
}

/// Substitute argument terms with the values bound by a query answer.
pub fn substitute(args: &[ArgTerm], binding: &Bindings) -> CarlResult<UnitKey> {
    args.iter()
        .map(|arg| match arg {
            ArgTerm::Const(c) => Ok(crate::model::literal_to_value(c)),
            ArgTerm::Var(v) => binding.get(v).cloned().ok_or_else(|| unbound_error(v)),
        })
        .collect()
}

/// Evaluate attribute comparisons against a binding.
pub fn comparisons_hold(
    comparisons: &[TypedComparison],
    binding: &Bindings,
    instance: &Instance,
) -> bool {
    comparisons.iter().all(|cmp| {
        let key: Option<UnitKey> = cmp
            .args
            .iter()
            .map(|t| match t {
                reldb::Term::Const(v) => Some(v.clone()),
                reldb::Term::Var(v) => binding.get(v).cloned(),
            })
            .collect();
        match key {
            Some(key) => cmp.holds(instance.attribute(&cmp.attr, &key)),
            None => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use carl_lang::parse_program;
    use reldb::RelationalSchema;

    fn review_model() -> RelationalCausalModel {
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            Prestige[A]  <= Qualification[A]              WHERE Person(A)
            Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
            Score[S]     <= Prestige[A]                   WHERE Author(A, S)
            Score[S]     <= Quality[S]                    WHERE Submission(S)
            AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
            "#,
        )
        .unwrap();
        RelationalCausalModel::new(schema, program).unwrap()
    }

    #[test]
    fn grounding_matches_example_3_6() {
        let model = review_model();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        let g = &grounded.graph;

        // Figure 4 nodes: 3 Qualification, 3 Prestige, 3 Quality, 3 Score,
        // plus Figure 5's 3 AVG_Score aggregate nodes.
        assert_eq!(g.nodes_of_attr("Qualification").len(), 3);
        assert_eq!(g.nodes_of_attr("Prestige").len(), 3);
        assert_eq!(g.nodes_of_attr("Quality").len(), 3);
        assert_eq!(g.nodes_of_attr("Score").len(), 3);
        assert_eq!(g.nodes_of_attr("AVG_Score").len(), 3);
        assert_eq!(g.node_count(), 15);

        // Edge count: qual→prestige (3) + qual→quality (5) + prestige→quality (5)
        // + prestige→score (5) + quality→score (3) + score→avg_score (5) = 26.
        assert_eq!(g.edge_count(), 26);
        assert!(g.is_acyclic());

        // Spot-check the grounded rule for Score["s1"] from Example 3.6:
        // parents are Quality["s1"], Prestige["Bob"], Prestige["Eva"].
        let score_s1 = g.node_id(&GroundedAttr::single("Score", "s1")).unwrap();
        let parents: Vec<String> = g
            .parents_of(score_s1)
            .iter()
            .map(|&p| g.node(p).to_string())
            .collect();
        assert_eq!(parents.len(), 3);
        assert!(parents.contains(&"Quality[\"s1\"]".to_string()));
        assert!(parents.contains(&"Prestige[\"Bob\"]".to_string()));
        assert!(parents.contains(&"Prestige[\"Eva\"]".to_string()));
    }

    #[test]
    fn streamed_grounding_matches_the_reference() {
        let model = review_model();
        let instance = Instance::review_example();
        let reference = ground(&model, &instance).unwrap();
        let cache = IndexCache::for_instance(&instance);
        let streamed = ground_streaming(&model, &instance, &cache).unwrap();
        // Same nodes in the same order, same parent and child lists, and
        // bit-identical values.
        let (r, s) = (&reference.graph, &*streamed.graph);
        assert_eq!(r.node_count(), s.node_count());
        for (id, node) in r.iter() {
            assert_eq!(node, s.node(id));
            assert_eq!(r.parents_of(id), s.parents_of(id), "{node}");
            assert_eq!(r.children_of(id), s.children_of(id), "{node}");
            assert_eq!(
                reference.value_of(&instance, &node).map(f64::to_bits),
                streamed.value_of(&instance, &node).map(f64::to_bits),
                "{node}"
            );
        }
    }

    #[test]
    fn constants_absent_from_the_skeleton_ground_through_checked_pseudo_symbols() {
        // Regression for the graph's dense `by_sig` indexing: a rule
        // argument constant the skeleton never interned gets a pseudo-symbol
        // *past the interner range*. The dense per-attribute arrays must
        // grow to pseudo-signatures instead of indexing out of bounds — and
        // the production grounder must agree with the reference.
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            Quality["ghost-submission"] <= Qualification[A] WHERE Person(A)
            Score[S] <= Quality["ghost-submission"] WHERE Submission(S)
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let instance = Instance::review_example();
        let reference = ground(&model, &instance).unwrap();
        let ghost = GroundedAttr::single("Quality", "ghost-submission");
        let ghost_id = reference
            .graph
            .node_id(&ghost)
            .expect("ghost node grounded");
        // One ghost node: 3 Qualification parents (rule 1) and 3 Score
        // children (rule 2).
        assert_eq!(reference.graph.parents_of(ghost_id).len(), 3);
        assert_eq!(reference.graph.children_of(ghost_id).len(), 3);

        // The streamed path builds the identical graph.
        let cache = IndexCache::for_instance(&instance);
        let streamed = ground_streaming(&model, &instance, &cache).unwrap();
        assert_eq!(streamed.graph.node_count(), reference.graph.node_count());
        assert_eq!(streamed.graph.edge_count(), reference.graph.edge_count());
        assert_eq!(streamed.graph.node_id(&ghost), Some(ghost_id));
        assert_eq!(streamed.graph.parents_of(ghost_id).len(), 3);
        assert_eq!(streamed.graph.children_of(ghost_id).len(), 3);
    }

    #[test]
    fn aggregate_values_match_table_1() {
        let model = review_model();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        // Table 1 of the paper: AVG_Score Bob = 0.75, Carlos = 0.1,
        // Eva = mean(0.75, 0.4, 0.1) ≈ 0.4167 (the paper rounds to 0.41).
        let val = |who: &str| {
            grounded
                .value_of(&instance, &GroundedAttr::single("AVG_Score", who))
                .unwrap()
        };
        assert!((val("Bob") - 0.75).abs() < 1e-12);
        assert!((val("Carlos") - 0.1).abs() < 1e-12);
        assert!((val("Eva") - (0.75 + 0.4 + 0.1) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_heads_shared_with_other_statements_get_one_node_per_grounding() {
        // Two aggregates share the head `AVG_Score` and `MAX_AVG_Score`
        // aggregates over it: every aggregate head must resolve to the node
        // an earlier statement grounded, in both grounders. (A causal rule
        // cannot share an aggregate's head: validation rejects that with
        // E0003, so this is the one program shape where heads collide.)
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            AVG_Score[A]     <= Qualification[A] WHERE Person(A)
            AVG_Score[A]     <= Score[S]         WHERE Author(A, S)
            MAX_AVG_Score[S] <= AVG_Score[A]     WHERE Author(A, S)
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        assert_eq!(
            PatchSafety::of(&model).global,
            Some(PatchBlock::DuplicateAggregateName("AVG_Score".into()))
        );
        let instance = Instance::review_example();
        let cache = IndexCache::for_instance(&instance);
        let materialised = ground(&model, &instance).unwrap();
        let streamed = ground_streaming(&model, &instance, &cache).unwrap();
        for graph in [&materialised.graph, &*streamed.graph] {
            let distinct: std::collections::HashSet<GroundedAttr> =
                graph.iter().map(|(_, node)| node).collect();
            assert_eq!(distinct.len(), graph.node_count(), "duplicate nodes");
            assert_eq!(graph.nodes_of_attr("AVG_Score").len(), 3);
            assert_eq!(graph.nodes_of_attr("MAX_AVG_Score").len(), 3);
            // Bob's head carries the rule edge and the aggregate's edge.
            let bob = graph
                .node_id(&GroundedAttr::single("AVG_Score", "Bob"))
                .unwrap();
            let parents: Vec<&str> = graph
                .parents_of(bob)
                .iter()
                .map(|&p| graph.attr_of(p))
                .collect();
            assert_eq!(parents, ["Qualification", "Score"]);
            // The second aggregate's sources are the first one's heads.
            let s1 = graph
                .node_id(&GroundedAttr::single("MAX_AVG_Score", "s1"))
                .unwrap();
            assert!(graph.parents_of(s1).contains(&bob));
        }
        assert_eq!(materialised.graph.node_count(), streamed.graph.node_count());
        let max_s1 = GroundedAttr::single("MAX_AVG_Score", "s1");
        assert_eq!(
            materialised.value_of(&instance, &max_s1).map(f64::to_bits),
            streamed.value_of(&instance, &max_s1).map(f64::to_bits)
        );
    }

    #[test]
    fn patch_matches_cold_reground_on_attribute_deltas() {
        let model = review_model();
        let base_inst = Instance::review_example();
        let cache = IndexCache::for_instance(&base_inst);
        let base = ground_streaming(&model, &base_inst, &cache).unwrap();

        // Attribute-only epoch change: rescore s1, clear s3's score, tweak a
        // qualification nothing derived depends on.
        let (next_inst, delta) = base_inst
            .apply_with_delta(&[
                reldb::Mutation::SetAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s1")],
                    value: Value::Float(0.95),
                },
                reldb::Mutation::ClearAttribute {
                    attr: "Score".into(),
                    key: vec![Value::from("s3")],
                },
                reldb::Mutation::SetAttribute {
                    attr: "Qualification".into(),
                    key: vec![Value::from("Bob")],
                    value: Value::Float(60.0),
                },
            ])
            .unwrap();
        assert!(!delta.is_structural());
        assert!(PatchSafety::of(&model).delta_patchable(&delta.touched_attrs()));

        let patched = patch_streamed(&base, &model, &next_inst, &delta.changed_cells())
            .expect("delta is patchable");
        let cold_cache = IndexCache::for_instance(&next_inst);
        let cold = ground_streaming(&model, &next_inst, &cold_cache).unwrap();

        // Identical structure and bit-identical values, node for node.
        assert_eq!(patched.graph.node_count(), cold.graph.node_count());
        assert_eq!(patched.graph.edge_count(), cold.graph.edge_count());
        for (_, node) in cold.graph.iter() {
            assert_eq!(
                patched.value_of(&next_inst, &node).map(f64::to_bits),
                cold.value_of(&next_inst, &node).map(f64::to_bits),
                "value mismatch at {node}"
            );
        }
        // The averages actually moved: Bob now averages the new 0.95 and
        // Carlos's only submission lost its score entirely.
        let avg = |m: &StreamedModel, who: &str| {
            m.value_of(&next_inst, &GroundedAttr::single("AVG_Score", who))
        };
        assert_eq!(avg(&patched, "Bob"), Some(0.95));
        assert_eq!(avg(&patched, "Carlos"), None);
        assert_eq!(avg(&patched, "Eva"), Some((0.95 + 0.4) / 2.0));
        // The shared base grounding is untouched (copy-on-write).
        assert_eq!(
            base.value_of(&base_inst, &GroundedAttr::single("AVG_Score", "Bob")),
            Some(0.75)
        );
    }

    #[test]
    fn patch_eligibility_refuses_comparison_gated_attributes() {
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            Score[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] > 10.0
            AVG_Score[A] <= Score[S] WHERE Author(A, S)
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let safety = PatchSafety::of(&model);
        let gated: std::collections::BTreeSet<&str> = ["Qualification"].into_iter().collect();
        // Qualification gates which rows ground → structure could change.
        assert!(!safety.delta_patchable(&gated));
        // Score only feeds values, never structure.
        let safe: std::collections::BTreeSet<&str> = ["Score"].into_iter().collect();
        assert!(safety.delta_patchable(&safe));
        // A touched aggregate head is refused too.
        let head: std::collections::BTreeSet<&str> = ["AVG_Score"].into_iter().collect();
        assert!(!safety.delta_patchable(&head));
    }

    #[test]
    fn patch_safety_verdicts_hold_when_nothing_is_dead() {
        // With no dead statements, a delta patches unless it touches a
        // comparison-read attribute or an aggregate head. Columns follow
        // `touched`; each row is one program's verdicts.
        let touched = [
            vec![],
            vec!["Score"],
            vec!["Qualification"],
            vec!["Blind"],
            vec!["AVG_Score"],
            vec!["Score", "Qualification"],
            vec!["Prestige", "Quality"],
        ];
        for (rules, verdicts) in [
            (
                r#"
            Prestige[A]  <= Qualification[A]              WHERE Person(A)
            Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
            Score[S]     <= Prestige[A]                   WHERE Author(A, S)
            AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
            "#,
                [true, true, true, true, false, true, true],
            ),
            (
                r#"
            Score[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] > 10.0
            AVG_Score[A] <= Score[S] WHERE Author(A, S), Blind[C] = true, Submitted(S, C)
            "#,
                [true, true, false, false, false, false, true],
            ),
            ("Prestige[A] <= Qualification[A] WHERE Person(A)", [true; 7]),
        ] {
            let schema = RelationalSchema::review_example();
            let model = RelationalCausalModel::new(schema, parse_program(rules).unwrap()).unwrap();
            let safety = PatchSafety::of(&model);
            for (touched_attrs, expected) in touched.iter().zip(verdicts) {
                let touched: std::collections::BTreeSet<&str> =
                    touched_attrs.iter().copied().collect();
                assert_eq!(
                    safety.delta_patchable(&touched),
                    expected,
                    "verdict on {touched_attrs:?} for program {rules}"
                );
            }
        }
    }

    #[test]
    fn patch_safety_ignores_comparison_reads_in_dead_rules() {
        // The precision win: `Score` is read only by the comparisons of a
        // rule whose condition is statically unsatisfiable (an empty
        // interval), so a Score delta cannot change which rows survive —
        // the dead rule never fires either way, so the screen patches.
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            Prestige[A] <= Qualification[A] WHERE Person(A)
            Quality[S]  <= Prestige[A] WHERE Author(A, S), Score[S] > 9000.0, Score[S] < -9000.0
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        assert!(model.rule_is_dead(1));
        let safety = PatchSafety::of(&model);
        let touched: std::collections::BTreeSet<&str> = ["Score"].into_iter().collect();
        assert!(safety.delta_patchable(&touched));
        assert!(!safety.unsafe_attrs.contains_key("Score"));
        // Qualification is read by no comparison at all.
        let quals: std::collections::BTreeSet<&str> = ["Qualification"].into_iter().collect();
        assert!(safety.delta_patchable(&quals));
    }

    #[test]
    fn patch_safety_records_machine_readable_reasons() {
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            Score[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] > 10.0
            AVG_Score[A] <= Score[S] WHERE Author(A, S)
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let safety = PatchSafety::of(&model);
        assert!(safety.global.is_none());
        assert_eq!(
            safety.unsafe_attrs.get("Qualification"),
            Some(&PatchBlock::ComparisonRead {
                statement_kind: "rule",
                index: 0,
                head: "Score".into(),
            })
        );
        assert_eq!(
            safety.unsafe_attrs.get("AVG_Score"),
            Some(&PatchBlock::AggregateHead)
        );
        let rendered = safety.render();
        assert!(rendered.contains("`Qualification`: cold rebuild"));
        assert!(rendered.contains("read by a condition comparison of live rule 1 (`Score`)"));
        assert!(rendered.contains("deltas touching none of the above patch incrementally"));
    }

    #[test]
    fn unobserved_attributes_have_no_values_but_do_have_nodes() {
        let model = review_model();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        let quality_s1 = GroundedAttr::single("Quality", "s1");
        assert!(grounded.graph.node_id(&quality_s1).is_some());
        assert_eq!(grounded.value_of(&instance, &quality_s1), None);
        // The streamed grounder agrees: a node, but no value.
        let cache = IndexCache::for_instance(&instance);
        let streamed = ground_streaming(&model, &instance, &cache).unwrap();
        assert!(streamed.node_of("Quality", &quality_s1.key).is_some());
        assert_eq!(streamed.value_of(&instance, &quality_s1), None);
    }

    #[test]
    fn comparisons_restrict_grounding() {
        let schema = RelationalSchema::review_example();
        // Only ground the prestige→score rule at single-blind venues
        // (Blind = false), i.e. only submission s1 at ConfDB.
        let program = parse_program(
            "Score[S] <= Prestige[A] WHERE Author(A, S), Submitted(S, C), Blind[C] = false",
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        assert_eq!(grounded.graph.nodes_of_attr("Score").len(), 1);
        let score = grounded.graph.nodes_of_attr("Score")[0];
        assert_eq!(grounded.graph.node(score).key, vec![Value::from("s1")]);
        assert_eq!(grounded.graph.parents_of(score).len(), 2);
    }

    #[test]
    fn residual_comparisons_filter_rows() {
        let schema = RelationalSchema::review_example();
        // A non-equality comparison stays residual and is applied per row.
        let program =
            parse_program("Score[S] <= Prestige[A] WHERE Author(A, S), Qualification[A] >= 10")
                .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        // Bob (50) and Carlos (20) qualify; Eva (2) does not. Bob authored
        // s1, Carlos authored s3.
        let scores: Vec<String> = grounded
            .graph
            .nodes_of_attr("Score")
            .iter()
            .map(|&id| grounded.graph.node(id).key[0].to_string())
            .collect();
        assert_eq!(scores.len(), 2);
        assert!(scores.contains(&"s1".to_string()));
        assert!(scores.contains(&"s3".to_string()));
    }

    #[test]
    fn rules_without_where_ground_over_subject_units() {
        use reldb::DomainType;
        let mut schema = RelationalSchema::new();
        schema.add_entity("Patient").unwrap();
        schema
            .add_attribute("Severity", "Patient", DomainType::Float, true)
            .unwrap();
        schema
            .add_attribute("Bill", "Patient", DomainType::Float, true)
            .unwrap();
        let mut instance = Instance::new(schema.clone());
        for i in 0..4 {
            let key = Value::from(format!("p{i}"));
            instance.add_entity("Patient", key.clone()).unwrap();
            instance
                .set_attribute(
                    "Severity",
                    std::slice::from_ref(&key),
                    Value::Float(i as f64),
                )
                .unwrap();
            instance
                .set_attribute("Bill", &[key], Value::Float(10.0 * i as f64))
                .unwrap();
        }
        let program = parse_program("Bill[P] <= Severity[P]").unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let grounded = ground(&model, &instance).unwrap();
        assert_eq!(grounded.graph.nodes_of_attr("Bill").len(), 4);
        assert_eq!(grounded.graph.edge_count(), 4);
    }

    #[test]
    fn aggregate_of_identity_grouping() {
        let schema = RelationalSchema::review_example();
        let program = parse_program("AVG_Score[S] <= Score[S]").unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        let v = grounded
            .value_of(&instance, &GroundedAttr::single("AVG_Score", "s2"))
            .unwrap();
        assert!((v - 0.4).abs() < 1e-12);
    }

    #[test]
    fn agg_fn_conversion_is_total() {
        for (name, expected) in [
            (AggName::Avg, AggFn::Avg),
            (AggName::Sum, AggFn::Sum),
            (AggName::Count, AggFn::Count),
            (AggName::Min, AggFn::Min),
            (AggName::Max, AggFn::Max),
            (AggName::Var, AggFn::Var),
            (AggName::Median, AggFn::Median),
        ] {
            assert_eq!(agg_fn_of(name), expected);
        }
    }
}
