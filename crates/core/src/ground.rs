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
//!   straight into the merge: rule rows fold into a grounded-node table
//!   keyed by symbol signatures, aggregate rows into dense group tables
//!   whose results land in per-attribute column sinks. The merge is a pure
//!   in-order fold, so a grounding is bit-identical under any
//!   `RAYON_NUM_THREADS`. Statements the whole-program analysis proved
//!   dead are skipped. [`ground_aggregate_extension`] streams one
//!   query-synthesised aggregate over a shared base grounding, and
//!   `patch_streamed` maintains derived values across attribute-only
//!   commits.
//! * [`ground_with`] is the reference: a small sequential loop over each
//!   condition's `Vec<Bindings>` answers, with per-answer substitution,
//!   [`CausalGraph::add_node`] and [`CausalGraph::add_edge`]. It prunes
//!   nothing and shares none of the production merge's machinery, so the
//!   differential suites and the golden digests compare two independent
//!   implementations of Definition 3.5.

use crate::error::{CarlError, CarlResult};
use crate::graph::{CausalGraph, GroundedAttr, GroundedNodeId, NodeId};
use crate::model::{RelationalCausalModel, TypedComparison};
use crate::unit_table::FloatColumn;
use carl_lang::{AggName, AggregateRule, ArgTerm, CausalRule, CompareOp};
use reldb::symbols::{SymMap, SymSet};
use reldb::{
    evaluate_filtered, AggFn, Bindings, ConjunctiveQuery, EqFilter, IndexCache, Instance, Sym,
    TupleAnswers, UnitKey, Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};

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

    /// The observed value (as a [`Value`]) of a grounded attribute, with
    /// derived aggregates rendered as floats.
    pub fn raw_value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<Value> {
        if let Some(v) = self.derived.get(node) {
            return Some(Value::Float(*v));
        }
        instance.attribute(&node.attr, &node.key).cloned()
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
/// [`GroundedValues::unit_values`]), whose defaults are the key-addressed
/// [`GroundedValues::node_of`]/[`GroundedValues::value_of`] path.
/// [`StreamedModel`] overrides them to read by node id and unit symbol.
pub trait GroundedValues {
    /// The grounded causal graph.
    fn graph(&self) -> &CausalGraph;

    /// The observed or derived numeric value of a grounded attribute (see
    /// [`GroundedModel::value_of`]).
    fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64>;

    /// The graph node grounding `attr` with `key`, if one exists.
    ///
    /// The default probes the graph with a freshly built [`GroundedAttr`]
    /// (one string clone + content fingerprint per call). Groundings that
    /// retain an interned node table — notably [`StreamedModel`] — override
    /// this to resolve through `(attribute id, key-symbol signature)`
    /// without constructing or re-hashing a `GroundedAttr` at all, which is
    /// what keeps per-unit probes (peer discovery, incremental patching)
    /// off the allocator.
    fn node_of(&self, attr: &str, key: &UnitKey) -> Option<NodeId> {
        self.graph().node_id(&GroundedAttr::new(attr, key.clone()))
    }

    /// The node grounding `attr` for each unit, in unit order (`None` where
    /// a unit has none). The default calls [`GroundedValues::node_of`] per
    /// key.
    fn unit_nodes(&self, attr: &str, units: UnitRows<'_>) -> Vec<Option<NodeId>> {
        units.keys.iter().map(|u| self.node_of(attr, u)).collect()
    }

    /// The observed or derived value of each graph node in `nodes`, in
    /// order: what [`GroundedValues::value_of`] gives the node's grounded
    /// attribute, which is the default.
    fn node_values(&self, instance: &Instance, nodes: &[NodeId]) -> Vec<Option<f64>> {
        let graph = self.graph();
        nodes
            .iter()
            .map(|&node| self.value_of(instance, graph.node(node)))
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

/// Ground `model` against `instance`, producing the grounded causal graph
/// and derived aggregate values.
///
/// Runs the reference grounder ([`ground_with`]) with a fresh index cache,
/// so secondary indexes built for the evaluation are discarded afterwards.
pub fn ground(model: &RelationalCausalModel, instance: &Instance) -> CarlResult<GroundedModel> {
    ground_with(model, instance, &IndexCache::with_fingerprint(0))
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
    /// A constant from the rule text, with its resolved signature symbol
    /// (the skeleton symbol when the value occurs in the skeleton, a
    /// ground-local pseudo-symbol otherwise).
    Const(u32, Value),
    /// The value in this register slot.
    Slot(usize),
    /// The variable is not bound by the condition: resolving it is an
    /// error (raised only if a row actually survives, matching the
    /// behaviour of per-binding substitution).
    Unbound(String),
}

/// Pseudo-symbols for constants the skeleton never interned: ids above the
/// skeleton's symbol space, assigned per distinct value (under `Value`
/// equality, consistent with the interner's own equivalence). Together with
/// the skeleton symbols this makes every argument value of every rule
/// expressible as one `u32`, so node identities and group keys are pure
/// integer signatures.
struct ConstSyms {
    base: usize,
    lookup: HashMap<Value, u32>,
}

impl ConstSyms {
    fn new(interner_len: usize) -> Self {
        Self {
            base: interner_len,
            lookup: HashMap::new(),
        }
    }

    fn sym_of(&mut self, interner: &reldb::SymbolTable, value: &Value) -> u32 {
        if let Some(sym) = interner.get(value) {
            return u32::try_from(sym.index()).expect("symbol space fits u32");
        }
        if let Some(&sym) = self.lookup.get(value) {
            return sym;
        }
        let sym = u32::try_from(self.base + self.lookup.len()).expect("symbol space fits u32");
        self.lookup.insert(value.clone(), sym);
        sym
    }

    /// Exclusive upper bound of the signature-symbol space minted so far
    /// (interner symbols plus constant pseudo-symbols).
    fn bound(&self) -> usize {
        self.base + self.lookup.len()
    }
}

/// Compile argument terms against an answer's slot layout.
fn arg_slots(
    args: &[ArgTerm],
    answers: &TupleAnswers<'_>,
    interner: &reldb::SymbolTable,
    consts: &mut ConstSyms,
) -> Vec<ArgSlot> {
    args.iter()
        .map(|arg| match arg {
            ArgTerm::Const(c) => {
                let value = crate::model::literal_to_value(c);
                ArgSlot::Const(consts.sym_of(interner, &value), value)
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

/// Resolve a compiled argument spec against one answer row.
fn resolve_args(spec: &[ArgSlot], row: &[Sym], answers: &TupleAnswers<'_>) -> CarlResult<UnitKey> {
    spec.iter()
        .map(|arg| match arg {
            ArgSlot::Const(_, v) => Ok(v.clone()),
            ArgSlot::Slot(s) => Ok(answers.value(row[*s]).clone()),
            ArgSlot::Unbound(v) => Err(unbound_error(v)),
        })
        .collect()
}

/// The signature symbol of one argument for a given row.
fn arg_sig(arg: &ArgSlot, row: &[Sym]) -> CarlResult<u32> {
    match arg {
        ArgSlot::Const(sym, _) => Ok(*sym),
        ArgSlot::Slot(s) => Ok(u32::try_from(row[*s].index()).expect("symbol space fits u32")),
        ArgSlot::Unbound(v) => Err(unbound_error(v)),
    }
}

/// Fill `out` with the full signature of a spec for a given row.
fn sig_into(spec: &[ArgSlot], row: &[Sym], out: &mut Vec<u32>) -> CarlResult<()> {
    out.clear();
    for arg in spec {
        out.push(arg_sig(arg, row)?);
    }
    Ok(())
}

/// The first unbound variable of a compiled spec, if any.
fn first_unbound(spec: &[ArgSlot]) -> Option<&str> {
    spec.iter().find_map(|a| match a {
        ArgSlot::Unbound(v) => Some(v.as_str()),
        _ => None,
    })
}

/// Bounds-check a signature symbol against the tracked symbol range
/// (interner symbols + constant pseudo-symbols), surfacing a typed error
/// instead of indexing dense grounding storage out of bounds.
fn guard_sig(attr: &str, sig: u32, bound: usize) -> CarlResult<usize> {
    let sig = sig as usize;
    if sig >= bound {
        return Err(CarlError::Grounding(format!(
            "argument signature symbol {sig} of `{attr}` is outside the \
             interner + constant pseudo-symbol range (bound {bound})"
        )));
    }
    Ok(sig)
}

/// The ground-wide node table: graph-node ids memoised on
/// `(attribute, argument-signature)` so a grounding referenced by several
/// rules (e.g. `Score[p]` as the head of three rules and the source of an
/// aggregate) resolves its values — and hashes a string-keyed
/// [`GroundedAttr`] — exactly once across the whole merge.
///
/// Single-argument references (the overwhelmingly common shape) memoise
/// through a dense per-attribute array indexed by the signature symbol —
/// one bounds check per row, no hashing at all. Other arities fall back to
/// a symbol-keyed hash map probed without allocating.
///
/// The table also records every node's own signature ([`NodeSig`], 8 bytes
/// per node), so a node id resolves back to its attribute and key symbol
/// without reading its [`GroundedAttr`].
#[derive(Debug, Clone, Default)]
struct NodeTable {
    attr_ids: HashMap<String, usize>,
    /// Attribute names by dense id.
    names: Vec<String>,
    /// `single[attr_id][sig]` → interned node id (dense,
    /// [`GroundedNodeId::NONE`] = absent).
    single: Vec<Vec<GroundedNodeId>>,
    /// `multi[attr_id][full signature]` → interned node id (other arities).
    multi: Vec<SymMap<Vec<u32>, GroundedNodeId>>,
    /// Per graph node, in node order: its attribute id and signature.
    sigs: Vec<NodeSig>,
    /// Exclusive upper bound on valid signature symbols: the skeleton's
    /// interner length plus the constant pseudo-symbols registered so far.
    /// Guards the dense arrays — a signature past this bound would mean a
    /// pseudo-symbol was allocated outside the tracked range, and must
    /// surface as a typed [`CarlError::Grounding`] rather than index (or
    /// resize) dense storage out of bounds.
    sig_bound: usize,
    /// Signature buffer reused by multi-argument probes.
    sig_buf: Vec<u32>,
}

/// A grounded node's identity in the [`NodeTable`]: its attribute id and,
/// for a single-argument node, its signature symbol ([`NodeSig::MULTI`]
/// for other arities).
#[derive(Debug, Clone, Copy)]
struct NodeSig {
    attr: u32,
    sig: u32,
}

impl NodeSig {
    /// The `sig` of a node whose key has other than one argument.
    const MULTI: u32 = u32::MAX;
}

impl NodeTable {
    /// The dense id of an attribute name (registering it on first use).
    fn attr_id(&mut self, attr: &str) -> usize {
        if let Some(&id) = self.attr_ids.get(attr) {
            return id;
        }
        let id = self.attr_ids.len();
        self.attr_ids.insert(attr.to_string(), id);
        self.names.push(attr.to_string());
        self.single.push(Vec::new());
        self.multi.push(SymMap::default());
        id
    }

    /// Append node `attr[key]` to the graph, recording its signature.
    fn push_node(
        &mut self,
        graph: &mut CausalGraph,
        attr: &str,
        attr_id: usize,
        sig: u32,
        key: UnitKey,
    ) -> NodeId {
        let id = graph.push_node(GroundedAttr::new(attr, key));
        debug_assert_eq!(id, self.sigs.len(), "the node table creates every node");
        self.sigs.push(NodeSig {
            attr: u32::try_from(attr_id).expect("attribute ids fit u32"),
            sig,
        });
        id
    }

    /// Raise the valid-signature bound after compiling argument specs (the
    /// only point where new constant pseudo-symbols can be minted).
    fn set_sig_bound(&mut self, bound: usize) {
        self.sig_bound = self.sig_bound.max(bound);
    }

    /// Read-only lookup of an attribute's dense id.
    fn lookup_attr(&self, attr: &str) -> Option<usize> {
        self.attr_ids.get(attr).copied()
    }

    /// Read-only lookup of the node for a single-argument signature.
    fn lookup_single(&self, attr_id: usize, sig: usize) -> Option<GroundedNodeId> {
        match self.single[attr_id].get(sig) {
            Some(&id) if id != GroundedNodeId::NONE => Some(id),
            _ => None,
        }
    }

    /// Read-only lookup of the node for a full signature.
    fn lookup_multi(&self, attr_id: usize, sig: &[u32]) -> Option<GroundedNodeId> {
        self.multi[attr_id].get(sig).copied()
    }

    /// Check a dense signature index against the tracked symbol range.
    fn checked_sig(&self, attr: &str, sig: u32) -> CarlResult<usize> {
        guard_sig(attr, sig, self.sig_bound)
    }

    /// The node for a single-argument signature, appending one keyed
    /// `attr[key()]` to the graph on first sight. This lookup-or-append is
    /// the only way grounding creates nodes, so the table stays a complete
    /// index of the graph and the graph never has to deduplicate.
    fn intern_single(
        &mut self,
        graph: &mut CausalGraph,
        attr: &str,
        attr_id: usize,
        sig: usize,
        key: impl FnOnce() -> CarlResult<UnitKey>,
    ) -> CarlResult<NodeId> {
        let ids = &mut self.single[attr_id];
        if sig >= ids.len() {
            ids.resize(sig + 1, GroundedNodeId::NONE);
        }
        if ids[sig] != GroundedNodeId::NONE {
            return Ok(ids[sig].index());
        }
        let packed = u32::try_from(sig).expect("signature symbols fit u32");
        let id = self.push_node(graph, attr, attr_id, packed, key()?);
        self.single[attr_id][sig] = GroundedNodeId::from_node(id);
        Ok(id)
    }

    /// [`NodeTable::intern_single`] for a full (other-arity) signature.
    fn intern_multi(
        &mut self,
        graph: &mut CausalGraph,
        attr: &str,
        attr_id: usize,
        sig: &[u32],
        key: impl FnOnce() -> CarlResult<UnitKey>,
    ) -> CarlResult<NodeId> {
        if let Some(&id) = self.multi[attr_id].get(sig) {
            return Ok(id.index());
        }
        let id = self.push_node(graph, attr, attr_id, NodeSig::MULTI, key()?);
        self.multi[attr_id].insert(sig.to_vec(), GroundedNodeId::from_node(id));
        Ok(id)
    }

    /// The node of an aggregate head, whose group closed with signature
    /// `sig` and key `key`. A head an earlier statement already grounded
    /// (an aggregate of the same name) resolves to that node; later
    /// aggregates and read-only extension lookups find it as a source.
    fn intern_head(
        &mut self,
        graph: &mut CausalGraph,
        attr: &str,
        attr_id: usize,
        sig: &SigKey,
        key: UnitKey,
    ) -> CarlResult<NodeId> {
        match sig {
            SigKey::Single(sig) => {
                let sig = self.checked_sig(attr, *sig)?;
                self.intern_single(graph, attr, attr_id, sig, || Ok(key))
            }
            SigKey::Multi(sig) => self.intern_multi(graph, attr, attr_id, sig, || Ok(key)),
        }
    }

    /// The graph node for `attr` grounded with the row's argument values,
    /// creating it on first sight.
    fn node_id(
        &mut self,
        graph: &mut CausalGraph,
        attr: &str,
        attr_id: usize,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<NodeId> {
        let key = || resolve_args(spec, row, answers);
        if let [arg] = spec {
            let sig = self.checked_sig(attr, arg_sig(arg, row)?)?;
            return self.intern_single(graph, attr, attr_id, sig, key);
        }
        // The signature buffer is reused across rows: a hit allocates
        // nothing, a miss copies it into the table once.
        let mut sig = std::mem::take(&mut self.sig_buf);
        let id = sig_into(spec, row, &mut sig)
            .and_then(|()| self.intern_multi(graph, attr, attr_id, &sig, key));
        self.sig_buf = sig;
        id
    }
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

/// Ground `model` against `instance` on the reference grounder, reusing
/// (and lazily extending) the secondary indexes in `cache`. The cache must
/// belong to `instance` (the engine keys it by [`Instance::fingerprint`]).
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
pub fn ground_with(
    model: &RelationalCausalModel,
    instance: &Instance,
    cache: &IndexCache,
) -> CarlResult<GroundedModel> {
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
        let all = evaluate_filtered(cache, schema, instance, &prep.query, &prep.filters)?;
        Ok(all
            .into_iter()
            .filter(|b| comparisons_hold(&prep.residual, b, instance))
            .collect())
    };

    let mut graph = CausalGraph::new();
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
                let value = derived.get(node).copied();
                values.extend(value.or_else(|| instance.attribute_f64(&node.attr, &node.key)));
            }
            if let Some(v) = agg_fn.apply(&values) {
                derived.insert(graph.node(head).clone(), v);
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
/// Values are keyed by `(attribute, argument signature)`: single-argument
/// groundings (the overwhelmingly common shape) live in one
/// [`FloatColumn`] + null-bitmap sink per attribute, indexed by the
/// argument's signature symbol — the column's null bitmap marks signatures
/// that never derived a value, so a lookup is one bounds check and one bit
/// test instead of a sorted-map walk over string-keyed [`GroundedAttr`]s.
/// Other arities fall back to a signature-keyed hash map. Constants outside
/// the skeleton's interner resolve through the same pseudo-symbol table the
/// merge used, so stores and lookups can never disagree.
#[derive(Debug, Clone, Default)]
struct DerivedStore {
    attr_ids: HashMap<String, usize>,
    /// `single[attr_id]` — dense signature-indexed value sink.
    single: Vec<FloatColumn>,
    /// `multi[attr_id]` — full-signature fallback for other arities.
    multi: Vec<SymMap<Vec<u32>, f64>>,
    /// Pseudo-symbols minted during the merge for constants the skeleton
    /// never interned (the `ConstSyms` table, kept for lookups).
    consts: HashMap<Value, u32>,
}

impl DerivedStore {
    /// The dense id of an attribute name (registering it on first use).
    fn attr_id(&mut self, attr: &str) -> usize {
        if let Some(&id) = self.attr_ids.get(attr) {
            return id;
        }
        let id = self.attr_ids.len();
        self.attr_ids.insert(attr.to_string(), id);
        self.single.push(FloatColumn::new(attr));
        self.multi.push(SymMap::default());
        id
    }

    /// Store a derived value under a head signature.
    fn set(&mut self, attr_id: usize, sig: &SigKey, value: f64) {
        match sig {
            SigKey::Single(sig) => self.single[attr_id].set(*sig as usize, value),
            SigKey::Multi(sig) => {
                self.multi[attr_id].insert(sig.clone(), value);
            }
        }
    }

    /// Remove a derived value (the patch path's inverse of
    /// [`DerivedStore::set`]): the cell reverts to null, exactly as if the
    /// aggregate had never produced a value for this signature.
    fn unset(&mut self, attr_id: usize, sig: &SigKey) {
        match sig {
            SigKey::Single(sig) => self.single[attr_id].unset(*sig as usize),
            SigKey::Multi(sig) => {
                self.multi[attr_id].remove(sig);
            }
        }
    }

    /// The signature symbol of a key value: its interner symbol, or the
    /// pseudo-symbol the merge assigned to a non-interned constant.
    fn sig_of(&self, interner: &reldb::SymbolTable, value: &Value) -> Option<u32> {
        match interner.get(value) {
            Some(sym) => Some(u32::try_from(sym.index()).expect("symbol space fits u32")),
            None => self.consts.get(value).copied(),
        }
    }

    /// The derived value of a grounded attribute, if any.
    fn get(&self, interner: &reldb::SymbolTable, node: &GroundedAttr) -> Option<f64> {
        self.get_key(interner, &node.attr, &node.key)
    }

    /// The derived value of `attr` for `key`, if any.
    fn get_key(&self, interner: &reldb::SymbolTable, attr: &str, key: &[Value]) -> Option<f64> {
        let &attr_id = self.attr_ids.get(attr)?;
        if let [key] = key {
            return self.single[attr_id].get(self.sig_of(interner, key)? as usize);
        }
        let sig: Option<Vec<u32>> = key.iter().map(|v| self.sig_of(interner, v)).collect();
        self.multi[attr_id].get(&sig?).copied()
    }
}

/// The result of [`ground_streaming`]: the grounded causal graph plus the
/// derived aggregate values in dense signature-indexed columns.
///
/// Semantically this is a [`GroundedModel`] — the graph is identical node
/// for node and edge for edge, and [`StreamedModel::value_of`] returns
/// bit-identical values — but derived values never pass through a sorted
/// `GroundedAttr`-keyed map: aggregate answers streamed straight off the
/// query executor into per-attribute [`FloatColumn`] sinks, which the unit
/// table then reads by signature. The materialised form is what the
/// reference grounder ([`ground_with`]) returns.
#[derive(Debug, Clone)]
pub struct StreamedModel {
    /// The grounded relational causal graph `G(Φ_Δ)` (bit-identical to the
    /// graph [`ground_with`] produces for the same inputs). Behind an
    /// `Arc`: an attribute-only delta patch (`patch_streamed`) rewrites
    /// derived *values* but never the graph, so patched epochs share one
    /// graph allocation instead of deep-cloning it per commit.
    pub graph: std::sync::Arc<CausalGraph>,
    derived: DerivedStore,
    /// The `(attribute, signature)` → node memo of the merge, retained so
    /// query-synthesised aggregate extensions can resolve their source
    /// groundings to base-graph nodes without re-hashing [`GroundedAttr`]s.
    /// `Arc`-shared across patched epochs for the same reason as `graph`.
    nodes: std::sync::Arc<NodeTable>,
    /// The skeleton this model was grounded against, retained for its
    /// interner: [`StreamedModel::node_of`] resolves probe keys to symbol
    /// signatures through it. The interner is append-only, so symbols stay
    /// valid across the attribute-only epoch patches that share this model's
    /// graph and node table.
    skeleton: std::sync::Arc<reldb::Skeleton>,
    /// Per node-table attribute id: its derived-store id, if an aggregate
    /// derives values for it.
    node_derived: Vec<Option<usize>>,
}

impl StreamedModel {
    /// Assemble a model from a finished merge.
    fn new(
        graph: CausalGraph,
        derived: DerivedStore,
        nodes: NodeTable,
        skeleton: std::sync::Arc<reldb::Skeleton>,
    ) -> Self {
        let node_derived = nodes
            .names
            .iter()
            .map(|name| derived.attr_ids.get(name).copied())
            .collect();
        Self {
            graph: std::sync::Arc::new(graph),
            derived,
            nodes: std::sync::Arc::new(nodes),
            skeleton,
            node_derived,
        }
    }

    /// The observed or derived numeric value of a grounded attribute (the
    /// streamed equivalent of [`GroundedModel::value_of`]).
    pub fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        if let Some(v) = self.derived.get(instance.skeleton().interner(), node) {
            return Some(v);
        }
        instance.attribute_f64(&node.attr, &node.key)
    }

    /// The graph node grounding `attr` with `key`, resolved through the
    /// interned node table: attribute name → dense id (one hash on a plain
    /// `&str`), key values → symbol signature, signature → node. No
    /// [`GroundedAttr`] is built and nothing is fingerprinted, so hot
    /// per-unit probes (peer discovery, dirty-cell patching) cost a couple
    /// of array reads.
    ///
    /// Sound because the node table is a *complete* index of the graph:
    /// the grounder creates every node — rule groundings and aggregate
    /// heads alike — through the table's lookup-or-append, and every key value
    /// of every node has a signature symbol (skeleton interner or merge
    /// pseudo-symbol). A key that fails to resolve therefore names no node.
    pub fn node_of(&self, attr: &str, key: &UnitKey) -> Option<NodeId> {
        self.node_in(self.nodes.lookup_attr(attr)?, key)
    }

    /// [`StreamedModel::node_of`] for a resolved attribute id.
    fn node_in(&self, attr_id: usize, key: &UnitKey) -> Option<NodeId> {
        let interner = self.skeleton.interner();
        if let [single] = key.as_slice() {
            let sig = self.derived.sig_of(interner, single)? as usize;
            return self
                .nodes
                .lookup_single(attr_id, sig)
                .map(GroundedNodeId::index);
        }
        let sig: Option<Vec<u32>> = key
            .iter()
            .map(|v| self.derived.sig_of(interner, v))
            .collect();
        self.nodes
            .lookup_multi(attr_id, &sig?)
            .map(GroundedNodeId::index)
    }

    /// Whether some node of this grounding has attribute `attr`.
    pub(crate) fn grounds_attr(&self, attr: &str) -> bool {
        self.nodes.lookup_attr(attr).is_some()
    }
}

impl GroundedValues for StreamedModel {
    fn graph(&self) -> &CausalGraph {
        &self.graph
    }

    fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        StreamedModel::value_of(self, instance, node)
    }

    fn node_of(&self, attr: &str, key: &UnitKey) -> Option<NodeId> {
        StreamedModel::node_of(self, attr, key)
    }

    /// The nodes grounding `attr` for `units`: by key symbol through the
    /// dense node table when the units carry symbols, by key otherwise.
    fn unit_nodes(&self, attr: &str, units: UnitRows<'_>) -> Vec<Option<NodeId>> {
        let Some(attr_id) = self.nodes.lookup_attr(attr) else {
            return vec![None; units.len()];
        };
        match units.syms {
            // Unit symbols are skeleton symbols, below every constant
            // pseudo-symbol of the merge.
            Some(syms) => syms
                .iter()
                .map(|s| {
                    (s.index() < self.skeleton.interner().len())
                        .then(|| self.nodes.lookup_single(attr_id, s.index()))
                        .flatten()
                        .map(GroundedNodeId::index)
                })
                .collect(),
            None => units
                .keys
                .iter()
                .map(|key| self.node_in(attr_id, key))
                .collect(),
        }
    }

    /// The observed or derived values of `nodes`, read through their
    /// recorded signatures: a derived column cell, else the instance's cell
    /// for the node's key symbol, each attribute resolved once per call.
    /// Equal to [`StreamedModel::value_of`] of each node's grounded
    /// attribute; `instance` must be the instance this model grounds (or an
    /// attribute-only successor of it).
    fn node_values(&self, instance: &Instance, nodes: &[NodeId]) -> Vec<Option<f64>> {
        let skeleton_syms = self.skeleton.interner().len();
        let mut readers: Vec<Option<reldb::AttrReader<'_>>> = vec![None; self.nodes.names.len()];
        nodes
            .iter()
            .map(|&node| {
                let NodeSig { attr, sig } = self.nodes.sigs[node];
                let (attr, sig) = (attr as usize, sig as usize);
                if sig == NodeSig::MULTI as usize || sig >= skeleton_syms {
                    // Other arities and constants absent from the skeleton
                    // read by key.
                    return self.value_of(instance, self.graph.node(node));
                }
                if let Some(v) =
                    self.node_derived[attr].and_then(|d| self.derived.single[d].get(sig))
                {
                    return Some(v);
                }
                readers[attr]
                    .get_or_insert_with(|| instance.attribute_reader(&self.nodes.names[attr]))
                    .at_sym(Sym::from_index(sig))
                    .and_then(Value::as_f64)
            })
            .collect()
    }

    /// The observed or derived values of `attr` for `units` (see
    /// [`GroundedValues::unit_values`]), read by unit symbol or row.
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
                    self.derived
                        .get_key(instance.skeleton().interner(), attr, key)
                        .or_else(|| instance.attribute_f64(attr, key))
                })
                .collect();
        };
        let derived = self
            .derived
            .attr_ids
            .get(attr)
            .map(|&d| &self.derived.single[d]);
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

/// A group/store key: the head argument signature of one aggregate group.
#[derive(Debug, Clone)]
enum SigKey {
    Single(u32),
    Multi(Vec<u32>),
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
    head_attr_id: usize,
    body_specs: Vec<(usize, Vec<ArgSlot>)>,
}

/// Fold one batch of a rule condition's answers into the graph.
///
/// A free function taking plain `&mut` parameters rather than a closure
/// over captured state: the row loop is the grounding hot path, and direct
/// (alias-analysable) parameters let it optimise like a plain loop.
fn merge_rule_batch(
    rule: &CausalRule,
    specs: &RuleSpecs<'_>,
    nodes: &mut NodeTable,
    graph: &mut CausalGraph,
    edges: &mut Vec<(u32, u32)>,
    answers: &TupleAnswers<'_>,
) -> CarlResult<()> {
    for row in answers.rows() {
        if !specs.residual.hold(row, answers) {
            continue;
        }
        let head_id = nodes.node_id(
            graph,
            &rule.head.attr,
            specs.head_attr_id,
            &specs.head_spec,
            row,
            answers,
        )?;
        for (body, (attr_id, spec)) in rule.body.iter().zip(&specs.body_specs) {
            let body_id = nodes.node_id(graph, &body.attr, *attr_id, spec, row, answers)?;
            edges.push((body_id as u32, head_id as u32));
        }
    }
    Ok(())
}

/// One aggregate group under construction in the streamed merge.
struct SGroup {
    head_key: UnitKey,
    sig: SigKey,
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
    /// Unbound-variable error to raise if any row survives (matching the
    /// lazy error semantics of per-binding substitution).
    spec_error: Option<String>,
}

/// The group and memo tables of one aggregate's streamed merge: dense on
/// the single-argument fast paths, signature-keyed maps otherwise.
#[derive(Default)]
struct AggTables {
    /// Groups in first-seen order.
    groups: Vec<SGroup>,
    /// Single-argument heads: head signature → group index (dense).
    group_dense: Vec<u32>,
    /// Other arities: full head signature → group index.
    group_map: SymMap<Vec<u32>, u32>,
    /// `(group, source-signature)` dedup, packed into one u64 on the
    /// single-argument fast path.
    pair_seen: SymSet<u64>,
    pair_seen_multi: SymSet<(u32, Vec<u32>)>,
    /// Source-value memo by signature: 0 unknown, 1 none, 2 some.
    sval_state: Vec<u8>,
    sval: Vec<f64>,
    sval_map: SymMap<Vec<u32>, Option<f64>>,
    head_sig_buf: Vec<u32>,
    source_sig_buf: Vec<u32>,
}

/// How the unified aggregate fold ([`merge_agg_batch`]) resolves a distinct
/// source grounding to a node identity and an (un-memoised) base value.
///
/// The streamed cold merge *creates* graph nodes and reads its own
/// partially built derived store; a query-synthesised extension resolves
/// read-only against an immutable base grounding. Everything else — group
/// discovery in first-seen order, `(group, source)` dedup, source-value
/// memoisation — is shared, so the bit-identity invariant of the aggregate
/// fold lives in exactly one row loop.
trait SourceResolver {
    /// Bounds-check a signature symbol against the tracked symbol range.
    fn checked_sig(&self, attr: &str, sig: u32) -> CarlResult<usize>;

    /// The source node of a single-signature grounding (created on first
    /// sight by mutable resolvers, looked up read-only otherwise).
    fn node_single(
        &mut self,
        ssig: usize,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<GroundedNodeId>>;

    /// The source node of a full-signature grounding.
    fn node_multi(
        &mut self,
        sig: &[u32],
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<GroundedNodeId>>;

    /// The un-memoised observed-or-derived value of a single-signature
    /// source grounding (the fold caches the result per signature).
    fn value_single(
        &mut self,
        ssig: usize,
        node: Option<GroundedNodeId>,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<f64>>;

    /// The un-memoised value of a full-signature source grounding.
    fn value_multi(
        &mut self,
        sig: &[u32],
        node: Option<GroundedNodeId>,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<f64>>;
}

/// The observed numeric value of a source grounding, read from its
/// attribute's `source` view by the signature's symbols. A signature past
/// the skeleton's symbols (a constant pseudo-symbol) names no unit of the
/// skeleton and reads `source.attr` by `key()`.
fn observed_by_sig(
    source: &ObservedSource<'_>,
    sig: &[u32],
    key: impl FnOnce() -> CarlResult<UnitKey>,
) -> CarlResult<Option<f64>> {
    let value = match sig {
        [s] if (*s as usize) < source.skeleton_syms => {
            source.reader.at_sym(Sym::from_index(*s as usize))
        }
        _ if sig.iter().all(|&s| (s as usize) < source.skeleton_syms) => {
            let syms: Vec<Sym> = sig.iter().map(|&s| Sym::from_index(s as usize)).collect();
            source.reader.at_syms(&syms)
        }
        _ => source.instance.attribute(source.attr, &key()?),
    };
    Ok(value.and_then(Value::as_f64))
}

/// An aggregate source attribute's observed cells, resolved once per
/// aggregate.
#[derive(Clone, Copy)]
struct ObservedSource<'a> {
    attr: &'a str,
    reader: reldb::AttrReader<'a>,
    instance: &'a Instance,
    /// Number of skeleton symbols: signatures below it are skeleton
    /// symbols, the rest constant pseudo-symbols.
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
}

/// The streamed cold merge's resolver: source nodes are created in the
/// grounding's own graph/node table, values read from its partially built
/// derived store (aggregates-over-aggregates) with an instance fallback.
struct MergeSources<'a, 'b> {
    source_attr: &'a str,
    source_attr_id: usize,
    /// Derived-store id of the source attribute, when an earlier aggregate
    /// derived values for it.
    source_store_id: Option<usize>,
    store: &'b DerivedStore,
    observed: ObservedSource<'a>,
    nodes: &'b mut NodeTable,
    graph: &'b mut CausalGraph,
}

impl SourceResolver for MergeSources<'_, '_> {
    fn checked_sig(&self, attr: &str, sig: u32) -> CarlResult<usize> {
        self.nodes.checked_sig(attr, sig)
    }

    fn node_single(
        &mut self,
        _ssig: usize,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<GroundedNodeId>> {
        let id = self.nodes.node_id(
            self.graph,
            self.source_attr,
            self.source_attr_id,
            spec,
            row,
            answers,
        )?;
        Ok(Some(GroundedNodeId::from_node(id)))
    }

    fn node_multi(
        &mut self,
        _sig: &[u32],
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<GroundedNodeId>> {
        self.node_single(0, spec, row, answers)
    }

    fn value_single(
        &mut self,
        ssig: usize,
        node: Option<GroundedNodeId>,
        _spec: &[ArgSlot],
        _row: &[Sym],
        _answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<f64>> {
        if let Some(v) = self
            .source_store_id
            .and_then(|id| self.store.single[id].get(ssig))
        {
            return Ok(Some(v));
        }
        let sig = u32::try_from(ssig).expect("signature symbols fit u32");
        self.observed_value(&[sig], node)
    }

    fn value_multi(
        &mut self,
        sig: &[u32],
        node: Option<GroundedNodeId>,
        _spec: &[ArgSlot],
        _row: &[Sym],
        _answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<f64>> {
        if let Some(v) = self
            .source_store_id
            .and_then(|id| self.store.multi[id].get(sig).copied())
        {
            return Ok(Some(v));
        }
        self.observed_value(sig, node)
    }
}

impl MergeSources<'_, '_> {
    /// The observed value of the source node with signature `sig`.
    fn observed_value(&self, sig: &[u32], node: Option<GroundedNodeId>) -> CarlResult<Option<f64>> {
        let node = node.expect("merge resolver creates every source node");
        observed_by_sig(&self.observed, sig, || {
            Ok(self.graph.node(node.index()).key.clone())
        })
    }
}

/// A query-synthesised extension's resolver: source nodes are looked up
/// read-only in the immutable base grounding's node table (sources absent
/// from the base graph contribute their value but no node), values read
/// from the base's derived sinks with an instance fallback.
struct ExtensionSources<'a> {
    /// The base node table's id for the source attribute, if it ever
    /// grounded one.
    source_node_attr: Option<usize>,
    source_store_id: Option<usize>,
    base: &'a StreamedModel,
    observed: ObservedSource<'a>,
    /// Signature bound at this batch (the extension mints constant
    /// pseudo-symbols on top of the base's, so the bound is per-batch).
    sig_bound: usize,
}

impl SourceResolver for ExtensionSources<'_> {
    fn checked_sig(&self, attr: &str, sig: u32) -> CarlResult<usize> {
        guard_sig(attr, sig, self.sig_bound)
    }

    fn node_single(
        &mut self,
        ssig: usize,
        _spec: &[ArgSlot],
        _row: &[Sym],
        _answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<GroundedNodeId>> {
        Ok(self
            .source_node_attr
            .and_then(|aid| self.base.nodes.lookup_single(aid, ssig)))
    }

    fn node_multi(
        &mut self,
        sig: &[u32],
        _spec: &[ArgSlot],
        _row: &[Sym],
        _answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<GroundedNodeId>> {
        Ok(self
            .source_node_attr
            .and_then(|aid| self.base.nodes.lookup_multi(aid, sig)))
    }

    fn value_single(
        &mut self,
        ssig: usize,
        _node: Option<GroundedNodeId>,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<f64>> {
        if let Some(v) = self
            .source_store_id
            .and_then(|id| self.base.derived.single[id].get(ssig))
        {
            return Ok(Some(v));
        }
        let sig = u32::try_from(ssig).expect("signature symbols fit u32");
        observed_by_sig(&self.observed, &[sig], || resolve_args(spec, row, answers))
    }

    fn value_multi(
        &mut self,
        sig: &[u32],
        _node: Option<GroundedNodeId>,
        spec: &[ArgSlot],
        row: &[Sym],
        answers: &TupleAnswers<'_>,
    ) -> CarlResult<Option<f64>> {
        if let Some(v) = self
            .source_store_id
            .and_then(|id| self.base.derived.multi[id].get(sig).copied())
        {
            return Ok(Some(v));
        }
        observed_by_sig(&self.observed, sig, || resolve_args(spec, row, answers))
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
    agg: &AggregateRule,
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
        let gi = if let [arg] = specs.head_spec.as_slice() {
            let sig = resolver.checked_sig(&agg.name, arg_sig(arg, row)?)?;
            if sig >= t.group_dense.len() {
                t.group_dense.resize(sig + 1, NO_GROUP);
            }
            if t.group_dense[sig] == NO_GROUP {
                t.group_dense[sig] = u32::try_from(t.groups.len()).expect("groups fit u32");
                t.groups.push(SGroup {
                    head_key: resolve_args(&specs.head_spec, row, answers)?,
                    sig: SigKey::Single(u32::try_from(sig).expect("sig fits u32")),
                    sources: Vec::new(),
                });
            }
            t.group_dense[sig]
        } else {
            sig_into(&specs.head_spec, row, &mut t.head_sig_buf)?;
            match t.group_map.get(t.head_sig_buf.as_slice()) {
                Some(&gi) => gi,
                None => {
                    let gi = u32::try_from(t.groups.len()).expect("groups fit u32");
                    t.groups.push(SGroup {
                        head_key: resolve_args(&specs.head_spec, row, answers)?,
                        sig: SigKey::Multi(t.head_sig_buf.clone()),
                        sources: Vec::new(),
                    });
                    t.group_map.insert(t.head_sig_buf.clone(), gi);
                    gi
                }
            }
        };
        // Distinct source groundings per group, with the value memoised
        // across groups on the source signature.
        if let [arg] = specs.source_spec.as_slice() {
            let ssig = resolver.checked_sig(&agg.source.attr, arg_sig(arg, row)?)?;
            let packed = (u64::from(gi) << 32) | (ssig as u64);
            if !t.pair_seen.insert(packed) {
                continue;
            }
            let node = resolver.node_single(ssig, &specs.source_spec, row, answers)?;
            if ssig >= t.sval_state.len() {
                t.sval_state.resize(ssig + 1, 0);
                t.sval.resize(ssig + 1, 0.0);
            }
            let value = match t.sval_state[ssig] {
                2 => Some(t.sval[ssig]),
                1 => None,
                _ => {
                    let value =
                        resolver.value_single(ssig, node, &specs.source_spec, row, answers)?;
                    match value {
                        Some(v) => {
                            t.sval_state[ssig] = 2;
                            t.sval[ssig] = v;
                        }
                        None => t.sval_state[ssig] = 1,
                    }
                    value
                }
            };
            t.groups[gi as usize].sources.push((node, value));
        } else {
            sig_into(&specs.source_spec, row, &mut t.source_sig_buf)?;
            if !t.pair_seen_multi.insert((gi, t.source_sig_buf.clone())) {
                continue;
            }
            // The buffer is lent to the resolver, so probe through a local
            // move-out-and-back (`std::mem::take` keeps the allocation).
            let source_sig = std::mem::take(&mut t.source_sig_buf);
            let node = resolver.node_multi(&source_sig, &specs.source_spec, row, answers)?;
            let value = match t.sval_map.get(source_sig.as_slice()) {
                Some(&value) => value,
                None => {
                    let value = resolver.value_multi(
                        &source_sig,
                        node,
                        &specs.source_spec,
                        row,
                        answers,
                    )?;
                    t.sval_map.insert(source_sig.clone(), value);
                    value
                }
            };
            t.source_sig_buf = source_sig;
            t.groups[gi as usize].sources.push((node, value));
        }
    }
    Ok(())
}

/// Ground `model` against `instance` on the fused streaming pipeline.
///
/// Each condition's register-tuple chunks pipe straight off the executor
/// into the merge — rule chunks fold into the
/// grounded-node table and a flat edge buffer (folded into the graph's
/// adjacency once, at the end), and aggregate chunks
/// fold into dense signature-indexed group tables whose results land in the
/// per-attribute [`FloatColumn`] sinks of a [`StreamedModel`]. No
/// `O(answers)` intermediate is ever resident and no string-keyed derived
/// map is built.
///
/// Statements the whole-program analysis proved dead pass no row and are
/// skipped. Chunk delivery is order-preserving (and the merge is a pure
/// in-order fold), so the resulting graph and every derived value are
/// bit-identical to the reference grounder's ([`ground_with`]) at any
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

    let interner = instance.skeleton().interner();
    let mut consts = ConstSyms::new(interner.len());
    let mut nodes = NodeTable::default();
    let mut graph = CausalGraph::new();
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
                    let head_spec = arg_slots(&rule.head.args, answers, interner, &mut consts);
                    let head_attr_id = nodes.attr_id(&rule.head.attr);
                    let body_specs: Vec<(usize, Vec<ArgSlot>)> = rule
                        .body
                        .iter()
                        .map(|b| {
                            (
                                nodes.attr_id(&b.attr),
                                arg_slots(&b.args, answers, interner, &mut consts),
                            )
                        })
                        .collect();
                    nodes.set_sig_bound(consts.bound());
                    specs = Some(RuleSpecs {
                        residual,
                        head_spec,
                        head_attr_id,
                        body_specs,
                    });
                }
                let specs = specs.as_ref().expect("specs compiled above");
                merge_rule_batch(rule, specs, &mut nodes, &mut graph, &mut edges, answers)
            },
        )?;
    }

    // Phase 2: stream-merge the aggregate rules into dense group tables.
    let mut store = DerivedStore::default();
    for ((agg_idx, agg), prep) in aggregates.iter().zip(prepped[model.rules().len()..].iter()) {
        if model.aggregate_is_dead(*agg_idx) {
            continue; // dead aggregate: no row can survive its condition
        }
        // The store id of the *source* attribute, when an earlier aggregate
        // derived values for it (aggregates over aggregates; topological
        // order guarantees those values are complete by now).
        let source_store_id = store.attr_ids.get(&agg.source.attr).copied();
        let observed = ObservedSource::new(instance, &agg.source.attr);

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
                    let residual = RowComparisons::compile(&prep.residual, answers, instance);
                    let head_spec = arg_slots(&agg.head_args, answers, interner, &mut consts);
                    let source_spec = arg_slots(&agg.source.args, answers, interner, &mut consts);
                    source_attr_id = nodes.attr_id(&agg.source.attr);
                    nodes.set_sig_bound(consts.bound());
                    let spec_error = first_unbound(&head_spec)
                        .or_else(|| first_unbound(&source_spec))
                        .map(str::to_string);
                    specs = Some(AggSpecs {
                        residual,
                        head_spec,
                        source_spec,
                        spec_error,
                    });
                }
                let specs = specs.as_ref().expect("specs compiled above");
                let mut resolver = MergeSources {
                    source_attr: &agg.source.attr,
                    source_attr_id,
                    source_store_id,
                    store: &store,
                    observed,
                    nodes: &mut nodes,
                    graph: &mut graph,
                };
                merge_agg_batch(agg, specs, &mut resolver, &mut tables, answers)
            },
        )?;

        let agg_fn = agg_fn_of(agg.agg);
        let head_attr_id = store.attr_id(&agg.name);
        let head_node_attr = nodes.attr_id(&agg.name);
        for group in tables.groups {
            let head_id = nodes.intern_head(
                &mut graph,
                &agg.name,
                head_node_attr,
                &group.sig,
                group.head_key,
            )?;
            let mut values = Vec::with_capacity(group.sources.len());
            for &(source_id, value) in &group.sources {
                let source_id = source_id.expect("merge resolver creates every source node");
                edges.push((source_id.0, head_id as u32));
                if let Some(v) = value {
                    values.push(v);
                }
            }
            if let Some(v) = agg_fn.apply(&values) {
                store.set(head_attr_id, &group.sig, v);
            }
        }
    }
    store.consts = consts.lookup;
    graph.fold_edges(&edges);

    if let Err(attr) = graph.topological_order() {
        return Err(CarlError::CyclicModel(attr));
    }
    Ok(StreamedModel::new(
        graph,
        store,
        nodes,
        instance.skeleton_shared(),
    ))
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

/// The [`SigKey`] of a head key, resolved through the same interner +
/// constant pseudo-symbol tables the merge used (mirrors
/// [`DerivedStore::get`]'s key handling).
fn sig_key_of(
    store: &DerivedStore,
    interner: &reldb::SymbolTable,
    key: &UnitKey,
) -> Option<SigKey> {
    if let [single] = key.as_slice() {
        return Some(SigKey::Single(store.sig_of(interner, single)?));
    }
    let sig: Option<Vec<u32>> = key.iter().map(|v| store.sig_of(interner, v)).collect();
    Some(SigKey::Multi(sig?))
}

/// Patch `base` (grounded from the *previous* epoch under `model`) into
/// the grounding of `instance` (the *next* epoch), given that the two
/// epochs differ only in the attribute cells listed in `changed` and that
/// [`PatchSafety::delta_patchable`] held for the touched attributes.
///
/// The graph, node table and constant pseudo-symbols carry over untouched
/// — the eligibility check proved the structure identical. What can change
/// are derived aggregate values, maintained by incremental view
/// maintenance: for each aggregate in the same topological order the cold
/// merge uses, the dirty cells of its source attribute locate their source
/// nodes in the graph, each affected head refolds its `parents_of` (edge
/// insertion order == the cold merge's first-seen source order, so sums
/// and averages refold in the bit-exact same sequence, with the same
/// derived-before-observed lookup discipline), and heads whose value
/// changed cascade as dirty cells of the derived attribute for
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

    let interner = instance.skeleton().interner();
    let mut patched = base.clone();

    // Dirty cells per attribute: seeded by the delta's observed-cell
    // changes, extended by derived-value changes as aggregates cascade.
    let mut dirty: BTreeMap<String, Vec<UnitKey>> = BTreeMap::new();
    for (attr, key) in changed {
        dirty
            .entry((*attr).to_string())
            .or_default()
            .push((*key).clone());
    }

    // Aggregates in the exact topological order `ground_streaming` merges
    // them in — the `registered` set reproduces its "derived lookups only
    // consult attributes an *earlier* aggregate registered" discipline.
    let mut registered: BTreeSet<&str> = BTreeSet::new();
    for (agg_idx, agg) in aggregates_in_order(model) {
        if model.aggregate_is_dead(agg_idx) {
            // The cold pipeline skips dead aggregates (they derive
            // nothing), so the patch skips them identically — their head
            // attribute has no store entry to refold.
            continue;
        }
        let head_store_id = *patched.derived.attr_ids.get(&agg.name)?;
        let source_registered = registered.contains(agg.source.attr.as_str());
        registered.insert(agg.name.as_str());

        // Heads whose fold consumed a dirty source cell: the children of
        // the dirty cells' source nodes. A dirty cell with no source node
        // fed no group and affects nothing derived.
        let mut heads: BTreeSet<usize> = BTreeSet::new();
        if let Some(keys) = dirty.get(&agg.source.attr) {
            for key in keys {
                // Interned probe: no `GroundedAttr` construction or
                // fingerprinting per dirty cell.
                if let Some(sid) = patched.node_of(&agg.source.attr, key) {
                    for &hid in patched.graph.children_of(sid) {
                        if patched.graph.node(hid).attr == agg.name {
                            heads.insert(hid);
                        }
                    }
                }
            }
        }

        let agg_fn = agg_fn_of(agg.agg);
        for hid in heads {
            let mut values = Vec::new();
            for &pid in patched.graph.parents_of(hid) {
                let pnode = patched.graph.node(pid);
                if pnode.attr != agg.source.attr {
                    // Parents this patch does not understand — give up and
                    // let the caller re-ground cold.
                    return None;
                }
                let v = if source_registered {
                    patched.derived.get(interner, pnode)
                } else {
                    None
                }
                .or_else(|| instance.attribute_f64(&pnode.attr, &pnode.key));
                if let Some(v) = v {
                    values.push(v);
                }
            }
            let new = agg_fn.apply(&values);
            let head_node = patched.graph.node(hid).clone();
            let old = patched.derived.get(interner, &head_node);
            if old.map(f64::to_bits) == new.map(f64::to_bits) {
                continue;
            }
            let sig = sig_key_of(&patched.derived, interner, &head_node.key)?;
            match new {
                Some(v) => patched.derived.set(head_store_id, &sig, v),
                None => patched.derived.unset(head_store_id, &sig),
            }
            dirty
                .entry(agg.name.clone())
                .or_default()
                .push(head_node.key);
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
/// sinks the unit table reads by signature) and, per group, the base-graph
/// node ids of its source groundings. The aggregate's would-be graph
/// vertices are *leaves* — nothing consumes them except peer computation
/// (which [`crate::peers::compute_peers_streamed`] answers from the group
/// source lists) and the unit table's outcome column (answered from the
/// sinks) — so the base graph is never cloned or mutated.
#[derive(Debug, Clone)]
pub struct AggregateExtension {
    /// The synthesised aggregate attribute this extension derives.
    pub attr: String,
    derived: DerivedStore,
    /// Per group, the interned base-graph node ids of its distinct source
    /// groundings (sources absent from the base graph contribute their
    /// value but no node — exactly the reachability a materialised
    /// grounding would give them, since such nodes have no in-edges).
    group_sources: Vec<Vec<GroundedNodeId>>,
    /// Head signature → group index (dense for single-argument heads).
    group_dense: Vec<u32>,
    group_map: SymMap<Vec<u32>, u32>,
    /// Whether heads are single-argument (selects the index above).
    single_head: bool,
}

impl AggregateExtension {
    /// The derived value of `node`, when it is a grounding of this
    /// extension's aggregate.
    pub fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        self.derived.get(instance.skeleton().interner(), node)
    }

    /// The group derived for `key`, if any.
    pub(crate) fn group_of_key(
        &self,
        interner: &reldb::SymbolTable,
        key: &UnitKey,
    ) -> Option<usize> {
        if self.single_head {
            let [value] = key.as_slice() else { return None };
            self.group_of_sig(self.derived.sig_of(interner, value)? as usize)
        } else {
            let sig: Option<Vec<u32>> = key
                .iter()
                .map(|v| self.derived.sig_of(interner, v))
                .collect();
            self.group_map.get(&sig?).map(|&g| g as usize)
        }
    }

    /// The group of a single-argument head signature, if any.
    fn group_of_sig(&self, sig: usize) -> Option<usize> {
        match self.group_dense.get(sig) {
            Some(&g) if g != NO_GROUP => Some(g as usize),
            _ => None,
        }
    }

    /// The group derived for each unit, in unit order: by unit symbol when
    /// the units carry symbols and heads are single-argument, else by key.
    pub(crate) fn unit_groups(
        &self,
        interner: &reldb::SymbolTable,
        units: UnitRows<'_>,
    ) -> Vec<Option<usize>> {
        match units.syms.filter(|_| self.single_head) {
            Some(syms) => syms.iter().map(|s| self.group_of_sig(s.index())).collect(),
            None => units
                .keys
                .iter()
                .map(|key| self.group_of_key(interner, key))
                .collect(),
        }
    }

    /// This extension's derived value for each unit, in unit order (what
    /// [`AggregateExtension::value_of`] gives `attr[unit]`).
    pub(crate) fn unit_values(&self, instance: &Instance, units: UnitRows<'_>) -> Vec<Option<f64>> {
        match units.syms.filter(|_| self.single_head) {
            Some(syms) => syms
                .iter()
                .map(|s| self.derived.single[0].get(s.index()))
                .collect(),
            None => units
                .keys
                .iter()
                .map(|key| {
                    self.derived
                        .get_key(instance.skeleton().interner(), &self.attr, key)
                })
                .collect(),
        }
    }

    /// Interned base-graph node ids of a group's sources.
    pub(crate) fn sources_of(&self, group: usize) -> &[GroundedNodeId] {
        &self.group_sources[group]
    }
}

/// Stream one query-synthesised aggregate over `base` (see
/// [`AggregateExtension`]). `model` is the effective model carrying the
/// synthesised rule; `agg` the rule itself. Signatures (including constant
/// pseudo-symbols) continue the base grounding's symbol space, so source
/// lookups in the base node memo and derived sinks can never disagree.
pub fn ground_aggregate_extension(
    base: &StreamedModel,
    model: &RelationalCausalModel,
    agg: &AggregateRule,
    instance: &Instance,
    cache: &IndexCache,
) -> CarlResult<AggregateExtension> {
    let schema = model.schema();
    let prep = prep_condition(model, &agg.source.attr, &agg.source.args, &agg.condition)?;
    let interner = instance.skeleton().interner();
    let mut consts = ConstSyms {
        base: interner.len(),
        lookup: base.derived.consts.clone(),
    };
    let source_node_attr = base.nodes.lookup_attr(&agg.source.attr);
    let source_store_id = base.derived.attr_ids.get(&agg.source.attr).copied();
    let observed = ObservedSource::new(instance, &agg.source.attr);

    let mut tables = AggTables::default();
    let mut specs: Option<AggSpecs<'_>> = None;
    let mut single_head = true;
    stream_condition(
        cache,
        schema,
        instance,
        &prep.query,
        &prep.filters,
        |answers| {
            if specs.is_none() {
                let residual = RowComparisons::compile(&prep.residual, answers, instance);
                let head_spec = arg_slots(&agg.head_args, answers, interner, &mut consts);
                let source_spec = arg_slots(&agg.source.args, answers, interner, &mut consts);
                single_head = head_spec.len() == 1;
                let spec_error = first_unbound(&head_spec)
                    .or_else(|| first_unbound(&source_spec))
                    .map(str::to_string);
                specs = Some(AggSpecs {
                    residual,
                    head_spec,
                    source_spec,
                    spec_error,
                });
            }
            let specs = specs.as_ref().expect("specs compiled above");
            let mut resolver = ExtensionSources {
                source_node_attr,
                source_store_id,
                base,
                observed,
                sig_bound: consts.bound(),
            };
            merge_agg_batch(agg, specs, &mut resolver, &mut tables, answers)
        },
    )?;

    let agg_fn = agg_fn_of(agg.agg);
    let mut derived = DerivedStore::default();
    let attr_id = derived.attr_id(&agg.name);
    let mut group_sources: Vec<Vec<GroundedNodeId>> = Vec::with_capacity(tables.groups.len());
    for group in tables.groups {
        let values: Vec<f64> = group.sources.iter().filter_map(|&(_, v)| v).collect();
        if let Some(v) = agg_fn.apply(&values) {
            derived.set(attr_id, &group.sig, v);
        }
        group_sources.push(group.sources.into_iter().filter_map(|(n, _)| n).collect());
    }
    derived.consts = consts.lookup;

    Ok(AggregateExtension {
        attr: agg.name.clone(),
        derived,
        group_sources,
        group_dense: tables.group_dense,
        group_map: tables.group_map,
        single_head,
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
                reference.value_of(&instance, node).map(f64::to_bits),
                streamed.value_of(&instance, node).map(f64::to_bits),
                "{node}"
            );
        }
    }

    #[test]
    fn constants_absent_from_the_skeleton_ground_through_checked_pseudo_symbols() {
        // Regression for the dense node table's `ids[sig]` indexing: a rule
        // argument constant the skeleton never interned gets a pseudo-symbol
        // *past the interner range*. The dense per-attribute arrays must
        // grow to (bounds-checked) pseudo-signatures instead of indexing out
        // of bounds — and the production grounder must agree with the
        // reference.
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
        let materialised = ground_with(&model, &instance, &cache).unwrap();
        let streamed = ground_streaming(&model, &instance, &cache).unwrap();
        for graph in [&materialised.graph, &*streamed.graph] {
            let distinct: std::collections::HashSet<&GroundedAttr> =
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
                .map(|&p| graph.node(p).attr.as_str())
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
                patched.value_of(&next_inst, node).map(f64::to_bits),
                cold.value_of(&next_inst, node).map(f64::to_bits),
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
        assert_eq!(grounded.raw_value_of(&instance, &quality_s1), None);
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
