//! Grounded relational causal graphs (Section 3.2.3).
//!
//! The vertices are grounded attributes `A[x]` (attribute name plus a tuple
//! of entity keys); the edges connect the groundings appearing in the body
//! of a grounded rule to the grounding in its head. Aggregate rules add
//! further vertices (e.g. `AVG_Score["Bob"]`) whose value is a deterministic
//! function of their parents.
//!
//! The graph is also the one store of node identities. A node is kept as
//! an 8-byte label: its attribute's dense id and its key's signature in
//! the graph's key-signature table. Attribute names and key values are kept
//! once per attribute and once per value, so a [`GroundedAttr`] exists only
//! when a caller asks for one ([`CausalGraph::node`], [`CausalGraph::iter`]).

use reldb::symbols::SymMap;
use reldb::{Skeleton, Sym, SymbolTable, UnitKey, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`GroundedAttr`] constructions.
///
/// `GroundedAttr` allocates (it owns its attribute name and key), so the
/// grounders and the cached query path never build one: the graph keeps
/// nodes as labels and renders a `GroundedAttr` only at API edges. This
/// counter lets a test *prove* that — a cold streamed ground and a cached
/// prepare construct none (`tests/parallel_grounding.rs`; carlbench also
/// reports it as `ground.attr_constructions`).
static GROUNDED_ATTR_CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Total `GroundedAttr` constructions since process start (or the last
/// [`reset_grounded_attr_constructions`]).
pub fn grounded_attr_constructions() -> u64 {
    GROUNDED_ATTR_CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// Reset the [`grounded_attr_constructions`] counter (bench/test scoping).
pub fn reset_grounded_attr_constructions() {
    GROUNDED_ATTR_CONSTRUCTIONS.store(0, Ordering::Relaxed);
}

/// A graph [`NodeId`] as a dense `u32`, for tables that store many of them
/// (per-signature node arrays, aggregate group sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundedNodeId(pub u32);

impl GroundedNodeId {
    /// Sentinel for "no node" in dense tables.
    pub const NONE: GroundedNodeId = GroundedNodeId(u32::MAX);

    /// Construct from a graph [`NodeId`].
    ///
    /// # Panics
    /// Panics if `id` does not fit the interned `u32` space.
    pub fn from_node(id: NodeId) -> Self {
        debug_assert!(id < u32::MAX as usize, "grounded node space exhausted");
        Self(id as u32)
    }

    /// The graph [`NodeId`] this identity interns.
    pub fn index(self) -> NodeId {
        self.0 as usize
    }
}

/// A grounded attribute `A[x]`: the vertex type of the causal graph, as
/// callers build and read it.
///
/// Ordered (attribute name, then key) so that sorted containers — notably
/// [`crate::ground::GroundedModel::derived`] — iterate deterministically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundedAttr {
    /// Attribute name (e.g. `"Score"` or `"AVG_Score"`).
    pub attr: String,
    /// Grounded unit key (e.g. `["s1"]` or `["Bob"]`).
    pub key: UnitKey,
}

impl GroundedAttr {
    /// Construct a grounded attribute.
    pub fn new(attr: &str, key: UnitKey) -> Self {
        GROUNDED_ATTR_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Self {
            attr: attr.to_string(),
            key,
        }
    }

    /// Convenience constructor for single-key groundings.
    pub fn single(attr: &str, key: impl Into<Value>) -> Self {
        Self::new(attr, vec![key.into()])
    }
}

impl fmt::Display for GroundedAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keys: Vec<String> = self.key.iter().map(|v| format!("\"{v}\"")).collect();
        write!(f, "{}[{}]", self.attr, keys.join(", "))
    }
}

/// Identifier of a node inside a [`CausalGraph`].
pub type NodeId = usize;

/// A node's identity: its attribute's dense id in the graph and its key's
/// [`KeySigs`] signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeLabel {
    pub(crate) attr: u32,
    pub(crate) sig: u32,
}

/// A symbol as a key signature.
pub(crate) fn sym_sig(sym: Sym) -> u32 {
    u32::try_from(sym.index()).expect("symbol space fits u32")
}

/// Key signatures: every key of every grounded node as one `u32`, so node
/// identities, aggregate groups and derived cells are plain array indexes.
///
/// A key's arguments are symbols: a value's symbol in the skeleton the
/// table was built over or, for a value that skeleton never interned (a
/// constant of the rule text, or any value of a graph built without a
/// skeleton), a pseudo-symbol past the skeleton's, one per distinct value
/// under `Value` equality, like the interner. A one-argument key is signed
/// by its argument's symbol. Any other key — a relationship tuple, or the
/// empty key — is interned here once and signed by its tuple id. A graph
/// gives every attribute one key arity, so within an attribute a signature
/// names exactly one key.
///
/// A query extension layers a table over its base grounding's
/// ([`KeySigs::over`]): it reads the base's symbols and tuples in place,
/// through the base's shared graph, and mints what the base lacks above the
/// base's ranges.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeySigs {
    /// The skeleton whose interner issues the non-pseudo symbols.
    skeleton: Option<Arc<Skeleton>>,
    /// The graph whose key table this one extends, if any.
    parent: Option<Arc<CausalGraph>>,
    /// The first pseudo-symbol this table mints: past the skeleton's
    /// symbols and every pseudo-symbol of `parent`.
    first_const: usize,
    /// Pseudo-symbol `first_const + i` stands for `consts`' symbol `i`.
    consts: SymbolTable,
    /// The first tuple id this table mints (past `parent`'s).
    first_tuple: usize,
    /// Tuple ids minted here, by argument symbols.
    tuple_ids: SymMap<Box<[Sym]>, u32>,
    /// Tuple `first_tuple + i` has arguments
    /// `tuple_args[tuple_ends[i - 1]..tuple_ends[i]]` (from 0 when `i = 0`).
    tuple_args: Vec<Sym>,
    tuple_ends: Vec<u32>,
    /// Argument buffer reused by [`KeySigs::intern_args`].
    scratch: Vec<Sym>,
}

impl KeySigs {
    /// An empty table over `skeleton`'s symbols (none without one).
    fn new(skeleton: Option<Arc<Skeleton>>) -> Self {
        Self {
            first_const: skeleton.as_ref().map_or(0, |s| s.interner().len()),
            skeleton,
            ..Self::default()
        }
    }

    /// An empty table extending the key table of `parent`.
    pub(crate) fn over(parent: Arc<CausalGraph>) -> Self {
        let keys = &parent.keys;
        Self {
            skeleton: keys.skeleton.clone(),
            first_const: keys.first_const + keys.consts.len(),
            first_tuple: keys.first_tuple + keys.tuple_ends.len(),
            parent: Some(parent),
            ..Self::default()
        }
    }

    /// The key table this one extends, if any.
    fn parent(&self) -> Option<&KeySigs> {
        self.parent.as_deref().map(|graph| &graph.keys)
    }

    /// The skeleton interner's symbols, if the table has a skeleton.
    fn interner(&self) -> Option<&SymbolTable> {
        self.skeleton.as_deref().map(Skeleton::interner)
    }

    /// Number of skeleton symbols: every symbol below it is the skeleton's,
    /// every other a pseudo-symbol.
    pub(crate) fn skeleton_syms(&self) -> usize {
        self.interner().map_or(0, SymbolTable::len)
    }

    /// The symbol of a key value, if the skeleton or this table has one.
    pub(crate) fn value_sym(&self, value: &Value) -> Option<Sym> {
        self.interner()
            .and_then(|interner| interner.get(value))
            .or_else(|| self.const_sym(value))
    }

    /// The pseudo-symbol of a value, if this table or a parent minted one.
    fn const_sym(&self, value: &Value) -> Option<Sym> {
        match self.consts.get(value) {
            Some(sym) => Some(Sym::from_index(self.first_const + sym.index())),
            None => self.parent()?.const_sym(value),
        }
    }

    /// The symbol of a key value, minting a pseudo-symbol on first sight of
    /// a value the skeleton never interned.
    pub(crate) fn intern_value(&mut self, value: &Value) -> Sym {
        if let Some(sym) = self.value_sym(value) {
            return sym;
        }
        Sym::from_index(self.first_const + self.consts.intern(value).index())
    }

    /// The value a symbol stands for (the first one seen of its `Value`
    /// equality class).
    pub(crate) fn value(&self, sym: Sym) -> &Value {
        if let Some(interner) = self.interner().filter(|i| sym.index() < i.len()) {
            return interner.value(sym);
        }
        let mut table = self;
        while sym.index() < table.first_const {
            table = table
                .parent()
                .expect("pseudo-symbols below a table's own come from its parent");
        }
        table
            .consts
            .value(Sym::from_index(sym.index() - table.first_const))
    }

    /// The signature of the key with argument symbols `args`, if it has
    /// one: the one place a key becomes a signature.
    pub(crate) fn sig(&self, args: &[Sym]) -> Option<u32> {
        match args {
            [sym] => Some(sym_sig(*sym)),
            _ => match self.tuple_ids.get(args) {
                Some(&id) => Some(id),
                None => self.parent()?.sig(args),
            },
        }
    }

    /// [`KeySigs::sig`], interning a new tuple on first sight.
    fn intern(&mut self, args: &[Sym]) -> u32 {
        if let Some(sig) = self.sig(args) {
            return sig;
        }
        let id = u32::try_from(self.first_tuple + self.tuple_ends.len()).expect("tuples fit u32");
        self.tuple_args.extend_from_slice(args);
        self.tuple_ends
            .push(u32::try_from(self.tuple_args.len()).expect("tuple arguments fit u32"));
        self.tuple_ids.insert(args.into(), id);
        id
    }

    /// The signature of the key whose argument symbols `args` yields,
    /// interning it on first sight; the first error ends the key.
    pub(crate) fn intern_args<E>(
        &mut self,
        mut args: impl ExactSizeIterator<Item = Result<Sym, E>>,
    ) -> Result<u32, E> {
        if args.len() == 1 {
            // One symbol, no argument buffer.
            let sym = args.next().expect("one argument")?;
            return Ok(self.intern(&[sym]));
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        for arg in args {
            buf.push(arg?);
        }
        let sig = self.intern(&buf);
        self.scratch = buf;
        Ok(sig)
    }

    /// The signature of a key of values, if every value has a symbol and
    /// the key was interned.
    pub(crate) fn key_sig(&self, key: &[Value]) -> Option<u32> {
        if let [value] = key {
            // One symbol, no argument buffer.
            return self.sig(&[self.value_sym(value)?]);
        }
        let args: Option<Vec<Sym>> = key.iter().map(|v| self.value_sym(v)).collect();
        self.sig(&args?)
    }

    /// Read the argument symbols of the key with signature `sig` in an
    /// attribute of key arity `arity`.
    pub(crate) fn with_args<R>(&self, arity: usize, sig: u32, read: impl FnOnce(&[Sym]) -> R) -> R {
        if arity == 1 {
            return read(&[Sym::from_index(sig as usize)]);
        }
        let mut table = self;
        while (sig as usize) < table.first_tuple {
            table = table
                .parent()
                .expect("tuple ids below a table's own come from its parent");
        }
        let i = sig as usize - table.first_tuple;
        let start = if i == 0 {
            0
        } else {
            table.tuple_ends[i - 1] as usize
        };
        read(&table.tuple_args[start..table.tuple_ends[i] as usize])
    }

    /// The key values of argument symbols `args`.
    pub(crate) fn key_of(&self, args: &[Sym]) -> UnitKey {
        args.iter().map(|&sym| self.value(sym).clone()).collect()
    }
}

/// One attribute of a graph: its name, key arity and nodes by signature.
#[derive(Debug, Clone)]
struct AttrNodes {
    name: String,
    arity: usize,
    /// `by_sig[sig]` → node ([`GroundedNodeId::NONE`] = absent).
    by_sig: Vec<GroundedNodeId>,
}

/// The grounded relational causal graph `G(Φ_Δ)`, and the one store of its
/// nodes' identities.
///
/// Per node the graph keeps its adjacency and one 8-byte label, its
/// attribute id and key signature; per attribute its name, key arity and
/// signature → node array; and the key-signature table, with the skeleton
/// whose interner the signatures index. Every node is created by one lookup-or-append on `(attribute,
/// signature)`, so a grounding is stored once and lookups by content
/// ([`CausalGraph::node_id`], [`CausalGraph::node_of`]) are a hash of the
/// attribute name, the key's symbols and an array read. A graph built with
/// [`CausalGraph::new`] has no skeleton: every value it sees gets a
/// pseudo-symbol. Rule edges are buffered by the grounders and folded into
/// the adjacency lists in one pass ([`CausalGraph::fold_edges`]).
#[derive(Debug, Clone, Default)]
pub struct CausalGraph {
    labels: Vec<NodeLabel>,
    parents: Vec<Vec<NodeId>>,
    children: Vec<Vec<NodeId>>,
    attr_ids: HashMap<String, u32>,
    attrs: Vec<AttrNodes>,
    keys: KeySigs,
}

impl CausalGraph {
    /// Create an empty graph without a skeleton.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph whose keys are signed by `skeleton`'s symbols.
    /// Lookups read the skeleton's interner: key values must be compared
    /// against this skeleton (or an attribute-only successor of it).
    pub fn with_skeleton(skeleton: Arc<Skeleton>) -> Self {
        Self {
            keys: KeySigs::new(Some(skeleton)),
            ..Self::default()
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// The key table.
    pub(crate) fn keys(&self) -> &KeySigs {
        &self.keys
    }

    /// The key table, for signing keys before their nodes exist.
    pub(crate) fn keys_mut(&mut self) -> &mut KeySigs {
        &mut self.keys
    }

    /// The dense id of attribute `attr`, whose keys have `arity` arguments
    /// (registering it on first use).
    ///
    /// # Panics
    /// Panics if `attr` was registered with another key arity.
    pub(crate) fn attr_id(&mut self, attr: &str, arity: usize) -> u32 {
        if let Some(&id) = self.attr_ids.get(attr) {
            assert_eq!(
                self.attrs[id as usize].arity, arity,
                "attribute `{attr}` grounded with two key arities"
            );
            return id;
        }
        let id = u32::try_from(self.attrs.len()).expect("attribute ids fit u32");
        self.attr_ids.insert(attr.to_string(), id);
        self.attrs.push(AttrNodes {
            name: attr.to_string(),
            arity,
            by_sig: Vec::new(),
        });
        id
    }

    /// The dense id of attribute `attr`, if some node has it.
    pub(crate) fn lookup_attr(&self, attr: &str) -> Option<u32> {
        self.attr_ids.get(attr).copied()
    }

    /// Number of attributes.
    pub(crate) fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// The name of attribute `attr_id`.
    pub(crate) fn attr_name(&self, attr_id: u32) -> &str {
        &self.attrs[attr_id as usize].name
    }

    /// The key arity of attribute `attr_id`.
    pub(crate) fn attr_arity(&self, attr_id: u32) -> usize {
        self.attrs[attr_id as usize].arity
    }

    /// The label of a node.
    pub(crate) fn label(&self, id: NodeId) -> NodeLabel {
        self.labels[id]
    }

    /// The attribute name of a node.
    pub fn attr_of(&self, id: NodeId) -> &str {
        self.attr_name(self.labels[id].attr)
    }

    /// The signature of `key` as a key of attribute `attr_id`.
    pub(crate) fn key_sig(&self, attr_id: u32, key: &[Value]) -> Option<u32> {
        (key.len() == self.attr_arity(attr_id))
            .then(|| self.keys.key_sig(key))
            .flatten()
    }

    /// The node of attribute `attr_id` with key signature `sig`, if any.
    pub(crate) fn lookup(&self, attr_id: u32, sig: u32) -> Option<NodeId> {
        match self.attrs[attr_id as usize].by_sig.get(sig as usize) {
            Some(&id) if id != GroundedNodeId::NONE => Some(id.index()),
            _ => None,
        }
    }

    /// The node of attribute `attr_id` with key signature `sig`, appended
    /// on first sight. This lookup-or-append is the only way nodes are
    /// created, so the per-attribute arrays index every node.
    pub(crate) fn intern_node(&mut self, attr_id: u32, sig: u32) -> NodeId {
        let by_sig = &mut self.attrs[attr_id as usize].by_sig;
        let slot = sig as usize;
        if slot >= by_sig.len() {
            by_sig.resize(slot + 1, GroundedNodeId::NONE);
        }
        if by_sig[slot] != GroundedNodeId::NONE {
            return by_sig[slot].index();
        }
        let id = self.labels.len();
        by_sig[slot] = GroundedNodeId::from_node(id);
        self.labels.push(NodeLabel { attr: attr_id, sig });
        self.parents.push(Vec::new());
        self.children.push(Vec::new());
        id
    }

    /// Add (or retrieve) the node for a grounded attribute.
    ///
    /// # Panics
    /// Panics if the attribute already has nodes whose keys have another
    /// number of arguments.
    pub fn add_node(&mut self, node: GroundedAttr) -> NodeId {
        let attr_id = self.attr_id(&node.attr, node.key.len());
        let args: Vec<Sym> = node.key.iter().map(|v| self.keys.intern_value(v)).collect();
        let sig = self.keys.intern(&args);
        self.intern_node(attr_id, sig)
    }

    /// The node grounding `attr` with `key`, if one exists: the attribute
    /// by name, the key by its symbols' signature. Nothing is built or
    /// rendered.
    pub fn node_of(&self, attr: &str, key: &[Value]) -> Option<NodeId> {
        let attr_id = self.lookup_attr(attr)?;
        self.lookup(attr_id, self.key_sig(attr_id, key)?)
    }

    /// Look up the node id of a grounded attribute.
    pub fn node_id(&self, node: &GroundedAttr) -> Option<NodeId> {
        self.node_of(&node.attr, &node.key)
    }

    /// The key values of a node.
    fn key_of(&self, id: NodeId) -> UnitKey {
        let NodeLabel { attr, sig } = self.labels[id];
        self.keys
            .with_args(self.attr_arity(attr), sig, |args| self.keys.key_of(args))
    }

    /// The grounded attribute of a node, rendered from its label.
    pub fn node(&self, id: NodeId) -> GroundedAttr {
        GroundedAttr::new(self.attr_of(id), self.key_of(id))
    }

    /// Add an edge `parent → child`, deduplicating repeated insertions.
    pub fn add_edge(&mut self, parent: NodeId, child: NodeId) {
        if parent == child {
            return;
        }
        if !self.children[parent].contains(&child) {
            self.children[parent].push(child);
            self.parents[child].push(parent);
        }
    }

    /// Add a batch of `(parent, child)` edges in one pass, with exactly the
    /// result of calling [`CausalGraph::add_edge`] on each in order:
    /// self-edges and repeats (of each other or of existing edges) are
    /// dropped, and every parent and child list grows in first-insertion
    /// order.
    ///
    /// Edges are bucketed by parent with a counting sort; within a bucket a
    /// per-child stamp finds first occurrences, so the fold costs
    /// `O(nodes + edges)` with no hashing and no per-edge list scans.
    pub fn fold_edges(&mut self, edges: &[(u32, u32)]) {
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "edge buffer exceeds the u32 index space"
        );
        let n = self.labels.len();
        let mut start = vec![0u32; n + 1];
        for &(p, c) in edges {
            if p != c {
                start[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut bucket = vec![0u32; start[n] as usize];
        for (e, &(p, c)) in edges.iter().enumerate() {
            if p != c {
                bucket[fill[p as usize] as usize] = e as u32;
                fill[p as usize] += 1;
            }
        }

        // `stamp[c] == p` marks `p → c` as already present.
        let mut stamp = vec![u32::MAX; n];
        let mut first = vec![false; edges.len()];
        let mut in_degree = vec![0u32; n];
        for p in 0..n {
            let bucket = &bucket[start[p] as usize..start[p + 1] as usize];
            if bucket.is_empty() {
                continue;
            }
            let mark = p as u32;
            let children = &mut self.children[p];
            for &c in children.iter() {
                stamp[c] = mark;
            }
            children.reserve_exact(bucket.len());
            for &e in bucket {
                let c = edges[e as usize].1 as usize;
                if stamp[c] != mark {
                    stamp[c] = mark;
                    first[e as usize] = true;
                    in_degree[c] += 1;
                    children.push(c);
                }
            }
        }
        for (parents, &extra) in self.parents.iter_mut().zip(&in_degree) {
            parents.reserve_exact(extra as usize);
        }
        for (&(p, c), &first) in edges.iter().zip(&first) {
            if first {
                self.parents[c as usize].push(p as usize);
            }
        }
    }

    /// Parents of a node.
    pub fn parents_of(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id]
    }

    /// Children of a node.
    pub fn children_of(&self, id: NodeId) -> &[NodeId] {
        &self.children[id]
    }

    /// All node ids whose attribute name is `attr`, in id order.
    pub fn nodes_of_attr(&self, attr: &str) -> Vec<NodeId> {
        let Some(attr_id) = self.lookup_attr(attr) else {
            return Vec::new();
        };
        (0..self.labels.len())
            .filter(|&id| self.labels[id].attr == attr_id)
            .collect()
    }

    /// Iterate over `(id, node)` pairs, rendering each node.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, GroundedAttr)> + '_ {
        (0..self.labels.len()).map(|id| (id, self.node(id)))
    }

    /// Topological order (parents before children). Errors with the name of
    /// an attribute on a cycle if the graph is cyclic.
    pub fn topological_order(&self) -> Result<Vec<NodeId>, String> {
        let mut in_degree: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut queue: VecDeque<NodeId> = in_degree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.labels.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &c in &self.children[n] {
                in_degree[c] -= 1;
                if in_degree[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() != self.labels.len() {
            let culprit = in_degree
                .iter()
                .position(|&d| d > 0)
                .map(|i| self.attr_of(i).to_string())
                .unwrap_or_default();
            return Err(culprit);
        }
        Ok(order)
    }

    /// Whether the graph is a DAG.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Whether a directed path `from → … → to` exists (including `from == to`).
    pub fn has_directed_path(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.labels.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(n) = stack.pop() {
            for &c in &self.children[n] {
                if c == to {
                    return true;
                }
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// All descendants of a node (excluding the node itself).
    pub fn descendants(&self, from: NodeId) -> HashSet<NodeId> {
        let mut out = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for &c in &self.children[n] {
                if out.insert(c) {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// All ancestors of a node (excluding the node itself).
    pub fn ancestors(&self, from: NodeId) -> HashSet<NodeId> {
        let mut out = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for &p in &self.parents[n] {
                if out.insert(p) {
                    stack.push(p);
                }
            }
        }
        out
    }

    /// Ancestors of a *set* of nodes, including the nodes themselves
    /// (the "ancestral set" used by the d-separation test).
    pub fn ancestral_set(&self, nodes: &[NodeId]) -> HashSet<NodeId> {
        let mut out: HashSet<NodeId> = nodes.iter().copied().collect();
        let mut stack: Vec<NodeId> = nodes.to_vec();
        while let Some(n) = stack.pop() {
            for &p in &self.parents[n] {
                if out.insert(p) {
                    stack.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the grounded graph of the paper's Example 3.6 / Figure 4
    /// by hand (3 authors, 3 submissions).
    fn figure_4_graph() -> (CausalGraph, HashMap<String, NodeId>) {
        let mut g = CausalGraph::new();
        let mut ids = HashMap::new();
        let add =
            |g: &mut CausalGraph, ids: &mut HashMap<String, NodeId>, attr: &str, key: &str| {
                let id = g.add_node(GroundedAttr::single(attr, key));
                ids.insert(format!("{attr}:{key}"), id);
                id
            };
        for person in ["Bob", "Carlos", "Eva"] {
            add(&mut g, &mut ids, "Qualification", person);
            add(&mut g, &mut ids, "Prestige", person);
        }
        for sub in ["s1", "s2", "s3"] {
            add(&mut g, &mut ids, "Quality", sub);
            add(&mut g, &mut ids, "Score", sub);
        }
        let e = |g: &mut CausalGraph, ids: &HashMap<String, NodeId>, from: &str, to: &str| {
            g.add_edge(ids[from], ids[to]);
        };
        for person in ["Bob", "Carlos", "Eva"] {
            e(
                &mut g,
                &ids,
                &format!("Qualification:{person}"),
                &format!("Prestige:{person}"),
            );
        }
        // Authorship: s1 {Bob, Eva}, s2 {Eva}, s3 {Carlos, Eva}.
        let authorship = [
            ("s1", vec!["Bob", "Eva"]),
            ("s2", vec!["Eva"]),
            ("s3", vec!["Carlos", "Eva"]),
        ];
        for (sub, authors) in &authorship {
            for a in authors {
                e(
                    &mut g,
                    &ids,
                    &format!("Qualification:{a}"),
                    &format!("Quality:{sub}"),
                );
                e(
                    &mut g,
                    &ids,
                    &format!("Prestige:{a}"),
                    &format!("Score:{sub}"),
                );
            }
            e(
                &mut g,
                &ids,
                &format!("Quality:{sub}"),
                &format!("Score:{sub}"),
            );
        }
        (g, ids)
    }

    #[test]
    fn figure_4_counts() {
        let (g, _) = figure_4_graph();
        // 3 qualifications + 3 prestiges + 3 qualities + 3 scores = 12 nodes.
        assert_eq!(g.node_count(), 12);
        // Edges: 3 qual→prestige + 5 qual→quality + 5 prestige→score + 3 quality→score = 16.
        assert_eq!(g.edge_count(), 16);
        assert!(g.is_acyclic());
    }

    #[test]
    fn directed_paths_match_the_example() {
        let (g, ids) = figure_4_graph();
        // Eva authored everything: her prestige reaches every score.
        for sub in ["s1", "s2", "s3"] {
            assert!(g.has_directed_path(ids["Prestige:Eva"], ids[&format!("Score:{sub}")]));
        }
        // Bob only authored s1.
        assert!(g.has_directed_path(ids["Prestige:Bob"], ids["Score:s1"]));
        assert!(!g.has_directed_path(ids["Prestige:Bob"], ids["Score:s2"]));
        assert!(!g.has_directed_path(ids["Prestige:Bob"], ids["Score:s3"]));
        // Qualification reaches scores through both prestige and quality.
        assert!(g.has_directed_path(ids["Qualification:Carlos"], ids["Score:s3"]));
    }

    #[test]
    fn parents_and_children() {
        let (g, ids) = figure_4_graph();
        let score_s1 = ids["Score:s1"];
        let parents: HashSet<&str> = g
            .parents_of(score_s1)
            .iter()
            .map(|&p| g.attr_of(p))
            .collect();
        assert_eq!(parents, HashSet::from(["Prestige", "Quality"]));
        assert_eq!(g.parents_of(score_s1).len(), 3);
        assert!(g.children_of(score_s1).is_empty());
        assert_eq!(g.nodes_of_attr("Score").len(), 3);
        assert_eq!(g.nodes_of_attr("Nothing").len(), 0);
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, _) = figure_4_graph();
        let order = g.topological_order().unwrap();
        let position: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (id, _) in g.iter() {
            for &c in g.children_of(id) {
                assert!(position[&id] < position[&c]);
            }
        }
    }

    #[test]
    fn cycles_are_detected() {
        let mut g = CausalGraph::new();
        let a = g.add_node(GroundedAttr::single("A", "x"));
        let b = g.add_node(GroundedAttr::single("B", "x"));
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(!g.is_acyclic());
        let err = g.topological_order().unwrap_err();
        assert!(err == "A" || err == "B");
    }

    #[test]
    fn duplicate_nodes_and_edges_are_merged() {
        let mut g = CausalGraph::new();
        let a1 = g.add_node(GroundedAttr::single("A", "x"));
        let a2 = g.add_node(GroundedAttr::single("A", "x"));
        assert_eq!(a1, a2);
        let b = g.add_node(GroundedAttr::single("B", "x"));
        g.add_edge(a1, b);
        g.add_edge(a1, b);
        assert_eq!(g.edge_count(), 1);
        // Self edges are ignored.
        g.add_edge(b, b);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn lookups_see_every_added_node_and_survive_a_clone() {
        let mut g = CausalGraph::new();
        let a = g.add_node(GroundedAttr::single("A", "x"));
        let b = g.add_node(GroundedAttr::single("B", "x"));
        assert_eq!(g.node_id(&GroundedAttr::single("A", "x")), Some(a));
        assert_eq!(g.nodes_of_attr("B"), &[b]);
        // Nodes added after a lookup are found too.
        let a2 = g.add_node(GroundedAttr::single("A", "y"));
        assert_eq!(g.node_id(&GroundedAttr::single("A", "y")), Some(a2));
        assert_eq!(g.nodes_of_attr("A"), &[a, a2]);
        assert_eq!(g.node_id(&GroundedAttr::single("A", "z")), None);
        assert_eq!(g.attr_of(a2), "A");
        assert_eq!(g.node(a2), GroundedAttr::single("A", "y"));
        // A clone carries the node store along.
        let c = g.clone();
        assert_eq!(c.node_id(&GroundedAttr::single("A", "y")), Some(a2));
        assert_eq!(c.nodes_of_attr("A"), &[a, a2]);
    }

    #[test]
    fn add_node_after_a_lookup_keeps_the_index_in_sync() {
        let mut g = CausalGraph::new();
        let a = g.add_node(GroundedAttr::single("A", "x"));
        assert_eq!(g.nodes_of_attr("A"), &[a]);
        // `add_node` probes the store: an existing node dedups...
        assert_eq!(g.add_node(GroundedAttr::single("A", "x")), a);
        // ...and a new one is appended and indexed.
        let b = g.add_node(GroundedAttr::single("A", "y"));
        assert_ne!(a, b);
        assert_eq!(g.add_node(GroundedAttr::single("A", "y")), b);
        assert_eq!(g.node_id(&GroundedAttr::single("A", "y")), Some(b));
        assert_eq!(g.nodes_of_attr("A"), &[a, b]);
        assert_eq!(g.node_count(), 2);
    }

    /// Every parent and child list, in order.
    fn adjacency(g: &CausalGraph) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        (0..g.node_count())
            .map(|id| (g.parents_of(id).to_vec(), g.children_of(id).to_vec()))
            .collect()
    }

    fn graph_of(n: usize) -> CausalGraph {
        let mut g = CausalGraph::new();
        for i in 0..n {
            g.add_node(GroundedAttr::single("N", i as i64));
        }
        g
    }

    #[test]
    fn fold_edges_matches_repeated_add_edge() {
        type Edges = Vec<(u32, u32)>;
        // (edges added one at a time first, the batch folded after them)
        let cases: Vec<(Edges, Edges)> = vec![
            // Duplicates, self-edges and interleaved insertion order.
            (
                vec![],
                vec![
                    (0, 3),
                    (1, 3),
                    (0, 3),
                    (2, 2),
                    (3, 4),
                    (1, 4),
                    (0, 4),
                    (1, 3),
                    (4, 5),
                    (0, 5),
                    (3, 4),
                ],
            ),
            // Folding on top of edges added one at a time.
            (
                vec![(0, 1), (2, 1)],
                vec![(2, 1), (0, 2), (0, 1), (3, 1), (1, 1), (0, 2)],
            ),
            (vec![], vec![]),
        ];
        for (existing, batch) in cases {
            let mut folded = graph_of(6);
            let mut one_by_one = graph_of(6);
            for &(p, c) in &existing {
                folded.add_edge(p as usize, c as usize);
                one_by_one.add_edge(p as usize, c as usize);
            }
            folded.fold_edges(&batch);
            for &(p, c) in &batch {
                one_by_one.add_edge(p as usize, c as usize);
            }
            assert_eq!(folded.edge_count(), one_by_one.edge_count(), "{batch:?}");
            assert_eq!(adjacency(&folded), adjacency(&one_by_one), "{batch:?}");
        }

        // Pseudo-random dense batches over a small graph, so duplicates,
        // self-edges and interleavings are all frequent.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % u64::from(bound)) as u32
        };
        for round in 0..50 {
            let n = 1 + next(12);
            let batch: Vec<(u32, u32)> = (0..next(60)).map(|_| (next(n), next(n))).collect();
            let mut folded = graph_of(n as usize);
            let mut one_by_one = graph_of(n as usize);
            folded.fold_edges(&batch);
            for &(p, c) in &batch {
                one_by_one.add_edge(p as usize, c as usize);
            }
            assert_eq!(
                adjacency(&folded),
                adjacency(&one_by_one),
                "round {round}: {batch:?}"
            );
        }
    }

    #[test]
    fn descendants_ancestors_and_ancestral_set() {
        let (g, ids) = figure_4_graph();
        let desc = g.descendants(ids["Qualification:Eva"]);
        assert!(desc.contains(&ids["Prestige:Eva"]));
        assert!(desc.contains(&ids["Score:s2"]));
        assert!(!desc.contains(&ids["Qualification:Bob"]));

        let anc = g.ancestors(ids["Score:s2"]);
        assert!(anc.contains(&ids["Qualification:Eva"]));
        assert!(anc.contains(&ids["Quality:s2"]));
        assert!(!anc.contains(&ids["Prestige:Bob"]));

        let aset = g.ancestral_set(&[ids["Score:s2"]]);
        assert!(aset.contains(&ids["Score:s2"]));
        assert!(aset.contains(&ids["Qualification:Eva"]));
    }

    #[test]
    fn display_of_grounded_attrs() {
        let a = GroundedAttr::single("Score", "s1");
        assert_eq!(a.to_string(), "Score[\"s1\"]");
    }

    #[test]
    fn node_identity_follows_value_equality_across_numeric_variants() {
        // Node identity must be no finer than GroundedAttr equality.
        // Int(2) == Float(2.0) per Value::eq, so a node added with one
        // variant must be found (and deduplicated) through the other, and
        // reads back as the variant added first.
        let mut g = CausalGraph::new();
        let float_node = GroundedAttr::new("Score", vec![Value::Float(2.0)]);
        let int_node = GroundedAttr::new("Score", vec![Value::Int(2)]);
        assert_eq!(float_node, int_node);
        let id = g.add_node(float_node.clone());
        assert_eq!(g.node_id(&int_node), Some(id));
        assert_eq!(g.add_node(int_node.clone()), id, "no duplicate node");
        assert_eq!(g.node_count(), 1);
        assert_eq!(format!("{:?}", g.node(id).key), "[Float(2.0)]");
    }
}
