//! Grounded relational causal graphs (Section 3.2.3).
//!
//! The vertices are grounded attributes `A[x]` (attribute name plus a tuple
//! of entity keys); the edges connect the groundings appearing in the body
//! of a grounded rule to the grounding in its head. Aggregate rules add
//! further vertices (e.g. `AVG_Score["Bob"]`) whose value is a deterministic
//! function of their parents.

use reldb::symbols::SymMap;
use reldb::value::{fnv1a, FNV_OFFSET};
use reldb::{UnitKey, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide count of [`GroundedAttr`] constructions.
///
/// `GroundedAttr` allocates (it owns its attribute name and key), so every
/// construction on a hot path is a heap hit plus a later re-hash. The
/// interned-identity work keeps them off the streamed grounding path except
/// at API boundaries; this counter lets a test *prove* that — constructions
/// during a cold streamed ground must stay O(distinct derived nodes), not
/// O(rows) (`tests/parallel_grounding.rs`; carlbench also reports it as
/// `ground.attr_constructions`).
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

/// Interned identity of a grounded node: a dense `u32` issued by the
/// grounding node table, keyed on `(attribute id, key signature)`. Hot paths (streamed grounding, incremental patching, peer
/// discovery) pass these around instead of constructing string-keyed
/// [`GroundedAttr`]s and re-fingerprinting them per probe.
///
/// The value equals the node's [`NodeId`] in the causal graph, so
/// `id.index()` indexes every graph-side table directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundedNodeId(pub u32);

impl GroundedNodeId {
    /// Sentinel for "no node" in dense tables (mirrors the node table's
    /// `NO_NODE`).
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

/// A grounded attribute `A[x]`: the vertex type of the causal graph.
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

/// The grounded relational causal graph `G(Φ_Δ)`.
///
/// Grounding builds the graph append-only: the grounder's own node table
/// is the identity authority, so [`CausalGraph::push_node`] appends without
/// deduplicating, and rule edges are buffered and folded into the
/// adjacency lists in one pass ([`CausalGraph::fold_edges`]). Lookups by
/// content ([`CausalGraph::node_id`]) and by attribute name
/// ([`CausalGraph::nodes_of_attr`]) go through one index that is built on
/// first use and kept in sync by later insertions.
#[derive(Debug, Clone, Default)]
pub struct CausalGraph {
    nodes: Vec<GroundedAttr>,
    parents: Vec<Vec<NodeId>>,
    children: Vec<Vec<NodeId>>,
    index: OnceLock<NodeIndex>,
}

/// The graph's lookup index: content fingerprint → node, and attribute
/// name → nodes in id order.
#[derive(Debug, Clone, Default)]
struct NodeIndex {
    /// Content fingerprint → the first node with that fingerprint.
    ///
    /// Keying on a 64-bit FNV of the grounded attribute's canonical bytes
    /// avoids cloning attribute strings and unit keys into a map key per
    /// node (and the fast symbol hasher makes the probe a few ALU ops).
    first: SymMap<u64, NodeId>,
    /// Further nodes sharing a fingerprint with `first` (collisions, or
    /// duplicates appended through [`CausalGraph::push_node`]), in id order.
    more: SymMap<u64, Vec<NodeId>>,
    by_attr: HashMap<String, Vec<NodeId>>,
}

impl NodeIndex {
    fn build(nodes: &[GroundedAttr]) -> Self {
        let mut index = Self::default();
        for (id, node) in nodes.iter().enumerate() {
            index.insert(id, node);
        }
        index
    }

    fn insert(&mut self, id: NodeId, node: &GroundedAttr) {
        let h = CausalGraph::fingerprint(node);
        if let Some(&head) = self.first.get(&h) {
            debug_assert!(head < id);
            self.more.entry(h).or_default().push(id);
        } else {
            self.first.insert(h, id);
        }
        // Avoid cloning the attribute name except for its first node.
        match self.by_attr.get_mut(&node.attr) {
            Some(ids) => ids.push(id),
            None => {
                self.by_attr.insert(node.attr.clone(), vec![id]);
            }
        }
    }

    fn find(&self, nodes: &[GroundedAttr], node: &GroundedAttr) -> Option<NodeId> {
        let h = CausalGraph::fingerprint(node);
        let &head = self.first.get(&h)?;
        if nodes[head] == *node {
            return Some(head);
        }
        self.more
            .get(&h)?
            .iter()
            .copied()
            .find(|&id| nodes[id] == *node)
    }
}

impl CausalGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// A deterministic 64-bit content fingerprint of a grounded attribute
    /// (FNV-1a over the attribute name and the key's *equality-consistent*
    /// byte rendering: `Value`-equal keys — including `Int(2)` vs
    /// `Float(2.0)` — fingerprint identically, so the index buckets no
    /// finer than `GroundedAttr` equality).
    fn fingerprint(node: &GroundedAttr) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, node.attr.as_bytes());
        fnv1a(&mut h, &[0xff]);
        for v in &node.key {
            v.fold_eq_bytes(&mut |bytes| fnv1a(&mut h, bytes));
            fnv1a(&mut h, &[0xfe]);
        }
        h
    }

    /// The lookup index, built on first use.
    fn index(&self) -> &NodeIndex {
        self.index.get_or_init(|| NodeIndex::build(&self.nodes))
    }

    /// Append a node without checking whether an equal one exists.
    ///
    /// For builders that own node identity (the grounder's node table
    /// hands out each grounding once); [`CausalGraph::add_node`] is the
    /// deduplicating entry point.
    pub fn push_node(&mut self, node: GroundedAttr) -> NodeId {
        let id = self.nodes.len();
        if let Some(index) = self.index.get_mut() {
            index.insert(id, &node);
        }
        self.nodes.push(node);
        self.parents.push(Vec::new());
        self.children.push(Vec::new());
        id
    }

    /// Add (or retrieve) the node for a grounded attribute.
    pub fn add_node(&mut self, node: GroundedAttr) -> NodeId {
        match self.node_id(&node) {
            Some(id) => id,
            None => self.push_node(node),
        }
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
        let n = self.nodes.len();
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

    /// The grounded attribute of a node.
    pub fn node(&self, id: NodeId) -> &GroundedAttr {
        &self.nodes[id]
    }

    /// Look up the node id of a grounded attribute.
    pub fn node_id(&self, node: &GroundedAttr) -> Option<NodeId> {
        self.index().find(&self.nodes, node)
    }

    /// Parents of a node.
    pub fn parents_of(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id]
    }

    /// Children of a node.
    pub fn children_of(&self, id: NodeId) -> &[NodeId] {
        &self.children[id]
    }

    /// All node ids whose attribute name is `attr`.
    pub fn nodes_of_attr(&self, attr: &str) -> &[NodeId] {
        self.index()
            .by_attr
            .get(attr)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &GroundedAttr)> {
        self.nodes.iter().enumerate()
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
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &c in &self.children[n] {
                in_degree[c] -= 1;
                if in_degree[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() != self.nodes.len() {
            let culprit = in_degree
                .iter()
                .position(|&d| d > 0)
                .map(|i| self.nodes[i].attr.clone())
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
        let mut seen = vec![false; self.nodes.len()];
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
            .map(|&p| g.node(p).attr.as_str())
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
    fn lookups_see_nodes_pushed_before_and_after_the_index_is_built() {
        let mut g = CausalGraph::new();
        let a = g.push_node(GroundedAttr::single("A", "x"));
        let b = g.push_node(GroundedAttr::single("B", "x"));
        // First lookup builds the index over the nodes pushed so far.
        assert_eq!(g.node_id(&GroundedAttr::single("A", "x")), Some(a));
        assert_eq!(g.nodes_of_attr("B"), &[b]);
        // Later pushes land in the already-built index.
        let a2 = g.push_node(GroundedAttr::single("A", "y"));
        assert_eq!(g.node_id(&GroundedAttr::single("A", "y")), Some(a2));
        assert_eq!(g.nodes_of_attr("A"), &[a, a2]);
        assert_eq!(g.node_id(&GroundedAttr::single("A", "z")), None);
        // A clone carries the built index along.
        let c = g.clone();
        assert_eq!(c.node_id(&GroundedAttr::single("A", "y")), Some(a2));
        // Nodes pushed before any lookup are indexed on first use too.
        let mut h = CausalGraph::new();
        let ids: Vec<NodeId> = ["x", "y", "z"]
            .iter()
            .map(|k| h.push_node(GroundedAttr::single("C", *k)))
            .collect();
        assert_eq!(h.nodes_of_attr("C"), ids.as_slice());
        assert_eq!(h.node_id(&GroundedAttr::single("C", "z")), Some(ids[2]));
    }

    #[test]
    fn add_node_after_a_lookup_keeps_the_index_in_sync() {
        let mut g = CausalGraph::new();
        let a = g.push_node(GroundedAttr::single("A", "x"));
        assert_eq!(g.nodes_of_attr("A"), &[a]);
        // `add_node` probes the built index: an existing node dedups...
        assert_eq!(g.add_node(GroundedAttr::single("A", "x")), a);
        // ...and a new one is appended and indexed.
        let b = g.add_node(GroundedAttr::single("A", "y"));
        assert_ne!(a, b);
        assert_eq!(g.add_node(GroundedAttr::single("A", "y")), b);
        assert_eq!(g.node_id(&GroundedAttr::single("A", "y")), Some(b));
        assert_eq!(g.nodes_of_attr("A"), &[a, b]);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn pushed_duplicates_resolve_to_the_first_node() {
        let mut g = CausalGraph::new();
        let first = g.push_node(GroundedAttr::single("A", "x"));
        let again = g.push_node(GroundedAttr::single("A", "x"));
        assert_ne!(first, again);
        assert_eq!(g.node_id(&GroundedAttr::single("A", "x")), Some(first));
        assert_eq!(g.add_node(GroundedAttr::single("A", "x")), first);
        assert_eq!(g.nodes_of_attr("A"), &[first, again]);
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
            g.push_node(GroundedAttr::single("N", i as i64));
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
        // Regression: the fingerprint index must bucket no finer than
        // GroundedAttr equality. Int(2) == Float(2.0) per Value::eq, so a
        // node added with one variant must be found (and deduplicated)
        // through the other — whether the index was built before or after
        // the node went in.
        let mut g = CausalGraph::new();
        let float_node = GroundedAttr::new("Score", vec![Value::Float(2.0)]);
        let int_node = GroundedAttr::new("Score", vec![Value::Int(2)]);
        assert_eq!(float_node, int_node);
        let id = g.add_node(float_node.clone());
        assert_eq!(g.node_id(&int_node), Some(id));
        assert_eq!(g.add_node(int_node.clone()), id, "no duplicate node");
        assert_eq!(g.node_count(), 1);

        let mut pushed = CausalGraph::new();
        let id = pushed.push_node(float_node);
        assert_eq!(pushed.node_id(&int_node), Some(id));
    }
}
