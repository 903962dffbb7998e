//! The causal graph's node store against a naive model.
//!
//! [`CausalGraph`] keeps each node as an (attribute id, key signature)
//! label and renders a [`GroundedAttr`] only on request. The model here is
//! the obvious alternative: a `Vec` of `GroundedAttr`s in id order plus a
//! `HashMap` from grounded attribute to id, each key value replaced by the
//! value that stands for its `Value`-equality class — the skeleton's
//! interned value when the graph has a skeleton holding it, else the first
//! equal value ever added.
//!
//! Random `add_node` sequences — over a skeleton and without one, with keys
//! of arity 0, 1 and 2, the `Value`-equal keys `Int(2)` and `Float(2.0)`,
//! string keys and values absent from the skeleton — are applied to both.
//! After every operation the two must agree on the returned ids, the node
//! count, every node's rendering and attribute, `nodes_of_attr`, and
//! `node_id`/`node_of` probes that hit and miss (unknown attributes and
//! keys of the wrong arity included).

use carl::graph::{CausalGraph, GroundedAttr, NodeId};
use proptest::prelude::*;
use reldb::{Skeleton, UnitKey, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Attributes with their key arities; the last one is never added.
const ATTRS: [(&str, usize); 5] = [("A", 1), ("B", 2), ("C", 0), ("D", 1), ("E", 1)];
/// Attributes `add_node` draws from.
const ADDED: usize = 4;

fn pool() -> Vec<Value> {
    vec![
        Value::from("a"),
        Value::from("b"),
        Value::from("c"),
        Value::Int(2),
        Value::Float(2.0),
        Value::Int(3),
        Value::from("absent"),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    (0..pool().len()).prop_map(|i| pool()[i].clone())
}

/// A key of `attr`'s arity.
fn node() -> impl Strategy<Value = GroundedAttr> {
    (0..ADDED, proptest::collection::vec(value(), 2..3)).prop_map(|(a, values)| {
        let (attr, arity) = ATTRS[a];
        GroundedAttr::new(attr, values[..arity].to_vec())
    })
}

/// A probe: any attribute, a key of any arity up to 2.
fn probe() -> impl Strategy<Value = GroundedAttr> {
    (
        0..ATTRS.len(),
        0..3usize,
        proptest::collection::vec(value(), 2..3),
    )
        .prop_map(|(a, arity, values)| GroundedAttr::new(ATTRS[a].0, values[..arity].to_vec()))
}

/// A skeleton holding `"a"`, `"b"` and `Int(2)` as entity keys and `"c"`
/// in a relationship tuple; `Int(3)` and `"absent"` are not in it.
fn skeleton() -> Arc<Skeleton> {
    let mut sk = Skeleton::new();
    for key in [Value::from("a"), Value::from("b"), Value::Int(2)] {
        sk.add_entity("Person", key);
    }
    sk.add_relationship("Writes", vec![Value::from("a"), Value::from("c")]);
    Arc::new(sk)
}

/// Nodes in id order, and grounded attribute → id.
struct Model {
    skeleton: Option<Arc<Skeleton>>,
    /// The first value added of each `Value`-equality class the skeleton
    /// does not hold.
    firsts: Vec<Value>,
    nodes: Vec<GroundedAttr>,
    ids: HashMap<GroundedAttr, NodeId>,
}

impl Model {
    fn new(skeleton: Option<Arc<Skeleton>>) -> Self {
        Self {
            skeleton,
            firsts: Vec::new(),
            nodes: Vec::new(),
            ids: HashMap::new(),
        }
    }

    fn representative(&mut self, value: &Value) -> Value {
        if let Some(sk) = &self.skeleton {
            if let Some(sym) = sk.interner().get(value) {
                return sk.interner().value(sym).clone();
            }
        }
        if let Some(first) = self.firsts.iter().find(|f| *f == value) {
            return first.clone();
        }
        self.firsts.push(value.clone());
        value.clone()
    }

    fn add(&mut self, node: &GroundedAttr) -> NodeId {
        let key: UnitKey = node.key.iter().map(|v| self.representative(v)).collect();
        let node = GroundedAttr::new(&node.attr, key);
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.ids.insert(node.clone(), id);
        self.nodes.push(node);
        id
    }
}

/// `Value` equality equates `Int(2)` and `Float(2.0)`; keys are compared
/// variant for variant through the `Debug` rendering.
fn strict(node: &GroundedAttr) -> String {
    format!("{}{:?}", node.attr, node.key)
}

fn check(graph: &CausalGraph, model: &Model, probes: &[GroundedAttr]) {
    assert_eq!(graph.node_count(), model.nodes.len(), "node count");
    for (id, want) in model.nodes.iter().enumerate() {
        let got = graph.node(id);
        assert_eq!(strict(&got), strict(want), "node {id}");
        assert_eq!(got.to_string(), want.to_string(), "node {id} display");
        assert_eq!(graph.attr_of(id), want.attr, "attribute of node {id}");
        assert_eq!(
            graph.node_id(&got),
            Some(id),
            "node {id} resolves to itself"
        );
    }
    let rendered: Vec<String> = graph.iter().map(|(_, node)| strict(&node)).collect();
    let want: Vec<String> = model.nodes.iter().map(strict).collect();
    assert_eq!(rendered, want, "iteration");
    for (attr, _) in ATTRS {
        let want: Vec<NodeId> = (0..model.nodes.len())
            .filter(|&id| model.nodes[id].attr == attr)
            .collect();
        assert_eq!(graph.nodes_of_attr(attr), want, "nodes of {attr}");
    }
    for probe in probes {
        let want = model.ids.get(probe).copied();
        assert_eq!(graph.node_id(probe), want, "probe {}", strict(probe));
        assert_eq!(graph.node_of(&probe.attr, &probe.key), want, "node_of");
    }
}

fn run(skeleton: Option<Arc<Skeleton>>, ops: &[GroundedAttr], probes: &[GroundedAttr]) {
    let mut graph = match &skeleton {
        Some(sk) => CausalGraph::with_skeleton(Arc::clone(sk)),
        None => CausalGraph::new(),
    };
    let mut model = Model::new(skeleton);
    for op in ops {
        let id = graph.add_node(op.clone());
        assert_eq!(id, model.add(op), "id of {}", strict(op));
        let mut probes = probes.to_vec();
        probes.push(op.clone());
        check(&graph, &model, &probes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn node_store_matches_the_naive_model(
        ops in proptest::collection::vec(node(), 1..40),
        probes in proptest::collection::vec(probe(), 6..7),
        with_skeleton in any::<bool>(),
    ) {
        run(with_skeleton.then(skeleton), &ops, &probes);
    }
}

/// The cases the random sequences must reach, pinned explicitly, with and
/// without a skeleton.
#[test]
fn equal_values_absent_constants_and_empty_keys_are_stored_once() {
    let s = |v: &str| Value::from(v);
    let ops = [
        GroundedAttr::new("A", vec![Value::Float(2.0)]),
        GroundedAttr::new("A", vec![Value::Int(2)]),
        GroundedAttr::new("C", vec![]),
        GroundedAttr::new("C", vec![]),
        GroundedAttr::new("B", vec![s("a"), s("c")]),
        GroundedAttr::new("B", vec![s("c"), s("a")]),
        GroundedAttr::new("B", vec![s("a"), s("c")]),
        GroundedAttr::new("A", vec![s("absent")]),
        GroundedAttr::new("D", vec![s("absent")]),
        GroundedAttr::new("B", vec![Value::Int(3), Value::Float(2.0)]),
        GroundedAttr::new("B", vec![Value::Int(3), Value::Int(2)]),
    ];
    let probes = [
        GroundedAttr::new("A", vec![Value::Int(2)]),
        GroundedAttr::new("A", vec![s("a"), s("c")]),
        GroundedAttr::new("B", vec![s("a")]),
        GroundedAttr::new("C", vec![]),
        GroundedAttr::new("E", vec![s("a")]),
        GroundedAttr::new("D", vec![Value::Int(3)]),
    ];
    for skeleton in [None, Some(skeleton())] {
        let with = skeleton.is_some();
        run(skeleton.clone(), &ops, &probes);
        let mut graph = match skeleton {
            Some(sk) => CausalGraph::with_skeleton(sk),
            None => CausalGraph::new(),
        };
        for op in &ops {
            graph.add_node(op.clone());
        }
        assert_eq!(graph.node_count(), 7, "skeleton: {with}");
        // Over the skeleton, `Int(2)` is the interned value; without one,
        // the first value added stands for its class.
        let want = if with { "[Int(2)]" } else { "[Float(2.0)]" };
        assert_eq!(format!("{:?}", graph.node(0).key), want);
    }
}
