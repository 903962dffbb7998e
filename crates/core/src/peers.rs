//! Relational peers (Definition 4.3).
//!
//! After unification the treated and response units coincide. The relational
//! peers of a unit `x` are the other units `p` whose treatment `T[p]` has a
//! directed path to `x`'s (possibly aggregated) response `Y[x]` in the
//! grounded causal graph — exactly the units whose treatment can interfere
//! with `x`'s outcome (e.g. Bob's co-author Eva in Figure 5).
//!
//! Peers are addressed by **row index**: a [`PeerMap`] holds, for every unit
//! of the slice it was built from, the `u32` positions of its peers in that
//! slice. Covariate selection and the unit table read it by row, so no layer
//! after grounding hashes or clones a [`UnitKey`] per peer edge. The
//! key-addressed map of earlier versions survives only as the reference in
//! [`crate::rowwise`].
//!
//! Each unit's treatment and response nodes are resolved once, through
//! [`GroundedValues::unit_nodes`]: by the units' skeleton symbols when the
//! engine passes them, by key from the public entry points.

use crate::graph::NodeId;
use crate::ground::{AggregateExtension, GroundedValues, StreamedModel, UnitRows};
use reldb::{Instance, UnitKey};
use std::sync::Arc;

/// The peer map: for each unit, the row indices of its relational peers.
///
/// Row `i` belongs to `units()[i]`; each list holds indices into the same
/// slice, sorted in [`UnitKey`] order (so two maps over the same units
/// compare equal exactly when every unit has the same peers in the same
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct PeerMap {
    units: Arc<[UnitKey]>,
    lists: Vec<Vec<u32>>,
}

impl PeerMap {
    /// Wrap per-unit peer lists built in ascending row order, re-sorting
    /// them into key order when the units themselves are not sorted.
    fn from_lists(units: Arc<[UnitKey]>, mut lists: Vec<Vec<u32>>) -> Self {
        if lists.iter().any(|l| l.len() > 1) && !units.windows(2).all(|w| w[0] <= w[1]) {
            for list in &mut lists {
                list.sort_by(|&a, &b| units[a as usize].cmp(&units[b as usize]));
            }
        }
        Self { units, lists }
    }

    /// The units this map was built over, in row order.
    pub fn units(&self) -> &[UnitKey] {
        &self.units
    }

    /// The shared unit list, for plans built over the same units.
    pub(crate) fn shared_units(&self) -> &Arc<[UnitKey]> {
        &self.units
    }

    /// Number of units (rows).
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the map covers no units.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The peers of the unit in row `unit`, as row indices in key order.
    pub fn peers_of(&self, unit: usize) -> &[u32] {
        &self.lists[unit]
    }

    /// Every unit's peer list, in row order.
    pub fn values(&self) -> std::slice::Iter<'_, Vec<u32>> {
        self.lists.iter()
    }

    /// The peers of the unit in row `unit`, as keys in key order.
    pub fn peer_keys(&self, unit: usize) -> impl Iterator<Item = &UnitKey> + '_ {
        self.lists[unit].iter().map(|&p| &self.units[p as usize])
    }

    /// The peers of the unit keyed `unit` (the first row with that key), or
    /// `None` when it is not one of the units. Scans the unit list: meant
    /// for inspection and tests, where callers hold keys rather than rows.
    pub fn get(&self, unit: &UnitKey) -> Option<impl Iterator<Item = &UnitKey> + '_> {
        let row = self.units.iter().position(|u| u == unit)?;
        Some(self.peer_keys(row))
    }

    /// Every unit with its peers, both as keys, in row order.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (&UnitKey, impl Iterator<Item = &UnitKey> + '_)> + '_ {
        self.units
            .iter()
            .enumerate()
            .map(|(row, unit)| (unit, self.peer_keys(row)))
    }
}

/// Whether two unit lists are the same list: the same slice, or equal
/// element by element.
pub(crate) fn same_units(a: &[UnitKey], b: &[UnitKey]) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// `u32` row index of unit `i` (peer lists are `u32` to halve their size).
fn row(i: usize) -> u32 {
    u32::try_from(i).expect("more than u32::MAX units")
}

/// Compute the relational peers of every unit.
///
/// `units` are the (unified) treated/response units; `treatment_attr` and
/// `response_attr` name the grounded attribute families. A unit `p` is a
/// peer of `x ≠ p` iff there is a directed path from `T[p]` to `Y[x]`.
pub fn compute_peers<G: GroundedValues>(
    grounded: &G,
    treatment_attr: &str,
    response_attr: &str,
    units: &[UnitKey],
) -> PeerMap {
    compute_peers_rows(
        grounded,
        treatment_attr,
        response_attr,
        UnitRows::keys(units),
        units.into(),
    )
}

/// [`compute_peers`] over units with their row addressing; `shared` is the
/// unit list `units` names, kept by the returned map.
pub(crate) fn compute_peers_rows<G: GroundedValues>(
    grounded: &G,
    treatment_attr: &str,
    response_attr: &str,
    units: UnitRows<'_>,
    shared: Arc<[UnitKey]>,
) -> PeerMap {
    let graph = grounded.graph();
    let n = graph.node_count();

    // Dense response lookup: node id → unit row (u32::MAX = not a response
    // node of any unit). Each unit has at most one response node (grounded
    // attributes are unique), so no per-hit dedup is needed.
    let mut response_of: Vec<u32> = vec![u32::MAX; n];
    for (ui, rid) in grounded
        .unit_nodes(response_attr, units)
        .into_iter()
        .enumerate()
    {
        if let Some(rid) = rid {
            response_of[rid] = row(ui);
        }
    }

    // For each unit p, walk the descendants of T[p]; any response node
    // reached belongs to some unit x, and p becomes a peer of x. The DFS
    // reuses one epoch-stamped visited buffer and one stack across units —
    // no per-unit set allocation, no hashing. Units are visited in row
    // order, so every list is built ascending.
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); units.len()];
    let mut stamps: Vec<u32> = vec![0; n];
    let mut stack: Vec<usize> = Vec::new();
    for (pi, tid) in treatment_nodes(grounded, treatment_attr, units) {
        let epoch = pi + 1;
        stamps[tid] = epoch;
        stack.push(tid);
        while let Some(node) = stack.pop() {
            for &child in graph.children_of(node) {
                if stamps[child] == epoch {
                    continue;
                }
                stamps[child] = epoch;
                stack.push(child);
                let x = response_of[child];
                if x != u32::MAX && x != pi {
                    lists[x as usize].push(pi);
                }
            }
        }
    }
    PeerMap::from_lists(shared, lists)
}

/// `(unit row, treatment node)` of every unit that has a treatment node.
fn treatment_nodes<G: GroundedValues>(
    grounded: &G,
    treatment_attr: &str,
    units: UnitRows<'_>,
) -> impl Iterator<Item = (u32, NodeId)> {
    grounded
        .unit_nodes(treatment_attr, units)
        .into_iter()
        .enumerate()
        .filter_map(|(ui, tid)| Some((row(ui), tid?)))
}

/// Compute relational peers when the response is a query-synthesised
/// aggregate streamed as an [`AggregateExtension`] over a shared base
/// grounding.
///
/// In a materialised grounding the aggregate's vertices `Y[x]` would be
/// leaves whose only in-edges come from their group's source groundings, so
/// "a directed path `T[p] → … → Y[x]` exists" is equivalent to "the
/// descendant walk of `T[p]` in the *base* graph touches one of `x`'s group
/// sources". This walks exactly that, producing a peer map bit-identical to
/// running [`compute_peers`] over the fully materialised grounding (pinned
/// by the streaming differential suite).
pub fn compute_peers_streamed(
    base: &StreamedModel,
    ext: &AggregateExtension,
    treatment_attr: &str,
    units: &[UnitKey],
    instance: &Instance,
) -> PeerMap {
    let syms = UnitRows::resolve(units, instance.skeleton().interner());
    let rows = UnitRows::with_syms(units, syms.as_deref(), instance.skeleton().interner());
    compute_peers_streamed_rows(base, ext, treatment_attr, rows, units.into())
}

/// [`compute_peers_streamed`] over units with their row addressing;
/// `shared` is the unit list `units` names, kept by the returned map.
pub(crate) fn compute_peers_streamed_rows(
    base: &StreamedModel,
    ext: &AggregateExtension,
    treatment_attr: &str,
    units: UnitRows<'_>,
    shared: Arc<[UnitKey]>,
) -> PeerMap {
    let graph = &base.graph;
    let n = graph.node_count();

    // Source node id → rows of the units whose (virtual) response group it
    // feeds, as CSR: `fed[feed_start[s]..feed_start[s + 1]]`. A source can
    // feed several groups.
    let groups = ext.unit_groups(units);
    let mut feed_start: Vec<u32> = vec![0; n + 1];
    for &group in groups.iter().flatten() {
        for &sid in ext.sources_of(group) {
            feed_start[sid.index() + 1] += 1;
        }
    }
    for s in 1..=n {
        feed_start[s] += feed_start[s - 1];
    }
    let mut fed: Vec<u32> = vec![0; feed_start[n] as usize];
    let mut fill = feed_start.clone();
    for (ui, group) in groups.iter().enumerate() {
        for &sid in group.map_or(&[][..], |g| ext.sources_of(g)) {
            let slot = &mut fill[sid.index()];
            fed[*slot as usize] = row(ui);
            *slot += 1;
        }
    }

    // Epoch-stamped DFS per unit, as in `compute_peers`; response hits are
    // deduplicated per unit with a second stamp array (a group has several
    // sources, but `x` must become a peer of `p` only once).
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); units.len()];
    let mut stamps: Vec<u32> = vec![0; n];
    let mut unit_stamps: Vec<u32> = vec![0; units.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (pi, tid) in treatment_nodes(base, treatment_attr, units) {
        let epoch = pi + 1;
        let mark = |node: usize, unit_stamps: &mut Vec<u32>, lists: &mut Vec<Vec<u32>>| {
            for &ui in &fed[feed_start[node] as usize..feed_start[node + 1] as usize] {
                if ui != pi && unit_stamps[ui as usize] != epoch {
                    unit_stamps[ui as usize] = epoch;
                    lists[ui as usize].push(pi);
                }
            }
        };
        stamps[tid] = epoch;
        // The start node may itself be a source (a materialised grounding
        // would have the aggregate vertex as its direct child).
        mark(tid, &mut unit_stamps, &mut lists);
        stack.push(tid);
        while let Some(node) = stack.pop() {
            for &child in graph.children_of(node) {
                if stamps[child] == epoch {
                    continue;
                }
                stamps[child] = epoch;
                stack.push(child);
                mark(child, &mut unit_stamps, &mut lists);
            }
        }
    }

    PeerMap::from_lists(shared, lists)
}

/// Summary statistics about a peer map (used in answers and reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerStats {
    /// Number of units considered.
    pub n_units: usize,
    /// Units with at least one relational peer.
    pub n_with_peers: usize,
    /// Mean number of peers per unit.
    pub mean_peers: f64,
    /// Maximum number of peers over all units.
    pub max_peers: usize,
}

/// Compute summary statistics of a peer map.
pub fn peer_stats(peers: &PeerMap) -> PeerStats {
    let n_units = peers.len();
    let n_with_peers = peers.values().filter(|p| !p.is_empty()).count();
    let total: usize = peers.values().map(Vec::len).sum();
    let max_peers = peers.values().map(Vec::len).max().unwrap_or(0);
    PeerStats {
        n_units,
        n_with_peers,
        mean_peers: if n_units == 0 {
            0.0
        } else {
            total as f64 / n_units as f64
        },
        max_peers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{ground, GroundedModel};
    use crate::model::RelationalCausalModel;
    use carl_lang::parse_program;
    use reldb::{Instance, RelationalSchema, Value};

    fn grounded_review() -> (GroundedModel, Instance) {
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
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        (grounded, instance)
    }

    /// The peers of `who`, as first key components.
    fn peer_names(peers: &PeerMap, who: &str) -> Vec<String> {
        peers
            .get(&vec![Value::from(who)])
            .expect("a unit")
            .map(|p| p[0].to_string())
            .collect()
    }

    #[test]
    fn peers_match_the_paper_example() {
        let (grounded, _) = grounded_review();
        let units: Vec<UnitKey> = ["Bob", "Carlos", "Eva"]
            .iter()
            .map(|p| vec![Value::from(*p)])
            .collect();
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        // Section 4.3: P("Bob") = {"Eva"}, P("Eva") = {"Bob", "Carlos"}.
        assert_eq!(peer_names(&peers, "Bob"), ["Eva"]);
        assert_eq!(peer_names(&peers, "Eva"), ["Bob", "Carlos"]);
        // Carlos co-authors s3 with Eva, so P("Carlos") = {"Eva"}.
        assert_eq!(peer_names(&peers, "Carlos"), ["Eva"]);
        // Rows index the unit slice the map was built from.
        assert_eq!(peers.units(), units.as_slice());
        assert_eq!(peers.peers_of(2), [0, 1]);
        assert!(peers.get(&vec![Value::from("Nobody")]).is_none());
    }

    #[test]
    fn peer_lists_follow_key_order_not_row_order() {
        let (grounded, _) = grounded_review();
        // Eva first, Carlos before Bob: rows are not in key order.
        let units: Vec<UnitKey> = ["Eva", "Carlos", "Bob"]
            .iter()
            .map(|p| vec![Value::from(*p)])
            .collect();
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        assert_eq!(peer_names(&peers, "Eva"), ["Bob", "Carlos"]);
        assert_eq!(peers.peers_of(0), [2, 1]);
    }

    #[test]
    fn peer_stats_summary() {
        let (grounded, _) = grounded_review();
        let units: Vec<UnitKey> = ["Bob", "Carlos", "Eva"]
            .iter()
            .map(|p| vec![Value::from(*p)])
            .collect();
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        let stats = peer_stats(&peers);
        assert_eq!(stats.n_units, 3);
        assert_eq!(stats.n_with_peers, 3);
        assert_eq!(stats.max_peers, 2);
        assert!((stats.mean_peers - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn units_without_graph_nodes_have_no_peers() {
        let (grounded, _) = grounded_review();
        let units: Vec<UnitKey> = vec![vec![Value::from("Ghost")]];
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        assert_eq!(peers.get(&vec![Value::from("Ghost")]).unwrap().count(), 0);
    }

    #[test]
    fn no_interference_means_empty_peer_sets() {
        // Patients in the MIMIC-style model do not interfere: every patient's
        // peer set is empty (the SUTVA special case, footnote 8).
        use reldb::DomainType;
        let mut schema = RelationalSchema::new();
        schema.add_entity("Patient").unwrap();
        schema
            .add_attribute("SelfPay", "Patient", DomainType::Bool, true)
            .unwrap();
        schema
            .add_attribute("Death", "Patient", DomainType::Float, true)
            .unwrap();
        let mut instance = Instance::new(schema.clone());
        for i in 0..3 {
            let k = Value::from(format!("p{i}"));
            instance.add_entity("Patient", k.clone()).unwrap();
            instance
                .set_attribute("SelfPay", std::slice::from_ref(&k), Value::Bool(i % 2 == 0))
                .unwrap();
            instance
                .set_attribute("Death", &[k], Value::Float(0.0))
                .unwrap();
        }
        let program = parse_program("Death[P] <= SelfPay[P]").unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let grounded = ground(&model, &instance).unwrap();
        let units: Vec<UnitKey> = (0..3).map(|i| vec![Value::from(format!("p{i}"))]).collect();
        let peers = compute_peers(&grounded, "SelfPay", "Death", &units);
        assert!(peers.values().all(Vec::is_empty));
        let stats = peer_stats(&peers);
        assert_eq!(stats.n_with_peers, 0);
        assert_eq!(stats.mean_peers, 0.0);
    }
}
