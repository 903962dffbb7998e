//! The legacy **row-oriented, key-addressed** data path, retained as the
//! reference implementation for the differential test harness.
//!
//! The production data path ([`crate::peers`], [`crate::adjust`],
//! [`crate::unit_table`], [`crate::query`]) is dense and columnar: peers and
//! covariates addressed by unit row index, contiguous `f64` columns,
//! zero-copy slices into the estimators. This module preserves the seed's
//! semantics with none of that machinery — peers in a
//! `HashMap<UnitKey, Vec<UnitKey>>` ([`compute_peers_rowwise`]),
//! covariates in per-unit
//! `String`-keyed maps ([`covariates_rowwise`]), a [`reldb::Table`] of
//! [`Value`]s built row by row, per-row feature extraction, matrices
//! assembled from row vectors — so that `tests/columnar_vs_rowwise.rs` and
//! `tests/streaming_vs_materialized.rs` can run every query through **both**
//! paths and assert bit-identical results, in the spirit of checking a
//! compact indexed representation against a reference semantics.
//!
//! Nothing in the production code calls into this module; the only entry
//! points are the functions here and the
//! `CarlEngine::{prepare_rowwise, answer_rowwise}` façade methods (which
//! also bypass the grounding cache, so a cache bug cannot mask itself by
//! affecting both paths).

use crate::embed::EmbeddingKind;
use crate::error::{CarlError, CarlResult};
use crate::estimate::{AteAnswer, EstimatorKind, PeerEffectAnswer};
use crate::graph::GroundedAttr;
use crate::ground::{GroundedModel, GroundedValues};
use crate::model::RelationalCausalModel;
use crate::query::regime_fraction;
use crate::unit_table::render_unit;
use carl_lang::PeerCondition;
use carl_stats::{estimate_ate as stats_ate, AteMethod, Matrix, OlsFit};
use reldb::{Instance, Table, UnitKey, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The reference peer map: for each unit key, the keys of its relational
/// peers in key order.
pub type RowPeerMap = HashMap<UnitKey, Vec<UnitKey>>;

/// The reference form of [`crate::peers::compute_peers`]: the relational
/// peers of every unit, keyed by unit.
///
/// `units` are the (unified) treated/response units; `treatment_attr` and
/// `response_attr` name the grounded attribute families. A unit `p` is a
/// peer of `x ≠ p` iff there is a directed path from `T[p]` to `Y[x]`.
pub fn compute_peers_rowwise<G: GroundedValues>(
    grounded: &G,
    treatment_attr: &str,
    response_attr: &str,
    units: &[UnitKey],
) -> RowPeerMap {
    let graph = grounded.graph();
    let n = graph.node_count();

    // Dense response lookup: node id → unit index (usize::MAX = not a
    // response node of any unit). Each unit has at most one response node
    // (grounded attributes are unique), so no per-hit dedup is needed.
    let unit_index: HashMap<&UnitKey, usize> =
        units.iter().enumerate().map(|(i, u)| (u, i)).collect();
    let mut response_of: Vec<usize> = vec![usize::MAX; n];
    for rid in graph.nodes_of_attr(response_attr) {
        if let Some(&ui) = unit_index.get(&graph.node(rid).key) {
            response_of[rid] = ui;
        }
    }

    // For each unit p, walk the descendants of T[p]; any response node
    // reached belongs to some unit x, and p becomes a peer of x. The DFS
    // reuses one epoch-stamped visited buffer and one stack across units —
    // no per-unit set allocation, no hashing.
    let mut peer_idx: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    let mut stamps: Vec<u32> = vec![0; n];
    let mut stack: Vec<usize> = Vec::new();
    for (pi, p) in units.iter().enumerate() {
        // The graph's node lookup, by attribute id and key signature.
        let Some(tid) = grounded.node_of(treatment_attr, p) else {
            continue;
        };
        let epoch = u32::try_from(pi).expect("more than u32::MAX units") + 1;
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
                if x != usize::MAX && x != pi {
                    peer_idx[x].push(pi);
                }
            }
        }
    }

    // Materialise unit keys and sort for deterministic, reproducible order.
    units
        .iter()
        .zip(peer_idx)
        .map(|(unit, idx)| {
            let mut list: Vec<UnitKey> = idx.into_iter().map(|pi| units[pi].clone()).collect();
            list.sort();
            (unit.clone(), list)
        })
        .collect()
}

/// The covariate values collected for one unit, grouped by attribute name.
#[derive(Debug, Clone, Default)]
pub struct UnitCovariates {
    /// Observed parents of the unit's own treatment, by attribute.
    pub own: BTreeMap<String, Vec<f64>>,
    /// Observed parents of the peers' treatments, by attribute.
    pub peer: BTreeMap<String, Vec<f64>>,
}

/// The reference form of [`crate::adjust::AdjustmentPlan`]: which covariate attributes
/// appear (so the unit table has a consistent column set) and the per-unit
/// values.
#[derive(Debug, Clone, Default)]
pub struct RowAdjustmentPlan {
    /// Attribute names of own covariates, sorted.
    pub own_attributes: Vec<String>,
    /// Attribute names of peer covariates, sorted.
    pub peer_attributes: Vec<String>,
    /// Per-unit covariate values.
    pub per_unit: BTreeMap<UnitKey, UnitCovariates>,
}

/// The reference form of [`crate::adjust::covariates`]: the adjustment plan
/// for all `units`, given the keyed peer map.
///
/// Only *observed* attributes (per the model) are eligible covariates, as
/// required by Theorem 5.2 (`Z` ranges over groundings of `A_Obs`).
/// The treatment attribute itself is never a covariate.
pub fn covariates_rowwise<G: GroundedValues>(
    model: &RelationalCausalModel,
    grounded: &G,
    instance: &Instance,
    treatment_attr: &str,
    units: &[UnitKey],
    peers: &RowPeerMap,
) -> RowAdjustmentPlan {
    let graph = grounded.graph();
    let mut plan = RowAdjustmentPlan::default();
    let mut own_attrs: BTreeSet<String> = BTreeSet::new();
    let mut peer_attrs: BTreeSet<String> = BTreeSet::new();

    // The observed parents of one unit's treatment node, in graph parent
    // order. Computed once per unit: a unit's list is reused for its own
    // covariates and for every unit it is a peer of.
    let mut lookup = GroundedAttr::new(treatment_attr, Vec::new());
    let parents_of = |lookup: &mut GroundedAttr, unit: &UnitKey| -> Vec<(String, f64)> {
        lookup.key.clear();
        lookup.key.extend_from_slice(unit);
        let Some(id) = graph.node_id(lookup) else {
            return Vec::new();
        };
        graph
            .parents_of(id)
            .iter()
            .filter_map(|&pid| {
                let parent = graph.node(pid);
                if parent.attr == treatment_attr || !model.is_observed(&parent.attr) {
                    return None;
                }
                grounded
                    .value_of(instance, &parent)
                    .map(|v| (parent.attr.clone(), v))
            })
            .collect()
    };
    let unit_index: std::collections::HashMap<&UnitKey, usize> =
        units.iter().enumerate().map(|(i, u)| (u, i)).collect();
    let memo: Vec<Vec<(String, f64)>> = units.iter().map(|u| parents_of(&mut lookup, u)).collect();
    let append = |list: &[(String, f64)],
                  out: &mut BTreeMap<String, Vec<f64>>,
                  attrs: &mut BTreeSet<String>| {
        for (attr, v) in list {
            out.entry(attr.clone()).or_default().push(*v);
            if !attrs.contains(attr) {
                attrs.insert(attr.clone());
            }
        }
    };

    for (i, unit) in units.iter().enumerate() {
        let mut cov = UnitCovariates::default();
        append(&memo[i], &mut cov.own, &mut own_attrs);
        if let Some(unit_peers) = peers.get(unit) {
            for p in unit_peers {
                match unit_index.get(p) {
                    // Peers are normally units themselves: reuse the memo.
                    Some(&pi) => append(&memo[pi], &mut cov.peer, &mut peer_attrs),
                    None => {
                        let list = parents_of(&mut lookup, p);
                        append(&list, &mut cov.peer, &mut peer_attrs);
                    }
                }
            }
        }
        plan.per_unit.insert(unit.clone(), cov);
    }
    plan.own_attributes = own_attrs.into_iter().collect();
    plan.peer_attributes = peer_attrs.into_iter().collect();
    plan
}

/// Inputs to [`build_row_unit_table`]: the reference counterpart of
/// [`crate::unit_table::UnitTableSpec`], holding the keyed peer map and
/// adjustment plan.
pub struct RowUnitTableSpec<'a, G: GroundedValues = GroundedModel> {
    /// The grounded model (graph + derived aggregate values).
    pub grounded: &'a G,
    /// The observed instance.
    pub instance: &'a Instance,
    /// Treatment attribute name.
    pub treatment_attr: &'a str,
    /// (Unified) response attribute name.
    pub response_attr: &'a str,
    /// Units of analysis (unified treated/response units).
    pub units: &'a [UnitKey],
    /// Relational peers of each unit.
    pub peers: &'a RowPeerMap,
    /// Covariates selected by Theorem 5.2.
    pub adjustment: &'a RowAdjustmentPlan,
    /// Embedding strategy.
    pub embedding: EmbeddingKind,
    /// Optional restriction of the units included.
    pub allowed_units: Option<&'a HashSet<UnitKey>>,
}

/// The legacy unit table: a row-built [`reldb::Table`] of values plus the
/// column metadata, exactly as the seed defined it.
#[derive(Debug, Clone)]
pub struct RowUnitTable {
    /// The flat table: first column is the unit key rendering, then the
    /// outcome, treatment, peer-treatment embedding and covariates.
    pub table: Table,
    /// Unit keys, aligned with table rows.
    pub units: Vec<UnitKey>,
    /// Name of the outcome column.
    pub outcome_col: String,
    /// Name of the (own) treatment column.
    pub treatment_col: String,
    /// Names of the peer-treatment embedding columns.
    pub peer_treatment_cols: Vec<String>,
    /// Names of all covariate columns (own + peer embeddings).
    pub covariate_cols: Vec<String>,
    /// Number of relational peers per row.
    pub peer_counts: Vec<usize>,
    /// The embedding used for peer treatments and covariates.
    pub embedding: EmbeddingKind,
}

impl RowUnitTable {
    /// Outcome column as floats (per-row extraction, as the seed did).
    pub fn outcomes(&self) -> Vec<f64> {
        self.table
            .column_f64(&self.outcome_col)
            .expect("outcome column exists")
    }

    /// Treatment column as floats (0/1).
    pub fn treatments(&self) -> Vec<f64> {
        self.table
            .column_f64(&self.treatment_col)
            .expect("treatment column exists")
    }

    /// Covariate matrix rows (peer-treatment columns excluded).
    pub fn covariate_rows(&self) -> Vec<Vec<f64>> {
        self.matrix_of(&self.covariate_cols)
    }

    /// Peer-treatment embedding rows.
    pub fn peer_treatment_rows(&self) -> Vec<Vec<f64>> {
        self.matrix_of(&self.peer_treatment_cols)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.row_count()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn matrix_of(&self, cols: &[String]) -> Vec<Vec<f64>> {
        let columns: Vec<Vec<f64>> = cols
            .iter()
            .map(|c| self.table.column_f64(c).expect("column exists"))
            .collect();
        (0..self.len())
            .map(|i| columns.iter().map(|c| c[i]).collect())
            .collect()
    }
}

/// Algorithm 1 in its original row-oriented form: every unit becomes a
/// `Vec<Value>` row pushed into a [`reldb::Table`].
pub fn build_row_unit_table<G: GroundedValues>(
    spec: &RowUnitTableSpec<'_, G>,
) -> CarlResult<RowUnitTable> {
    let embedding = spec.embedding;
    let peer_treatment_cols = embedding.column_names("peer_treatment");
    let own_cov_cols: Vec<(String, Vec<String>)> = spec
        .adjustment
        .own_attributes
        .iter()
        .map(|a| (a.clone(), embedding.column_names(&format!("own_{a}"))))
        .collect();
    let peer_cov_cols: Vec<(String, Vec<String>)> = spec
        .adjustment
        .peer_attributes
        .iter()
        .map(|a| (a.clone(), embedding.column_names(&format!("peer_{a}"))))
        .collect();

    // Assemble the full column list.
    let mut column_names: Vec<String> = vec!["unit".into(), "outcome".into(), "treatment".into()];
    let any_peers = spec.peers.values().any(|p| !p.is_empty());
    if any_peers {
        column_names.extend(peer_treatment_cols.iter().cloned());
    }
    for (_, cols) in &own_cov_cols {
        column_names.extend(cols.iter().cloned());
    }
    for (_, cols) in &peer_cov_cols {
        column_names.extend(cols.iter().cloned());
    }
    let mut table =
        Table::with_columns(&column_names.iter().map(String::as_str).collect::<Vec<_>>());

    let mut units_out = Vec::new();
    let mut peer_counts = Vec::new();
    for unit in spec.units {
        if let Some(allowed) = spec.allowed_units {
            if !allowed.contains(unit) {
                continue;
            }
        }
        let outcome_node = GroundedAttr::new(spec.response_attr, unit.clone());
        let Some(outcome) = spec.grounded.value_of(spec.instance, &outcome_node) else {
            continue;
        };
        let Some(treatment_value) = spec.instance.attribute(spec.treatment_attr, unit) else {
            continue;
        };
        let Some(treated) = treatment_value.as_bool() else {
            return Err(CarlError::NonBinaryTreatment(
                spec.treatment_attr.to_string(),
            ));
        };

        let unit_peers: &[UnitKey] = spec.peers.get(unit).map(|v| v.as_slice()).unwrap_or(&[]);
        let peer_treatments: Vec<f64> = unit_peers
            .iter()
            .filter_map(|p| {
                spec.instance
                    .attribute(spec.treatment_attr, p)
                    .and_then(Value::as_bool)
                    .map(|b| if b { 1.0 } else { 0.0 })
            })
            .collect();

        let covariates = spec.adjustment.per_unit.get(unit);
        let mut row: Vec<Value> = vec![
            Value::Str(render_unit(unit)),
            Value::Float(outcome),
            Value::Float(if treated { 1.0 } else { 0.0 }),
        ];
        if any_peers {
            row.extend(
                embedding
                    .embed(&peer_treatments)
                    .into_iter()
                    .map(Value::Float),
            );
        }
        for (attr, _) in &own_cov_cols {
            let values = covariates
                .and_then(|c| c.own.get(attr))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            row.extend(embedding.embed(values).into_iter().map(Value::Float));
        }
        for (attr, _) in &peer_cov_cols {
            let values = covariates
                .and_then(|c| c.peer.get(attr))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            row.extend(embedding.embed(values).into_iter().map(Value::Float));
        }
        table.push_row(row).map_err(CarlError::Rel)?;
        units_out.push(unit.clone());
        peer_counts.push(peer_treatments.len());
    }

    if units_out.is_empty() {
        return Err(CarlError::EmptyUnitTable(format!(
            "no unit has both an observed `{}` treatment and a `{}` outcome",
            spec.treatment_attr, spec.response_attr
        )));
    }

    let mut covariate_cols = Vec::new();
    for (_, cols) in &own_cov_cols {
        covariate_cols.extend(cols.iter().cloned());
    }
    for (_, cols) in &peer_cov_cols {
        covariate_cols.extend(cols.iter().cloned());
    }

    Ok(RowUnitTable {
        table,
        units: units_out,
        outcome_col: "outcome".into(),
        treatment_col: "treatment".into(),
        peer_treatment_cols: if any_peers {
            peer_treatment_cols
        } else {
            Vec::new()
        },
        covariate_cols,
        peer_counts,
        embedding,
    })
}

/// The seed's fitted outcome model: per-row feature extraction, matrices
/// from row vectors, full matrix re-extraction on every prediction.
#[derive(Debug, Clone)]
struct RowFittedModel {
    fit: OlsFit,
    peer_dim: usize,
    kept: Vec<usize>,
}

impl RowFittedModel {
    fn full_features(
        ut: &RowUnitTable,
        peer_rows: &[Vec<f64>],
        cov_rows: &[Vec<f64>],
        row: usize,
        t: f64,
        peer_fraction: Option<f64>,
        peer_dim: usize,
    ) -> Vec<f64> {
        let mut features = Vec::with_capacity(1 + peer_dim + ut.covariate_cols.len());
        features.push(t);
        if peer_dim > 0 {
            match peer_fraction {
                Some(frac) => {
                    features.extend(ut.embedding.counterfactual(frac, ut.peer_counts[row]))
                }
                None => features.extend(&peer_rows[row]),
            }
        }
        if !ut.covariate_cols.is_empty() {
            features.extend(&cov_rows[row]);
        }
        features
    }

    fn fit(ut: &RowUnitTable) -> CarlResult<Self> {
        let outcomes = ut.outcomes();
        let treatments = ut.treatments();
        let peer_rows = ut.peer_treatment_rows();
        let cov_rows = ut.covariate_rows();
        let peer_dim = ut.peer_treatment_cols.len();
        let n = ut.len();
        let full: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                Self::full_features(ut, &peer_rows, &cov_rows, i, treatments[i], None, peer_dim)
            })
            .collect();
        let width = full.first().map_or(1, Vec::len);
        let kept: Vec<usize> = (0..width)
            .filter(|&j| j == 0 || full.iter().any(|r| (r[j] - full[0][j]).abs() > 1e-12))
            .collect();
        let rows: Vec<Vec<f64>> = full
            .iter()
            .map(|r| kept.iter().map(|&j| r[j]).collect())
            .collect();
        let design = Matrix::from_rows(&rows).map_err(CarlError::Stats)?;
        let fit = OlsFit::fit_with_intercept(&design, &outcomes).map_err(CarlError::Stats)?;
        Ok(Self {
            fit,
            peer_dim,
            kept,
        })
    }

    fn predict(
        &self,
        ut: &RowUnitTable,
        row: usize,
        t: f64,
        peer_fraction: Option<f64>,
    ) -> CarlResult<f64> {
        let peer_rows = ut.peer_treatment_rows();
        let cov_rows = ut.covariate_rows();
        let full = Self::full_features(
            ut,
            &peer_rows,
            &cov_rows,
            row,
            t,
            peer_fraction,
            self.peer_dim,
        );
        let features: Vec<f64> = self.kept.iter().map(|&j| full[j]).collect();
        self.fit.predict(&features).map_err(CarlError::Stats)
    }
}

/// Map an engine estimator to the statistics crate's ATE method (seed copy).
fn ate_method(estimator: EstimatorKind) -> AteMethod {
    match estimator {
        EstimatorKind::Regression => AteMethod::RegressionAdjustment,
        EstimatorKind::PropensityMatching => AteMethod::PropensityMatching,
        EstimatorKind::Subclassification => AteMethod::Subclassification(10),
        EstimatorKind::Ipw => AteMethod::Ipw,
        EstimatorKind::Naive => AteMethod::NaiveDifference,
    }
}

/// The seed's ATE estimation over a row unit table.
pub fn estimate_ate_rowwise(ut: &RowUnitTable, estimator: EstimatorKind) -> CarlResult<AteAnswer> {
    let outcomes = ut.outcomes();
    let treatments = ut.treatments();

    let naive = stats_ate(
        &outcomes,
        &treatments,
        &Matrix::zeros(ut.len(), 0),
        AteMethod::NaiveDifference,
    )
    .map_err(CarlError::Stats)?;

    let ate = match estimator {
        EstimatorKind::Naive => naive.ate,
        EstimatorKind::Regression => {
            let model = RowFittedModel::fit(ut)?;
            let mut total = 0.0;
            for i in 0..ut.len() {
                let treated = model.predict(ut, i, 1.0, Some(1.0))?;
                let control = model.predict(ut, i, 0.0, Some(0.0))?;
                total += treated - control;
            }
            total / ut.len() as f64
        }
        EstimatorKind::PropensityMatching
        | EstimatorKind::Subclassification
        | EstimatorKind::Ipw => {
            let peer_rows = ut.peer_treatment_rows();
            let cov_rows = ut.covariate_rows();
            let rows: Vec<Vec<f64>> = (0..ut.len())
                .map(|i| {
                    let mut r = Vec::new();
                    if !ut.peer_treatment_cols.is_empty() {
                        r.extend(&peer_rows[i]);
                    }
                    r.extend(&cov_rows[i]);
                    r
                })
                .collect();
            let covs = Matrix::from_rows(&rows).map_err(CarlError::Stats)?;
            stats_ate(&outcomes, &treatments, &covs, ate_method(estimator))
                .map_err(CarlError::Stats)?
                .ate
        }
    };

    Ok(AteAnswer {
        ate,
        naive_difference: naive.naive_difference,
        treated_mean: naive.treated_mean,
        control_mean: naive.control_mean,
        correlation: naive.correlation,
        n_treated: naive.n_treated,
        n_control: naive.n_control,
        n_units: ut.len(),
        estimator,
        response_attribute: String::new(),
        treatment_attribute: String::new(),
    })
}

/// The seed's peer-effects estimation over a row unit table.
pub fn estimate_peer_effects_rowwise(
    ut: &RowUnitTable,
    regime: &PeerCondition,
    peers: &RowPeerMap,
    estimator: EstimatorKind,
) -> CarlResult<PeerEffectAnswer> {
    if ut.peer_treatment_cols.is_empty() {
        return Err(CarlError::InvalidQuery(
            "peer-effects query on a model where no unit has relational peers; \
             the relational causal model induces no interference"
                .to_string(),
        ));
    }
    let outcomes = ut.outcomes();
    let treatments = ut.treatments();
    let naive = stats_ate(
        &outcomes,
        &treatments,
        &Matrix::zeros(ut.len(), 0),
        AteMethod::NaiveDifference,
    )
    .map_err(CarlError::Stats)?;

    let model = RowFittedModel::fit(ut)?;
    let mut aie = 0.0;
    let mut are = 0.0;
    let mut aoe = 0.0;
    for i in 0..ut.len() {
        let frac = regime_fraction(regime, ut.peer_counts[i]);
        let y_t1_peers = model.predict(ut, i, 1.0, Some(frac))?;
        let y_t0_peers = model.predict(ut, i, 0.0, Some(frac))?;
        let y_t0_none = model.predict(ut, i, 0.0, Some(0.0))?;
        aie += y_t1_peers - y_t0_peers;
        are += y_t0_peers - y_t0_none;
        aoe += y_t1_peers - y_t0_none;
    }
    let n = ut.len() as f64;
    let n_with_peers = peers.values().filter(|p| !p.is_empty()).count();
    let total_peers: usize = peers.values().map(Vec::len).sum();
    let mean_peer_count = if peers.is_empty() {
        0.0
    } else {
        total_peers as f64 / peers.len() as f64
    };

    Ok(PeerEffectAnswer {
        aie: aie / n,
        are: are / n,
        aoe: aoe / n,
        naive_difference: naive.naive_difference,
        correlation: naive.correlation,
        n_units: ut.len(),
        n_units_with_peers: n_with_peers,
        mean_peer_count,
        estimator,
        peer_regime: regime.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use carl_lang::parse_program;
    use reldb::RelationalSchema;

    #[test]
    fn row_unit_table_matches_table_1() {
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
        let units: Vec<UnitKey> = ["Bob", "Carlos", "Eva"]
            .iter()
            .map(|p| vec![Value::from(*p)])
            .collect();
        let peers = compute_peers_rowwise(&grounded, "Prestige", "AVG_Score", &units);
        let adjustment =
            covariates_rowwise(&model, &grounded, &instance, "Prestige", &units, &peers);
        let ut = build_row_unit_table(&RowUnitTableSpec {
            grounded: &grounded,
            instance: &instance,
            treatment_attr: "Prestige",
            response_attr: "AVG_Score",
            units: &units,
            peers: &peers,
            adjustment: &adjustment,
            embedding: EmbeddingKind::Mean,
            allowed_units: None,
        })
        .unwrap();
        assert_eq!(ut.len(), 3);
        assert!(!ut.is_empty());
        assert_eq!(ut.table.column_names()[0], "unit");
        let row = |who: &str| {
            ut.units
                .iter()
                .position(|u| u == &vec![Value::from(who)])
                .unwrap()
        };
        assert!((ut.outcomes()[row("Bob")] - 0.75).abs() < 1e-12);
        assert_eq!(ut.peer_treatment_rows()[row("Eva")], vec![0.5, 2.0]);
        assert_eq!(ut.covariate_rows().len(), 3);
    }
}
