//! Estimation of causal queries from a unit table (Sections 4.4 and 5.2).
//!
//! Once the unit table is built, the relational adjustment formula (Eq 33)
//! reduces to fitting a conditional-expectation model of the outcome given
//! the (embedded) treatments and covariates, and evaluating it under the
//! counterfactual treatment regimes the query asks about:
//!
//! * **ATE** (Eq 23): every unit and all of its peers treated vs none.
//! * **AIE / ARE / AOE** (Eqs 24–26): own treatment and peer regime varied
//!   separately; the decomposition AOE = AIE + ARE (Proposition 4.1) holds
//!   by construction for the regression estimator.
//!
//! Matching, subclassification and IPW estimators are also available for
//! ATE-style queries (they adjust for the same covariates but do not model
//! peer interventions explicitly).

use crate::error::{CarlError, CarlResult};
use crate::estimate::{AteAnswer, CateSeries, EstimatorKind, PeerEffectAnswer};
use crate::peers::PeerMap;
use crate::unit_table::UnitTable;
use carl_lang::PeerCondition;
use carl_stats::descriptive::quantile;
use carl_stats::{
    estimate_ate as stats_ate, estimate_ate_cols as stats_ate_cols, AteMethod, BootstrapSummary,
    Matrix, OlsFit,
};

/// Map an engine estimator to the statistics crate's ATE method.
fn ate_method(estimator: EstimatorKind) -> AteMethod {
    match estimator {
        EstimatorKind::Regression => AteMethod::RegressionAdjustment,
        EstimatorKind::PropensityMatching => AteMethod::PropensityMatching,
        EstimatorKind::Subclassification => AteMethod::Subclassification(10),
        EstimatorKind::Ipw => AteMethod::Ipw,
        EstimatorKind::Naive => AteMethod::NaiveDifference,
    }
}

/// The fitted conditional-expectation model over a unit table, together
/// with the column layout needed to evaluate counterfactual regimes.
///
/// Constant (zero-variance) feature columns — e.g. the `count` coordinate of
/// an embedding when every unit has exactly one parent — are dropped before
/// fitting: they are collinear with the intercept, carry no information, and
/// would otherwise make the normal equations numerically singular.
#[derive(Debug, Clone)]
pub struct FittedOutcomeModel {
    fit: OlsFit,
    peer_dim: usize,
    /// Indices (into the full `[T, ψ_T, Ψ_Z]` feature vector) kept for fitting.
    kept: Vec<usize>,
}

impl FittedOutcomeModel {
    /// Fit the outcome regression `Y ~ T + ψ_T(peers) + Ψ_Z` directly from
    /// the unit table's column slices (no per-row feature extraction).
    pub fn fit(ut: &UnitTable) -> CarlResult<Self> {
        let outcomes = ut.outcomes();
        let treatments = ut.treatments();
        let peer_cols = ut.peer_treatment_columns();
        let cov_cols = ut.covariate_columns();
        let peer_dim = peer_cols.len();
        // Full feature columns `[T, ψ_T…, Ψ_Z…]`, borrowed zero-copy.
        let mut full: Vec<&[f64]> = Vec::with_capacity(1 + peer_dim + cov_cols.len());
        full.push(treatments);
        full.extend(peer_cols.iter().copied());
        full.extend(cov_cols.iter().copied());
        // Keep the treatment column (index 0) unconditionally; drop any other
        // column that is constant across all rows.
        let kept: Vec<usize> = (0..full.len())
            .filter(|&j| {
                j == 0 || {
                    let col = full[j];
                    col.iter().any(|&v| (v - col[0]).abs() > 1e-12)
                }
            })
            .collect();
        let design_cols: Vec<&[f64]> = kept.iter().map(|&j| full[j]).collect();
        let fit =
            OlsFit::fit_with_intercept_cols(&design_cols, outcomes).map_err(CarlError::Stats)?;
        Ok(Self {
            fit,
            peer_dim,
            kept,
        })
    }

    /// Assemble the full feature vector of a row from borrowed columns,
    /// optionally overriding the own treatment and peer-treatment regime.
    fn full_features_at(
        &self,
        ut: &UnitTable,
        peer_cols: &[&[f64]],
        cov_cols: &[&[f64]],
        row: usize,
        t: f64,
        peer_fraction: Option<f64>,
    ) -> Vec<f64> {
        let mut features = Vec::with_capacity(1 + self.peer_dim + cov_cols.len());
        features.push(t);
        if self.peer_dim > 0 {
            match peer_fraction {
                Some(frac) => {
                    features.extend(ut.embedding.counterfactual(frac, ut.peer_counts[row]))
                }
                None => features.extend(peer_cols.iter().map(|c| c[row])),
            }
        }
        features.extend(cov_cols.iter().map(|c| c[row]));
        features
    }

    /// Predict with pre-resolved column slices — the hot path used by the
    /// estimation loops, which resolve the columns once instead of per call.
    fn predict_with(
        &self,
        ut: &UnitTable,
        peer_cols: &[&[f64]],
        cov_cols: &[&[f64]],
        row: usize,
        t: f64,
        peer_fraction: Option<f64>,
    ) -> CarlResult<f64> {
        let full = self.full_features_at(ut, peer_cols, cov_cols, row, t, peer_fraction);
        let features: Vec<f64> = self.kept.iter().map(|&j| full[j]).collect();
        self.fit.predict(&features).map_err(CarlError::Stats)
    }

    /// Predict the outcome of row `i` of `ut` under a counterfactual own
    /// treatment `t` and (optionally) a counterfactual fraction of treated
    /// peers. `None` keeps the observed peer treatments.
    pub fn predict(
        &self,
        ut: &UnitTable,
        row: usize,
        t: f64,
        peer_fraction: Option<f64>,
    ) -> CarlResult<f64> {
        let peer_cols = ut.peer_treatment_columns();
        let cov_cols = ut.covariate_columns();
        self.predict_with(ut, &peer_cols, &cov_cols, row, t, peer_fraction)
    }

    /// R² of the fitted outcome model.
    pub fn r_squared(&self) -> f64 {
        self.fit.r_squared
    }
}

/// The adjustment columns of a unit table — peer-treatment embedding first
/// (when any unit has peers), then covariates — as zero-copy slices.
fn adjustment_columns(ut: &UnitTable) -> Vec<&[f64]> {
    let mut cols: Vec<&[f64]> = Vec::new();
    if !ut.peer_treatment_cols.is_empty() {
        cols.extend(ut.peer_treatment_columns());
    }
    cols.extend(ut.covariate_columns());
    cols
}

/// Estimate an ATE-style query (Eq 23) from a unit table.
pub fn estimate_ate(ut: &UnitTable, estimator: EstimatorKind) -> CarlResult<AteAnswer> {
    let outcomes = ut.outcomes();
    let treatments = ut.treatments();

    // Naive contrast (difference of means, correlation) is always computed.
    let naive = stats_ate(
        outcomes,
        treatments,
        &Matrix::zeros(ut.len(), 0),
        AteMethod::NaiveDifference,
    )
    .map_err(CarlError::Stats)?;

    let ate = match estimator {
        EstimatorKind::Naive => naive.ate,
        EstimatorKind::Regression => {
            let model = FittedOutcomeModel::fit(ut)?;
            let peer_cols = ut.peer_treatment_columns();
            let cov_cols = ut.covariate_columns();
            let mut total = 0.0;
            for i in 0..ut.len() {
                let treated = model.predict_with(ut, &peer_cols, &cov_cols, i, 1.0, Some(1.0))?;
                let control = model.predict_with(ut, &peer_cols, &cov_cols, i, 0.0, Some(0.0))?;
                total += treated - control;
            }
            total / ut.len() as f64
        }
        EstimatorKind::PropensityMatching
        | EstimatorKind::Subclassification
        | EstimatorKind::Ipw => {
            // Adjust for peer treatments and covariates via the chosen
            // design-based estimator (own-treatment effect), handing the
            // column slices straight to the stats layer.
            stats_ate_cols(
                outcomes,
                treatments,
                &adjustment_columns(ut),
                ate_method(estimator),
            )
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

/// The counterfactual fraction of treated peers encoded by a peer regime,
/// for a unit with `count` peers.
///
/// `ALL` → 1, `NONE` → 0. Threshold regimes are mapped to representative
/// points: `MORE THAN k%` uses the midpoint between the threshold and 1,
/// `LESS THAN k%` the midpoint between 0 and the threshold, and the count
/// regimes (`AT LEAST` / `AT MOST` / `EXACTLY` k) use `k / count` clamped to
/// `[0, 1]`. The paper's grammar (Eq 16) only fixes the *set* of admissible
/// peer assignments; a representative point is needed to evaluate Eq (22).
pub fn regime_fraction(regime: &PeerCondition, count: usize) -> f64 {
    match regime {
        PeerCondition::All => 1.0,
        PeerCondition::None => 0.0,
        PeerCondition::MoreThanPercent(k) => {
            let k = (k / 100.0).clamp(0.0, 1.0);
            (k + 1.0) / 2.0
        }
        PeerCondition::LessThanPercent(k) => {
            let k = (k / 100.0).clamp(0.0, 1.0);
            k / 2.0
        }
        PeerCondition::AtLeast(k) | PeerCondition::AtMost(k) | PeerCondition::Exactly(k) => {
            if count == 0 {
                0.0
            } else {
                (*k as f64 / count as f64).clamp(0.0, 1.0)
            }
        }
    }
}

/// Estimate a relational/isolated/overall effects query (Eqs 24–26).
pub fn estimate_peer_effects(
    ut: &UnitTable,
    regime: &PeerCondition,
    peers: &PeerMap,
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
        outcomes,
        treatments,
        &Matrix::zeros(ut.len(), 0),
        AteMethod::NaiveDifference,
    )
    .map_err(CarlError::Stats)?;

    // Peer effects require an outcome model that can evaluate counterfactual
    // peer regimes; only the regression estimator supports this.
    let model = FittedOutcomeModel::fit(ut)?;
    let peer_cols = ut.peer_treatment_columns();
    let cov_cols = ut.covariate_columns();
    let mut aie = 0.0;
    let mut are = 0.0;
    let mut aoe = 0.0;
    for i in 0..ut.len() {
        let frac = regime_fraction(regime, ut.peer_counts[i]);
        let y_t1_peers = model.predict_with(ut, &peer_cols, &cov_cols, i, 1.0, Some(frac))?;
        let y_t0_peers = model.predict_with(ut, &peer_cols, &cov_cols, i, 0.0, Some(frac))?;
        let y_t0_none = model.predict_with(ut, &peer_cols, &cov_cols, i, 0.0, Some(0.0))?;
        aie += y_t1_peers - y_t0_peers;
        are += y_t0_peers - y_t0_none;
        aoe += y_t1_peers - y_t0_none;
    }
    let n = ut.len() as f64;
    let stats = crate::peers::peer_stats(peers);

    Ok(PeerEffectAnswer {
        aie: aie / n,
        are: are / n,
        aoe: aoe / n,
        naive_difference: naive.naive_difference,
        correlation: naive.correlation,
        n_units: ut.len(),
        n_units_with_peers: stats.n_with_peers,
        mean_peer_count: stats.mean_peers,
        estimator,
        peer_regime: regime.to_string(),
    })
}

/// How to stratify units when computing conditional ATEs (Figures 8 and 10).
#[derive(Debug, Clone)]
pub enum CateStratifier {
    /// Stratify by quantile bins of a unit-table column.
    ColumnQuantiles {
        /// Column to stratify on.
        column: String,
        /// Number of quantile bins.
        bins: usize,
    },
    /// Stratify by the number of relational peers (0, 1, 2, 3+…).
    PeerCount {
        /// Peer counts at or above this value are pooled into one stratum.
        cap: usize,
    },
}

/// Estimate conditional (per-stratum) ATEs.
///
/// Each stratum is estimated by regression adjustment on the rows it
/// contains and reports the conditional effect of the *unit's own*
/// treatment (peer treatments and covariates are adjusted for, not
/// intervened on), which is also what the universal-table baseline can
/// estimate — making the Figure 8 / Figure 10 comparison like-for-like.
/// Strata with fewer than `min_stratum` rows or a missing treatment arm
/// report `NaN`.
pub fn conditional_ate(
    ut: &UnitTable,
    stratifier: &CateStratifier,
    min_stratum: usize,
) -> CarlResult<CateSeries> {
    let (labels, assignment): (Vec<String>, Vec<usize>) = match stratifier {
        CateStratifier::ColumnQuantiles { column, bins } => {
            let values = ut.column(column)?;
            let bins = (*bins).max(1);
            let cuts: Vec<f64> = (1..bins)
                .map(|k| quantile(values, k as f64 / bins as f64))
                .collect();
            let assignment: Vec<usize> = values
                .iter()
                .map(|v| cuts.iter().filter(|&&c| *v > c).count())
                .collect();
            let labels = (0..bins).map(|b| format!("{column} q{}", b + 1)).collect();
            (labels, assignment)
        }
        CateStratifier::PeerCount { cap } => {
            let cap = (*cap).max(1);
            let assignment: Vec<usize> = ut.peer_counts.iter().map(|&c| c.min(cap)).collect();
            let labels = (0..=cap)
                .map(|c| {
                    if c == cap {
                        format!("{cap}+ peers")
                    } else {
                        format!("{c} peers")
                    }
                })
                .collect();
            (labels, assignment)
        }
    };

    let outcomes = ut.outcomes();
    let treatments = ut.treatments();
    let full_cols = adjustment_columns(ut);

    let mut strata = Vec::new();
    for (stratum, label) in labels.iter().enumerate() {
        let idx: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == stratum)
            .map(|(i, _)| i)
            .collect();
        let n = idx.len();
        if n < min_stratum {
            strata.push((label.clone(), f64::NAN, n));
            continue;
        }
        let y: Vec<f64> = idx.iter().map(|&i| outcomes[i]).collect();
        let t: Vec<f64> = idx.iter().map(|&i| treatments[i]).collect();
        // Gather the stratum's adjustment matrix column by column.
        let gathered: Vec<Vec<f64>> = full_cols
            .iter()
            .map(|col| idx.iter().map(|&i| col[i]).collect())
            .collect();
        let refs: Vec<&[f64]> = gathered.iter().map(Vec::as_slice).collect();
        match stats_ate_cols(&y, &t, &refs, AteMethod::RegressionAdjustment) {
            Ok(est) => strata.push((label.clone(), est.ate, n)),
            Err(_) => strata.push((label.clone(), f64::NAN, n)),
        }
    }
    Ok(CateSeries {
        stratified_by: match stratifier {
            CateStratifier::ColumnQuantiles { column, .. } => column.clone(),
            CateStratifier::PeerCount { .. } => "peer count".to_string(),
        },
        strata,
    })
}

/// Parallel nonparametric bootstrap of an ATE estimate over unit-table rows
/// (Figure 9 / Table 5 machinery): resample rows with replacement
/// `replicates` times, re-estimate on each resample, and summarise the
/// replicate distribution.
///
/// Replicates run in parallel through the rayon facade; every replicate
/// derives its own RNG stream from `seed`, so the result is deterministic
/// for a fixed seed **regardless of the worker-thread count**.
pub fn bootstrap_ate(
    ut: &UnitTable,
    estimator: EstimatorKind,
    replicates: usize,
    seed: u64,
) -> CarlResult<BootstrapSummary> {
    carl_stats::bootstrap_ci(ut.len(), replicates, seed, 0.95, |idx| {
        let resampled = ut.select_rows(idx).ok()?;
        estimate_ate(&resampled, estimator).ok().map(|a| a.ate)
    })
    .map_err(CarlError::Stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::covariates;
    use crate::embed::EmbeddingKind;
    use crate::ground::ground;
    use crate::model::RelationalCausalModel;
    use crate::peers::compute_peers;
    use crate::unit_table::{build_unit_table, UnitTableSpec};
    use carl_lang::parse_program;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reldb::{DomainType, Instance, RelationalSchema, UnitKey, Value};

    /// A synthetic collaboration instance with known isolated effect 1.0 and
    /// relational (peer) effect 0.5 on the outcome, plus a confounder.
    fn synthetic(n_people: usize, seed: u64) -> (RelationalCausalModel, Instance) {
        let mut schema = RelationalSchema::new();
        schema.add_entity("Person").unwrap();
        schema
            .add_relationship("Collab", &["Person", "Person"])
            .unwrap();
        schema
            .add_attribute("Talent", "Person", DomainType::Float, true)
            .unwrap();
        schema
            .add_attribute("Famous", "Person", DomainType::Bool, true)
            .unwrap();
        schema
            .add_attribute("Outcome", "Person", DomainType::Float, true)
            .unwrap();
        let mut instance = Instance::new(schema.clone());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut talents = Vec::new();
        let mut famous = Vec::new();
        for i in 0..n_people {
            let key = Value::from(format!("p{i}"));
            instance.add_entity("Person", key.clone()).unwrap();
            let talent: f64 = rng.gen();
            let is_famous = rng.gen::<f64>() < 0.2 + 0.6 * talent;
            talents.push(talent);
            famous.push(is_famous);
            instance
                .set_attribute("Talent", std::slice::from_ref(&key), Value::Float(talent))
                .unwrap();
            instance
                .set_attribute("Famous", &[key], Value::Bool(is_famous))
                .unwrap();
        }
        // Ring collaboration: i collaborates with i+1 (symmetric closure).
        let mut peer_of = vec![Vec::new(); n_people];
        for i in 0..n_people {
            let j = (i + 1) % n_people;
            instance
                .add_relationship(
                    "Collab",
                    vec![Value::from(format!("p{i}")), Value::from(format!("p{j}"))],
                )
                .unwrap();
            instance
                .add_relationship(
                    "Collab",
                    vec![Value::from(format!("p{j}")), Value::from(format!("p{i}"))],
                )
                .unwrap();
            peer_of[i].push(j);
            peer_of[j].push(i);
        }
        // Outcome = 1*Famous + 0.5*mean(peer Famous) + 2*Talent + noise.
        for i in 0..n_people {
            let peer_frac =
                peer_of[i].iter().filter(|&&j| famous[j]).count() as f64 / peer_of[i].len() as f64;
            let y = f64::from(famous[i])
                + 0.5 * peer_frac
                + 2.0 * talents[i]
                + rng.gen_range(-0.05..0.05);
            instance
                .set_attribute("Outcome", &[Value::from(format!("p{i}"))], Value::Float(y))
                .unwrap();
        }
        let program = parse_program(
            r#"
            Famous[A]  <= Talent[A]             WHERE Person(A)
            Outcome[A] <= Famous[A], Talent[A]  WHERE Person(A)
            Outcome[A] <= Famous[B]             WHERE Collab(A, B)
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        (model, instance)
    }

    fn unit_table_for(model: &RelationalCausalModel, instance: &Instance) -> (UnitTable, PeerMap) {
        let grounded = ground(model, instance).unwrap();
        let units: Vec<UnitKey> = instance
            .skeleton()
            .entity_keys("Person")
            .map(|k| vec![k.clone()])
            .collect();
        let peers = compute_peers(&grounded, "Famous", "Outcome", &units);
        let adjustment = covariates(model, &grounded, instance, "Famous", &units, &peers);
        let ut = build_unit_table(&UnitTableSpec {
            grounded: &grounded,
            instance,
            treatment_attr: "Famous",
            response_attr: "Outcome",
            units: &units,
            peers: &peers,
            adjustment: &adjustment,
            embedding: EmbeddingKind::Mean,
            allowed_units: None,
        })
        .unwrap();
        (ut, peers)
    }

    #[test]
    fn regression_ate_recovers_isolated_plus_relational_effect() {
        let (model, instance) = synthetic(600, 11);
        let (ut, _) = unit_table_for(&model, &instance);
        let ans = estimate_ate(&ut, EstimatorKind::Regression).unwrap();
        // Intervening on everyone (unit + peers): 1.0 + 0.5 = 1.5.
        assert!((ans.ate - 1.5).abs() < 0.2, "ate = {}", ans.ate);
        // The naive difference is inflated by the talent confounder relative
        // to the true own-treatment effect of 1.0.
        assert!(
            ans.naive_difference > 1.15,
            "naive = {}",
            ans.naive_difference
        );
        assert_eq!(ans.n_units, 600);
        assert!(ans.correlation > 0.0);
    }

    #[test]
    fn peer_effects_decompose() {
        let (model, instance) = synthetic(600, 23);
        let (ut, peers) = unit_table_for(&model, &instance);
        let ans =
            estimate_peer_effects(&ut, &PeerCondition::All, &peers, EstimatorKind::Regression)
                .unwrap();
        assert!((ans.aie - 1.0).abs() < 0.2, "aie = {}", ans.aie);
        assert!((ans.are - 0.5).abs() < 0.2, "are = {}", ans.are);
        // Proposition 4.1: AOE = AIE + ARE (exactly, by construction).
        assert!((ans.aoe - (ans.aie + ans.are)).abs() < 1e-9);
        assert_eq!(ans.n_units_with_peers, 600);
        assert_eq!(ans.peer_regime, "ALL");
    }

    #[test]
    fn none_regime_has_zero_relational_effect() {
        let (model, instance) = synthetic(400, 5);
        let (ut, peers) = unit_table_for(&model, &instance);
        let ans =
            estimate_peer_effects(&ut, &PeerCondition::None, &peers, EstimatorKind::Regression)
                .unwrap();
        assert!(ans.are.abs() < 1e-9);
        assert!((ans.aoe - ans.aie).abs() < 1e-9);
    }

    #[test]
    fn design_based_estimators_also_debias() {
        let (model, instance) = synthetic(800, 31);
        let (ut, _) = unit_table_for(&model, &instance);
        for estimator in [
            EstimatorKind::PropensityMatching,
            EstimatorKind::Subclassification,
            EstimatorKind::Ipw,
        ] {
            let ans = estimate_ate(&ut, estimator).unwrap();
            // These estimate the own-treatment effect (≈1.0 to 1.5 depending
            // on how much of the peer effect is absorbed); they must at least
            // remove the large confounder bias present in the naive estimate.
            assert!(
                (ans.ate - 1.0).abs() < 0.6,
                "{estimator:?} estimate {} too biased",
                ans.ate
            );
            assert!(ans.ate < ans.naive_difference);
        }
    }

    #[test]
    fn naive_estimator_reports_difference_of_means() {
        let (model, instance) = synthetic(300, 7);
        let (ut, _) = unit_table_for(&model, &instance);
        let ans = estimate_ate(&ut, EstimatorKind::Naive).unwrap();
        assert!((ans.ate - ans.naive_difference).abs() < 1e-12);
    }

    #[test]
    fn regime_fractions() {
        assert_eq!(regime_fraction(&PeerCondition::All, 3), 1.0);
        assert_eq!(regime_fraction(&PeerCondition::None, 3), 0.0);
        assert!((regime_fraction(&PeerCondition::MoreThanPercent(33.0), 3) - 0.665).abs() < 1e-9);
        assert!((regime_fraction(&PeerCondition::LessThanPercent(50.0), 3) - 0.25).abs() < 1e-9);
        assert_eq!(regime_fraction(&PeerCondition::AtLeast(2), 4), 0.5);
        assert_eq!(regime_fraction(&PeerCondition::Exactly(5), 2), 1.0);
        assert_eq!(regime_fraction(&PeerCondition::AtMost(1), 0), 0.0);
    }

    #[test]
    fn conditional_ate_by_peer_count_and_column() {
        let (model, instance) = synthetic(500, 13);
        let (ut, _) = unit_table_for(&model, &instance);
        let series = conditional_ate(&ut, &CateStratifier::PeerCount { cap: 2 }, 5).unwrap();
        assert_eq!(series.strata.len(), 3);
        // The ring graph gives everyone exactly 2 peers: only the last
        // stratum is populated.
        assert_eq!(series.strata[2].2, 500);
        assert!(series.strata[0].1.is_nan());

        let series = conditional_ate(
            &ut,
            &CateStratifier::ColumnQuantiles {
                column: "own_Talent_mean".to_string(),
                bins: 4,
            },
            10,
        )
        .unwrap();
        assert_eq!(series.strata.len(), 4);
        let populated: usize = series.strata.iter().map(|s| s.2).sum();
        assert_eq!(populated, 500);
        // Conditional ATEs report the *own-treatment* effect within each
        // stratum (true value 1.0 in this generative model).
        for (_, cate, n) in &series.strata {
            if *n >= 10 {
                assert!((cate - 1.0).abs() < 0.4, "stratum cate {cate}");
            }
        }
    }

    #[test]
    fn bootstrap_ate_brackets_the_truth_and_is_thread_count_invariant() {
        let (model, instance) = synthetic(300, 17);
        let (ut, _) = unit_table_for(&model, &instance);
        let a = bootstrap_ate(&ut, EstimatorKind::Regression, 40, 99).unwrap();
        // The bootstrap distribution centres on the full-sample estimate,
        // which in turn is near the true overall effect 1.5 (own 1.0 +
        // peer 0.5).
        let point = estimate_ate(&ut, EstimatorKind::Regression).unwrap().ate;
        assert!(
            a.ci_lower <= point && point <= a.ci_upper,
            "CI [{}, {}] vs {point}",
            a.ci_lower,
            a.ci_upper
        );
        assert!((a.mean - 1.5).abs() < 0.2, "bootstrap mean {}", a.mean);
        assert!(a.std_dev > 0.0);
        // Determinism under a fixed seed regardless of worker-thread count
        // (varied via the rayon facade's runtime override — mutating the
        // environment would race concurrently running tests).
        rayon::set_num_threads(3);
        let b = bootstrap_ate(&ut, EstimatorKind::Regression, 40, 99).unwrap();
        rayon::set_num_threads(0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.replicates), bits(&b.replicates));
    }

    #[test]
    fn peer_effect_query_without_interference_errors() {
        // Build a SUTVA-style model: no peer edges at all.
        let mut schema = RelationalSchema::new();
        schema.add_entity("Patient").unwrap();
        schema
            .add_attribute("SelfPay", "Patient", DomainType::Bool, true)
            .unwrap();
        schema
            .add_attribute("Severity", "Patient", DomainType::Float, true)
            .unwrap();
        schema
            .add_attribute("Death", "Patient", DomainType::Float, true)
            .unwrap();
        let mut instance = Instance::new(schema.clone());
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..50 {
            let k = Value::from(format!("p{i}"));
            instance.add_entity("Patient", k.clone()).unwrap();
            instance
                .set_attribute("SelfPay", std::slice::from_ref(&k), Value::Bool(i % 2 == 0))
                .unwrap();
            instance
                .set_attribute(
                    "Severity",
                    std::slice::from_ref(&k),
                    Value::Float(rng.gen()),
                )
                .unwrap();
            instance
                .set_attribute("Death", &[k], Value::Float(rng.gen()))
                .unwrap();
        }
        let program =
            parse_program("Death[P] <= SelfPay[P], Severity[P]\nSelfPay[P] <= Severity[P]")
                .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let grounded = ground(&model, &instance).unwrap();
        let units: Vec<UnitKey> = instance
            .skeleton()
            .entity_keys("Patient")
            .map(|k| vec![k.clone()])
            .collect();
        let peers = compute_peers(&grounded, "SelfPay", "Death", &units);
        let adjustment = covariates(&model, &grounded, &instance, "SelfPay", &units, &peers);
        let ut = build_unit_table(&UnitTableSpec {
            grounded: &grounded,
            instance: &instance,
            treatment_attr: "SelfPay",
            response_attr: "Death",
            units: &units,
            peers: &peers,
            adjustment: &adjustment,
            embedding: EmbeddingKind::Mean,
            allowed_units: None,
        })
        .unwrap();
        let err =
            estimate_peer_effects(&ut, &PeerCondition::All, &peers, EstimatorKind::Regression)
                .unwrap_err();
        assert!(matches!(err, CarlError::InvalidQuery(_)));
    }
}
