//! Embedding functions ψ (Sections 4.1 and 5.2.2).
//!
//! Different groundings of the same attribute can have different numbers of
//! parents and peers; embeddings map these variable-size value sets into
//! fixed-dimension vectors so that one shared (structurally homogeneous)
//! model can be fitted. The paper evaluates four choices, all implemented
//! here: mean, median, moment summaries and padding. The mean/median
//! variants carry the set cardinality as an extra coordinate, "to account
//! for the underlying topology of the relational skeleton".

use carl_stats::descriptive::{moments, quantile};
use serde::{Deserialize, Serialize};

/// The embedding strategy used for peer treatments and covariate sets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum EmbeddingKind {
    /// `[mean, count]`.
    #[default]
    Mean,
    /// `[median, count]`.
    Median,
    /// `[m₁, …, m_k, count]` — the first `k` moments plus the cardinality.
    Moments(usize),
    /// Pad the raw values to a fixed width with an out-of-band marker.
    Padding(usize),
}

/// The out-of-band marker used by the padding embedding.
pub const PADDING_MARKER: f64 = -1.0;

impl EmbeddingKind {
    /// Output dimensionality of the embedding.
    pub fn dim(&self) -> usize {
        match self {
            EmbeddingKind::Mean | EmbeddingKind::Median => 2,
            EmbeddingKind::Moments(k) => k + 1,
            EmbeddingKind::Padding(width) => *width,
        }
    }

    /// Short name used in reports (Table 5 rows).
    pub fn name(&self) -> String {
        match self {
            EmbeddingKind::Mean => "mean".to_string(),
            EmbeddingKind::Median => "median".to_string(),
            EmbeddingKind::Moments(k) => format!("moments({k})"),
            EmbeddingKind::Padding(w) => format!("padding({w})"),
        }
    }

    /// Embed a set of values into a fixed-size vector.
    ///
    /// Empty sets embed to all-zero summaries (with count 0) or to a fully
    /// padded vector, so units without peers remain representable.
    pub fn embed(&self, values: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.embed_into(values, &mut out);
        out
    }

    /// [`EmbeddingKind::embed`], appending to `out` instead of allocating:
    /// the unit table embeds several value sets per row into one buffer.
    pub fn embed_into(&self, values: &[f64], out: &mut Vec<f64>) {
        match self {
            EmbeddingKind::Mean => {
                let mean = if values.is_empty() {
                    0.0
                } else {
                    values.iter().sum::<f64>() / values.len() as f64
                };
                out.extend([mean, values.len() as f64]);
            }
            EmbeddingKind::Median => {
                let med = if values.is_empty() {
                    0.0
                } else {
                    quantile(values, 0.5)
                };
                out.extend([med, values.len() as f64]);
            }
            EmbeddingKind::Moments(k) => {
                out.extend(moments(values, *k));
                out.push(values.len() as f64);
            }
            EmbeddingKind::Padding(width) => {
                out.extend(values.iter().copied().take(*width));
                let padded = width.saturating_sub(values.len());
                out.extend(std::iter::repeat_n(PADDING_MARKER, padded));
            }
        }
    }

    /// Embed the *counterfactual* peer-treatment vector in which a fraction
    /// `fraction ∈ [0, 1]` of `count` peers receive the treatment (the rest
    /// receive control). Used to evaluate the peer regimes of query (15):
    /// `ALL` → 1.0, `NONE` → 0.0, etc.
    ///
    /// Units without peers (`count == 0`) are unaffected by peer
    /// interventions, so their counterfactual embedding equals the embedding
    /// of the empty set.
    pub fn counterfactual(&self, fraction: f64, count: usize) -> Vec<f64> {
        if count == 0 {
            return self.embed(&[]);
        }
        let fraction = fraction.clamp(0.0, 1.0);
        let treated = (fraction * count as f64).round() as usize;
        let mut values = vec![1.0; treated.min(count)];
        values.resize(count, 0.0);
        self.embed(&values)
    }

    /// Column names for this embedding with a given prefix
    /// (e.g. `peer_Prestige`).
    pub fn column_names(&self, prefix: &str) -> Vec<String> {
        match self {
            EmbeddingKind::Mean => vec![format!("{prefix}_mean"), format!("{prefix}_count")],
            EmbeddingKind::Median => vec![format!("{prefix}_median"), format!("{prefix}_count")],
            EmbeddingKind::Moments(k) => {
                let mut names: Vec<String> = (1..=*k).map(|i| format!("{prefix}_m{i}")).collect();
                names.push(format!("{prefix}_count"));
                names
            }
            EmbeddingKind::Padding(w) => (0..*w).map(|i| format!("{prefix}_p{i}")).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dims_and_names_are_consistent() {
        for kind in [
            EmbeddingKind::Mean,
            EmbeddingKind::Median,
            EmbeddingKind::Moments(3),
            EmbeddingKind::Padding(5),
        ] {
            assert_eq!(kind.dim(), kind.column_names("x").len(), "{kind:?}");
            assert_eq!(kind.dim(), kind.embed(&[1.0, 2.0]).len(), "{kind:?}");
            assert_eq!(kind.dim(), kind.embed(&[]).len(), "{kind:?}");
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn mean_embedding_matches_paper_example() {
        // Example 4.1: prestige parents of s1 are ⟨1, 1⟩, of s3 are ⟨1, 0⟩.
        let e = EmbeddingKind::Mean;
        assert_eq!(e.embed(&[1.0, 1.0]), vec![1.0, 2.0]);
        assert_eq!(e.embed(&[1.0, 0.0]), vec![0.5, 2.0]);
        assert_eq!(e.embed(&[1.0]), vec![1.0, 1.0]);
        assert_eq!(e.embed(&[]), vec![0.0, 0.0]);
    }

    #[test]
    fn median_and_moments() {
        assert_eq!(
            EmbeddingKind::Median.embed(&[3.0, 1.0, 2.0]),
            vec![2.0, 3.0]
        );
        let m = EmbeddingKind::Moments(2).embed(&[1.0, 3.0]);
        assert!((m[0] - 2.0).abs() < EPS);
        assert!((m[1] - 1.0).abs() < EPS);
        assert_eq!(m[2], 2.0);
    }

    #[test]
    fn padding_truncates_and_pads() {
        let e = EmbeddingKind::Padding(3);
        assert_eq!(e.embed(&[5.0]), vec![5.0, PADDING_MARKER, PADDING_MARKER]);
        assert_eq!(e.embed(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn counterfactual_regimes() {
        let e = EmbeddingKind::Mean;
        assert_eq!(e.counterfactual(1.0, 4), vec![1.0, 4.0]);
        assert_eq!(e.counterfactual(0.0, 4), vec![0.0, 4.0]);
        assert_eq!(e.counterfactual(0.5, 4), vec![0.5, 4.0]);
        // No peers: intervention on peers cannot change anything.
        assert_eq!(e.counterfactual(1.0, 0), e.embed(&[]));
        // Rounding: 1/3 of 2 peers rounds to 1 treated.
        assert_eq!(e.counterfactual(1.0 / 3.0, 2), vec![0.5, 2.0]);
        // Out-of-range fractions are clamped.
        assert_eq!(e.counterfactual(7.0, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn counterfactual_padding_sets_leading_ones() {
        let e = EmbeddingKind::Padding(4);
        assert_eq!(
            e.counterfactual(0.5, 2),
            vec![1.0, 0.0, PADDING_MARKER, PADDING_MARKER]
        );
        assert_eq!(e.counterfactual(1.0, 5), vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn default_is_mean() {
        assert_eq!(EmbeddingKind::default(), EmbeddingKind::Mean);
    }
}
