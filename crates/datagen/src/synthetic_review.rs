//! SYNTHETIC REVIEWDATA (paper §6.1): a review corpus with *exact* causal
//! ground truth, used for Tables 4–5 and Figures 8–10.
//!
//! The paper generates 10,000 authors at 200 institutions submitting 75,000
//! papers to 100 venues (half single-blind, half double-blind), in two
//! variants: one with only an isolated prestige effect (1 at single-blind
//! venues, 0 at double-blind), and one that adds a constant relational
//! effect of 1/2 from collaborators' prestige. We reproduce both variants
//! with a configurable scale factor.
//!
//! To keep the ground truth exact under CaRL's unit-table semantics, each
//! paper has a single writing author and interference flows through an
//! explicit collaboration network:
//!
//! * `Qualification[A]` (h-index–like productivity) is the confounder: it
//!   raises both the chance of a prestigious affiliation and paper quality.
//! * Collaboration is homophilous: prestigious authors are more likely to
//!   collaborate with each other, so ignoring the relational structure
//!   biases naive and universal-table analyses.
//! * The structural equation for the outcome is
//!   ```text
//!   Score[P] = 0.2 + 0.4·Quality[P] + iso(venue)·Prestige[author]
//!            + rel·(fraction of collaborators that are prestigious) + ε
//!   ```
//!   so the isolated effect is exactly `iso(venue)` and the relational
//!   effect of ALL vs NONE collaborators treated is exactly `rel`.

use crate::ground_truth::GroundTruth;
use crate::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reldb::{DomainType, Instance, RelationalSchema, Value};

/// Configuration of the SYNTHETIC REVIEWDATA generator.
#[derive(Debug, Clone)]
pub struct SyntheticReviewConfig {
    /// Number of authors (paper: 10,000).
    pub authors: usize,
    /// Number of institutions (paper: 200).
    pub institutions: usize,
    /// Number of papers (paper: 75,000).
    pub papers: usize,
    /// Number of venues (paper: 100).
    pub venues: usize,
    /// Mean number of collaborators per author.
    pub mean_collaborators: f64,
    /// Isolated effect of prestige on score at single-blind venues.
    pub isolated_single_blind: f64,
    /// Isolated effect at double-blind venues.
    pub isolated_double_blind: f64,
    /// Relational effect of collaborators' prestige (ALL vs NONE treated).
    /// Zero reproduces the paper's first variant.
    pub relational_effect: f64,
    /// Observation noise on scores.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticReviewConfig {
    /// The paper's full-scale configuration of the *relational-effect*
    /// variant (second dataset of §6.1).
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            authors: 10_000,
            institutions: 200,
            papers: 75_000,
            venues: 100,
            mean_collaborators: 3.0,
            isolated_single_blind: 1.0,
            isolated_double_blind: 0.0,
            relational_effect: 0.5,
            noise: 0.25,
            seed,
        }
    }

    /// A reduced-scale configuration suitable for unit tests and CI.
    pub fn small(seed: u64) -> Self {
        Self {
            authors: 800,
            institutions: 40,
            papers: 4_000,
            venues: 20,
            ..Self::paper_scale(seed)
        }
    }

    /// Scale the paper configuration by a factor in `(0, 1]`.
    pub fn scaled(scale: f64, seed: u64) -> Self {
        let scale = scale.clamp(0.01, 1.0);
        let base = Self::paper_scale(seed);
        Self {
            authors: ((base.authors as f64 * scale) as usize).max(50),
            institutions: ((base.institutions as f64 * scale) as usize).max(5),
            papers: ((base.papers as f64 * scale) as usize).max(100),
            venues: ((base.venues as f64 * scale) as usize).max(4),
            ..base
        }
    }

    /// The first variant of §6.1: no relational effect.
    pub fn without_relational_effect(mut self) -> Self {
        self.relational_effect = 0.0;
        self
    }
}

/// The schema of the synthetic review corpus.
fn schema() -> RelationalSchema {
    let mut s = RelationalSchema::new();
    s.add_entity("Person").expect("fresh schema");
    s.add_entity("Paper").expect("fresh schema");
    s.add_entity("Venue").expect("fresh schema");
    s.add_relationship("Writes", &["Person", "Paper"])
        .expect("entities declared");
    s.add_relationship("Collab", &["Person", "Person"])
        .expect("entities declared");
    s.add_relationship("SubmittedTo", &["Paper", "Venue"])
        .expect("entities declared");
    s.add_attribute("Qualification", "Person", DomainType::Float, true)
        .expect("fresh");
    s.add_attribute("Prestige", "Person", DomainType::Bool, true)
        .expect("fresh");
    s.add_attribute("Quality", "Paper", DomainType::Float, true)
        .expect("fresh");
    s.add_attribute("Score", "Paper", DomainType::Float, true)
        .expect("fresh");
    s.add_attribute("DoubleBlind", "Venue", DomainType::Bool, true)
        .expect("fresh");
    s
}

/// The CaRL relational causal model for the synthetic corpus.
pub const SYNTHETIC_REVIEW_RULES: &str = r#"
    Prestige[A] <= Qualification[A]              WHERE Person(A)
    Quality[P]  <= Qualification[A]              WHERE Writes(A, P)
    Score[P]    <= Quality[P]                    WHERE Paper(P)
    Score[P]    <= Prestige[A]                   WHERE Writes(A, P)
    Score[P]    <= Prestige[B]                   WHERE Writes(A, P), Collab(A, B)
"#;

/// Generate the SYNTHETIC REVIEWDATA dataset.
pub fn generate_synthetic_review(config: &SyntheticReviewConfig) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut instance = Instance::new(schema());

    // Institutions: the top 20% are "prestigious".
    let prestigious_institutions = (config.institutions as f64 * 0.2).ceil() as usize;

    // Authors: qualification ~ productivity; prestigious affiliation more
    // likely for productive authors (confounding).
    let mut qualification = Vec::with_capacity(config.authors);
    let mut prestige = Vec::with_capacity(config.authors);
    for i in 0..config.authors {
        let key = Value::from(format!("a{i}"));
        instance
            .add_entity("Person", key.clone())
            .expect("schema admits Person");
        let qual: f64 = rng.gen_range(0.0..60.0);
        // Probability of being at a top institution grows with qualification.
        let p_prestige = (0.08 + 0.8 * (qual / 60.0)).min(0.92)
            * (prestigious_institutions as f64 / config.institutions as f64 * 5.0).min(1.0);
        let is_prestigious = rng.gen::<f64>() < p_prestige;
        instance
            .set_attribute(
                "Qualification",
                std::slice::from_ref(&key),
                Value::Float(qual),
            )
            .expect("domain admits float");
        instance
            .set_attribute("Prestige", &[key], Value::Bool(is_prestigious))
            .expect("domain admits bool");
        qualification.push(qual);
        prestige.push(is_prestigious);
    }

    // Venues: half double-blind.
    let mut double_blind = Vec::with_capacity(config.venues);
    for v in 0..config.venues {
        let key = Value::from(format!("v{v}"));
        instance
            .add_entity("Venue", key.clone())
            .expect("schema admits Venue");
        let db = v % 2 == 1;
        instance
            .set_attribute("DoubleBlind", &[key], Value::Bool(db))
            .expect("domain admits bool");
        double_blind.push(db);
    }

    // Collaboration network with homophily on prestige.
    let mut collaborators: Vec<Vec<usize>> = vec![Vec::new(); config.authors];
    let target_edges = (config.authors as f64 * config.mean_collaborators / 2.0) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < target_edges && attempts < target_edges * 20 {
        attempts += 1;
        let a = rng.gen_range(0..config.authors);
        let b = rng.gen_range(0..config.authors);
        if a == b || collaborators[a].contains(&b) {
            continue;
        }
        // Homophily: same-prestige pairs are three times as likely.
        let accept = if prestige[a] == prestige[b] { 0.9 } else { 0.3 };
        if rng.gen::<f64>() >= accept {
            continue;
        }
        collaborators[a].push(b);
        collaborators[b].push(a);
        instance
            .add_relationship(
                "Collab",
                vec![Value::from(format!("a{a}")), Value::from(format!("a{b}"))],
            )
            .expect("entities exist");
        instance
            .add_relationship(
                "Collab",
                vec![Value::from(format!("a{b}")), Value::from(format!("a{a}"))],
            )
            .expect("entities exist");
        added += 1;
    }

    // Papers: one writing author each, venue chosen uniformly at random.
    for p in 0..config.papers {
        let key = Value::from(format!("p{p}"));
        instance
            .add_entity("Paper", key.clone())
            .expect("schema admits Paper");
        let author = rng.gen_range(0..config.authors);
        let venue = rng.gen_range(0..config.venues);
        instance
            .add_relationship(
                "Writes",
                vec![Value::from(format!("a{author}")), key.clone()],
            )
            .expect("entities exist");
        instance
            .add_relationship(
                "SubmittedTo",
                vec![key.clone(), Value::from(format!("v{venue}"))],
            )
            .expect("entities exist");

        let quality = (qualification[author] / 60.0 + rng.gen_range(-0.1..0.1)).clamp(0.0, 1.2);
        let iso = if double_blind[venue] {
            config.isolated_double_blind
        } else {
            config.isolated_single_blind
        };
        let peer_frac = if collaborators[author].is_empty() {
            0.0
        } else {
            collaborators[author]
                .iter()
                .filter(|&&b| prestige[b])
                .count() as f64
                / collaborators[author].len() as f64
        };
        let score = 0.2
            + 0.4 * quality
            + iso * f64::from(prestige[author])
            + config.relational_effect * peer_frac
            + rng.gen_range(-config.noise..config.noise);
        instance
            .set_attribute("Quality", std::slice::from_ref(&key), Value::Float(quality))
            .expect("domain admits float");
        instance
            .set_attribute("Score", &[key], Value::Float(score))
            .expect("domain admits float");
    }

    Dataset {
        name: "SYNTHETIC REVIEWDATA".to_string(),
        instance,
        rules: SYNTHETIC_REVIEW_RULES.to_string(),
        queries: vec![
            // Query (36): effect of prestige on an author's average score.
            "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false".to_string(),
            "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = true".to_string(),
            // Query (37): peer effects when more than 1/3 of peers treated.
            "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = false WHEN MORE THAN 33% PEERS TREATED"
                .to_string(),
            "Score[P] <= Prestige[A]? WHERE SubmittedTo(P, V), DoubleBlind[V] = true WHEN MORE THAN 33% PEERS TREATED"
                .to_string(),
        ],
        ground_truth: GroundTruth::review(
            config.isolated_single_blind,
            config.isolated_double_blind,
            config.relational_effect,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let config = SyntheticReviewConfig::small(7);
        let ds = generate_synthetic_review(&config);
        let sk = ds.instance.skeleton();
        assert_eq!(sk.entity_count("Person"), config.authors);
        assert_eq!(sk.entity_count("Paper"), config.papers);
        assert_eq!(sk.entity_count("Venue"), config.venues);
        assert_eq!(sk.relationship_count("Writes"), config.papers);
        assert!(sk.relationship_count("Collab") > 0);
        assert!(ds.instance.validate().is_ok());
    }

    #[test]
    fn confounding_and_homophily_are_present() {
        let ds = generate_synthetic_review(&SyntheticReviewConfig::small(3));
        let inst = &ds.instance;
        // Prestigious authors have higher mean qualification (confounding).
        let mut qual_p = Vec::new();
        let mut qual_np = Vec::new();
        for key in inst.skeleton().entity_keys("Person") {
            let q = inst
                .attribute_f64("Qualification", std::slice::from_ref(key))
                .unwrap();
            let p = inst
                .attribute("Prestige", std::slice::from_ref(key))
                .and_then(Value::as_bool)
                .unwrap();
            if p {
                qual_p.push(q);
            } else {
                qual_np.push(q);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&qual_p) > mean(&qual_np) + 5.0);
    }

    #[test]
    fn ground_truth_matches_config() {
        let config = SyntheticReviewConfig::small(1);
        let ds = generate_synthetic_review(&config);
        assert_eq!(ds.ground_truth.isolated_single_blind, Some(1.0));
        assert_eq!(ds.ground_truth.isolated_double_blind, Some(0.0));
        assert_eq!(ds.ground_truth.relational, Some(0.5));
        let no_rel = generate_synthetic_review(&config.clone().without_relational_effect());
        assert_eq!(no_rel.ground_truth.relational, Some(0.0));
    }

    #[test]
    fn scaled_configs_shrink_proportionally() {
        let c = SyntheticReviewConfig::scaled(0.1, 5);
        assert_eq!(c.authors, 1000);
        assert_eq!(c.papers, 7500);
        let tiny = SyntheticReviewConfig::scaled(0.0001, 5);
        assert!(tiny.authors >= 50);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = generate_synthetic_review(&SyntheticReviewConfig::small(11));
        let b = generate_synthetic_review(&SyntheticReviewConfig::small(11));
        assert_eq!(a.row_count(), b.row_count());
        let key = Value::from("p0");
        assert_eq!(
            a.instance.attribute("Score", std::slice::from_ref(&key)),
            b.instance.attribute("Score", &[key])
        );
    }
}
