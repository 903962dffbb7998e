//! `carl-bench` — the experiment harness that regenerates every table and
//! figure of the CaRL paper's evaluation (Section 6). Runtime is measured
//! by `table2` (the paper's unit-table and query-answering columns) and by
//! the standalone `carlbench` package at the repository root.
//!
//! Each table/figure has a dedicated binary (`table2`, `figure7`, …) that
//! prints the same rows/series the paper reports and optionally writes a
//! JSON record under `target/experiments/`. `run_all` executes everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod report;

pub use report::{markdown_table, write_json, ExperimentRecord};

use carl_datagen::SyntheticReviewConfig;

/// The default scale factor applied to the paper-scale dataset
/// configurations so every experiment completes quickly on a laptop.
/// Override with the `CARL_SCALE` environment variable (0.01–1.0).
pub fn scale() -> f64 {
    std::env::var("CARL_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.05)
        .clamp(0.01, 1.0)
}

/// The synthetic-review configuration used by the accuracy experiments
/// (Tables 4–5, Figures 8–10), at the harness scale.
pub fn synthetic_config(seed: u64) -> SyntheticReviewConfig {
    SyntheticReviewConfig::scaled(scale(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_clamped() {
        let s = scale();
        assert!((0.01..=1.0).contains(&s));
    }

    #[test]
    fn synthetic_config_tracks_scale() {
        let c = synthetic_config(1);
        assert!(c.authors >= 50);
        assert!(c.papers >= 100);
    }
}
