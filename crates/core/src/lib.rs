//! `carl` — a from-scratch Rust implementation of **CaRL**, the Causal
//! Relational Learning framework of Salimi, Parikh, Kayali, Roy, Getoor and
//! Suciu (SIGMOD 2020).
//!
//! CaRL answers *causal* queries over multi-relational data. Users express
//! background knowledge as Datalog-like relational causal rules, then ask
//! average-treatment-effect, aggregated-response and peer-effect queries;
//! the engine grounds the rules into a relational causal graph, selects a
//! sufficient adjustment set, compiles everything into a flat unit table via
//! embeddings, and runs classical estimators on it.
//!
//! The pipeline, crate by crate:
//!
//! 1. [`carl_lang`] parses the CaRL program (rules + queries).
//! 2. [`model`] binds it to a [`reldb::RelationalSchema`] and validates it.
//! 3. [`mod@ground`] grounds the rules over the instance's relational skeleton,
//!    producing the grounded causal graph ([`graph`]) and derived aggregate
//!    values.
//! 4. [`paths`] unifies treated and response units along relational paths;
//!    [`peers`] finds each unit's relational peers; [`adjust`] selects the
//!    covariates prescribed by the relational adjustment formula
//!    (Theorem 5.2), verifiable with [`dsep`].
//! 5. [`embed`] + [`unit_table`] build the flat unit table (Algorithm 1).
//! 6. [`query`] estimates ATE / AIE / ARE / AOE with the estimators from
//!    [`carl_stats`]; [`baseline`] provides the universal-table comparison.
//!
//! The [`CarlEngine`] façade wires all of this together:
//!
//! ```
//! use carl::CarlEngine;
//! use reldb::Instance;
//!
//! // Figure 2 of the paper as an in-memory relational instance.
//! let engine = CarlEngine::new(
//!     Instance::review_example(),
//!     r#"
//!     Prestige[A]  <= Qualification[A]              WHERE Person(A)
//!     Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
//!     Score[S]     <= Prestige[A]                   WHERE Author(A, S)
//!     Score[S]     <= Quality[S]                    WHERE Submission(S)
//!     AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
//!     "#,
//! ).unwrap();
//!
//! // The unit table of Table 1 (outcome, embedded peer treatments, embedded
//! // peer covariates) is constructed behind the scenes.
//! let prepared = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
//! assert_eq!(prepared.unit_table.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adjust;
pub mod analyze;
pub mod baseline;
pub mod dsep;
pub mod embed;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod graph;
pub mod ground;
pub mod history;
pub mod model;
pub mod paths;
pub mod peers;
pub mod query;
pub mod rowwise;
pub mod service;
pub mod snapshot;
pub mod unit_table;

pub use analyze::{
    analyze, analyze_with_schema, deps_report, deps_with_schema, explain_code, SchemaFinding,
};
pub use embed::EmbeddingKind;
pub use engine::{CarlEngine, GroundingMode, PreparedQuery, RowPreparedQuery};
pub use error::{CarlError, CarlResult};
pub use estimate::{AteAnswer, CateSeries, EstimatorKind, PeerEffectAnswer, QueryAnswer};
pub use graph::{
    grounded_attr_constructions, reset_grounded_attr_constructions, CausalGraph, GroundedAttr,
    GroundedNodeId,
};
pub use ground::{
    ground, ground_aggregate_extension, ground_streaming, AggregateExtension, GroundedModel,
    GroundedValues, PatchBlock, PatchSafety, StreamedModel, UnitRows,
};
pub use history::{check_history, digest_answer, HistoryEvent, HistoryLog, Violation};
pub use model::RelationalCausalModel;
pub use query::{bootstrap_ate, CateStratifier};
pub use service::{handle_request, serve};
pub use snapshot::{CommitStats, EngineSnapshot, SnapshotEngine};
pub use unit_table::{FloatColumn, NullBitmap, UnitTable};

// Re-export the substrate crates so downstream users need only depend on `carl`.
pub use carl_lang;
pub use carl_stats;
pub use reldb;
