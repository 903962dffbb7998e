//! `reldb` — a minimal, self-contained, in-memory relational database
//! substrate for causal relational learning.
//!
//! The CaRL framework (Salimi et al., SIGMOD 2020) operates over
//! multi-relational data presented in an *entity–relationship–attribute*
//! form (a "relational causal schema"). This crate provides everything the
//! CaRL engine needs from a database system:
//!
//! * a typed value model ([`Value`], [`DomainType`]),
//! * schemas of entities, relationships and attribute functions
//!   ([`RelationalSchema`]),
//! * instances consisting of a *relational skeleton* (the grounded entities
//!   and relationship tuples) plus attribute assignments
//!   ([`Instance`], [`Skeleton`]),
//! * planned conjunctive-query evaluation with hash joins ([`query`],
//!   [`plan`], [`eval`]) over lazily built secondary indexes ([`index`]),
//!   used to ground relational causal rules,
//! * group-by aggregation ([`aggregate`]) used by aggregate rules and by the
//!   embedding functions,
//! * a generic column-named [`Table`] with CSV import/export, used for unit
//!   tables and experiment output,
//! * the *universal table* construction ([`universal`]) used by the flat
//!   single-table baseline the paper compares against.
//!
//! The crate is deliberately free of external database dependencies: every
//! algorithm (join ordering, aggregation, indexing) is implemented here so
//! the whole reproduction is auditable and runs on a laptop.
//!
//! # Quick example
//!
//! ```
//! use reldb::{RelationalSchema, DomainType, Instance, Value};
//!
//! // The running example of the paper (Figure 2), in miniature.
//! let mut schema = RelationalSchema::new();
//! schema.add_entity("Person").unwrap();
//! schema.add_entity("Submission").unwrap();
//! schema.add_relationship("Author", &["Person", "Submission"]).unwrap();
//! schema.add_attribute("Prestige", "Person", DomainType::Bool, true).unwrap();
//! schema.add_attribute("Score", "Submission", DomainType::Float, true).unwrap();
//!
//! let mut inst = Instance::new(schema);
//! inst.add_entity("Person", Value::from("Bob")).unwrap();
//! inst.add_entity("Submission", Value::from("s1")).unwrap();
//! inst.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]).unwrap();
//! inst.set_attribute("Prestige", &[Value::from("Bob")], Value::Int(1)).unwrap();
//! inst.set_attribute("Score", &[Value::from("s1")], Value::Float(0.75)).unwrap();
//!
//! assert_eq!(inst.skeleton().entity_count("Person"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod attr_column;
pub mod csv;
pub mod error;
pub mod eval;
pub mod index;
pub mod instance;
pub mod plan;
pub mod query;
pub mod schema;
pub mod skeleton;
pub mod symbols;
pub mod table;
pub mod universal;
pub mod value;

pub use aggregate::{group_by, AggFn};
pub use attr_column::AttrReader;
pub use error::{RelError, RelResult};
pub use eval::{
    evaluate, evaluate_filtered, evaluate_in, evaluate_naive, evaluate_tuples,
    evaluate_tuples_filtered, evaluate_tuples_filtered_chunked, Bindings, TupleAnswers,
};
pub use index::{IndexCache, IndexCacheStats, PlanCacheStats};
pub use instance::{DeltaOp, DeltaSet, Instance, Mutation};
pub use plan::{
    instantiate, plan_query, plan_query_filtered, shape_key, verify, Access, EqFilter, Plan,
    PlanFact, PlanStep, SemiJoin, SlotTerm,
};
pub use query::{Atom, ConjunctiveQuery, Term};
pub use schema::{
    AttributeDef, DomainType, EntityDef, PredicateKind, RelationalSchema, RelationshipDef,
};
pub use skeleton::{RelRows, Skeleton, UnitKey};
pub use symbols::{Sym, SymbolTable};
pub use table::{Column, Table};
pub use universal::universal_table;
pub use value::{Value, ValueKey};
