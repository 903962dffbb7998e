//! Conjunctive-query evaluation over relational skeletons.
//!
//! The evaluator computes the set of substitutions (variable bindings) that
//! satisfy a [`ConjunctiveQuery`] in a [`Skeleton`]. It is used to ground
//! relational causal rules (Definition 3.5): for a rule with condition
//! `Q(Y)`, every answer of `Q` over the skeleton yields one grounded rule.
//!
//! Evaluation is planned: [`crate::plan`] chooses a most-selective-first
//! join order, an access path per atom (scan, positional hash probe, or
//! attribute-index fetch), semi-join pruning passes, and a register slot
//! per variable. Planning itself is cached by query *shape* (structure
//! modulo constants, [`crate::plan::shape_key`]) in the shared
//! [`IndexCache`]: repeated queries differing only in constants re-target
//! the cached template via [`crate::plan::instantiate`] instead of
//! replanning. The executor here is *dense*: partial answers are flat
//! register tuples of interned [`Sym`]bols (one `u32` per variable slot,
//! see [`Skeleton::interner`]) carried through scan/probe/check steps with
//! zero per-row maps and zero heap values; matching is integer comparison
//! against the skeleton's symbol rows and the [`IndexCache`]'s
//! symbol-keyed composite indexes. Results surface as [`TupleAnswers`];
//! the classic `Vec<Bindings>` form is produced only at the API boundary.
//! When a step carries enough rows, the executor splits them into
//! contiguous chunks and probes them on parallel workers (the `rayon`
//! facade, honouring `RAYON_NUM_THREADS`), concatenating chunk outputs in
//! order so results are bit-identical at any thread count.
//!
//! The final join step can also be *streamed*:
//! [`evaluate_tuples_filtered_chunked`] delivers its output to a sink as
//! order-preserving [`TupleAnswers`] chunks without ever materialising the
//! full answer set — the pipelined-execution entry point the grounding
//! layer folds rows through.
//!
//! The materialising entry points ([`evaluate_tuples`] and friends) run
//! the same streamed executor and collect its chunks, so there is one
//! executor, not two.
//!
//! [`evaluate_naive`] is kept alongside as the reference: the deliberately
//! unoptimised nested-loop evaluator (atoms in source order, full scans
//! only). It defines the semantics; the planned executor must agree with it
//! on every query, which the differential fuzzer in
//! `tests/eval_reference.rs` enforces.

use crate::error::RelResult;
use crate::index::IndexCache;
use crate::instance::Instance;
use crate::plan::{
    instantiate, plan_query, plan_query_filtered, shape_key, Access, EqFilter, Plan, SemiJoin,
    SlotTerm,
};
use crate::query::{ConjunctiveQuery, Term};
use crate::schema::{PredicateKind, RelationalSchema};
use crate::skeleton::{Skeleton, UnitKey};
use crate::symbols::{Sym, SymSet, SymbolTable};
use crate::value::Value;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A substitution binding variable names to values.
pub type Bindings = HashMap<String, Value>;

/// Debug-build check that the planner emitted a structurally sound plan
/// (see [`crate::plan::verify`]). Free in release builds; the fuzz suite
/// and the plan snapshot tests additionally run the verifier
/// unconditionally.
#[inline]
fn debug_assert_plan(schema: &RelationalSchema, plan: &Plan) {
    #[cfg(debug_assertions)]
    if let Err(e) = crate::plan::verify(schema, plan) {
        panic!("planner emitted an invalid plan: {e}\n{plan}");
    }
    #[cfg(not(debug_assertions))]
    let _ = (schema, plan);
}

/// Plan `query` through the shape-keyed plan cache of `cache`: a cached
/// template of the same [`shape_key`] is re-targeted at this query's
/// constants with [`instantiate`] (skipping the planner entirely);
/// otherwise the query is cold-planned and the plan stored as the shape's
/// template. Plan *errors* (unknown predicates, arity mismatches) are never
/// cached, so rejected queries report the same error on every attempt.
fn plan_shaped(
    cache: &IndexCache,
    schema: &RelationalSchema,
    skeleton: &Skeleton,
    query: &ConjunctiveQuery,
) -> RelResult<Arc<Plan>> {
    let shape = shape_key(query, &[]);
    if let Some(template) = cache.plan_template(&shape) {
        if let Some(plan) = instantiate(&template, query, &[]) {
            return Ok(Arc::new(plan));
        }
    }
    let plan = Arc::new(plan_query(schema, skeleton, query)?);
    cache.store_plan_template(shape, Arc::clone(&plan));
    Ok(plan)
}

/// Filtered form of [`plan_shaped`] (templates keyed on query + filter
/// shape).
fn plan_shaped_filtered(
    cache: &IndexCache,
    schema: &RelationalSchema,
    instance: &Instance,
    query: &ConjunctiveQuery,
    filters: &[EqFilter],
) -> RelResult<Arc<Plan>> {
    let shape = shape_key(query, filters);
    if let Some(template) = cache.plan_template(&shape) {
        if let Some(plan) = instantiate(&template, query, filters) {
            return Ok(Arc::new(plan));
        }
    }
    let plan = Arc::new(plan_query_filtered(
        schema, instance, cache, query, filters,
    )?);
    cache.store_plan_template(shape, Arc::clone(&plan));
    Ok(plan)
}

/// Row count above which a step's probe loop is split across the worker
/// threads of the `rayon` facade. Below it, thread spawn overhead dwarfs
/// the probe work.
const PARALLEL_ROW_THRESHOLD: usize = 4096;

/// Input-row block size for sequential streamed delivery: large enough to
/// amortise per-batch bookkeeping in the sink, small enough that the full
/// answer set of a big join is never resident at once.
const STREAM_BLOCK_ROWS: usize = 16 * PARALLEL_ROW_THRESHOLD;

/// Floor on the parallel input-block size: below this, per-range Vec and
/// scheduling bookkeeping dwarfs the probe work, so a pathologically small
/// configured morsel size (the stress matrix runs morsel = 1) degrades
/// gracefully instead of drowning the executor in one-row ranges.
const MIN_PAR_BLOCK_ROWS: usize = 256;

/// Input-row block size for one parallel work item of a probe step.
///
/// Blocks follow the facade's configured morsel size, so a skewed step (one
/// hub row fanning out to thousands of join partners) splits into many
/// stealable ranges instead of serialising one chunk-per-worker — the
/// work-stealing scheduler rebalances them across workers. Outputs are
/// concatenated in range order, so results stay bit-identical at any thread
/// count and any morsel size.
fn par_block_rows(count: usize, threads: usize) -> usize {
    rayon::current_morsel_size()
        .max(MIN_PAR_BLOCK_ROWS)
        .min(count.div_ceil(threads).max(1))
}

/// Dense query answers: one flat register tuple of interned symbols per
/// answer, resolved back to [`Value`]s on demand through the skeleton's
/// interner.
///
/// This is the zero-conversion interface the grounding pipeline consumes;
/// [`TupleAnswers::to_bindings`] materialises the classic
/// `Vec<Bindings>` form for callers that want named maps.
#[derive(Debug)]
pub struct TupleAnswers<'a> {
    vars: Vec<String>,
    width: usize,
    count: usize,
    data: Vec<Sym>,
    interner: &'a SymbolTable,
}

impl<'a> TupleAnswers<'a> {
    /// Slot layout: `vars()[i]` is the variable stored in register `i` of
    /// every row.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The register slot of `var`, if the query binds it.
    pub fn slot_of(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th answer row (one symbol per register slot).
    pub fn row(&self, i: usize) -> &[Sym] {
        if self.width == 0 {
            assert!(
                i < self.count,
                "row {i} out of bounds ({} rows)",
                self.count
            );
            &[]
        } else {
            &self.data[i * self.width..(i + 1) * self.width]
        }
    }

    /// Iterate over all answer rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Sym]> + '_ {
        (0..self.count).map(move |i| self.row(i))
    }

    /// Resolve a symbol from an answer row back to its value.
    ///
    /// Resolution returns the *first-interned representative* of the
    /// symbol's `Value`-equality class: if a skeleton stores both `Int(2)`
    /// and `Float(2.0)` (which compare equal and therefore share a
    /// symbol), every answer resolves to whichever variant was interned
    /// first — a canonicalisation the per-tuple executors did not perform.
    /// The two variants are `==` either way; only the enum variant of the
    /// returned value can differ.
    pub fn value(&self, sym: Sym) -> &'a Value {
        self.interner.value(sym)
    }

    /// Convert to the classic named-map representation (the boundary
    /// conversion the fast path avoids). Values are first-interned
    /// representatives — see [`TupleAnswers::value`].
    pub fn to_bindings(&self) -> Vec<Bindings> {
        self.rows()
            .map(|row| {
                self.vars
                    .iter()
                    .zip(row)
                    .map(|(v, &s)| (v.clone(), self.interner.value(s).clone()))
                    .collect()
            })
            .collect()
    }
}

/// Evaluate `query` over `skeleton`, returning all satisfying substitutions.
///
/// The result binds exactly the variables appearing in the query. An empty
/// query returns a single empty binding (the query `true`). Indexes built
/// for the evaluation are discarded afterwards; use [`evaluate_in`] with a
/// shared [`IndexCache`] to reuse them across queries.
pub fn evaluate(
    schema: &RelationalSchema,
    skeleton: &Skeleton,
    query: &ConjunctiveQuery,
) -> RelResult<Vec<Bindings>> {
    let cache = IndexCache::with_fingerprint(0);
    evaluate_in(&cache, schema, skeleton, query)
}

/// Evaluate `query` over `skeleton`, reusing (and lazily extending) the
/// secondary indexes in `cache`.
///
/// The caller is responsible for cache validity: the cache must have been
/// created for (or revalidated against) the skeleton's current content.
pub fn evaluate_in(
    cache: &IndexCache,
    schema: &RelationalSchema,
    skeleton: &Skeleton,
    query: &ConjunctiveQuery,
) -> RelResult<Vec<Bindings>> {
    Ok(evaluate_tuples(cache, schema, skeleton, query)?.to_bindings())
}

/// Evaluate `query` over `skeleton` on the dense fast path, returning
/// register tuples instead of named maps.
pub fn evaluate_tuples<'a>(
    cache: &IndexCache,
    schema: &RelationalSchema,
    skeleton: &'a Skeleton,
    query: &ConjunctiveQuery,
) -> RelResult<TupleAnswers<'a>> {
    let plan = plan_shaped(cache, schema, skeleton, query)?;
    debug_assert_plan(schema, &plan);
    Ok(execute_tuples(&plan, schema, skeleton, None, cache))
}

/// Evaluate `query` with equality `filters` over a full instance.
///
/// Filters implement CaRL's attribute equality comparisons natively: a
/// binding survives iff every filter's arguments resolve and the instance
/// assigns exactly the required value. Selective filters are pushed into
/// the plan (attribute-index fetches replace scans); the rest are applied
/// at the earliest step where their variables are bound. A filter whose
/// variables the query never binds makes the result empty, matching the
/// semantics of comparison post-filtering.
pub fn evaluate_filtered(
    cache: &IndexCache,
    schema: &RelationalSchema,
    instance: &Instance,
    query: &ConjunctiveQuery,
    filters: &[EqFilter],
) -> RelResult<Vec<Bindings>> {
    Ok(evaluate_tuples_filtered(cache, schema, instance, query, filters)?.to_bindings())
}

/// Filtered evaluation on the dense fast path (see [`evaluate_filtered`]).
pub fn evaluate_tuples_filtered<'a>(
    cache: &IndexCache,
    schema: &RelationalSchema,
    instance: &'a Instance,
    query: &ConjunctiveQuery,
    filters: &[EqFilter],
) -> RelResult<TupleAnswers<'a>> {
    let plan = plan_shaped_filtered(cache, schema, instance, query, filters)?;
    debug_assert_plan(schema, &plan);
    Ok(execute_tuples(
        &plan,
        schema,
        instance.skeleton(),
        Some(instance),
        cache,
    ))
}

/// Streaming filtered evaluation over a full instance: run the plan and
/// hand the final join step's output to `on_batch` as order-preserving
/// [`TupleAnswers`] chunks instead of one materialised answer set (the
/// sink-based form of [`evaluate_tuples_filtered`]).
///
/// The sink sees exactly the rows `evaluate_tuples_filtered` would return,
/// in exactly the same order; only the chunk boundaries are an executor
/// detail (fixed-size input blocks when sequential, per-worker blocks
/// computed in bounded waves when the final step runs parallel — at most
/// one wave's output is ever resident). A sink that folds rows in order
/// therefore produces results that are bit-identical to folding the
/// materialised answers — at any `RAYON_NUM_THREADS`. Queries with answers
/// too small to chunk arrive as a single batch; queries with no answers
/// deliver no batches at all.
///
/// Errors from the sink abort the evaluation and are returned as-is.
pub fn evaluate_tuples_filtered_chunked<'a>(
    cache: &IndexCache,
    schema: &RelationalSchema,
    instance: &'a Instance,
    query: &ConjunctiveQuery,
    filters: &[EqFilter],
    on_batch: &mut dyn FnMut(&TupleAnswers<'a>) -> RelResult<()>,
) -> RelResult<()> {
    let plan = plan_shaped_filtered(cache, schema, instance, query, filters)?;
    debug_assert_plan(schema, &plan);
    let skeleton = instance.skeleton();
    execute_tuples_stream(
        &plan,
        schema,
        skeleton,
        Some(instance),
        cache,
        &mut |rows| on_batch(&answers(&plan, skeleton.interner(), rows)),
    )
}

/// Nested-loop reference evaluation: atoms in the order given, full scans
/// only, no indexes, no reordering.
///
/// This is the semantic baseline the planned evaluator is differentially
/// tested against.
pub fn evaluate_naive(
    schema: &RelationalSchema,
    skeleton: &Skeleton,
    query: &ConjunctiveQuery,
) -> RelResult<Vec<Bindings>> {
    // The exact validation the planner runs, shared so the two paths can
    // never diverge on which queries they reject.
    crate::plan::validate(schema, query)?;
    let mut partials: Vec<Bindings> = vec![Bindings::new()];
    for atom in &query.atoms {
        // Resolved to values once per atom, not once per partial binding.
        let tuples: Vec<UnitKey> = skeleton.relationship_tuples(&atom.predicate).collect();
        let mut next: Vec<Bindings> = Vec::new();
        for binding in &partials {
            match schema.predicate_kind(&atom.predicate) {
                Some(PredicateKind::Entity) => {
                    for key in skeleton.entity_keys(&atom.predicate) {
                        if let Some(ext) = unify(binding, &atom.terms, std::slice::from_ref(key)) {
                            next.push(ext);
                        }
                    }
                }
                Some(PredicateKind::Relationship) => {
                    for tuple in &tuples {
                        if let Some(ext) = unify(binding, &atom.terms, tuple) {
                            next.push(ext);
                        }
                    }
                }
                None => {}
            }
        }
        partials = next;
    }
    Ok(partials)
}

// ---------------------------------------------------------------------------
// The dense tuple executor.
// ---------------------------------------------------------------------------

/// A flat batch of register tuples: `count` rows of `width` symbols each.
struct Rows {
    width: usize,
    count: usize,
    data: Vec<Sym>,
}

impl Rows {
    fn empty(width: usize) -> Self {
        Self {
            width,
            count: 0,
            data: Vec::new(),
        }
    }

    /// The single seed row (all registers unbound).
    fn seed(width: usize) -> Self {
        Self {
            width,
            count: 1,
            data: vec![Sym::UNBOUND; width],
        }
    }

    fn row(&self, i: usize) -> &[Sym] {
        if self.width == 0 {
            &[]
        } else {
            &self.data[i * self.width..(i + 1) * self.width]
        }
    }

    /// Keep only rows satisfying `pred`, preserving order.
    fn retain(&mut self, mut pred: impl FnMut(&[Sym]) -> bool) {
        if self.width == 0 {
            // Width-0 rows are all identical; one check decides them all.
            if self.count > 0 && !pred(&[]) {
                self.count = 0;
            }
            return;
        }
        let width = self.width;
        let mut kept = 0usize;
        for i in 0..self.count {
            if pred(&self.data[i * width..(i + 1) * width]) {
                if kept != i {
                    self.data
                        .copy_within(i * width..(i + 1) * width, kept * width);
                }
                kept += 1;
            }
        }
        self.count = kept;
        self.data.truncate(kept * width);
    }
}

/// How a pinned equality filter is evaluated against register rows.
enum FilterEval {
    /// Constant-only filter that holds: no per-row work.
    Pass,
    /// Can never hold (no instance, unbound variable, or no matching
    /// assignment): clears the batch at its pinned step.
    Never,
    /// Row key (the symbols at `slots`, in filter-argument order) must be
    /// in `admit` — the interned projections of every attribute assignment
    /// carrying the required value whose constant positions match.
    Admit {
        slots: Vec<usize>,
        admit: SymSet<Vec<Sym>>,
    },
}

impl FilterEval {
    fn build(
        filter: &EqFilter,
        plan: &Plan,
        skeleton: &Skeleton,
        instance: Option<&Instance>,
        cache: &IndexCache,
    ) -> Self {
        let Some(instance) = instance else {
            return FilterEval::Never;
        };
        // Argument spec: constant value or register slot per position.
        let mut consts: Vec<Option<&Value>> = Vec::with_capacity(filter.args.len());
        let mut slots: Vec<usize> = Vec::new();
        let mut var_positions: Vec<usize> = Vec::new();
        for (i, arg) in filter.args.iter().enumerate() {
            match arg {
                Term::Const(v) => consts.push(Some(v)),
                Term::Var(name) => {
                    let Some(slot) = plan.slot_of(name) else {
                        return FilterEval::Never;
                    };
                    consts.push(None);
                    slots.push(slot);
                    var_positions.push(i);
                }
            }
        }
        // Project every assignment carrying the required value onto the
        // variable positions, checking constants at build time. Assignment
        // keys referencing values the skeleton never interned cannot equal
        // any register symbol and are skipped.
        let index = cache.attribute_index(instance, &filter.attr);
        let interner = skeleton.interner();
        let mut admit: SymSet<Vec<Sym>> = SymSet::default();
        'units: for unit in index.units(&filter.value) {
            if unit.len() != filter.args.len() {
                continue;
            }
            for (component, required) in unit.iter().zip(&consts) {
                if let Some(required) = required {
                    if component != *required {
                        continue 'units;
                    }
                }
            }
            let mut key = Vec::with_capacity(var_positions.len());
            for &p in &var_positions {
                match interner.get(&unit[p]) {
                    Some(sym) => key.push(sym),
                    None => continue 'units,
                }
            }
            admit.insert(key);
        }
        if slots.is_empty() {
            if admit.contains(&Vec::new()) {
                FilterEval::Pass
            } else {
                FilterEval::Never
            }
        } else {
            FilterEval::Admit { slots, admit }
        }
    }
}

/// Retain only rows satisfying every filter pinned to step `after`.
fn apply_tuple_filters(plan: &Plan, after: usize, filters: &[FilterEval], rows: &mut Rows) {
    for (eval, ready) in filters.iter().zip(&plan.filter_after) {
        if *ready != Some(after) {
            continue;
        }
        match eval {
            FilterEval::Pass => {}
            FilterEval::Never => {
                *rows = Rows::empty(rows.width);
                return;
            }
            FilterEval::Admit { slots, admit } => {
                let mut key = Vec::with_capacity(slots.len());
                rows.retain(|row| {
                    key.clear();
                    key.extend(slots.iter().map(|&s| row[s]));
                    admit.contains(&key)
                });
            }
        }
    }
}

/// The candidate source of one plan step, resolved once before the row loop.
enum StepSource<'s> {
    /// Admitted entity keys (scan, semi-join pruned).
    EntityScan(Vec<Sym>),
    /// Membership check of the resolved key symbol in an entity class.
    EntityProbe,
    /// Admitted relationship tuples (scan, arity- and semi-join pruned).
    RelScan(Vec<&'s [Sym]>),
    /// Single-position probe against the skeleton's positional index
    /// (resolved once per step; `None` when the index has no entries).
    RelProbeSingle {
        pos: usize,
        index: Option<&'s crate::symbols::SymMap<Sym, Vec<u32>>>,
    },
    /// Composite probe against a cached multi-position index.
    RelProbeMulti {
        index: std::sync::Arc<crate::index::CompositeIndex>,
        positions: &'s [usize],
    },
    /// Candidate units from an attribute equality index.
    AttrFetch(Vec<Vec<Sym>>),
}

/// Resolve one plan step's constants and candidate source, once before its
/// row loop. Returns `None` when a constant of the step was never interned
/// by the skeleton — such a step matches no tuple, so the whole conjunction
/// is empty.
fn resolve_step<'s>(
    plan: &Plan,
    step: &'s crate::plan::PlanStep,
    schema: &RelationalSchema,
    skeleton: &'s Skeleton,
    instance: Option<&Instance>,
    cache: &IndexCache,
) -> Option<(Vec<Sym>, StepSource<'s>)> {
    let interner = skeleton.interner();
    let mut consts: Vec<Sym> = vec![Sym::UNBOUND; step.layout.len()];
    for (p, (slot, term)) in step.layout.iter().zip(&step.atom.terms).enumerate() {
        if *slot == SlotTerm::Const {
            let Term::Const(v) = term else {
                unreachable!("layout Const aligns with a constant term")
            };
            consts[p] = interner.get(v)?;
        }
    }

    let source = match &step.access {
        Access::ScanEntity => StepSource::EntityScan(
            skeleton
                .entity_syms(&step.atom.predicate)
                .iter()
                .copied()
                .filter(|&sym| semijoins_admit(skeleton, &step.semijoins, |_| sym))
                .collect(),
        ),
        Access::ProbeEntity => StepSource::EntityProbe,
        Access::ScanRelationship => StepSource::RelScan(
            skeleton
                .relationship_syms(&step.atom.predicate)
                .iter()
                // Arity-violating tuples (possible via the raw
                // `Skeleton` API) can never unify; drop them before
                // the semi-join passes index into them.
                .filter(|t| t.len() == step.layout.len())
                .filter(|t| semijoins_admit(skeleton, &step.semijoins, |p| t[p]))
                .collect(),
        ),
        Access::ProbeRelationship { positions } => match positions.as_slice() {
            [position] => StepSource::RelProbeSingle {
                pos: *position,
                index: skeleton.positional_index(&step.atom.predicate, *position),
            },
            _ => StepSource::RelProbeMulti {
                index: cache.relationship_index(skeleton, &step.atom.predicate, positions),
                positions,
            },
        },
        Access::ProbeAttribute { filter } => {
            let inst = instance
                .expect("planner only emits attribute fetches when an instance is available");
            let flt = &plan.filters[*filter];
            let index = cache.attribute_index(inst, &flt.attr);
            // Attribute assignments are not guaranteed to reference
            // existing units, so intersect with the skeleton (any unit
            // present in the skeleton is fully interned).
            let kind = schema.predicate_kind(&step.atom.predicate);
            let units: Vec<Vec<Sym>> = index
                .units(&flt.value)
                .iter()
                .filter_map(|unit| {
                    let syms: Option<Vec<Sym>> = unit.iter().map(|v| interner.get(v)).collect();
                    let syms = syms?;
                    let present = match kind {
                        Some(PredicateKind::Entity) => {
                            syms.len() == 1
                                && skeleton.has_entity_sym(&step.atom.predicate, syms[0])
                        }
                        Some(PredicateKind::Relationship) => {
                            skeleton.has_relationship_syms(&step.atom.predicate, &syms)
                        }
                        None => false,
                    };
                    present.then_some(syms)
                })
                .collect();
            StepSource::AttrFetch(units)
        }
    };
    Some((consts, source))
}

/// Wrap one batch of a plan's output rows as [`TupleAnswers`].
fn answers<'a>(plan: &Plan, interner: &'a SymbolTable, rows: Rows) -> TupleAnswers<'a> {
    TupleAnswers {
        vars: plan.slots.clone(),
        width: rows.width,
        count: rows.count,
        data: rows.data,
        interner,
    }
}

/// Run a plan against a skeleton (and, when filters are present, the
/// instance carrying the attribute assignments they consult), producing
/// dense register tuples: the chunks of [`execute_tuples_stream`]
/// collected into one answer set. A single chunk is moved, not copied.
pub(crate) fn execute_tuples<'a>(
    plan: &Plan,
    schema: &RelationalSchema,
    skeleton: &'a Skeleton,
    instance: Option<&Instance>,
    cache: &IndexCache,
) -> TupleAnswers<'a> {
    let mut all: Option<Rows> = None;
    execute_tuples_stream(plan, schema, skeleton, instance, cache, &mut |rows| {
        match &mut all {
            None => all = Some(rows),
            Some(all) => {
                all.data.extend_from_slice(&rows.data);
                all.count += rows.count;
            }
        }
        Ok(())
    })
    .expect("a collecting sink never fails");
    let rows = all.unwrap_or_else(|| Rows::empty(plan.slots.len()));
    answers(plan, skeleton.interner(), rows)
}

/// Run a plan, delivering the final join step's output to `on_rows` chunk
/// by chunk (in row order, empty chunks skipped) instead of concatenating
/// it into one answer set.
fn execute_tuples_stream(
    plan: &Plan,
    schema: &RelationalSchema,
    skeleton: &Skeleton,
    instance: Option<&Instance>,
    cache: &IndexCache,
    on_rows: &mut dyn FnMut(Rows) -> RelResult<()>,
) -> RelResult<()> {
    let width = plan.slots.len();
    if plan.unsatisfiable() {
        return Ok(());
    }

    let filters: Vec<FilterEval> = plan
        .filters
        .iter()
        .map(|f| FilterEval::build(f, plan, skeleton, instance, cache))
        .collect();

    let mut rows = Rows::seed(width);
    apply_tuple_filters(plan, 0, &filters, &mut rows);

    // Deliver one chunk of (already filtered) output rows, skipping empties.
    let deliver = |rows: Rows, on_rows: &mut dyn FnMut(Rows) -> RelResult<()>| -> RelResult<()> {
        if rows.count == 0 {
            return Ok(());
        }
        on_rows(rows)
    };

    let Some(last) = plan.steps.len().checked_sub(1) else {
        // The empty query: the (possibly filtered-away) seed row is the
        // whole answer.
        return deliver(rows, on_rows);
    };

    for (i, step) in plan.steps[..last].iter().enumerate() {
        if rows.count == 0 {
            return Ok(());
        }
        let Some((consts, source)) = resolve_step(plan, step, schema, skeleton, instance, cache)
        else {
            return Ok(());
        };
        rows = run_step(skeleton, step, &source, &consts, rows);
        apply_tuple_filters(plan, i + 1, &filters, &mut rows);
    }
    if rows.count == 0 {
        return Ok(());
    }
    let step = &plan.steps[last];
    let Some((consts, source)) = resolve_step(plan, step, schema, skeleton, instance, cache) else {
        return Ok(());
    };

    let threads = rayon::current_num_threads();
    if rows.count >= PARALLEL_ROW_THRESHOLD && threads > 1 && width > 0 {
        // Parallel, in bounded *waves*: the input splits into morsel-sized
        // blocks, each wave computes a few blocks per worker concurrently
        // (enough surplus that the scheduler can steal within the wave) and
        // delivers their outputs in order before the next wave starts. Big
        // joins stay parallel while at most one wave's output is resident —
        // never the full answer set.
        let block = par_block_rows(rows.count, threads).min(STREAM_BLOCK_ROWS);
        for wave in chunk_ranges(rows.count, block).chunks(threads * 4) {
            let parts: Vec<(Vec<Sym>, usize)> = wave
                .to_vec()
                .into_par_iter()
                .map(|range| run_step_range(skeleton, step, &source, &consts, &rows, range))
                .collect();
            for (data, count) in parts {
                let mut out = Rows { width, count, data };
                apply_tuple_filters(plan, last + 1, &filters, &mut out);
                deliver(out, on_rows)?;
            }
        }
    } else {
        // Sequential: stream fixed-size input blocks so the full answer set
        // is never resident at once.
        for range in chunk_ranges(rows.count, STREAM_BLOCK_ROWS) {
            let (data, count) = run_step_range(skeleton, step, &source, &consts, &rows, range);
            let mut out = Rows { width, count, data };
            apply_tuple_filters(plan, last + 1, &filters, &mut out);
            deliver(out, on_rows)?;
        }
    }
    Ok(())
}

/// Contiguous ranges of `0..count` in blocks of `chunk` (the final range may
/// be shorter).
fn chunk_ranges(count: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    (0..count)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(count))
        .collect()
}

/// Extend the rows of one input range through one step, returning the flat
/// output batch and its row count.
fn run_step_range(
    skeleton: &Skeleton,
    step: &crate::plan::PlanStep,
    source: &StepSource<'_>,
    consts: &[Sym],
    rows: &Rows,
    range: std::ops::Range<usize>,
) -> (Vec<Sym>, usize) {
    let rel = step.atom.predicate.as_str();
    let rel_tuples = skeleton.relationship_syms(rel);
    let layout = step.layout.as_slice();
    let mut out: Vec<Sym> = Vec::new();
    let mut produced = 0usize;
    for i in range {
        let base = rows.row(i);
        match source {
            StepSource::EntityScan(candidates) => {
                for &cand in candidates {
                    if try_extend(&mut out, base, layout, consts, &[cand]) {
                        produced += 1;
                    }
                }
            }
            StepSource::EntityProbe => {
                let key = resolve_slot(layout[0], consts[0], base);
                if skeleton.has_entity_sym(rel, key) {
                    out.extend_from_slice(base);
                    produced += 1;
                }
            }
            StepSource::RelScan(candidates) => {
                for tuple in candidates {
                    if try_extend(&mut out, base, layout, consts, tuple) {
                        produced += 1;
                    }
                }
            }
            StepSource::RelProbeSingle { pos, index } => {
                let key = resolve_slot(layout[*pos], consts[*pos], base);
                let hits = index
                    .and_then(|idx| idx.get(&key))
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                for &row_id in hits {
                    let tuple = rel_tuples.row(row_id as usize);
                    if try_extend(&mut out, base, layout, consts, tuple) {
                        produced += 1;
                    }
                }
            }
            StepSource::RelProbeMulti { index, positions } => {
                let key: Vec<Sym> = positions
                    .iter()
                    .map(|&p| resolve_slot(layout[p], consts[p], base))
                    .collect();
                for &row_id in index.rows(&key) {
                    let tuple = rel_tuples.row(row_id as usize);
                    if try_extend(&mut out, base, layout, consts, tuple) {
                        produced += 1;
                    }
                }
            }
            StepSource::AttrFetch(units) => {
                for unit in units {
                    if try_extend(&mut out, base, layout, consts, unit) {
                        produced += 1;
                    }
                }
            }
        }
    }
    (out, produced)
}

/// Extend every row of `rows` through one step, splitting large batches
/// across parallel workers (chunk outputs are concatenated in order, so the
/// result is identical at any thread count).
fn run_step(
    skeleton: &Skeleton,
    step: &crate::plan::PlanStep,
    source: &StepSource<'_>,
    consts: &[Sym],
    rows: Rows,
) -> Rows {
    let width = rows.width;
    let threads = rayon::current_num_threads();
    let (data, count) = if rows.count >= PARALLEL_ROW_THRESHOLD && threads > 1 && width > 0 {
        let parts: Vec<(Vec<Sym>, usize)> =
            chunk_ranges(rows.count, par_block_rows(rows.count, threads))
                .into_par_iter()
                .map(|range| run_step_range(skeleton, step, source, consts, &rows, range))
                .collect();
        let mut data = Vec::with_capacity(parts.iter().map(|(d, _)| d.len()).sum());
        let mut count = 0usize;
        for (part, produced) in parts {
            data.extend(part);
            count += produced;
        }
        (data, count)
    } else {
        run_step_range(skeleton, step, source, consts, &rows, 0..rows.count)
    };
    Rows { width, count, data }
}

/// Resolve the symbol a probe compares on: the step constant, or the value
/// of an already-written register slot.
fn resolve_slot(slot: SlotTerm, const_sym: Sym, row: &[Sym]) -> Sym {
    match slot {
        SlotTerm::Const => const_sym,
        SlotTerm::Check(s) => row[s],
        SlotTerm::Write(_) => {
            unreachable!("planner probes only on bound positions")
        }
    }
}

/// Unify one candidate tuple against a base row, appending the extended row
/// to `out` on success. Handles constants, already-bound slots and repeated
/// variables within the atom (a `Write` followed by a `Check` of the same
/// slot).
fn try_extend(
    out: &mut Vec<Sym>,
    base: &[Sym],
    layout: &[SlotTerm],
    consts: &[Sym],
    tuple: &[Sym],
) -> bool {
    if layout.len() != tuple.len() {
        return false;
    }
    let start = out.len();
    out.extend_from_slice(base);
    for (p, (&slot, &sym)) in layout.iter().zip(tuple).enumerate() {
        let ok = match slot {
            SlotTerm::Const => consts[p] == sym,
            SlotTerm::Check(s) => out[start + s] == sym,
            SlotTerm::Write(s) => {
                out[start + s] = sym;
                true
            }
        };
        if !ok {
            out.truncate(start);
            return false;
        }
    }
    true
}

/// Whether a candidate passes every semi-join pass; `sym_at` maps a pruned
/// position to the candidate's symbol there.
fn semijoins_admit(
    skeleton: &Skeleton,
    semijoins: &[SemiJoin],
    sym_at: impl Fn(usize) -> Sym,
) -> bool {
    semijoins.iter().all(|sj| {
        let sym = sym_at(sj.position);
        match sj.source_kind {
            PredicateKind::Entity => skeleton.has_entity_sym(&sj.source_predicate, sym),
            PredicateKind::Relationship => {
                skeleton.contains_sym_at(&sj.source_predicate, sj.source_position, sym)
            }
        }
    })
}

/// Unify an atom's terms with a concrete tuple under `binding`, returning
/// the extended binding on success. Handles constants, already-bound
/// variables and repeated variables within the atom.
fn unify(binding: &Bindings, terms: &[Term], tuple: &[Value]) -> Option<Bindings> {
    if terms.len() != tuple.len() {
        return None;
    }
    let mut extended = binding.clone();
    for (term, value) in terms.iter().zip(tuple) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(v) => match extended.get(v) {
                Some(bound) if bound != value => return None,
                Some(_) => {}
                None => {
                    extended.insert(v.clone(), value.clone());
                }
            },
        }
    }
    Some(extended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::instance::Instance;
    use crate::query::{Atom, ConjunctiveQuery, Term};

    fn setup() -> (RelationalSchema, Skeleton) {
        let inst = Instance::review_example();
        (inst.schema().clone(), inst.skeleton().clone())
    }

    /// Canonicalise for multiset comparison.
    fn canonical(bindings: Vec<Bindings>) -> Vec<Vec<(String, String)>> {
        let mut rows: Vec<Vec<(String, String)>> = bindings
            .into_iter()
            .map(|b| {
                let mut row: Vec<(String, String)> =
                    b.into_iter().map(|(k, v)| (k, v.key_repr())).collect();
                row.sort();
                row
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn empty_query_has_one_empty_answer() {
        let (schema, sk) = setup();
        let answers = evaluate(&schema, &sk, &ConjunctiveQuery::truth()).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].is_empty());
        // Dense form: one zero-width row.
        let cache = IndexCache::for_skeleton(&sk);
        let tuples = evaluate_tuples(&cache, &schema, &sk, &ConjunctiveQuery::truth()).unwrap();
        assert_eq!(tuples.len(), 1);
        assert!(tuples.row(0).is_empty());
        assert!(tuples.vars().is_empty());
    }

    #[test]
    fn single_entity_atom_enumerates_keys() {
        let (schema, sk) = setup();
        let q = ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]);
        let answers = evaluate(&schema, &sk, &q).unwrap();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn relationship_join_matches_paper_example() {
        let (schema, sk) = setup();
        // Author(A, S), Submitted(S, C): one answer per authorship (5).
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
        ]);
        let answers = evaluate(&schema, &sk, &q).unwrap();
        assert_eq!(answers.len(), 5);
        // Every answer binds all three variables.
        assert!(answers.iter().all(|b| b.len() == 3));
    }

    #[test]
    fn tuple_answers_expose_slots_and_resolve_values() {
        let (schema, sk) = setup();
        let cache = IndexCache::for_skeleton(&sk);
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
        ]);
        let answers = evaluate_tuples(&cache, &schema, &sk, &q).unwrap();
        assert_eq!(answers.len(), 5);
        let a = answers.slot_of("A").unwrap();
        let s = answers.slot_of("S").unwrap();
        let c = answers.slot_of("C").unwrap();
        assert_eq!(answers.slot_of("Z"), None);
        for row in answers.rows() {
            // Every register resolves to a skeleton value, and the row is
            // an actual authorship.
            let author = answers.value(row[a]).clone();
            let submission = answers.value(row[s]).clone();
            let conference = answers.value(row[c]).clone();
            assert!(sk.has_relationship("Author", &[author, submission.clone()]));
            assert!(sk.has_relationship("Submitted", &[submission, conference]));
        }
        // The boundary conversion agrees with direct map evaluation.
        assert_eq!(
            canonical(answers.to_bindings()),
            canonical(evaluate(&schema, &sk, &q).unwrap())
        );
    }

    #[test]
    fn constants_select() {
        let (schema, sk) = setup();
        // Who authored s3?
        let q = ConjunctiveQuery::new(vec![Atom::new(
            "Author",
            vec![Term::var("A"), Term::constant("s3")],
        )]);
        let mut authors: Vec<String> = evaluate(&schema, &sk, &q)
            .unwrap()
            .into_iter()
            .map(|b| b["A"].to_string())
            .collect();
        authors.sort();
        assert_eq!(authors, vec!["Carlos".to_string(), "Eva".to_string()]);
    }

    #[test]
    fn constants_missing_from_the_skeleton_produce_no_answers() {
        let (schema, sk) = setup();
        for q in [
            ConjunctiveQuery::new(vec![Atom::new(
                "Author",
                vec![Term::var("A"), Term::constant("ghost")],
            )]),
            ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::constant("ghost")])]),
        ] {
            assert!(evaluate(&schema, &sk, &q).unwrap().is_empty(), "{q}");
            assert!(evaluate_naive(&schema, &sk, &q).unwrap().is_empty(), "{q}");
        }
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let (schema, sk) = setup();
        // Author(A, S), Author(A, S) must not blow up the answer count.
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
        ]);
        let answers = evaluate(&schema, &sk, &q).unwrap();
        assert_eq!(answers.len(), 5);
    }

    #[test]
    fn coauthor_join() {
        let (schema, sk) = setup();
        // Pairs (A, B) of authors sharing a submission, including A = B.
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Author", vec![Term::var("B"), Term::var("S")]),
        ]);
        let answers = evaluate(&schema, &sk, &q).unwrap();
        // s1: {Bob,Eva}² = 4, s2: {Eva}² = 1, s3: {Eva,Carlos}² = 4 → 9
        assert_eq!(answers.len(), 9);
    }

    #[test]
    fn unknown_predicate_and_bad_arity_error() {
        let (schema, sk) = setup();
        let q = ConjunctiveQuery::new(vec![Atom::new("Nope", vec![Term::var("X")])]);
        assert!(matches!(
            evaluate(&schema, &sk, &q),
            Err(RelError::UnknownPredicate(_))
        ));
        assert!(matches!(
            evaluate_naive(&schema, &sk, &q),
            Err(RelError::UnknownPredicate(_))
        ));
        let q = ConjunctiveQuery::new(vec![Atom::new("Author", vec![Term::var("X")])]);
        assert!(matches!(
            evaluate(&schema, &sk, &q),
            Err(RelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            evaluate_naive(&schema, &sk, &q),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    /// Collect a streamed evaluation back into (bindings, batch count) so
    /// it can be compared against the materialised executor.
    fn collect_chunked(
        inst: &Instance,
        q: &ConjunctiveQuery,
        filters: &[EqFilter],
    ) -> (Vec<Bindings>, usize) {
        let cache = IndexCache::for_instance(inst);
        let mut all = Vec::new();
        let mut batches = 0usize;
        evaluate_tuples_filtered_chunked(&cache, inst.schema(), inst, q, filters, &mut |batch| {
            batches += 1;
            assert!(!batch.is_empty(), "empty batches are never delivered");
            all.extend(batch.to_bindings());
            Ok(())
        })
        .unwrap();
        (all, batches)
    }

    #[test]
    fn chunked_evaluation_streams_the_materialised_answers_in_order() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let queries = [
            ConjunctiveQuery::truth(),
            ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]),
            ConjunctiveQuery::new(vec![
                Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
                Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
            ]),
            ConjunctiveQuery::new(vec![
                Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
                Atom::new("Author", vec![Term::var("B"), Term::var("S")]),
            ]),
            // No answers at all: the sink must never be called.
            ConjunctiveQuery::new(vec![Atom::new(
                "Author",
                vec![Term::var("A"), Term::constant("ghost")],
            )]),
        ];
        for q in &queries {
            let materialised =
                evaluate_tuples_filtered(&cache, inst.schema(), &inst, q, &[]).unwrap();
            let (streamed, batches) = collect_chunked(&inst, q, &[]);
            // Same rows in the same order (order matters: streaming sinks
            // fold rows without re-sorting).
            let expected = materialised.to_bindings();
            assert_eq!(streamed.len(), expected.len(), "query {q}");
            for (i, (a, b)) in streamed.iter().zip(&expected).enumerate() {
                assert_eq!(a, b, "query {q}, row {i}");
            }
            if expected.is_empty() {
                assert_eq!(batches, 0, "query {q}");
            }
        }
    }

    #[test]
    fn chunked_evaluation_applies_final_step_filters() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
        ]);
        let filters = vec![EqFilter {
            attr: "Blind".into(),
            args: vec![Term::var("C")],
            value: Value::Bool(true),
        }];
        let materialised =
            evaluate_tuples_filtered(&cache, inst.schema(), &inst, &q, &filters).unwrap();
        let (streamed, _) = collect_chunked(&inst, &q, &filters);
        assert_eq!(streamed, materialised.to_bindings());
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn chunked_evaluation_propagates_sink_errors() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]);
        let err = evaluate_tuples_filtered_chunked(
            &cache,
            inst.schema(),
            &inst,
            &q,
            &[],
            &mut |_batch| Err(RelError::MalformedQuery("sink aborted".into())),
        )
        .unwrap_err();
        assert!(matches!(err, RelError::MalformedQuery(_)));
    }

    #[test]
    fn planned_matches_naive_on_the_paper_example() {
        let (schema, sk) = setup();
        for q in [
            ConjunctiveQuery::truth(),
            ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]),
            ConjunctiveQuery::new(vec![
                Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
                Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
                Atom::new("Person", vec![Term::var("A")]),
            ]),
            ConjunctiveQuery::new(vec![
                Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
                Atom::new("Author", vec![Term::var("B"), Term::var("S")]),
            ]),
        ] {
            let fast = evaluate(&schema, &sk, &q).unwrap();
            let slow = evaluate_naive(&schema, &sk, &q).unwrap();
            assert_eq!(canonical(fast), canonical(slow), "query {q}");
        }
    }

    #[test]
    fn shared_cache_reuse_is_consistent() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Author", vec![Term::var("A"), Term::var("T")]),
            Atom::new("Submitted", vec![Term::var("T"), Term::var("C")]),
        ]);
        let first = evaluate_in(&cache, inst.schema(), inst.skeleton(), &q).unwrap();
        let second = evaluate_in(&cache, inst.schema(), inst.skeleton(), &q).unwrap();
        assert_eq!(canonical(first.clone()), canonical(second));
        let fresh = evaluate(inst.schema(), inst.skeleton(), &q).unwrap();
        assert_eq!(canonical(first), canonical(fresh));
    }

    #[test]
    fn filtered_evaluation_matches_post_hoc_filtering() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![
            Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
            Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
        ]);
        let filters = vec![EqFilter {
            attr: "Blind".into(),
            args: vec![Term::var("C")],
            value: Value::Bool(true),
        }];
        let filtered = evaluate_filtered(&cache, inst.schema(), &inst, &q, &filters).unwrap();
        let post: Vec<Bindings> = evaluate(inst.schema(), inst.skeleton(), &q)
            .unwrap()
            .into_iter()
            .filter(|b| {
                inst.attribute("Blind", std::slice::from_ref(&b["C"])) == Some(&Value::Bool(true))
            })
            .collect();
        // s2 and s3 are at the double-blind ConfAI: three authorships.
        assert_eq!(filtered.len(), 3);
        assert_eq!(canonical(filtered), canonical(post));
    }

    #[test]
    fn filters_on_unbound_variables_empty_the_result() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]);
        let filters = vec![EqFilter {
            attr: "Blind".into(),
            args: vec![Term::var("Z")],
            value: Value::Bool(true),
        }];
        let answers = evaluate_filtered(&cache, inst.schema(), &inst, &q, &filters).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn constant_only_filters_gate_the_whole_query() {
        let inst = Instance::review_example();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]);
        let hold = vec![EqFilter {
            attr: "Blind".into(),
            args: vec![Term::constant("ConfAI")],
            value: Value::Bool(true),
        }];
        assert_eq!(
            evaluate_filtered(&cache, inst.schema(), &inst, &q, &hold)
                .unwrap()
                .len(),
            3
        );
        let fail = vec![EqFilter {
            attr: "Blind".into(),
            args: vec![Term::constant("ConfAI")],
            value: Value::Bool(false),
        }];
        assert!(evaluate_filtered(&cache, inst.schema(), &inst, &q, &fail)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn arity_violating_tuples_do_not_panic_the_executor() {
        // The raw `Skeleton` API does not enforce arity; tuples shorter
        // than the schema arity must be handled like the naive evaluator
        // handles them (they unify with nothing) instead of panicking in
        // index construction or semi-join pruning.
        let schema = RelationalSchema::review_example();
        let mut sk = Skeleton::new();
        sk.add_entity("Person", Value::from("Bob"));
        sk.add_entity("Submission", Value::from("s1"));
        sk.add_relationship("Author", vec![Value::from("Bob")]); // too short
        sk.add_relationship("Author", vec![Value::from("Bob"), Value::from("s1")]);
        sk.add_relationship("Submitted", vec![Value::from("s1")]); // too short
        for q in [
            // Two bound positions: composite-index probe.
            ConjunctiveQuery::new(vec![Atom::new(
                "Author",
                vec![Term::constant("Bob"), Term::constant("s1")],
            )]),
            // Scan with semi-join pruning over the short tuple.
            ConjunctiveQuery::new(vec![
                Atom::new("Author", vec![Term::var("A"), Term::var("S")]),
                Atom::new("Submitted", vec![Term::var("S"), Term::var("C")]),
            ]),
        ] {
            let fast = evaluate(&schema, &sk, &q).unwrap();
            let slow = evaluate_naive(&schema, &sk, &q).unwrap();
            assert_eq!(canonical(fast), canonical(slow), "query {q}");
        }
    }

    #[test]
    fn attribute_fetch_ignores_assignments_for_missing_units() {
        // set_attribute does not require the unit to exist in the skeleton;
        // an attribute-index fetch must not resurrect such phantom units.
        let mut inst = Instance::review_example();
        inst.set_attribute("Prestige", &[Value::from("Ghost")], Value::Int(0))
            .unwrap();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]);
        let filters = vec![EqFilter {
            attr: "Prestige".into(),
            args: vec![Term::var("A")],
            value: Value::Int(0),
        }];
        let answers = evaluate_filtered(&cache, inst.schema(), &inst, &q, &filters).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0]["A"], Value::from("Carlos"));
    }

    #[test]
    fn filters_with_constant_args_match_assignments_beyond_the_skeleton() {
        // A filter whose constant argument names a unit outside the
        // skeleton still consults the instance's assignments, exactly as
        // per-binding post-filtering would.
        let mut inst = Instance::review_example();
        inst.set_attribute("Blind", &[Value::from("GhostConf")], Value::Bool(true))
            .unwrap();
        let cache = IndexCache::for_instance(&inst);
        let q = ConjunctiveQuery::new(vec![Atom::new("Person", vec![Term::var("A")])]);
        let filters = vec![EqFilter {
            attr: "Blind".into(),
            args: vec![Term::constant("GhostConf")],
            value: Value::Bool(true),
        }];
        let answers = evaluate_filtered(&cache, inst.schema(), &inst, &q, &filters).unwrap();
        assert_eq!(answers.len(), 3, "constant-only filter holds for Ghost");
    }
}
