//! The CaRL engine: the end-to-end façade tying together parsing,
//! validation, grounding, unification, covariate detection, unit-table
//! construction and estimation.
//!
//! ```
//! use carl::CarlEngine;
//! use reldb::Instance;
//!
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
//! // Three units are too few to estimate anything, but the full pipeline up
//! // to the unit table of the paper's Table 1 runs end to end:
//! let prepared = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
//! assert_eq!(prepared.unit_table.len(), 3);
//! assert_eq!(prepared.response_attr, "AVG_Score");
//! ```

use crate::adjust::{covariates_rows, AdjustmentPlan};
use crate::embed::EmbeddingKind;
use crate::error::{CarlError, CarlResult};
use crate::estimate::{CateSeries, EstimatorKind, QueryAnswer};
use crate::graph::CausalGraph;
use crate::ground::{
    ground, ground_aggregate_extension, ground_streaming, partition_comparisons, patch_streamed,
    AggregateExtension, GroundedModel, GroundedValues, PatchSafety, RowComparisons, StreamedModel,
    UnitRows,
};
use crate::model::RelationalCausalModel;
use crate::paths::unify;
use crate::peers::{compute_peers_rows, compute_peers_streamed_rows, PeerMap};
use crate::query::{conditional_ate, estimate_ate, estimate_peer_effects, CateStratifier};
use crate::rowwise::{
    build_row_unit_table, compute_peers_rowwise, covariates_rowwise, estimate_ate_rowwise,
    estimate_peer_effects_rowwise, RowPeerMap, RowUnitTable, RowUnitTableSpec,
};
use crate::unit_table::{build_unit_table_rows, UnitTable, UnitTableSpec};
use carl_lang::{
    parse_program, parse_query, AggregateRule, ArgTerm, CausalQuery, PeerCondition, Program,
};
use rayon::prelude::*;
use reldb::{
    evaluate_tuples_filtered, DeltaSet, IndexCache, IndexCacheStats, Instance, PlanCacheStats,
    UnitKey,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Which grounder query answering runs on.
///
/// [`GroundingMode::Streaming`] is the production path: each condition's
/// register-tuple chunks stream off the dense executor straight into the
/// merge, and derived aggregate values land in dense signature-indexed
/// column sinks that the unit table reads directly
/// ([`crate::ground::ground_streaming`]). [`GroundingMode::Tuples`] answers
/// through the reference grounder ([`crate::ground::ground`]): a
/// sequential loop over each condition's `Vec<Bindings>` answers, with no
/// analysis pruning, producing a sorted-map [`GroundedModel`]. It bypasses
/// both shared caches — the grounding results and the secondary indexes —
/// and re-grounds the whole effective model per query, so it serves as an
/// independent check of production answers.
///
/// The mode governs the query-answering pipeline only:
/// [`CarlEngine::ground_model`] always returns the reference grounding and
/// [`CarlEngine::ground_model_streamed`] the production one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GroundingMode {
    /// Fused streaming pipeline: executor chunks → merge → dense derived
    /// sinks (default).
    #[default]
    Streaming,
    /// The reference grounder, with a materialised grounded model.
    Tuples,
}

/// A prepared query: everything computed up to (and including) the unit
/// table, before estimation. Exposed so that benchmarks can time unit-table
/// construction separately (Table 2) and so that callers can inspect or
/// export the unit table.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The unit table `D(Y, ψ_T, Ψ_Z)` of Algorithm 1.
    pub unit_table: UnitTable,
    /// Relational peers of every unit.
    pub peers: PeerMap,
    /// The adjustment plan (covariates selected by Theorem 5.2).
    pub adjustment: AdjustmentPlan,
    /// The treatment attribute name.
    pub treatment_attr: String,
    /// The (possibly unified) response attribute name.
    pub response_attr: String,
    /// The peer regime of the query, if it is a peer-effects query.
    pub peer_condition: Option<PeerCondition>,
}

/// A prepared query on the legacy row-oriented data path — only produced by
/// [`CarlEngine::prepare_rowwise`] for differential testing.
#[derive(Debug, Clone)]
pub struct RowPreparedQuery {
    /// The row-built unit table of the seed implementation.
    pub unit_table: RowUnitTable,
    /// Relational peers of every unit, keyed by unit.
    pub peers: RowPeerMap,
    /// The treatment attribute name.
    pub treatment_attr: String,
    /// The (possibly unified) response attribute name.
    pub response_attr: String,
    /// The peer regime of the query, if it is a peer-effects query.
    pub peer_condition: Option<PeerCondition>,
}

/// The grounding a query actually runs against: the reference grounder's
/// materialised model, the shared streamed base grounding, or — the
/// streaming pipeline's synthesised-aggregate fast path — that base plus
/// the query's streamed [`AggregateExtension`].
#[derive(Debug)]
enum QueryGrounding {
    /// The reference grounding of the whole effective model
    /// ([`GroundingMode::Tuples`], and the row-wise reference path).
    Reference(Box<GroundedModel>),
    /// The engine's streamed base grounding.
    Streamed(Arc<StreamedModel>),
    /// The engine's base grounding with one synthesised aggregate streamed
    /// on top (no re-grounding, no graph mutation).
    Extended {
        base: Arc<StreamedModel>,
        ext: Arc<AggregateExtension>,
    },
}

impl QueryGrounding {
    /// The grounding as one whole model, or the base and extension it is
    /// made of.
    fn whole(&self) -> Result<&dyn GroundedValues, (&StreamedModel, &AggregateExtension)> {
        match self {
            QueryGrounding::Reference(model) => Ok(model.as_ref()),
            QueryGrounding::Streamed(base) => Ok(base.as_ref()),
            QueryGrounding::Extended { base, ext } => Err((base, ext)),
        }
    }
}

impl GroundedValues for QueryGrounding {
    fn graph(&self) -> &CausalGraph {
        match self.whole() {
            Ok(grounded) => grounded.graph(),
            Err((base, _)) => &base.graph,
        }
    }

    fn value_of(&self, instance: &Instance, node: &crate::graph::GroundedAttr) -> Option<f64> {
        match self.whole() {
            Ok(grounded) => grounded.value_of(instance, node),
            Err((base, ext)) => ext
                .value_of(instance, node)
                .or_else(|| base.value_of(instance, node)),
        }
    }

    fn node_values(&self, instance: &Instance, nodes: &[crate::graph::NodeId]) -> Vec<Option<f64>> {
        match self.whole() {
            Ok(grounded) => grounded.node_values(instance, nodes),
            Err((base, ext)) => {
                let mut values = base.node_values(instance, nodes);
                // Base nodes ground the extension's attribute only when a
                // program aggregate shares its name; those read the
                // extension first, as `value_of` does.
                if let Some(attr_id) = base.graph.lookup_attr(&ext.attr) {
                    let arity = base.graph.attr_arity(attr_id);
                    for (value, &node) in values.iter_mut().zip(nodes) {
                        let label = base.graph.label(node);
                        if label.attr == attr_id {
                            *value = ext.sig_value(arity, label.sig).or(*value);
                        }
                    }
                }
                values
            }
        }
    }

    fn unit_values(
        &self,
        instance: &Instance,
        attr: &str,
        units: UnitRows<'_>,
    ) -> Vec<Option<f64>> {
        match self.whole() {
            Ok(grounded) => grounded.unit_values(instance, attr, units),
            Err((base, ext)) => {
                let mut values = base.unit_values(instance, attr, units);
                if attr == ext.attr {
                    for (value, derived) in values.iter_mut().zip(ext.unit_values(units)) {
                        *value = derived.or(*value);
                    }
                }
                values
            }
        }
    }
}

/// A grounding-cache entry: the streamed base grounding under the empty
/// rule key, or a query-synthesised aggregate extension under the rule's
/// canonical rendering.
#[derive(Debug, Clone)]
enum CachedGrounding {
    Base(Arc<StreamedModel>),
    Extension(Arc<AggregateExtension>),
}

/// The grounding-result cache: `(rule key, instance fingerprint)` →
/// grounding. The rule key is the canonical rendering of the synthesised
/// aggregate rule (or empty for the base program); the fingerprint is
/// [`Instance::fingerprint`] — skeleton *and* attribute content, since
/// grounding derives aggregate values from attribute assignments — so
/// repeated queries over the same instance skip re-grounding while a
/// different instance can never produce a stale hit.
type GroundingCache = Mutex<HashMap<(String, u64), CachedGrounding>>;

/// Everything `prepare` computes before peers, shared by the dense and the
/// row-wise (differential-reference) paths.
struct PreparedInputs<'a> {
    /// The effective model (base program plus any synthesised aggregate).
    model: Cow<'a, RelationalCausalModel>,
    grounded: QueryGrounding,
    treatment_attr: String,
    response_attr: String,
    /// The class whose groundings are the units: the treatment's subject.
    unit_predicate: String,
    units: Vec<UnitKey>,
    allowed_units: Option<HashSet<UnitKey>>,
}

/// The end-to-end CaRL engine.
#[derive(Debug, Clone)]
pub struct CarlEngine {
    instance: Instance,
    model: RelationalCausalModel,
    embedding: EmbeddingKind,
    estimator: EstimatorKind,
    grounding_mode: GroundingMode,
    /// Shared across clones: clones answer queries over the same instance,
    /// so they profit from each other's groundings.
    grounding_cache: Arc<GroundingCache>,
    /// Lazily built secondary indexes (composite hash-join and attribute
    /// equality indexes) shared by every grounding over this instance.
    /// Also shared across clones; validity is guaranteed because the
    /// engine's instance is immutable after construction.
    eval_cache: Arc<IndexCache>,
    /// [`Instance::fingerprint`] of the (immutable) instance, computed once
    /// at construction so cache lookups don't re-walk the instance.
    instance_fingerprint: u64,
    /// The precomputed patch-safety screen: which attribute deltas can be
    /// patched incrementally and which force a cold rebuild, derived once
    /// from the program's dependency analysis (see
    /// [`crate::ground::PatchSafety`]). Shared across epochs — the screen
    /// depends only on the program, never on instance content.
    patch_safety: Arc<PatchSafety>,
}

impl CarlEngine {
    /// Create an engine from an instance and the CaRL source text of the
    /// relational causal model (rules and aggregate rules; queries appearing
    /// in the text are validated and kept available via
    /// [`CarlEngine::program_queries`]).
    pub fn new(instance: Instance, rules: &str) -> CarlResult<Self> {
        let program = parse_program(rules)?;
        Self::with_program(instance, program)
    }

    /// Create an engine from an already parsed program.
    pub fn with_program(instance: Instance, program: Program) -> CarlResult<Self> {
        let model = RelationalCausalModel::new(instance.schema().clone(), program)?;
        let instance_fingerprint = instance.fingerprint();
        let patch_safety = Arc::new(PatchSafety::of(&model));
        Ok(Self {
            instance,
            model,
            embedding: EmbeddingKind::default(),
            estimator: EstimatorKind::default(),
            grounding_mode: GroundingMode::default(),
            grounding_cache: Arc::new(Mutex::new(HashMap::new())),
            eval_cache: Arc::new(IndexCache::with_fingerprint(instance_fingerprint)),
            instance_fingerprint,
            patch_safety,
        })
    }

    /// Whether [`CarlEngine::patched_next`] can build the engine of the
    /// epoch `delta` leads to by patching this engine's state instead of
    /// re-grounding cold.
    ///
    /// True exactly when the engine streams its groundings
    /// ([`GroundingMode::Streaming`] — the patch operates on the dense-sink
    /// [`StreamedModel`] form), the delta is attribute-only
    /// (`!delta.is_structural()`), and none of the touched attributes can
    /// influence grounding *structure* per the precomputed
    /// [`PatchSafety`] screen: the attribute is not read by a comparison of
    /// a *live* statement (dead statements never fire, so their reads
    /// cannot change structure) and is not the head of an aggregate whose
    /// groundings gate other rules. The screen is computed once at engine
    /// construction from the program's dependency analysis — this check
    /// never re-walks the program, no matter how many commits screen
    /// through it.
    pub fn can_patch(&self, delta: &DeltaSet) -> bool {
        self.grounding_mode == GroundingMode::Streaming
            && !delta.is_structural()
            && self.patch_safety.delta_patchable(&delta.touched_attrs())
    }

    /// The engine's precomputed patch-safety screen (see
    /// [`crate::ground::PatchSafety`]): per-attribute machine-readable
    /// reasons why a delta touching that attribute would force a cold
    /// rebuild.
    pub fn patch_safety(&self) -> &PatchSafety {
        &self.patch_safety
    }

    /// Build the engine of the next epoch by *patching* this engine's
    /// grounded state with an attribute-only `delta`, instead of paying a
    /// cold re-ground: secondary indexes that the delta cannot invalidate
    /// are inherited (`Arc`-shared) and, when this engine has already
    /// grounded its streamed base, the derived aggregate values are
    /// incrementally maintained cell by cell (`patch_streamed` in the
    /// grounding module).
    ///
    /// `instance` must be the epoch `delta` produced (i.e. the result of
    /// the [`reldb::Instance::apply_with_delta`] call that returned
    /// `delta`). Errors if [`CarlEngine::can_patch`] does not hold —
    /// callers screen first and fall back to the cold constructor.
    ///
    /// The patch is copy-on-write: this engine, its caches, and any
    /// snapshot still serving readers are never mutated.
    pub fn patched_next(&self, instance: Instance, delta: &DeltaSet) -> CarlResult<CarlEngine> {
        if !self.can_patch(delta) {
            return Err(CarlError::Grounding(
                "delta is not attribute-patchable; use a cold rebuild".into(),
            ));
        }
        let instance_fingerprint = instance.fingerprint();
        // The skeleton is unchanged, so composite indexes (and attribute
        // indexes of untouched attrs) stay valid for the new epoch.
        let eval_cache = Arc::new(
            self.eval_cache
                .rebase_for_attribute_delta(instance_fingerprint, &delta.touched_attrs()),
        );
        // If this engine already grounded its streamed base, patch it into
        // the new epoch's base grounding; otherwise start the new engine
        // with an empty cache and let the first query ground lazily (cold
        // bases are not worth grounding the *old* epoch just to patch).
        let grounding_cache: Arc<GroundingCache> = Arc::new(Mutex::new(HashMap::new()));
        let warm_base = match self
            .lock_grounding_cache()
            .get(&(String::new(), self.instance_fingerprint))
        {
            Some(CachedGrounding::Base(base)) => Some(Arc::clone(base)),
            _ => None,
        };
        if let Some(base) = warm_base {
            if let Some(patched) =
                patch_streamed(&base, &self.model, &instance, &delta.changed_cells())
            {
                grounding_cache
                    .lock()
                    .expect("fresh grounding cache lock")
                    .insert(
                        (String::new(), instance_fingerprint),
                        CachedGrounding::Base(Arc::new(patched)),
                    );
            }
        }
        Ok(CarlEngine {
            instance,
            model: self.model.clone(),
            embedding: self.embedding,
            estimator: self.estimator,
            grounding_mode: self.grounding_mode,
            grounding_cache,
            eval_cache,
            instance_fingerprint,
            // The screen depends only on the (unchanged) program, so the
            // patched epoch inherits it without recomputation.
            patch_safety: Arc::clone(&self.patch_safety),
        })
    }

    /// Replace the grounder (see [`GroundingMode`]). The `Tuples` mode
    /// exists for differential checking; production engines keep the
    /// default `Streaming` mode.
    pub fn set_grounding_mode(&mut self, mode: GroundingMode) -> &mut Self {
        self.grounding_mode = mode;
        self
    }

    /// Replace the embedding strategy (§5.2.2). `Padding(0)` auto-sizes the
    /// padding width to the maximum peer count at query time.
    pub fn set_embedding(&mut self, embedding: EmbeddingKind) -> &mut Self {
        self.embedding = embedding;
        self
    }

    /// Replace the estimator used for ATE-style queries.
    pub fn set_estimator(&mut self, estimator: EstimatorKind) -> &mut Self {
        self.estimator = estimator;
        self
    }

    /// The observed instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The validated relational causal model.
    pub fn model(&self) -> &RelationalCausalModel {
        &self.model
    }

    /// The embedding strategy currently in use.
    pub fn embedding(&self) -> EmbeddingKind {
        self.embedding
    }

    /// The content fingerprint of the instance this engine was built on.
    ///
    /// Both shared caches (grounding results and secondary indexes) are
    /// keyed by this value, so two engines with equal fingerprints answer
    /// queries bit-identically.
    pub fn instance_fingerprint(&self) -> u64 {
        self.instance_fingerprint
    }

    /// Hit/miss statistics of the shared secondary-index cache and of the
    /// shape-keyed plan-template cache riding on it.
    pub fn eval_cache_stats(&self) -> (IndexCacheStats, PlanCacheStats) {
        (self.eval_cache.stats(), self.eval_cache.plan_stats())
    }

    /// Queries that were embedded in the model source text, if any.
    pub fn program_queries(&self) -> &[CausalQuery] {
        &self.model.program().queries
    }

    /// Ground the model (without any query-specific synthesis) on the
    /// reference grounder ([`crate::ground::ground`]), in every
    /// [`GroundingMode`], into the materialised [`GroundedModel`] form.
    /// Useful for inspecting the grounded causal graph and for tests.
    /// Shares neither of the engine's caches. The production form is
    /// [`CarlEngine::ground_model_streamed`].
    pub fn ground_model(&self) -> CarlResult<GroundedModel> {
        ground(&self.model, &self.instance)
    }

    /// Ground the model (without any query-specific synthesis) on the
    /// fused streaming pipeline, returning the dense-sink form. Bypasses
    /// the grounding-result cache but shares the engine's secondary
    /// indexes. The graph and every derived value are bit-identical to
    /// [`CarlEngine::ground_model`]'s.
    pub fn ground_model_streamed(&self) -> CarlResult<StreamedModel> {
        ground_streaming(&self.model, &self.instance, &self.eval_cache)
    }

    /// Render, for every rule and aggregate of the program, the executable
    /// grounding plan of its condition, annotated with the whole-program
    /// analysis facts: a condition proven statically empty carries a
    /// [`reldb::PlanFact::ProvenEmpty`] fact — such a plan reports
    /// [`reldb::Plan::unsatisfiable`], so the executors return no rows
    /// without scanning anything — and proven value bounds become
    /// [`reldb::PlanFact::ValueBound`] facts, with a cardinality clamp
    /// when an equality pins the attribute to a constant whose assignment
    /// count the instance can answer directly.
    pub fn explain_grounding_plans(&self) -> CarlResult<String> {
        use crate::ground::{prep_condition, PreppedCondition};
        use carl_lang::{ConditionFact, StatementId};

        let deps = crate::analyze::deps_with_schema(self.instance.schema(), self.model.program());
        let program = self.model.program();
        let mut out = String::new();
        let explain =
            |id: StatementId, prep: PreppedCondition, fact: &ConditionFact| -> CarlResult<String> {
                let plan = reldb::plan_query_filtered(
                    self.instance.schema(),
                    &self.instance,
                    &self.eval_cache,
                    &prep.query,
                    &prep.filters,
                )
                .map_err(CarlError::Rel)?;
                let mut facts = Vec::new();
                if let Some(proof) = &fact.unsat {
                    facts.push(reldb::PlanFact::ProvenEmpty {
                        reason: proof.message.clone(),
                    });
                } else {
                    for bounds in &fact.bounds {
                        // `bounds.attr` is the display reference (`Score[S]`);
                        // the clamp probe needs the bare attribute name.
                        let attr = bounds
                            .attr
                            .split('[')
                            .next()
                            .unwrap_or(&bounds.attr)
                            .to_string();
                        let max_rows = bounds.constant.as_ref().map(|lit| {
                            let want = crate::model::literal_to_value(lit);
                            self.instance
                                .attribute_assignments(&attr)
                                .filter(|(_, v)| **v == want)
                                .count() as f64
                        });
                        facts.push(reldb::PlanFact::ValueBound {
                            attr,
                            bounds: bounds.to_string(),
                            max_rows,
                        });
                    }
                }
                Ok(format!(
                    "{}:\n{}",
                    id.label(program),
                    plan.with_facts(facts)
                ))
            };
        for (i, rule) in self.model.rules().iter().enumerate() {
            let prep = prep_condition(
                &self.model,
                &rule.head.attr,
                &rule.head.args,
                &rule.condition,
            )?;
            out.push_str(&explain(StatementId::Rule(i), prep, &deps.rule_facts[i])?);
        }
        for (i, agg) in self.model.aggregates().iter().enumerate() {
            let prep = prep_condition(
                &self.model,
                &agg.source.attr,
                &agg.source.args,
                &agg.condition,
            )?;
            out.push_str(&explain(
                StatementId::Aggregate(i),
                prep,
                &deps.aggregate_facts[i],
            )?);
        }
        Ok(out)
    }

    /// Prepare a query given as CaRL text.
    pub fn prepare_str(&self, query: &str) -> CarlResult<PreparedQuery> {
        let query = parse_query(query)?;
        self.prepare(&query)
    }

    /// Answer a query given as CaRL text.
    pub fn answer_str(&self, query: &str) -> CarlResult<QueryAnswer> {
        let query = parse_query(query)?;
        self.answer(&query)
    }

    /// Lock the grounding cache, recovering the guard if a previous holder
    /// panicked: the cache only ever stores fully constructed shared
    /// `Arc`s (insertion happens after grounding completes, outside any
    /// partially-written state), so a poisoned mutex cannot expose a torn
    /// value — and must not condemn every later query on a shared engine
    /// to the poisoning panic.
    fn lock_grounding_cache(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<(String, u64), CachedGrounding>> {
        self.grounding_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The engine's shared streamed base grounding (the base model is
    /// query-independent, so this is engine-level state exactly like the
    /// secondary indexes: computed lazily once per instance and reused by
    /// every streamed query).
    fn base_streamed(&self) -> CarlResult<Arc<StreamedModel>> {
        let key = (String::new(), self.instance_fingerprint);
        if let Some(CachedGrounding::Base(base)) = self.lock_grounding_cache().get(&key) {
            return Ok(Arc::clone(base));
        }
        // Ground outside the lock: grounding is pure, so a concurrent miss
        // on the same key just does redundant work, never wrong work.
        let base = Arc::new(ground_streaming(
            &self.model,
            &self.instance,
            &self.eval_cache,
        )?);
        self.lock_grounding_cache()
            .insert(key, CachedGrounding::Base(Arc::clone(&base)));
        Ok(base)
    }

    /// The streamed extension for a query-synthesised aggregate, through
    /// the result cache.
    fn extension_for(
        &self,
        base: &Arc<StreamedModel>,
        model: &RelationalCausalModel,
        rule: &AggregateRule,
    ) -> CarlResult<Arc<AggregateExtension>> {
        let key = (format!("{rule:?}"), self.instance_fingerprint);
        if let Some(CachedGrounding::Extension(ext)) = self.lock_grounding_cache().get(&key) {
            return Ok(Arc::clone(ext));
        }
        let ext = Arc::new(ground_aggregate_extension(
            base,
            model,
            rule,
            &self.instance,
            &self.eval_cache,
        )?);
        self.lock_grounding_cache()
            .insert(key, CachedGrounding::Extension(Arc::clone(&ext)));
        Ok(ext)
    }

    /// Ground `model` in grounding mode `mode`. [`GroundingMode::Tuples`]
    /// grounds the whole model on the reference grounder, bypassing both
    /// shared caches so a fault in one cannot mask itself (the reference
    /// exists to check answers, not to serve them fast). In the streaming
    /// mode the base grounding comes through the `(rule, fingerprint)`
    /// result cache, and a synthesised rule never re-grounds the whole
    /// model: the query runs as an [`AggregateExtension`] over the shared
    /// base grounding.
    fn grounded_for(
        &self,
        model: &RelationalCausalModel,
        synthesized: Option<&AggregateRule>,
        mode: GroundingMode,
    ) -> CarlResult<QueryGrounding> {
        if mode == GroundingMode::Tuples {
            let grounded = ground(model, &self.instance)?;
            return Ok(QueryGrounding::Reference(Box::new(grounded)));
        }
        let base = self.base_streamed()?;
        match synthesized {
            Some(rule) => {
                let ext = self.extension_for(&base, model, rule)?;
                Ok(QueryGrounding::Extended { base, ext })
            }
            None => Ok(QueryGrounding::Streamed(base)),
        }
    }

    /// Number of grounded models currently cached.
    pub fn grounding_cache_len(&self) -> usize {
        self.lock_grounding_cache().len()
    }

    /// Steps 1–4 of `prepare`, up to (but excluding) peers, shared by the
    /// dense and row-wise paths; `mode` picks the grounder.
    fn prepare_inputs(
        &self,
        query: &CausalQuery,
        mode: GroundingMode,
    ) -> CarlResult<PreparedInputs<'_>> {
        // 1. Unify treated and response units (§4.3), possibly synthesising
        //    an aggregate rule that also folds in the query's restriction.
        let plan = unify(&self.model, query)?;

        // 2. Build the effective model (base + synthesised rule) and ground
        //    it (through the grounding cache unless told otherwise).
        let (model, grounded) = if let Some(rule) = &plan.synthesized {
            let mut program = self.model.program().clone();
            program.aggregates.push(rule.clone());
            let model = RelationalCausalModel::new(self.instance.schema().clone(), program)?;
            let grounded = self.grounded_for(&model, Some(rule), mode)?;
            (Cow::Owned(model), grounded)
        } else {
            let grounded = self.grounded_for(&self.model, None, mode)?;
            (Cow::Borrowed(&self.model), grounded)
        };

        // 3. Units of analysis: groundings of the treatment's subject class.
        let units = self
            .instance
            .skeleton()
            .units_of(self.instance.schema(), &plan.unit_predicate)
            .map_err(CarlError::Rel)?;

        // 4. Population restriction from the query's WHERE clause, when it
        //    binds the treatment variable and was not already folded into the
        //    synthesised aggregate.
        let allowed_units = if plan.condition_folded {
            None
        } else {
            self.allowed_units(query)?
        };

        Ok(PreparedInputs {
            model,
            grounded,
            treatment_attr: query.treatment.attr.clone(),
            response_attr: plan.response_attr,
            unit_predicate: plan.unit_predicate,
            units,
            allowed_units,
        })
    }

    /// The engine's embedding, with `Padding(0)` auto-sized to the widest
    /// peer set (at least 1).
    fn embedding_for(&self, max_peers: usize) -> EmbeddingKind {
        match self.embedding {
            EmbeddingKind::Padding(0) => EmbeddingKind::Padding(max_peers.max(1)),
            other => other,
        }
    }

    /// Prepare a parsed query: unify, ground (through the grounding cache),
    /// detect covariates and build the columnar unit table.
    pub fn prepare(&self, query: &CausalQuery) -> CarlResult<PreparedQuery> {
        let inputs = self.prepare_inputs(query, self.grounding_mode)?;
        let treatment_attr = inputs.treatment_attr.as_str();

        // 5. Relational peers and covariates. When the response is a
        //    streamed aggregate extension, its (virtual, leaf) response
        //    vertices are answered from the group source lists instead of
        //    a materialised graph walk. Peers and covariates address units
        //    by row, and the unit table reads both by row. Units of an
        //    entity class are its skeleton rows, so every layer reads them
        //    by key symbol.
        let shared: Arc<[UnitKey]> = inputs.units.into();
        let units = match self
            .instance
            .schema()
            .predicate_kind(&inputs.unit_predicate)
        {
            Some(reldb::PredicateKind::Entity) => {
                UnitRows::of_class(self.instance.skeleton(), &inputs.unit_predicate, &shared)
            }
            _ => UnitRows::keys(&shared),
        };
        let peers = match &inputs.grounded {
            QueryGrounding::Extended { base, ext } => {
                compute_peers_streamed_rows(base, ext, treatment_attr, units, Arc::clone(&shared))
            }
            _ => compute_peers_rows(
                &inputs.grounded,
                treatment_attr,
                &inputs.response_attr,
                units,
                Arc::clone(&shared),
            ),
        };
        let adjustment = covariates_rows(
            &inputs.model,
            &inputs.grounded,
            &self.instance,
            treatment_attr,
            units,
            &peers,
        );

        // 6. Embedding and the unit table (Algorithm 1). The peer map holds
        //    the shared unit list, so the later layers match it by address.
        let embedding = self.embedding_for(peers.values().map(Vec::len).max().unwrap_or(0));
        let unit_table = build_unit_table_rows(
            &UnitTableSpec {
                grounded: &inputs.grounded,
                instance: &self.instance,
                treatment_attr,
                response_attr: &inputs.response_attr,
                units: peers.units(),
                peers: &peers,
                adjustment: &adjustment,
                embedding,
                allowed_units: inputs.allowed_units.as_ref(),
            },
            units,
        )?;

        Ok(PreparedQuery {
            unit_table,
            peers,
            adjustment,
            treatment_attr: inputs.treatment_attr,
            response_attr: inputs.response_attr,
            peer_condition: query.peers,
        })
    }

    /// Prepare a parsed query on the legacy row-oriented reference path:
    /// the reference grounder (no shared cache), key-addressed peers and
    /// covariates from [`crate::rowwise`], row-built unit table. Reference
    /// implementation for the differential test harness; not used by
    /// production code.
    pub fn prepare_rowwise(&self, query: &CausalQuery) -> CarlResult<RowPreparedQuery> {
        let inputs = self.prepare_inputs(query, GroundingMode::Tuples)?;
        let QueryGrounding::Reference(grounded) = &inputs.grounded else {
            unreachable!("the Tuples mode grounds on the reference grounder")
        };
        let grounded = grounded.as_ref();
        let peers = compute_peers_rowwise(
            grounded,
            &inputs.treatment_attr,
            &inputs.response_attr,
            &inputs.units,
        );
        let adjustment = covariates_rowwise(
            &inputs.model,
            grounded,
            &self.instance,
            &inputs.treatment_attr,
            &inputs.units,
            &peers,
        );
        let embedding = self.embedding_for(peers.values().map(Vec::len).max().unwrap_or(0));
        let unit_table = build_row_unit_table(&RowUnitTableSpec {
            grounded,
            instance: &self.instance,
            treatment_attr: &inputs.treatment_attr,
            response_attr: &inputs.response_attr,
            units: &inputs.units,
            peers: &peers,
            adjustment: &adjustment,
            embedding,
            allowed_units: inputs.allowed_units.as_ref(),
        })?;

        Ok(RowPreparedQuery {
            unit_table,
            peers,
            treatment_attr: inputs.treatment_attr,
            response_attr: inputs.response_attr,
            peer_condition: query.peers,
        })
    }

    /// Answer a parsed query.
    pub fn answer(&self, query: &CausalQuery) -> CarlResult<QueryAnswer> {
        let prepared = self.prepare(query)?;
        self.answer_prepared(&prepared)
    }

    /// Estimate a previously prepared query (lets callers time estimation
    /// separately from unit-table construction).
    pub fn answer_prepared(&self, prepared: &PreparedQuery) -> CarlResult<QueryAnswer> {
        match &prepared.peer_condition {
            Some(regime) => {
                let answer = estimate_peer_effects(
                    &prepared.unit_table,
                    regime,
                    &prepared.peers,
                    self.estimator,
                )?;
                Ok(QueryAnswer::PeerEffects(answer))
            }
            None => {
                let mut answer = estimate_ate(&prepared.unit_table, self.estimator)?;
                answer.response_attribute = prepared.response_attr.clone();
                answer.treatment_attribute = prepared.treatment_attr.clone();
                Ok(QueryAnswer::Ate(answer))
            }
        }
    }

    /// Answer a parsed query on the legacy row-oriented reference path
    /// (row-built unit table, per-row feature extraction, no grounding
    /// cache). Exists for the differential test harness, which asserts this
    /// path and [`CarlEngine::answer`] produce bit-identical estimates.
    pub fn answer_rowwise(&self, query: &CausalQuery) -> CarlResult<QueryAnswer> {
        let prepared = self.prepare_rowwise(query)?;
        match &prepared.peer_condition {
            Some(regime) => {
                let answer = estimate_peer_effects_rowwise(
                    &prepared.unit_table,
                    regime,
                    &prepared.peers,
                    self.estimator,
                )?;
                Ok(QueryAnswer::PeerEffects(answer))
            }
            None => {
                let mut answer = estimate_ate_rowwise(&prepared.unit_table, self.estimator)?;
                answer.response_attribute = prepared.response_attr.clone();
                answer.treatment_attribute = prepared.treatment_attr.clone();
                Ok(QueryAnswer::Ate(answer))
            }
        }
    }

    /// Answer a query given as CaRL text on the legacy row-oriented path.
    pub fn answer_str_rowwise(&self, query: &str) -> CarlResult<QueryAnswer> {
        let query = parse_query(query)?;
        self.answer_rowwise(&query)
    }

    /// Answer a batch of parsed queries concurrently through the rayon
    /// facade. Results come back in input order; the grounding cache is
    /// shared, so all queries over the same (rule, skeleton) pair ground at
    /// most a handful of times across the whole batch.
    pub fn answer_many(&self, queries: &[CausalQuery]) -> Vec<CarlResult<QueryAnswer>> {
        queries
            .to_vec()
            .into_par_iter()
            .map(|query| self.answer(&query))
            .collect()
    }

    /// Answer a batch of textual queries concurrently (see
    /// [`CarlEngine::answer_many`]).
    pub fn answer_many_str(&self, queries: &[&str]) -> Vec<CarlResult<QueryAnswer>> {
        queries
            .to_vec()
            .into_par_iter()
            .map(|query| self.answer_str(query))
            .collect()
    }

    /// Conditional ATEs for a query (Figures 8 and 10): prepare the query,
    /// then stratify its unit table.
    pub fn conditional_ate_str(
        &self,
        query: &str,
        stratifier: &CateStratifier,
        min_stratum: usize,
    ) -> CarlResult<CateSeries> {
        let prepared = self.prepare_str(query)?;
        conditional_ate(&prepared.unit_table, stratifier, min_stratum)
    }

    /// Compute the set of treatment units admitted by the query's WHERE
    /// clause, when it binds the treatment variable. Returns `None` when the
    /// clause does not restrict the treatment units.
    fn allowed_units(&self, query: &CausalQuery) -> CarlResult<Option<HashSet<UnitKey>>> {
        if query.condition.is_trivial() {
            return Ok(None);
        }
        let Some(ArgTerm::Var(tvar)) = query.treatment.args.first() else {
            return Ok(None);
        };
        if !query.condition.variables().contains(tvar) {
            return Ok(None);
        }
        // Ensure the treatment variable is bound even when the WHERE clause
        // consists only of attribute comparisons (e.g. `Qualification[A] >= 10`)
        // by adding the implicit subject atom of the treatment attribute.
        let needs_binding = !query
            .condition
            .atoms
            .iter()
            .any(|a| a.args.iter().any(|t| t.as_var() == Some(tvar.as_str())));
        let mut extra_atoms = Vec::new();
        if needs_binding {
            extra_atoms.push(
                self.model
                    .implicit_atom(&query.treatment.attr, &query.treatment.args)?,
            );
        }
        let (mut cq, comparisons) = self.model.condition_to_query(&query.condition, None);
        cq.atoms.extend(extra_atoms);
        let (filters, residual) = partition_comparisons(comparisons);
        let answers = evaluate_tuples_filtered(
            &self.eval_cache,
            self.instance.schema(),
            &self.instance,
            &cq,
            &filters,
        )
        .map_err(CarlError::Rel)?;
        let residual = RowComparisons::compile(&residual, &answers, &self.instance);
        let mut allowed = HashSet::new();
        if let Some(slot) = answers.slot_of(tvar) {
            for row in answers.rows() {
                if !residual.hold(row, &answers) {
                    continue;
                }
                allowed.insert(vec![answers.value(row[slot]).clone()]);
            }
        }
        Ok(Some(allowed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::Value;

    const REVIEW_RULES: &str = r#"
        Prestige[A]  <= Qualification[A]              WHERE Person(A)
        Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
        Score[S]     <= Prestige[A]                   WHERE Author(A, S)
        Score[S]     <= Quality[S]                    WHERE Submission(S)
        AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
    "#;

    fn engine() -> CarlEngine {
        CarlEngine::new(Instance::review_example(), REVIEW_RULES).unwrap()
    }

    #[test]
    fn prepare_builds_the_paper_unit_table() {
        let engine = engine();
        let prepared = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        assert_eq!(prepared.unit_table.len(), 3);
        assert_eq!(prepared.response_attr, "AVG_Score");
        assert_eq!(prepared.treatment_attr, "Prestige");
        assert!(prepared.peer_condition.is_none());
        // Every author has at least one co-author peer in Figure 2.
        assert!(prepared.peers.values().all(|p| !p.is_empty()));
    }

    #[test]
    fn cross_unit_query_unifies_to_an_average() {
        let engine = engine();
        let prepared = engine.prepare_str("Score[S] <= Prestige[A]?").unwrap();
        assert!(prepared.response_attr.starts_with("AVG_Score"));
        assert_eq!(prepared.unit_table.len(), 3);
    }

    #[test]
    fn answering_on_three_units_is_too_small_but_structured() {
        // With only 3 units the regression (1 + covariates) is
        // under-determined, so the engine reports an estimation error rather
        // than a bogus number. This also guards the error path.
        let engine = engine();
        let err = engine.answer_str("AVG_Score[A] <= Prestige[A]?");
        assert!(err.is_err());
    }

    #[test]
    fn where_clause_restricts_treated_units() {
        let engine = engine();
        let prepared = engine
            .prepare_str("AVG_Score[A] <= Prestige[A]? WHERE Qualification[A] >= 10")
            .unwrap();
        // Bob (50) and Carlos (20) qualify; Eva (2) does not.
        assert_eq!(prepared.unit_table.len(), 2);
        let units: Vec<String> = prepared
            .unit_table
            .units
            .iter()
            .map(|u| u[0].to_string())
            .collect();
        assert!(units.contains(&"Bob".to_string()));
        assert!(units.contains(&"Carlos".to_string()));
    }

    #[test]
    fn folded_condition_restricts_base_responses() {
        let engine = engine();
        // Restrict to the double-blind conference (ConfAI): only s2 and s3
        // contribute, so Bob (who only wrote s1) has no outcome and drops out.
        let prepared = engine
            .prepare_str("Score[S] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = true")
            .unwrap();
        let units: Vec<String> = prepared
            .unit_table
            .units
            .iter()
            .map(|u| u[0].to_string())
            .collect();
        assert!(!units.contains(&"Bob".to_string()));
        assert!(units.contains(&"Eva".to_string()));
        assert!(units.contains(&"Carlos".to_string()));
        // Eva's restricted average is over s2 and s3 only.
        let eva_row = prepared
            .unit_table
            .units
            .iter()
            .position(|u| u == &vec![Value::from("Eva")])
            .unwrap();
        let outcome = prepared.unit_table.outcomes()[eva_row];
        assert!((outcome - (0.4 + 0.1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn padding_autosize_is_applied() {
        let mut engine = engine();
        engine.set_embedding(EmbeddingKind::Padding(0));
        let prepared = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        // Max peer count in Figure 2 is 2 (Eva), so padding width is 2.
        assert_eq!(prepared.unit_table.embedding, EmbeddingKind::Padding(2));
    }

    #[test]
    fn repeated_queries_hit_the_grounding_cache() {
        let engine = engine();
        assert_eq!(engine.grounding_cache_len(), 0);
        let a = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        assert_eq!(engine.grounding_cache_len(), 1);
        let b = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        // Same (rule, skeleton) key: no new entry, identical unit table.
        assert_eq!(engine.grounding_cache_len(), 1);
        assert_eq!(a.unit_table.len(), b.unit_table.len());
        assert_eq!(
            a.unit_table
                .outcomes()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.unit_table
                .outcomes()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        // A query that synthesises an aggregate rule grounds a different
        // effective model and gets its own entry.
        engine.prepare_str("Score[S] <= Prestige[A]?").unwrap();
        assert_eq!(engine.grounding_cache_len(), 2);
        // Clones share the cache.
        let clone = engine.clone();
        clone.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        assert_eq!(engine.grounding_cache_len(), 2);
    }

    #[test]
    fn streamed_extension_handles_sources_absent_from_the_base_graph() {
        // The base model grounds no `Score` nodes, so every source of the
        // query-synthesised aggregate exists only as an observed attribute
        // value: the extension must take its values from the instance and
        // contribute no peer reachability — exactly like the materialised
        // grounding, where such freshly created source nodes have no
        // in-edges.
        let rules = "Prestige[A] <= Qualification[A] WHERE Person(A)";
        let streamed = CarlEngine::new(Instance::review_example(), rules).unwrap();
        let mut materialised = streamed.clone();
        materialised.set_grounding_mode(GroundingMode::Tuples);
        let query = "Score[S] <= Prestige[A]?";
        let s = streamed.prepare_str(query).unwrap();
        let m = materialised.prepare_str(query).unwrap();
        assert_eq!(s.unit_table.units, m.unit_table.units);
        assert_eq!(s.peers, m.peers);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.unit_table.outcomes()), bits(m.unit_table.outcomes()));
        assert_eq!(
            bits(s.unit_table.treatments()),
            bits(m.unit_table.treatments())
        );
    }

    #[test]
    fn queries_survive_a_poisoned_grounding_cache() {
        let engine = engine();
        engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        // Poison the cache mutex: a thread panics while holding the lock
        // (as a query thread would if estimation panicked mid-lookup).
        let clone = engine.clone();
        let result = std::thread::spawn(move || {
            let _guard = clone.grounding_cache.lock().unwrap();
            panic!("poison the grounding cache");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread must have panicked");
        assert!(engine.grounding_cache.is_poisoned());
        // Regression: every later query on the shared engine used to panic
        // on `.expect("grounding cache lock")`. The cached `Arc`s are never
        // left half-written, so the guard is recovered instead.
        let prepared = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        assert_eq!(prepared.unit_table.len(), 3);
        assert!(engine.grounding_cache_len() >= 1);
    }

    #[test]
    fn concurrent_clones_recover_from_poison_and_stay_bit_identical() {
        // The concurrent sequel to the test above: clones share the
        // grounding and index caches, a panic poisons the shared mutex
        // mid-run, and every thread's subsequent answers must still be
        // bit-identical to a cold sequential reference.
        let digest = |p: &PreparedQuery| {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                p.unit_table.units.clone(),
                bits(p.unit_table.outcomes()),
                bits(p.unit_table.treatments()),
            )
        };
        let query = "AVG_Score[A] <= Prestige[A]?";
        let reference = digest(&engine().prepare_str(query).unwrap());

        let engine = engine();
        let clone = engine.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = clone.grounding_cache.lock().unwrap();
            panic!("poison the shared grounding cache");
        })
        .join();
        assert!(poisoner.is_err());
        assert!(engine.grounding_cache.is_poisoned());

        let threads: Vec<_> = (0..8)
            .map(|_| {
                let clone = engine.clone();
                let query = query.to_string();
                std::thread::spawn(move || {
                    (0..4)
                        .map(|_| clone.prepare_str(&query).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in threads {
            for prepared in thread.join().expect("query thread must not panic") {
                assert_eq!(digest(&prepared), reference);
            }
        }
    }

    #[test]
    fn answer_many_preserves_order_and_matches_single_answers() {
        let engine = engine();
        let queries = [
            "AVG_Score[A] <= Prestige[A]?",
            "AVG_Score[A] <= Prestige[A]? WHERE Qualification[A] >= 10",
            "Score[S] <= Prestige[A]?",
        ];
        let batch = engine.answer_many_str(&queries);
        assert_eq!(batch.len(), queries.len());
        for (query, result) in queries.iter().zip(&batch) {
            let single = engine.answer_str(query);
            // Three units are too few to estimate, so both fail — but they
            // must fail (or succeed) identically per query.
            assert_eq!(result.is_ok(), single.is_ok(), "{query}");
        }
    }

    #[test]
    fn rowwise_reference_path_answers_like_the_columnar_path() {
        let engine = engine();
        // Too few units: both paths report an estimation error.
        assert!(engine
            .answer_str_rowwise("AVG_Score[A] <= Prestige[A]?")
            .is_err());
        // The row-wise prepared query matches the columnar one structurally.
        let row = engine
            .prepare_rowwise(&parse_query("AVG_Score[A] <= Prestige[A]?").unwrap())
            .unwrap();
        let col = engine.prepare_str("AVG_Score[A] <= Prestige[A]?").unwrap();
        assert_eq!(row.unit_table.len(), col.unit_table.len());
        assert_eq!(row.unit_table.units, col.unit_table.units);
        assert_eq!(row.response_attr, col.response_attr);
    }

    #[test]
    fn program_queries_are_available() {
        let engine = CarlEngine::new(
            Instance::review_example(),
            &format!("{REVIEW_RULES}\nAVG_Score[A] <= Prestige[A]?"),
        )
        .unwrap();
        assert_eq!(engine.program_queries().len(), 1);
    }

    #[test]
    fn ground_model_exposes_the_graph() {
        let engine = engine();
        let grounded = engine.ground_model().unwrap();
        assert_eq!(grounded.graph.nodes_of_attr("Score").len(), 3);
    }

    #[test]
    fn explain_grounding_plans_carries_analysis_facts() {
        let engine = CarlEngine::new(
            Instance::review_example(),
            r#"
            Prestige[A] <= Qualification[A] WHERE Person(A), Qualification[A] > 5.0
            Quality[S]  <= Prestige[A] WHERE Author(A, S), Score[S] > 9000.0, Score[S] < -9000.0
            AVG_Score[A] <= Score[S] WHERE Author(A, S), Blind[C] = true, Submitted(S, C)
            "#,
        )
        .unwrap();
        let explained = engine.explain_grounding_plans().unwrap();
        // Live rule 1: its comparison becomes a value-bound fact.
        assert!(explained.contains("rule 1 (`Prestige`)"));
        assert!(explained.contains("fact: bound: Qualification[A] in (5, +inf)"));
        // Dead rule 2: proven empty, plan short-circuits.
        assert!(explained.contains("rule 2 (`Quality`)"));
        assert!(explained.contains("fact: proven empty"));
        // Aggregate: the Bool equality pins Blind and clamps cardinality
        // (one conference in Figure 2 is double-blind).
        assert!(explained.contains("aggregate 1 (`AVG_Score`)"));
        assert!(explained.contains("Blind[C] = true"));
        assert!(explained.contains("(≤1 rows via `Blind`)"));
    }

    #[test]
    fn invalid_rules_are_rejected_at_construction() {
        let err = CarlEngine::new(
            Instance::review_example(),
            "Score[S] <= Fame[A] WHERE Author(A, S)",
        );
        assert!(err.is_err());
    }
}
