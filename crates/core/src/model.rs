//! Relational causal models: a parsed CaRL program bound to, and validated
//! against, a relational causal schema.
//!
//! [`RelationalCausalModel`] performs the schema-aware checks that the
//! schema-independent `carl-lang` validator cannot: every attribute must
//! exist (or be defined by an aggregate rule), attribute references must
//! have the arity of their subject predicate, and `WHERE` predicates must be
//! declared. It also provides the conversion from the language AST to the
//! relational substrate's query IR used during grounding.

use crate::error::{CarlError, CarlResult};
use carl_lang::{
    validate_program, AggregateRule, ArgTerm, CausalRule, CompareOp, Comparison, Condition,
    Literal, Program,
};
use reldb::{Atom, ConjunctiveQuery, PredicateKind, RelationalSchema, Term, Value};
use std::collections::HashMap;

/// Convert a CaRL literal to a database value.
pub fn literal_to_value(lit: &Literal) -> Value {
    match lit {
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
    }
}

/// Convert an AST argument to a query term.
pub fn arg_to_term(arg: &ArgTerm) -> Term {
    match arg {
        ArgTerm::Var(v) => Term::Var(v.clone()),
        ArgTerm::Const(c) => Term::Const(literal_to_value(c)),
    }
}

/// An attribute comparison with its constant already converted to a
/// database value, ready to be evaluated against an instance during
/// grounding or population restriction.
#[derive(Debug, Clone)]
pub struct TypedComparison {
    /// Attribute name being compared.
    pub attr: String,
    /// Argument terms of the attribute reference.
    pub args: Vec<Term>,
    /// Comparison operator.
    pub op: CompareOp,
    /// Right-hand-side constant.
    pub value: Value,
}

impl TypedComparison {
    /// Evaluate the comparison for a concrete unit value. Missing values
    /// (None) never satisfy a comparison.
    pub fn holds(&self, observed: Option<&Value>) -> bool {
        let Some(observed) = observed else {
            return false;
        };
        match self.op {
            CompareOp::Eq => observed == &self.value,
            CompareOp::NotEq => observed != &self.value,
            _ => {
                let (Some(a), Some(b)) = (observed.as_f64(), self.value.as_f64()) else {
                    return false;
                };
                match self.op {
                    CompareOp::Less => a < b,
                    CompareOp::LessEq => a <= b,
                    CompareOp::Greater => a > b,
                    CompareOp::GreaterEq => a >= b,
                    CompareOp::Eq | CompareOp::NotEq => unreachable!("handled above"),
                }
            }
        }
    }
}

/// The subject (owning predicate) of an attribute, possibly inferred for
/// aggregate-defined attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeSubject {
    /// Name of the predicate the attribute attaches to.
    pub predicate: String,
    /// Whether that predicate is an entity or a relationship.
    pub kind: PredicateKind,
    /// Arity of the predicate (1 for entities).
    pub arity: usize,
}

/// A CaRL program validated against a relational schema.
#[derive(Debug, Clone)]
pub struct RelationalCausalModel {
    schema: RelationalSchema,
    program: Program,
    /// Topological order of attribute names (causes before effects).
    topo_order: Vec<String>,
    /// Subjects of aggregate-defined attributes, inferred from their rules.
    aggregate_subjects: HashMap<String, AttributeSubject>,
    /// Per-rule deadness: `rule_dead[i]` iff rule `i`'s condition is proven
    /// statically unsatisfiable (under the schema's domain refinements), so
    /// the rule can never fire on any admissible instance.
    rule_dead: Vec<bool>,
    /// Per-aggregate deadness, same proof obligation.
    aggregate_dead: Vec<bool>,
}

impl RelationalCausalModel {
    /// Bind `program` to `schema`, running both the schema-independent and
    /// the schema-aware validation.
    pub fn new(schema: RelationalSchema, program: Program) -> CarlResult<Self> {
        let topo_order = validate_program(&program)?;

        // Whole-program analysis under the schema's domain refinements:
        // deadness proofs are value-independent, so they hold for every
        // admissible instance and downstream pruning is semantics-neutral.
        let deps = carl_lang::ProgramDeps::analyze_with_hints(
            &program,
            &crate::analyze::domain_hints(&schema),
        );
        let rule_dead = (0..program.rules.len())
            .map(|i| deps.rule_dead(i))
            .collect();
        let aggregate_dead = (0..program.aggregates.len())
            .map(|i| deps.aggregate_dead(i))
            .collect();

        let mut model = Self {
            schema,
            program,
            topo_order,
            aggregate_subjects: HashMap::new(),
            rule_dead,
            aggregate_dead,
        };
        model.infer_aggregate_subjects()?;
        model.check_schema_consistency()?;
        Ok(model)
    }

    /// The underlying schema.
    pub fn schema(&self) -> &RelationalSchema {
        &self.schema
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Causal rules of the model.
    pub fn rules(&self) -> &[CausalRule] {
        &self.program.rules
    }

    /// Aggregate rules of the model.
    pub fn aggregates(&self) -> &[AggregateRule] {
        &self.program.aggregates
    }

    /// Attribute names in a topological (causes-first) order.
    pub fn topological_order(&self) -> &[String] {
        &self.topo_order
    }

    /// Whether `rules()[i]` is dead: its condition was proven statically
    /// unsatisfiable at model-build time, so it matches no row on any
    /// admissible instance. Grounding may skip dead statements and the
    /// patch-safety screen may ignore their comparison reads without
    /// changing any result.
    pub fn rule_is_dead(&self, i: usize) -> bool {
        self.rule_dead[i]
    }

    /// Whether `aggregates()[i]` is dead (see [`Self::rule_is_dead`]).
    pub fn aggregate_is_dead(&self, i: usize) -> bool {
        self.aggregate_dead[i]
    }

    /// The aggregate rule defining `attr`, if any.
    pub fn aggregate_rule(&self, attr: &str) -> Option<&AggregateRule> {
        self.program.aggregates.iter().find(|a| a.name == attr)
    }

    /// The subject of an attribute: schema attributes use their declared
    /// subject; aggregate-defined attributes use the inferred subject.
    pub fn attribute_subject(&self, attr: &str) -> CarlResult<AttributeSubject> {
        if let Some(def) = self.schema.attribute(attr) {
            let kind = self
                .schema
                .predicate_kind(&def.subject)
                .expect("schema attribute subject is declared");
            let arity = self
                .schema
                .predicate_arity(&def.subject)
                .expect("schema attribute subject is declared");
            return Ok(AttributeSubject {
                predicate: def.subject.clone(),
                kind,
                arity,
            });
        }
        self.aggregate_subjects
            .get(attr)
            .cloned()
            .ok_or_else(|| CarlError::UnknownAttribute(attr.to_string()))
    }

    /// Whether `attr` is observed: schema-observed, or derived by an
    /// aggregate rule over an observed attribute.
    pub fn is_observed(&self, attr: &str) -> bool {
        if let Some(def) = self.schema.attribute(attr) {
            return def.observed;
        }
        if let Some(rule) = self.aggregate_rule(attr) {
            return self.is_observed(&rule.source.attr);
        }
        false
    }

    /// Convert a `WHERE` condition to a conjunctive query plus typed
    /// comparisons. If the condition is trivial and `default_atoms` is
    /// provided, those atoms are used instead (this implements the implicit
    /// per-unit condition for rules written without a `WHERE` clause).
    pub fn condition_to_query(
        &self,
        condition: &Condition,
        default_atoms: Option<Vec<Atom>>,
    ) -> (ConjunctiveQuery, Vec<TypedComparison>) {
        let mut atoms: Vec<Atom> = condition
            .atoms
            .iter()
            .map(|a| Atom::new(&a.predicate, a.args.iter().map(arg_to_term).collect()))
            .collect();
        if atoms.is_empty() {
            if let Some(defaults) = default_atoms {
                atoms = defaults;
            }
        }
        let comparisons = condition.comparisons.iter().map(typed_comparison).collect();
        (ConjunctiveQuery::new(atoms), comparisons)
    }

    /// The default (implicit) condition atom for an attribute reference: the
    /// subject predicate applied to the reference's arguments.
    pub fn implicit_atom(&self, attr: &str, args: &[ArgTerm]) -> CarlResult<Atom> {
        let subject = self.attribute_subject(attr)?;
        Ok(Atom::new(
            &subject.predicate,
            args.iter().map(arg_to_term).collect(),
        ))
    }

    /// Infer the subjects of aggregate-defined attributes.
    ///
    /// The head arguments of an aggregate rule must be bound by its `WHERE`
    /// condition; the entity class at the position where the (single) head
    /// variable occurs determines the subject. For identity aggregates
    /// (trivial condition) the subject is that of the source attribute. A
    /// name defined more than once takes its first definition's subject;
    /// the schema check then holds every later head to its arity.
    fn infer_aggregate_subjects(&mut self) -> CarlResult<()> {
        let aggregates = self.program.aggregates.clone();
        for agg in &aggregates {
            let subject = self.infer_subject_of_aggregate(agg)?;
            self.aggregate_subjects
                .entry(agg.name.clone())
                .or_insert(subject);
        }
        Ok(())
    }

    fn infer_subject_of_aggregate(&self, agg: &AggregateRule) -> CarlResult<AttributeSubject> {
        if agg.condition.is_trivial() {
            return self.attribute_subject(&agg.source.attr);
        }
        // Single-variable heads: find the entity class of the position where
        // the head variable appears in a condition atom.
        let head_vars: Vec<&str> = agg.head_args.iter().filter_map(ArgTerm::as_var).collect();
        if head_vars.len() == 1 {
            let var = head_vars[0];
            for atom in &agg.condition.atoms {
                let positions = self
                    .schema
                    .predicate_positions(&atom.predicate)
                    .ok_or_else(|| CarlError::UnknownPredicate(atom.predicate.clone()))?;
                for (i, arg) in atom.args.iter().enumerate() {
                    if arg.as_var() == Some(var) {
                        let entity = positions[i].clone();
                        return Ok(AttributeSubject {
                            predicate: entity,
                            kind: PredicateKind::Entity,
                            arity: 1,
                        });
                    }
                }
            }
        }
        // Multi-variable heads: if the head variables exactly match a
        // relationship atom in the condition, the subject is that relationship.
        for atom in &agg.condition.atoms {
            let atom_vars: Vec<&str> = atom.args.iter().filter_map(ArgTerm::as_var).collect();
            if !head_vars.is_empty() && atom_vars == head_vars {
                let kind = self
                    .schema
                    .predicate_kind(&atom.predicate)
                    .ok_or_else(|| CarlError::UnknownPredicate(atom.predicate.clone()))?;
                let arity = self
                    .schema
                    .predicate_arity(&atom.predicate)
                    .unwrap_or(head_vars.len());
                return Ok(AttributeSubject {
                    predicate: atom.predicate.clone(),
                    kind,
                    arity,
                });
            }
        }
        Err(CarlError::InvalidQuery(format!(
            "cannot infer the unit class of aggregate attribute `{}`; \
             its head variables must occur in its WHERE clause",
            agg.name
        )))
    }

    /// Schema-aware validation of every attribute and predicate reference.
    ///
    /// Delegates to the collecting walker in [`crate::analyze`], resolving
    /// subjects through [`Self::attribute_subject`], and fails with the
    /// first finding that carries a legacy typed error — exactly the error
    /// this method has always raised. Lint-only findings (`E0104`,
    /// `W0102`) never fail model construction; use [`crate::analyze`] to
    /// see them.
    fn check_schema_consistency(&self) -> CarlResult<()> {
        let resolve = |attr: &str| -> Option<(String, usize)> {
            self.attribute_subject(attr)
                .ok()
                .map(|s| (s.predicate, s.arity))
        };
        match crate::analyze::walk_schema(&self.schema, &self.program, &resolve)
            .into_iter()
            .find_map(|f| f.legacy)
        {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// Convert an AST comparison to a typed comparison.
pub fn typed_comparison(cmp: &Comparison) -> TypedComparison {
    TypedComparison {
        attr: cmp.attr.attr.clone(),
        args: cmp.attr.args.iter().map(arg_to_term).collect(),
        op: cmp.op,
        value: literal_to_value(&cmp.value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carl_lang::parse_program;

    /// The paper's running-example model (rules (5)–(8) + aggregate (12)).
    pub fn review_program() -> Program {
        parse_program(
            r#"
            Prestige[A]  <= Qualification[A]              WHERE Person(A)
            Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
            Score[S]     <= Prestige[A]                   WHERE Author(A, S)
            Score[S]     <= Quality[S]                    WHERE Submission(S)
            AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
            "#,
        )
        .unwrap()
    }

    #[test]
    fn binds_paper_model_to_schema() {
        let schema = RelationalSchema::review_example();
        let model = RelationalCausalModel::new(schema, review_program()).unwrap();
        assert_eq!(model.rules().len(), 4);
        assert_eq!(model.aggregates().len(), 1);
        let subj = model.attribute_subject("Score").unwrap();
        assert_eq!(subj.predicate, "Submission");
        let agg_subj = model.attribute_subject("AVG_Score").unwrap();
        assert_eq!(agg_subj.predicate, "Person");
        assert_eq!(agg_subj.kind, PredicateKind::Entity);
        assert!(model.is_observed("Score"));
        assert!(model.is_observed("AVG_Score"));
        assert!(!model.is_observed("Quality"));
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let schema = RelationalSchema::review_example();
        let prog = parse_program("Score[S] <= Fame[A] WHERE Author(A, S)").unwrap();
        let err = RelationalCausalModel::new(schema, prog).unwrap_err();
        assert!(matches!(err, CarlError::UnknownAttribute(a) if a == "Fame"));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let schema = RelationalSchema::review_example();
        let prog = parse_program("Score[S, C] <= Prestige[A] WHERE Author(A, S), Submitted(S, C)")
            .unwrap();
        let err = RelationalCausalModel::new(schema, prog).unwrap_err();
        assert!(matches!(err, CarlError::AttributeArity { .. }));
    }

    #[test]
    fn unknown_predicate_in_where_is_rejected() {
        let schema = RelationalSchema::review_example();
        let prog = parse_program("Score[S] <= Prestige[A] WHERE Wrote(A, S)").unwrap();
        let err = RelationalCausalModel::new(schema, prog).unwrap_err();
        assert!(matches!(err, CarlError::UnknownPredicate(p) if p == "Wrote"));
    }

    #[test]
    fn comparisons_evaluate_correctly() {
        let cmp = TypedComparison {
            attr: "Blind".into(),
            args: vec![Term::var("C")],
            op: CompareOp::Eq,
            value: Value::Bool(false),
        };
        assert!(cmp.holds(Some(&Value::Bool(false))));
        assert!(!cmp.holds(Some(&Value::Bool(true))));
        assert!(!cmp.holds(None));

        let ge = TypedComparison {
            attr: "Qualification".into(),
            args: vec![Term::var("A")],
            op: CompareOp::GreaterEq,
            value: Value::Float(10.0),
        };
        assert!(ge.holds(Some(&Value::Float(20.0))));
        assert!(ge.holds(Some(&Value::Int(10))));
        assert!(!ge.holds(Some(&Value::Float(5.0))));
        assert!(!ge.holds(Some(&Value::Str("high".into()))));
    }

    #[test]
    fn implicit_atom_uses_subject_predicate() {
        let schema = RelationalSchema::review_example();
        let model = RelationalCausalModel::new(schema, review_program()).unwrap();
        let atom = model
            .implicit_atom("Score", &[ArgTerm::Var("S".into())])
            .unwrap();
        assert_eq!(atom.predicate, "Submission");
    }

    #[test]
    fn condition_conversion_uses_defaults_when_trivial() {
        let schema = RelationalSchema::review_example();
        let model = RelationalCausalModel::new(schema, review_program()).unwrap();
        let (q, cmps) = model.condition_to_query(
            &Condition::truth(),
            Some(vec![Atom::new("Person", vec![Term::var("A")])]),
        );
        assert_eq!(q.atoms.len(), 1);
        assert!(cmps.is_empty());
    }

    #[test]
    fn literal_conversion() {
        assert_eq!(literal_to_value(&Literal::Bool(true)), Value::Bool(true));
        assert_eq!(literal_to_value(&Literal::Int(3)), Value::Int(3));
        assert_eq!(literal_to_value(&Literal::Float(0.5)), Value::Float(0.5));
        assert_eq!(
            literal_to_value(&Literal::Str("x".into())),
            Value::Str("x".into())
        );
    }
}
