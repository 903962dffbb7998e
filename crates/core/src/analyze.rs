//! Schema-aware static analysis of CaRL programs — the error-collecting
//! counterpart to [`crate::model::RelationalCausalModel`]'s fail-fast
//! binding checks.
//!
//! Where `carl-lang`'s analyzer knows nothing about schemas, this pass
//! resolves every attribute and predicate reference against a
//! [`reldb::RelationalSchema`] and reports, with source spans:
//!
//! | code    | severity | check |
//! |---------|----------|-------|
//! | `E0101` | error    | `WHERE` clause references an undeclared predicate |
//! | `E0102` | error    | attribute neither in the schema nor defined by an aggregate rule |
//! | `E0103` | error    | attribute/predicate reference (aggregate heads included) with the wrong arity |
//! | `E0104` | error    | comparison constant inadmissible for the attribute's declared domain |
//! | `W0102` | warning  | aggregate rule shadows a schema attribute of the same name |
//!
//! Every finding that corresponds to a historical
//! [`RelationalCausalModel::new`] failure also carries the exact legacy
//! [`CarlError`], so the model constructor can keep failing with precisely
//! the errors it always produced while `carl-check` reports everything at
//! once. `E0104` and `W0102` are new lint-only findings: they never fail
//! model construction.
//!
//! [`RelationalCausalModel::new`]: crate::model::RelationalCausalModel::new
//! [`RelationalCausalModel`]: crate::model::RelationalCausalModel

use crate::error::CarlError;
use crate::model::literal_to_value;
use carl_lang::{
    analyze_program, ArgTerm, AttrRef, Condition, Diagnostic, DomainHint, Program, ProgramDeps,
};
use reldb::{DomainType, PredicateKind, RelationalSchema};
use std::collections::HashMap;

/// One schema-aware finding: a renderable [`Diagnostic`] plus, when the
/// finding corresponds to a historical hard failure, the typed error the
/// model constructor raises for it.
#[derive(Debug)]
pub struct SchemaFinding {
    /// The span-carrying diagnostic.
    pub diagnostic: Diagnostic,
    /// The legacy typed error, for findings that fail model construction.
    pub legacy: Option<CarlError>,
}

impl SchemaFinding {
    fn hard(diagnostic: Diagnostic, legacy: CarlError) -> Self {
        Self {
            diagnostic,
            legacy: Some(legacy),
        }
    }

    fn lint(diagnostic: Diagnostic) -> Self {
        Self {
            diagnostic,
            legacy: None,
        }
    }
}

/// Resolution of an attribute name to its subject predicate and arity.
/// `None` means the attribute is unknown (neither declared nor
/// aggregate-defined).
pub(crate) type SubjectResolver<'a> = dyn Fn(&str) -> Option<(String, usize)> + 'a;

/// Walk every attribute and predicate reference of `program`, resolving
/// subjects through `resolve`, and collect findings *in the model
/// constructor's historical check order* (rules → aggregates → queries;
/// within each: head, body or source, condition atoms, condition
/// comparisons).
/// The first finding with a `legacy` error is therefore exactly the error
/// [`crate::model::RelationalCausalModel::new`] has always raised.
pub(crate) fn walk_schema(
    schema: &RelationalSchema,
    program: &Program,
    resolve: &SubjectResolver<'_>,
) -> Vec<SchemaFinding> {
    let mut out: Vec<SchemaFinding> = Vec::new();

    let check_attr_ref = |attr: &AttrRef, out: &mut Vec<SchemaFinding>| {
        let Some((subject, arity)) = resolve(&attr.attr) else {
            let legacy = CarlError::UnknownAttribute(attr.attr.clone());
            out.push(SchemaFinding::hard(
                Diagnostic::error("E0102", attr.span, legacy.to_string()),
                legacy,
            ));
            return;
        };
        if arity != attr.args.len() {
            let legacy = CarlError::AttributeArity {
                attr: attr.attr.clone(),
                subject: subject.clone(),
                expected: arity,
                actual: attr.args.len(),
            };
            out.push(SchemaFinding::hard(
                Diagnostic::error("E0103", attr.span, legacy.to_string()),
                CarlError::AttributeArity {
                    attr: attr.attr.clone(),
                    subject,
                    expected: arity,
                    actual: attr.args.len(),
                },
            ));
        }
    };

    let check_condition = |cond: &Condition, out: &mut Vec<SchemaFinding>| {
        for atom in &cond.atoms {
            let Some(arity) = schema.predicate_arity(&atom.predicate) else {
                let legacy = CarlError::UnknownPredicate(atom.predicate.clone());
                out.push(SchemaFinding::hard(
                    Diagnostic::error("E0101", atom.span, legacy.to_string()),
                    legacy,
                ));
                continue;
            };
            if arity != atom.args.len() {
                // The model constructor has always reported predicate-atom
                // arity errors through `AttributeArity` with the predicate
                // standing in for both names; kept for compatibility.
                let legacy = CarlError::AttributeArity {
                    attr: atom.predicate.clone(),
                    subject: atom.predicate.clone(),
                    expected: arity,
                    actual: atom.args.len(),
                };
                out.push(SchemaFinding::hard(
                    Diagnostic::error(
                        "E0103",
                        atom.span,
                        format!(
                            "predicate `{}` expects {} argument(s), but was written with {}",
                            atom.predicate,
                            arity,
                            atom.args.len()
                        ),
                    ),
                    legacy,
                ));
            }
        }
        for cmp in &cond.comparisons {
            check_attr_ref(&cmp.attr, out);
            // Lint: the comparison constant must be admissible for the
            // attribute's declared domain, or the filter can never hold.
            if let Some(def) = schema.attribute(&cmp.attr.attr) {
                let value = literal_to_value(&cmp.value);
                if !def.domain.admits(&value) {
                    out.push(SchemaFinding::lint(Diagnostic::error(
                        "E0104",
                        cmp.span,
                        format!(
                            "comparison constant `{}` is not admissible for attribute `{}` \
                             with domain {}; this condition can never hold",
                            cmp.value, cmp.attr.attr, def.domain
                        ),
                    )));
                }
            }
        }
    };

    for rule in &program.rules {
        check_attr_ref(&rule.head, &mut out);
        for body in &rule.body {
            check_attr_ref(body, &mut out);
        }
        check_condition(&rule.condition, &mut out);
    }
    for agg in &program.aggregates {
        // A head is a reference too: every definition of an aggregate name
        // must key it with its subject's arity (the first definition's), so
        // each attribute has one key arity. A head whose subject cannot be
        // inferred is reported where the attribute is used.
        if resolve(&agg.name).is_some() {
            check_attr_ref(&agg.head(), &mut out);
        }
        check_attr_ref(&agg.source, &mut out);
        check_condition(&agg.condition, &mut out);
    }
    for query in &program.queries {
        // Query endpoints may reference aggregate attributes synthesised
        // later (unification), so only known attributes are arity-checked.
        for endpoint in [&query.treatment, &query.response] {
            if resolve(&endpoint.attr).is_some() {
                check_attr_ref(endpoint, &mut out);
            }
        }
        check_condition(&query.condition, &mut out);
    }

    // Lint: an aggregate rule whose name collides with a declared schema
    // attribute silently loses — subject resolution prefers the schema.
    for agg in &program.aggregates {
        if schema.attribute(&agg.name).is_some() {
            out.push(SchemaFinding::lint(Diagnostic::warning(
                "W0102",
                agg.span,
                format!(
                    "aggregate rule `{}` shadows the schema attribute of the same name; \
                     the declared attribute takes precedence everywhere",
                    agg.name
                ),
            )));
        }
    }

    out
}

/// Tolerantly infer the subject predicate and arity of every attribute a
/// program can reference: declared schema attributes plus aggregate-defined
/// ones (mirroring
/// [`crate::model::RelationalCausalModel::attribute_subject`], minus the
/// hard failures — aggregates whose subject cannot be inferred are simply
/// absent, which surfaces as `E0102` at their use sites).
fn subject_map(schema: &RelationalSchema, program: &Program) -> HashMap<String, (String, usize)> {
    let mut subjects: HashMap<String, (String, usize)> = HashMap::new();
    let declared = |attr: &str| -> Option<(String, usize)> {
        let def = schema.attribute(attr)?;
        let arity = schema.predicate_arity(&def.subject)?;
        Some((def.subject.clone(), arity))
    };

    // Aggregate subjects can chain (an aggregate over an aggregate), so
    // iterate to a fixed point; programs are small.
    let mut changed = true;
    while changed {
        changed = false;
        for agg in &program.aggregates {
            if subjects.contains_key(&agg.name) || declared(&agg.name).is_some() {
                continue;
            }
            let inferred = infer_aggregate_subject(schema, &subjects, &declared, agg);
            if let Some(subject) = inferred {
                subjects.insert(agg.name.clone(), subject);
                changed = true;
            }
        }
    }
    for attr in schema_attribute_names(schema, program) {
        if let Some(s) = declared(&attr) {
            subjects.insert(attr, s);
        }
    }
    subjects
}

/// The attribute names a program references that the schema declares.
fn schema_attribute_names(schema: &RelationalSchema, program: &Program) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut add = |attr: &AttrRef| {
        if schema.attribute(&attr.attr).is_some() && !names.iter().any(|n| n == &attr.attr) {
            names.push(attr.attr.clone());
        }
    };
    for rule in &program.rules {
        add(&rule.head);
        rule.body.iter().for_each(&mut add);
        rule.condition.comparisons.iter().for_each(|c| add(&c.attr));
    }
    for agg in &program.aggregates {
        add(&agg.head());
        add(&agg.source);
        agg.condition.comparisons.iter().for_each(|c| add(&c.attr));
    }
    for query in &program.queries {
        add(&query.treatment);
        add(&query.response);
        query
            .condition
            .comparisons
            .iter()
            .for_each(|c| add(&c.attr));
    }
    names
}

/// Tolerant re-implementation of the model's aggregate-subject inference:
/// identity aggregates take their source attribute's subject; otherwise the
/// entity class at the position where the single head variable occurs in a
/// condition atom, or the relationship whose variables exactly match a
/// multi-variable head.
fn infer_aggregate_subject(
    schema: &RelationalSchema,
    subjects: &HashMap<String, (String, usize)>,
    declared: &dyn Fn(&str) -> Option<(String, usize)>,
    agg: &carl_lang::AggregateRule,
) -> Option<(String, usize)> {
    if agg.condition.is_trivial() {
        return declared(&agg.source.attr).or_else(|| subjects.get(&agg.source.attr).cloned());
    }
    let head_vars: Vec<&str> = agg.head_args.iter().filter_map(ArgTerm::as_var).collect();
    if head_vars.len() == 1 {
        let var = head_vars[0];
        for atom in &agg.condition.atoms {
            let positions = schema.predicate_positions(&atom.predicate)?;
            for (i, arg) in atom.args.iter().enumerate() {
                if arg.as_var() == Some(var) {
                    return positions.get(i).map(|entity| (entity.clone(), 1));
                }
            }
        }
    }
    for atom in &agg.condition.atoms {
        let atom_vars: Vec<&str> = atom.args.iter().filter_map(ArgTerm::as_var).collect();
        if !head_vars.is_empty()
            && atom_vars == head_vars
            && schema.predicate_kind(&atom.predicate) == Some(PredicateKind::Relationship)
        {
            let arity = schema
                .predicate_arity(&atom.predicate)
                .unwrap_or(head_vars.len());
            return Some((atom.predicate.clone(), arity));
        }
    }
    None
}

/// Collect every schema-aware finding for `program` against `schema`,
/// without requiring a successfully constructed model (aggregate subjects
/// are inferred tolerantly).
pub fn analyze_with_schema(schema: &RelationalSchema, program: &Program) -> Vec<SchemaFinding> {
    let subjects = subject_map(schema, program);
    walk_schema(schema, program, &|attr| subjects.get(attr).cloned())
}

/// The full `carl-check` analysis: the schema-independent diagnostics of
/// [`carl_lang::analyze_program`] followed by the schema-aware findings,
/// ordered by source position.
pub fn analyze(schema: &RelationalSchema, program: &Program) -> Vec<Diagnostic> {
    let mut diagnostics = analyze_program(program).diagnostics;
    diagnostics.extend(
        analyze_with_schema(schema, program)
            .into_iter()
            .map(|f| f.diagnostic),
    );
    diagnostics.sort_by_key(|d| (d.span.start, d.span.end));
    diagnostics
}

/// Map a schema's declared [`DomainType`]s onto the language crate's
/// [`DomainHint`]s for the abstract-interpretation pass. Instances enforce
/// domain admissibility on every write, so refining the analysis by the
/// declared domain is sound at runtime: a condition proven empty for every
/// admissible value is empty for every storable value.
pub(crate) fn domain_hints(schema: &RelationalSchema) -> impl Fn(&str) -> DomainHint + '_ {
    move |attr: &str| match schema.attribute(attr).map(|def| def.domain) {
        Some(DomainType::Bool) => DomainHint::Bool,
        Some(DomainType::Int) => DomainHint::Int,
        Some(DomainType::Float) => DomainHint::Float,
        Some(DomainType::Categorical) => DomainHint::Str,
        // Aggregate-defined or unknown attributes: no refinement.
        None => DomainHint::Other,
    }
}

/// Schema-refined whole-program dependency analysis: the language-level
/// [`ProgramDeps`] with every condition comparison interpreted under the
/// attribute's declared domain.
pub fn deps_with_schema(schema: &RelationalSchema, program: &Program) -> ProgramDeps {
    ProgramDeps::analyze_with_hints(program, &domain_hints(schema))
}

/// Render the full `carl-check --report deps` report: dependency edges,
/// stratification, condition facts, and the precomputed patch-safety
/// classification the incremental-commit screen uses.
pub fn deps_report(schema: &RelationalSchema, program: &Program) -> String {
    let deps = deps_with_schema(schema, program);
    let mut out = deps.render(program);
    out.push_str("\npatch safety (incremental-commit screen):\n");
    match crate::model::RelationalCausalModel::new(schema.clone(), program.clone()) {
        Ok(model) => out.push_str(&crate::ground::PatchSafety::of(&model).render()),
        Err(e) => out.push_str(&format!("  unavailable: model construction failed ({e})\n")),
    }
    out
}

/// Long-form prose for any diagnostic code `carl-check` can emit: the
/// language-level codes (`E0000`–`E0006`, `W0001`–`W0003`) plus the
/// schema-aware family this crate owns.
pub fn explain_code(code: &str) -> Option<&'static str> {
    if let Some(prose) = carl_lang::explain_code(code) {
        return Some(prose);
    }
    Some(match code {
        "E0101" => {
            "E0101: a WHERE clause references an undeclared predicate.\n\n\
             Every predicate atom must name an entity class or relationship\n\
             declared by the schema; grounding has no relation to scan\n\
             otherwise."
        }
        "E0102" => {
            "E0102: an attribute is neither declared by the schema nor\n\
             defined by an aggregate rule.\n\n\
             Attribute references resolve against the schema first, then\n\
             against aggregate heads; a name matching neither cannot be\n\
             grounded or queried."
        }
        "E0103" => {
            "E0103: an attribute or predicate reference has the wrong\n\
             arity.\n\n\
             The number of argument terms must match the declared arity of\n\
             the attribute's subject predicate (or of the predicate itself\n\
             for condition atoms). An aggregate takes its subject from its\n\
             first definition, so every later definition of the same name\n\
             needs a head of the same arity."
        }
        "E0104" => {
            "E0104: a comparison constant is inadmissible for the\n\
             attribute's declared domain.\n\n\
             For example comparing a boolean attribute to a string. The\n\
             instance enforces domain admissibility on every write, so such\n\
             a filter can never hold. Lint-only: the program still runs (the\n\
             filter simply matches nothing)."
        }
        "W0102" => {
            "W0102: an aggregate rule shadows a schema attribute of the same\n\
             name.\n\n\
             Subject resolution prefers the declared attribute everywhere,\n\
             so the aggregate rule silently loses; rename one of the two."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use carl_lang::parse_program;

    fn codes(findings: &[SchemaFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.diagnostic.code).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let schema = RelationalSchema::review_example();
        let prog = parse_program(
            r#"
            Prestige[A]  <= Qualification[A]              WHERE Person(A)
            Score[S]     <= Prestige[A]                   WHERE Author(A, S)
            AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
            AVG_Score[A] <= Prestige[A]?
            "#,
        )
        .unwrap();
        assert!(analyze_with_schema(&schema, &prog).is_empty());
    }

    #[test]
    fn all_schema_defects_are_collected_with_spans() {
        let schema = RelationalSchema::review_example();
        let src = "Score[S] <= Fame[A], Prestige[A, A] WHERE Wrote(A, S), Author(A), Blind[C] = 3";
        let prog = parse_program(src).unwrap();
        let findings = analyze_with_schema(&schema, &prog);
        let cs = codes(&findings);
        assert_eq!(
            cs,
            vec!["E0102", "E0103", "E0101", "E0103", "E0104"],
            "{findings:?}"
        );
        // Spans point at the offending references.
        let texts: Vec<&str> = findings
            .iter()
            .map(|f| &src[f.diagnostic.span.start..f.diagnostic.span.end])
            .collect();
        assert_eq!(
            texts,
            vec![
                "Fame[A]",
                "Prestige[A, A]",
                "Wrote(A, S)",
                "Author(A)",
                "Blind[C] = 3"
            ]
        );
        // The first hard finding carries the historical typed error.
        let first = findings
            .iter()
            .find_map(|f| f.legacy.as_ref())
            .expect("hard findings");
        assert!(matches!(first, CarlError::UnknownAttribute(a) if a == "Fame"));
    }

    #[test]
    fn comparison_domain_mismatch_is_lint_only() {
        let schema = RelationalSchema::review_example();
        // Blind is bool-valued; comparing to a string can never hold.
        let prog = parse_program(
            r#"Score[S] <= Prestige[A] WHERE Author(A, S), Submitted(S, C), Blind[C] = "open""#,
        )
        .unwrap();
        let findings = analyze_with_schema(&schema, &prog);
        assert_eq!(codes(&findings), vec!["E0104"]);
        assert!(findings[0].legacy.is_none());
    }

    #[test]
    fn shadowing_aggregate_warns() {
        let mut schema = RelationalSchema::review_example();
        schema
            .add_attribute("AVG_Score", "Person", reldb::DomainType::Float, true)
            .unwrap();
        let prog = parse_program("AVG_Score[A] <= Score[S] WHERE Author(A, S)").unwrap();
        let findings = analyze_with_schema(&schema, &prog);
        assert_eq!(codes(&findings), vec!["W0102"]);
        assert!(!findings[0].diagnostic.is_error());
    }

    #[test]
    fn combined_analysis_orders_by_source_position() {
        let schema = RelationalSchema::review_example();
        let src = "Score[S] <= Fame[A] WHERE Submission(S)\nScore[S] <= Score[S]?\n";
        let prog = parse_program(src).unwrap();
        let diags = analyze(&schema, &prog);
        // Unbound variable (E0001, lang) + unknown attribute (E0102, schema)
        // on line 1, self-treatment query (E0004, lang) on line 2.
        let cs: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(cs.contains(&"E0001"), "{cs:?}");
        assert!(cs.contains(&"E0102"), "{cs:?}");
        assert!(cs.contains(&"E0004"), "{cs:?}");
        let starts: Vec<usize> = diags.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn an_aggregate_defined_with_two_head_arities_is_rejected_at_the_second_head() {
        let schema = RelationalSchema::review_example();
        let src = "SUM_X[A] <= Score[S] WHERE Author(A, S)\n\
                   SUM_X[A, S] <= Score[S] WHERE Author(A, S)\n";
        let prog = parse_program(src).unwrap();
        let findings = analyze_with_schema(&schema, &prog);
        assert_eq!(codes(&findings), vec!["E0103"], "{findings:?}");
        let span = findings[0].diagnostic.span;
        assert_eq!(
            &src[span.start..span.end],
            "SUM_X[A, S] <= Score[S] WHERE Author(A, S)"
        );
        let err = crate::model::RelationalCausalModel::new(schema, prog).unwrap_err();
        assert!(
            matches!(
                &err,
                CarlError::AttributeArity { attr, subject, expected: 1, actual: 2 }
                    if attr == "SUM_X" && subject == "Person"
            ),
            "{err}"
        );
    }

    #[test]
    fn aggregates_over_aggregates_resolve_through_the_chain() {
        let schema = RelationalSchema::review_example();
        let prog = parse_program(
            r#"
            AVG_Score[A]     <= Score[S]     WHERE Author(A, S)
            MAX_AVG_Score[A] <= AVG_Score[A]
            "#,
        )
        .unwrap();
        assert!(analyze_with_schema(&schema, &prog).is_empty());
    }
}
