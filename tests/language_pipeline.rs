//! Integration test: the textual CaRL pipeline — programs containing rules,
//! aggregate rules *and* queries are parsed, validated, pretty-printed,
//! re-parsed and executed against a generated database.

use carl::CarlEngine;
use carl_datagen::{generate_mimic, MimicConfig};
use carl_lang::{parse_program, pretty, validate_program};

#[test]
fn program_roundtrips_through_the_pretty_printer() {
    let source = r#"
        SelfPay[P]  <= Ethnicity[P], Sex[P], Severity[P]   WHERE Patient(P)
        Dose[D]     <= Severity[P]                          WHERE Given(D, P)
        Death[P]    <= Severity[P], SelfPay[P]              WHERE Patient(P)
        Len[P]      <= Severity[P], SelfPay[P]              WHERE Patient(P)
        AVG_Dose[P] <= Dose[D]                              WHERE Given(D, P)

        Death[P] <= SelfPay[P]?
        Len[P]   <= SelfPay[P]? WHERE Severity[P] >= 0.5
    "#;
    let program = parse_program(source).expect("parses");
    assert_eq!(program.rules.len(), 4);
    assert_eq!(program.aggregates.len(), 1);
    assert_eq!(program.queries.len(), 2);
    let order = validate_program(&program).expect("validates");
    assert!(order.contains(&"Death".to_string()));

    let printed = pretty::print_program(&program);
    let reparsed = parse_program(&printed).expect("pretty output reparses");
    assert_eq!(program, reparsed);
}

#[test]
fn queries_written_in_the_program_run_against_a_generated_database() {
    let ds = generate_mimic(&MimicConfig {
        patients: 3_000,
        ..MimicConfig::small(99)
    });
    // Append the evaluation queries to the model text and hand everything to
    // the engine at once, as an analyst would.
    let source = format!("{}\n{}\n{}\n", ds.rules, ds.queries[0], ds.queries[1]);
    let engine = CarlEngine::new(ds.instance, &source).expect("model binds");
    assert_eq!(engine.program_queries().len(), 2);

    for query in engine.program_queries().to_vec() {
        let answer = engine.answer(&query).expect("query answers");
        let ate = answer.as_ate().expect("ATE query");
        assert!(ate.n_treated > 0 && ate.n_control > 0);
        assert!(ate.ate.is_finite());
    }
}

#[test]
fn helpful_errors_for_bad_programs() {
    // Unknown attribute.
    let err = CarlEngine::new(
        reldb::Instance::review_example(),
        "Score[S] <= Charisma[A] WHERE Author(A, S)",
    )
    .unwrap_err();
    assert!(err.to_string().contains("Charisma"));

    // Recursive model.
    let err = CarlEngine::new(
        reldb::Instance::review_example(),
        "Score[S] <= Quality[S] WHERE Submission(S)\nQuality[S] <= Score[S] WHERE Submission(S)",
    )
    .unwrap_err();
    assert!(err.to_string().contains("recursive"));

    // Unsafe variable.
    let err = CarlEngine::new(
        reldb::Instance::review_example(),
        "Score[S] <= Prestige[A] WHERE Submission(S)",
    )
    .unwrap_err();
    assert!(err.to_string().to_lowercase().contains("where"));

    // Malformed query text at answer time.
    let engine = CarlEngine::new(
        reldb::Instance::review_example(),
        "Score[S] <= Prestige[A] WHERE Author(A, S)",
    )
    .expect("valid model");
    assert!(engine.answer_str("Score[S] <= ").is_err());
    assert!(engine.answer_str("Score[S] <= Prestige[A]").is_err()); // missing `?`
}

/// A causal rule whose head is also an aggregate head is rejected (E0003)
/// before any model is built. The parser classifies every AGG-prefixed head
/// as an aggregate rule, so the clash is built in the AST, as an embedding
/// client could.
#[test]
fn a_rule_head_clashing_with_an_aggregate_head_is_rejected() {
    let mut program = parse_program(
        "Prestige[A] <= Qualification[A] WHERE Person(A)\n\
         AVG_Score[A] <= Score[S] WHERE Author(A, S)",
    )
    .expect("parses");
    program.rules[0].head.attr = "AVG_Score".into();
    let err = CarlEngine::with_program(reldb::Instance::review_example(), program).unwrap_err();
    assert!(
        err.to_string()
            .contains("`AVG_Score` is defined both by an aggregate rule and a causal rule"),
        "{err}"
    );
}
