//! Integration test: the paper's running example (Figure 2, Examples 3.4/3.6,
//! Table 1) flows through every layer of the system.

use carl::{CarlEngine, GroundedAttr};
use reldb::{universal_table, Instance, Value};

const RULES: &str = r#"
    Prestige[A]  <= Qualification[A]              WHERE Person(A)
    Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
    Score[S]     <= Prestige[A]                   WHERE Author(A, S)
    Score[S]     <= Quality[S]                    WHERE Submission(S)
    AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
"#;

#[test]
fn grounded_graph_matches_figure_4_and_5() {
    let engine = CarlEngine::new(Instance::review_example(), RULES).expect("model binds");
    let grounded = engine.ground_model().expect("grounding succeeds");
    let g = &grounded.graph;
    assert_eq!(g.nodes_of_attr("Score").len(), 3);
    assert_eq!(g.nodes_of_attr("AVG_Score").len(), 3);
    assert_eq!(g.node_count(), 15);
    assert!(g.is_acyclic());

    // The highlighted path of Figure 5: Prestige[Eva] → Score[s1] → AVG_Score[Bob].
    let eva = g.node_id(&GroundedAttr::single("Prestige", "Eva")).unwrap();
    let bob_avg = g
        .node_id(&GroundedAttr::single("AVG_Score", "Bob"))
        .unwrap();
    assert!(g.has_directed_path(eva, bob_avg));
    // Carlos never co-authored with Bob: no path from his prestige to Bob's average.
    let carlos = g
        .node_id(&GroundedAttr::single("Prestige", "Carlos"))
        .unwrap();
    assert!(!g.has_directed_path(carlos, bob_avg));
}

#[test]
fn unit_table_matches_table_1() {
    let engine = CarlEngine::new(Instance::review_example(), RULES).expect("model binds");
    let prepared = engine
        .prepare_str("AVG_Score[A] <= Prestige[A]?")
        .expect("query prepares");
    let ut = &prepared.unit_table;
    assert_eq!(ut.len(), 3);

    let row = |who: &str| {
        ut.units
            .iter()
            .position(|u| u == &vec![Value::from(who)])
            .unwrap()
    };
    let outcomes = ut.outcomes();
    // Table 1 outcomes: Bob 0.75, Carlos 0.1, Eva ≈ 0.4167.
    assert!((outcomes[row("Bob")] - 0.75).abs() < 1e-9);
    assert!((outcomes[row("Carlos")] - 0.1).abs() < 1e-9);
    assert!((outcomes[row("Eva")] - 0.416_666).abs() < 1e-3);

    // Peer treatment embedding (mean, count): Eva has 2 peers with mean
    // prestige 0.5; Bob 1 peer with mean prestige 1.
    let peer_rows = ut.peer_treatment_rows();
    assert_eq!(peer_rows[row("Eva")], vec![0.5, 2.0]);
    assert_eq!(peer_rows[row("Bob")], vec![1.0, 1.0]);

    // Embedded collaborators' h-index (Table 1 last column): Eva 35, Bob 2.
    let col = ut
        .covariate_cols
        .iter()
        .position(|c| c == "peer_Qualification_mean")
        .expect("peer qualification column");
    let covs = ut.covariate_rows();
    assert!((covs[row("Eva")][col] - 35.0).abs() < 1e-9);
    assert!((covs[row("Bob")][col] - 2.0).abs() < 1e-9);
}

#[test]
fn peers_match_section_4_3() {
    let engine = CarlEngine::new(Instance::review_example(), RULES).expect("model binds");
    let prepared = engine
        .prepare_str("AVG_Score[A] <= Prestige[A]?")
        .expect("query prepares");
    let peers_of = |who: &str| {
        let mut ps: Vec<String> = prepared
            .peers
            .get(&vec![Value::from(who)])
            .expect("a unit")
            .map(|p| p[0].to_string())
            .collect();
        ps.sort();
        ps
    };
    assert_eq!(peers_of("Bob"), vec!["Eva".to_string()]);
    assert_eq!(
        peers_of("Eva"),
        vec!["Bob".to_string(), "Carlos".to_string()]
    );
    assert_eq!(peers_of("Carlos"), vec!["Eva".to_string()]);
}

#[test]
fn universal_table_of_the_example_duplicates_submissions() {
    // The statistical hazard the paper warns about: joining the base tables
    // duplicates each submission once per author.
    let table = universal_table(&Instance::review_example()).expect("join succeeds");
    assert_eq!(table.row_count(), 5); // 5 authorships, not 3 submissions
    assert!(table.has_column("Prestige"));
    assert!(table.has_column("Score"));
    assert!(!table.has_column("Quality")); // unobserved attributes never leak
}

#[test]
fn queries_embedded_in_the_program_are_parsed_and_validated() {
    let source = format!(
        "{RULES}\nAVG_Score[A] <= Prestige[A]?\nScore[S] <= Prestige[A]? WHEN ALL PEERS TREATED\n"
    );
    let engine = CarlEngine::new(Instance::review_example(), &source).expect("model binds");
    assert_eq!(engine.program_queries().len(), 2);
    assert!(engine.program_queries()[1].peers.is_some());
}
