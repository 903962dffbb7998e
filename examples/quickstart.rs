//! Quickstart: the paper's running example end to end.
//!
//! Builds the REVIEWDATA instance of Figure 2, declares the relational
//! causal model of Example 3.4 in CaRL, grounds it into the causal graph of
//! Figure 4/5, and prints the unit table of Table 1.
//!
//! Run with: `cargo run --example quickstart`

use carl::{CarlEngine, GroundedAttr};
use reldb::Instance;

const RULES: &str = r#"
    # Example 3.4: the relational causal model of REVIEWDATA.
    Prestige[A]  <= Qualification[A]              WHERE Person(A)
    Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
    Score[S]     <= Prestige[A]                   WHERE Author(A, S)
    Score[S]     <= Quality[S]                    WHERE Submission(S)
    # Aggregate rule (12): an author's average submission score.
    AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 2: Bob, Carlos and Eva with their three submissions.
    let instance = Instance::review_example();
    let engine = CarlEngine::new(instance, RULES)?;

    // Ground the model: this is the graph of Figures 4 and 5.
    let grounded = engine.ground_model()?;
    println!(
        "grounded causal graph: {} nodes, {} edges",
        grounded.graph.node_count(),
        grounded.graph.edge_count()
    );
    for attr in ["Qualification", "Prestige", "Quality", "Score", "AVG_Score"] {
        println!(
            "  {:>14}: {} groundings",
            attr,
            grounded.graph.nodes_of_attr(attr).len()
        );
    }

    // The grounded rule for Score["s1"] from Example 3.6.
    let score_s1 = grounded
        .graph
        .node_id(&GroundedAttr::single("Score", "s1"))
        .expect("Score[s1] is grounded");
    let parents: Vec<String> = grounded
        .graph
        .parents_of(score_s1)
        .iter()
        .map(|&p| grounded.graph.node(p).to_string())
        .collect();
    println!("\nScore[\"s1\"] <= {}", parents.join(", "));

    // The unit table of Table 1 for the query AVG_Score[A] <= Prestige[A]?.
    let prepared = engine.prepare_str("AVG_Score[A] <= Prestige[A]?")?;
    println!("\nunit table for `AVG_Score[A] <= Prestige[A]?` (paper Table 1):");
    println!("{}", prepared.unit_table);
    println!(
        "relational peers: {}",
        prepared
            .peers
            .iter()
            .map(|(unit, peers)| format!(
                "{} -> {{{}}}",
                unit[0],
                peers
                    .map(|p| p[0].to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
    println!(
        "\n(three units are far too few to estimate an effect — see the other examples for\n\
         full-scale analyses on generated datasets)"
    );
    Ok(())
}
