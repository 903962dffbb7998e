//! The *universal table*: joining all base relations into one flat table.
//!
//! The paper (Section 6.3, Figure 8 and Table 5) compares CaRL against the
//! naive strategy of performing causal inference on "the universal table
//! obtained by joining all base relations" — i.e. pretending the relational
//! database were a single homogeneous unit table. This module implements
//! that construction so the baseline can be reproduced faithfully.
//!
//! The join is a natural join over shared entity classes: starting from the
//! relationship with the most tuples, we repeatedly join in every
//! relationship that shares an entity class with the current result, then
//! attach all entity attributes (and relationship attributes) as columns.
//! Entities that end up unconnected are ignored (they would produce a
//! Cartesian product, which is never what the baseline intends).

use crate::error::RelResult;
use crate::instance::Instance;
use crate::schema::PredicateKind;
use crate::skeleton::UnitKey;
use crate::table::Table;
use crate::value::{Value, ValueKey};
use std::collections::{HashMap, HashSet};

/// One row of the intermediate join: a binding of entity-class "roles" to keys.
type JoinRow = HashMap<String, Value>;

/// Construct the universal table of an instance.
///
/// Columns: one per entity class that participates in any relationship
/// (named after the class, holding the entity key), plus one column per
/// *observed* attribute function, named after the attribute. Attribute
/// columns of relationship predicates are included when both endpoint
/// entities are present in the join.
pub fn universal_table(instance: &Instance) -> RelResult<Table> {
    let schema = instance.schema();
    let skeleton = instance.skeleton();

    // Collect relationships ordered by size (largest first to seed the join).
    // Self-relationships (e.g. a collaboration network Collab(Person, Person))
    // are skipped: a natural join over them is ambiguous (both positions bind
    // the same class) and would square the table. This mirrors what an
    // analyst flattening the database would do — and is precisely how the
    // universal-table baseline loses the interference structure.
    let mut rels: Vec<&crate::schema::RelationshipDef> = schema
        .relationships()
        .filter(|r| {
            let mut seen = std::collections::HashSet::new();
            r.entities.iter().all(|e| seen.insert(e.clone()))
        })
        .collect();
    rels.sort_by_key(|r| std::cmp::Reverse(skeleton.relationship_count(&r.name)));

    let mut joined: Vec<JoinRow> = Vec::new();
    let mut joined_classes: HashSet<String> = HashSet::new();
    let mut used: HashSet<String> = HashSet::new();

    if rels.is_empty() {
        // No relationships: the universal table is just the concatenation of
        // entity classes; ambiguous, so we produce one row per entity of the
        // largest class.
        if let Some(ent) = schema
            .entities()
            .max_by_key(|e| skeleton.entity_count(&e.name))
        {
            for key in skeleton.entity_keys(&ent.name) {
                let mut row = JoinRow::new();
                row.insert(ent.name.clone(), key.clone());
                joined.push(row);
            }
            joined_classes.insert(ent.name.clone());
        }
    } else {
        // Seed with the largest relationship.
        let seed = rels[0];
        used.insert(seed.name.clone());
        for tuple in skeleton.relationship_tuples(&seed.name) {
            let mut row = JoinRow::new();
            for (class, key) in seed.entities.iter().zip(tuple.iter()) {
                row.insert(class.clone(), key.clone());
            }
            joined.push(row);
        }
        joined_classes.extend(seed.entities.iter().cloned());

        // Repeatedly join in any relationship that shares a class.
        loop {
            let candidate = rels.iter().find(|r| {
                !used.contains(&r.name) && r.entities.iter().any(|e| joined_classes.contains(e))
            });
            let Some(rel) = candidate else { break };
            used.insert(rel.name.clone());

            // Index the new relation on its shared positions.
            let shared: Vec<usize> = rel
                .entities
                .iter()
                .enumerate()
                .filter(|(_, e)| joined_classes.contains(*e))
                .map(|(i, _)| i)
                .collect();
            // Grouping keys are borrowed `ValueKey` views — no per-tuple
            // key-string allocation.
            let tuples: Vec<UnitKey> = skeleton.relationship_tuples(&rel.name).collect();
            let mut index: HashMap<Vec<ValueKey<'_>>, Vec<&UnitKey>> = HashMap::new();
            for tuple in &tuples {
                let key: Vec<ValueKey<'_>> = shared.iter().map(|&i| ValueKey(&tuple[i])).collect();
                index.entry(key).or_default().push(tuple);
            }

            let mut next = Vec::new();
            for row in &joined {
                let key: Vec<ValueKey<'_>> = shared
                    .iter()
                    .map(|&i| ValueKey(&row[&rel.entities[i]]))
                    .collect();
                if let Some(matches) = index.get(&key) {
                    for tuple in matches {
                        let mut extended = row.clone();
                        for (class, v) in rel.entities.iter().zip(tuple.iter()) {
                            extended.insert(class.clone(), v.clone());
                        }
                        next.push(extended);
                    }
                }
                // Rows with no match are dropped (inner join), mirroring what
                // an analyst would get from a SQL natural join.
            }
            joined = next;
            joined_classes.extend(rel.entities.iter().cloned());
        }
    }

    // Assemble the output table.
    let mut classes: Vec<String> = joined_classes.iter().cloned().collect();
    classes.sort();
    let mut table = Table::default();
    for class in &classes {
        let values: Vec<Value> = joined
            .iter()
            .map(|row| row.get(class).cloned().unwrap_or(Value::Null))
            .collect();
        table.add_column(class, values)?;
    }

    // Attach observed attribute columns.
    for attr in schema.attributes().filter(|a| a.observed) {
        match schema.predicate_kind(&attr.subject) {
            Some(PredicateKind::Entity) => {
                if !joined_classes.contains(&attr.subject) {
                    continue;
                }
                let values: Vec<Value> = joined
                    .iter()
                    .map(|row| {
                        let key = &row[&attr.subject];
                        instance
                            .attribute(&attr.name, std::slice::from_ref(key))
                            .cloned()
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                table.add_column(&attr.name, values)?;
            }
            Some(PredicateKind::Relationship) => {
                let Some(rel) = schema.relationship(&attr.subject) else {
                    continue;
                };
                if !rel.entities.iter().all(|e| joined_classes.contains(e)) {
                    continue;
                }
                let values: Vec<Value> = joined
                    .iter()
                    .map(|row| {
                        let key: Vec<Value> = rel.entities.iter().map(|e| row[e].clone()).collect();
                        instance
                            .attribute(&attr.name, &key)
                            .cloned()
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                table.add_column(&attr.name, values)?;
            }
            None => {}
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universal_table_of_review_example() {
        let inst = Instance::review_example();
        let t = universal_table(&inst).unwrap();
        // One row per (author, submission, conference) combination reachable
        // through Author ⋈ Submitted: 5 authorships, each submission has one
        // conference → 5 rows.
        assert_eq!(t.row_count(), 5);
        for col in [
            "Person",
            "Submission",
            "Conference",
            "Prestige",
            "Score",
            "Blind",
            "Qualification",
        ] {
            assert!(t.has_column(col), "missing column {col}");
        }
        // Unobserved Quality must not appear.
        assert!(!t.has_column("Quality"));
    }

    #[test]
    fn duplication_bias_is_visible() {
        // The universal table duplicates a submission once per author — the
        // statistical hazard the paper warns about. Check the duplication
        // explicitly: s1 and s3 have two authors each.
        let inst = Instance::review_example();
        let t = universal_table(&inst).unwrap();
        let subs = t.column("Submission").unwrap();
        let s1_count = subs
            .values
            .iter()
            .filter(|v| **v == Value::from("s1"))
            .count();
        assert_eq!(s1_count, 2);
    }

    #[test]
    fn instance_without_relationships_uses_largest_entity() {
        use crate::schema::{DomainType, RelationalSchema};
        let mut schema = RelationalSchema::new();
        schema.add_entity("Patient").unwrap();
        schema
            .add_attribute("Age", "Patient", DomainType::Int, true)
            .unwrap();
        let mut inst = Instance::new(schema);
        for i in 0..4 {
            inst.add_entity("Patient", Value::from(format!("p{i}")))
                .unwrap();
            inst.set_attribute("Age", &[Value::from(format!("p{i}"))], Value::Int(30 + i))
                .unwrap();
        }
        let t = universal_table(&inst).unwrap();
        assert_eq!(t.row_count(), 4);
        assert!(t.has_column("Age"));
    }
}
