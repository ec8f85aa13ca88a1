//! `OBSERVABILITY.md`'s "Event glossary" table is documentation of the
//! wire format, so it is held to the wire format: its `ev`, kind and
//! field-list columns must equal [`TraceEvent::SCHEMA`], the table the
//! codec itself is generated from. Renaming a field, or adding an event,
//! in one place only fails here.

use opa_trace::TraceEvent;
use std::collections::BTreeMap;

/// Label → (kind column, field names in order), for one side.
type Glossary = BTreeMap<String, (String, Vec<String>)>;

/// The names between backticks in one table cell.
fn backticked(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

fn documented() -> Glossary {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBSERVABILITY.md");
    let text = std::fs::read_to_string(path).expect("OBSERVABILITY.md is readable");
    let section = text
        .split("### Event glossary")
        .nth(1)
        .expect("an 'Event glossary' section");
    let mut rows = Glossary::new();
    // The section's table: header, separator, then one row per event, up
    // to the first line that is not a table row.
    for row in section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
    {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let label = backticked(cells[1]).pop().expect("an `ev` label");
        let entry = (cells[2].to_string(), backticked(cells[3]));
        assert!(rows.insert(label, entry).is_none(), "duplicate row: {row}");
    }
    rows
}

#[test]
fn glossary_matches_the_schema() {
    let declared: Glossary = TraceEvent::SCHEMA
        .iter()
        .map(|&(label, fields)| {
            // An interval is an event with a start time.
            let kind = if fields.contains(&"t0") {
                "interval"
            } else {
                "instant"
            };
            let fields = fields.iter().map(|f| f.to_string()).collect();
            (label.to_string(), (kind.to_string(), fields))
        })
        .collect();
    let documented = documented();
    for label in declared.keys().chain(documented.keys()) {
        assert_eq!(
            documented.get(label),
            declared.get(label),
            "glossary row (left) vs SCHEMA (right) for `{label}`"
        );
    }
}
