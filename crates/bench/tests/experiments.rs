//! Every entry of `EXPERIMENTS`, run once at smoke scale: the table it
//! returns is well formed, and every gate it declares names a figure that
//! the run produced and that the committed baseline holds — so a renamed
//! figure fails here, in `cargo test`, not in CI's compare step.

use spring_bench::report::{Scale, Value, EXPERIMENTS};
use spring_trace::json::Json;

const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baselines");

#[test]
fn every_experiment_fills_its_table_and_every_gate_has_a_baseline() {
    for experiment in EXPERIMENTS {
        let table = (experiment.run)(Scale::Smoke);
        let id = experiment.id;
        assert_eq!(table.id, id, "the table names its own experiment");

        // Every row fills every column, and a column holds one kind of
        // value (the first row's) all the way down.
        let first = table
            .rows()
            .next()
            .unwrap_or_else(|| panic!("{id}: no rows"));
        for row in table.rows() {
            assert_eq!(row.len(), table.columns.len(), "{id}: row width");
            for ((cell, above), name) in row.iter().zip(first).zip(table.columns) {
                let fits = match cell {
                    Value::Text(_) => true,
                    number => number.number().is_some_and(f64::is_finite),
                };
                assert!(
                    fits && cell.kind() == above.kind(),
                    "{id}: column `{name}` ({}) holds {cell:?}",
                    above.kind()
                );
            }
        }
        // Rendering resolves every `{figure}` a sentence names, or panics.
        assert!(table.render().contains(table.title), "{id}");

        if experiment.gates.is_empty() {
            continue;
        }
        let path = format!("{BASELINES}/BENCH_{id}.json");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let baseline = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        for gate in experiment.gates {
            let figure = gate.figure;
            let value = table.get(figure);
            assert!(
                value.is_some_and(f64::is_finite),
                "{id}: gate names figure `{figure}`, the run produced {value:?}"
            );
            let recorded = baseline.get("figures").and_then(|f| f.get(figure));
            assert!(
                recorded.and_then(Json::as_f64).is_some(),
                "{path} holds no figure `{figure}`"
            );
        }
    }
}
