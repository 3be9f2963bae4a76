//! The table description's two outputs, pinned over one hand-built table
//! that uses every kind of value, a parameter, figures of every kind and
//! sentences placed before and after the rows.

use spring_bench::report::{Table, Value::*};
use spring_bench::row;
use spring_trace::json::Json;

fn sample() -> Table {
    let mut t = Table::new(
        "e0",
        "E0: a sample",
        "paper §0",
        &["arm", "calls", "ns/call", "share"],
    );
    t.param("iters", 500u64);
    t.figure("capacity_per_sec", Ratio(6729.4, 0));
    t.note("capacity: {capacity_per_sec} calls/s over {iters} iterations");
    row![t; "raw door", 500u64, Ns(85.4), Ratio(0.25, 3)];
    row![t; "general stubs + simplex (µ)", 1_000_000usize, Ns(2_430.0), Ratio(1.0, 3)];
    t.figure("overhead_ns", Ns(2_344.6));
    t.figure("stall_ns", Ns(12_500_000.0));
    t.figure("doors", 3u32);
    t.figure("undefined", Ratio(f64::NAN, 2));
    t.note("overhead +{overhead_ns} ({doors} doors), worst stall {stall_ns}");
    t
}

#[test]
fn the_text_renderer_is_pinned() {
    let golden = "
== E0: a sample (paper §0) ==
capacity: 6729 calls/s over 500 iterations
arm                            calls  ns/call  share
raw door                         500    85 ns  0.250
general stubs + simplex (µ)  1000000  2.43 µs  1.000
overhead +2.34 µs (3 doors), worst stall 12.50 ms
";
    assert_eq!(sample().render(), golden);
}

#[test]
fn the_serialiser_parses_back_to_what_was_described() {
    let table = sample();
    let doc = Json::parse(&table.to_json().pretty()).expect("the serialiser emits valid JSON");
    let text = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_owned);
    assert_eq!(text("id").as_deref(), Some("e0"));
    assert_eq!(text("title").as_deref(), Some("E0: a sample"));
    assert_eq!(text("sections").as_deref(), Some("paper §0"));
    let num = |section: &str, name: &str| doc.get(section)?.get(name)?.as_f64();
    assert_eq!(num("params", "iters"), Some(500.0));
    assert_eq!(num("figures", "capacity_per_sec"), Some(6729.4));
    assert_eq!(num("figures", "overhead_ns"), Some(2_344.6));
    assert_eq!(num("figures", "doors"), table.get("doors"));
    // A quotient with no value is null, which a reader sees as missing.
    assert_eq!(
        doc.get("figures").unwrap().get("undefined"),
        Some(&Json::Null)
    );

    let columns: Vec<(&str, &str)> = (doc.get("columns").and_then(Json::as_arr).unwrap().iter())
        .map(|c| {
            let field = |key| c.get(key).and_then(Json::as_str).unwrap();
            (field("name"), field("kind"))
        })
        .collect();
    assert_eq!(
        columns,
        [
            ("arm", "text"),
            ("calls", "count"),
            ("ns/call", "ns"),
            ("share", "ratio")
        ]
    );
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[1].as_arr().unwrap(),
        [
            Json::from("general stubs + simplex (µ)"),
            Json::Num(1_000_000.0),
            Json::Num(2_430.0),
            Json::Num(1.0)
        ]
    );
    let notes: Vec<&str> = (doc.get("notes").and_then(Json::as_arr).unwrap().iter())
        .map(|n| n.as_str().unwrap())
        .collect();
    assert_eq!(
        notes,
        [
            "capacity: 6729 calls/s over 500 iterations",
            "overhead +2.34 µs (3 doors), worst stall 12.50 ms"
        ]
    );
}

#[test]
#[should_panic(expected = "unknown figure `speedup`")]
fn a_sentence_naming_no_figure_is_a_bug() {
    let mut t = sample();
    t.note("pipelining wins {speedup}x");
    t.render();
}
