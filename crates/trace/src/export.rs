//! Exporters: a human-readable span-tree dump and JSON forms of spans and
//! histograms (the benchmark harness writes the latter to `BENCH_*.json`).

use std::collections::HashMap;

use crate::hist;
use crate::json::Json;
use crate::ring::{self, Event};

/// One node of a reassembled span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The completed span.
    pub event: Event,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total spans in this subtree (including this one).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// Depth of the subtree (1 for a leaf).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }
}

/// Reassembles every recorded span (across all scopes) into per-trace trees.
///
/// Roots are spans whose parent was never recorded — true roots, and spans
/// whose parent fell out of a wrapped ring. Within one trace the roots, and
/// every child list, are ordered by start time; the traces themselves come
/// out in first-seen order.
pub fn span_forest() -> Vec<(u64, Vec<SpanNode>)> {
    forest_of(ring::events())
}

/// Like [`span_forest`] but over an explicit event list (tests, or a caller
/// that filtered by scope first).
pub fn forest_of(events: Vec<Event>) -> Vec<(u64, Vec<SpanNode>)> {
    let recorded: std::collections::HashSet<u64> = events.iter().map(|e| e.span).collect();
    // span id -> children events, built oldest-first so child order holds.
    let mut children: HashMap<u64, Vec<Event>> = HashMap::new();
    let mut roots: Vec<Event> = Vec::new();
    for ev in events {
        if ev.parent != 0 && recorded.contains(&ev.parent) {
            children.entry(ev.parent).or_default().push(ev);
        } else {
            roots.push(ev);
        }
    }
    fn build(ev: Event, children: &mut HashMap<u64, Vec<Event>>) -> SpanNode {
        let kids = children.remove(&ev.span).unwrap_or_default();
        SpanNode {
            event: ev,
            children: kids.into_iter().map(|c| build(c, children)).collect(),
        }
    }
    let mut traces: Vec<(u64, Vec<SpanNode>)> = Vec::new();
    for root in roots {
        let trace = root.trace;
        let node = build(root, &mut children);
        match traces.iter_mut().find(|(t, _)| *t == trace) {
            Some((_, nodes)) => nodes.push(node),
            None => traces.push((trace, vec![node])),
        }
    }
    traces
}

/// Human-readable dump of every recorded trace as an indented tree, e.g.:
///
/// ```text
/// trace 17 (5 spans)
///   door_call scope=100000000 scid=0x2a 1840ns
///     simplex.serve scope=100000001 940ns
/// ```
pub fn render_text() -> String {
    let mut out = String::new();
    for (trace, roots) in span_forest() {
        let spans: usize = roots.iter().map(SpanNode::size).sum();
        out.push_str(&format!("trace {trace} ({spans} spans)\n"));
        for root in &roots {
            render_node(&mut out, root, 1);
        }
    }
    if out.is_empty() {
        out.push_str("(no recorded spans)\n");
    }
    out
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    let ev = &node.event;
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&format!("{} scope={:x}", ev.key, ev.scope));
    if ev.scid != 0 {
        out.push_str(&format!(" scid={:#x}", ev.scid));
    }
    out.push_str(&format!(" {}ns", ev.dur_ns));
    if ev.failed {
        out.push_str(" FAILED");
    }
    out.push('\n');
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn event_json(ev: &Event) -> Json {
    Json::obj([
        // Identifiers go out as strings so they round-trip exactly even
        // beyond 2^53.
        ("trace", Json::from(ev.trace.to_string())),
        ("span", Json::from(ev.span.to_string())),
        ("parent", Json::from(ev.parent.to_string())),
        ("scope", Json::from(format!("{:x}", ev.scope))),
        ("scid", Json::from(format!("{:x}", ev.scid))),
        ("key", Json::from(ev.key)),
        ("start_ns", Json::from(ev.start_ns)),
        ("dur_ns", Json::from(ev.dur_ns)),
        ("failed", Json::from(ev.failed)),
    ])
}

fn node_json(node: &SpanNode) -> Json {
    let Json::Obj(mut pairs) = event_json(&node.event) else {
        unreachable!("event_json returns an object");
    };
    pairs.push((
        "children".to_string(),
        Json::Arr(node.children.iter().map(node_json).collect()),
    ));
    Json::Obj(pairs)
}

/// Every recorded trace as JSON: an array of
/// `{"trace": ..., "roots": [span tree...]}` objects.
pub fn spans_json() -> Json {
    Json::Arr(
        span_forest()
            .iter()
            .map(|(trace, roots)| {
                Json::obj([
                    ("trace", Json::from(trace.to_string())),
                    ("roots", Json::Arr(roots.iter().map(node_json).collect())),
                ])
            })
            .collect(),
    )
}

/// Every latency histogram as JSON: an array of
/// `{"key": ..., "op": ..., "count": ..., "mean_ns": ..., "p50_ns": ...,
/// "p90_ns": ..., "p99_ns": ..., "p999_ns": ..., "max_ns": ...,
/// "buckets": [...]}` objects. Trailing empty buckets are trimmed.
pub fn histograms_json() -> Json {
    Json::Arr(
        hist::snapshot_all()
            .iter()
            .map(|(key, op, snap)| {
                let last = snap
                    .buckets
                    .iter()
                    .rposition(|&n| n != 0)
                    .map_or(0, |i| i + 1);
                Json::obj([
                    ("key", Json::from(format!("{key:x}"))),
                    ("op", Json::from(*op)),
                    ("count", Json::from(snap.count)),
                    ("mean_ns", Json::from(snap.mean_ns())),
                    ("p50_ns", Json::from(snap.p50_ns())),
                    ("p90_ns", Json::from(snap.p90_ns())),
                    ("p99_ns", Json::from(snap.p99_ns())),
                    ("p999_ns", Json::from(snap.p999_ns())),
                    ("max_ns", Json::from(snap.max_ns)),
                    (
                        "buckets",
                        Json::Arr(
                            snap.buckets[..last]
                                .iter()
                                .map(|&n| Json::from(n))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, span: u64, parent: u64, start: u64, key: &'static str) -> Event {
        Event {
            trace,
            span,
            parent,
            start_ns: start,
            key,
            ..Event::default()
        }
    }

    #[test]
    fn forest_links_parentage() {
        let forest = forest_of(vec![
            ev(1, 10, 0, 0, "root"),
            ev(1, 11, 10, 1, "mid"),
            ev(1, 12, 11, 2, "leaf"),
            ev(2, 20, 0, 3, "other"),
        ]);
        assert_eq!(forest.len(), 2);
        let (trace, roots) = &forest[0];
        assert_eq!(*trace, 1);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].size(), 3);
        assert_eq!(roots[0].depth(), 3);
        assert_eq!(roots[0].children[0].children[0].event.key, "leaf");
    }

    #[test]
    fn orphans_become_roots() {
        let forest = forest_of(vec![ev(1, 11, 999, 0, "orphan")]);
        assert_eq!(forest[0].1.len(), 1);
        assert_eq!(forest[0].1[0].event.key, "orphan");
    }

    #[test]
    fn text_and_json_render() {
        let mut failed = ev(1, 11, 10, 1, "hop");
        failed.failed = true;
        failed.scid = 0x2a;
        let nodes = forest_of(vec![ev(1, 10, 0, 0, "call"), failed]);
        let mut text = String::new();
        text.push_str(&format!("trace 1 ({} spans)\n", nodes[0].1[0].size()));
        render_node(&mut text, &nodes[0].1[0], 1);
        assert!(text.contains("call"));
        assert!(text.contains("FAILED"));
        assert!(text.contains("scid=0x2a"));

        let json = node_json(&nodes[0].1[0]).pretty();
        assert!(json.contains("\"key\": \"call\""));
        assert!(json.contains("\"key\": \"hop\""));
        assert!(json.contains("\"failed\": true"));
    }
}
