//! `RunTelemetry`: the frozen result of one pipeline run, built from
//! registry snapshots, renderable as a human-readable stage tree and as a
//! single JSON object suitable for storing alongside model results.

use crate::json::{push_f64, push_key, push_str_literal};
use crate::metrics::{CounterSnapshot, HistogramSnapshot};
use crate::registry::{snapshot, Snapshot, PATH_SEP};

/// One node of the aggregated span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Leaf name (last path component), e.g. `core.fit.train`.
    pub name: String,
    /// Times a span with this path closed.
    pub count: u64,
    /// Total seconds spent inside, across all closures.
    pub seconds: f64,
    pub children: Vec<SpanNode>,
}

/// Telemetry captured over a bounded piece of work (typically one
/// `pipeline::fit` call or one bench run).
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Wall-clock seconds covered by this capture.
    pub wall_seconds: f64,
    /// Root spans observed during the capture, with nested children.
    pub spans: Vec<SpanNode>,
    /// Counter totals accumulated during the capture.
    pub counters: Vec<CounterSnapshot>,
    /// Histogram summaries accumulated during the capture.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RunTelemetry {
    /// Everything the registry has seen since process start (or the last
    /// [`crate::reset`]).
    pub fn capture() -> Self {
        Self::from_snapshot_pair(None, snapshot())
    }

    /// Only what happened after `baseline` was taken — the right call for
    /// isolating one run when the process does several. Every difference
    /// saturates at zero: after a [`crate::reset`] between `baseline` and
    /// now, a span, counter or histogram that has recorded less than the
    /// baseline held reads as nothing, not as an underflow.
    pub fn since(baseline: &Snapshot) -> Self {
        Self::from_snapshot_pair(Some(baseline), snapshot())
    }

    fn from_snapshot_pair(baseline: Option<&Snapshot>, now: Snapshot) -> Self {
        let wall_seconds = now.elapsed_s - baseline.map_or(0.0, |b| b.elapsed_s);

        let spans: Vec<(String, u64, u64)> = now
            .spans
            .iter()
            .filter_map(|(path, stat)| {
                let prior = baseline
                    .and_then(|b| b.spans.iter().find(|(p, _)| p == path))
                    .map(|(_, s)| *s)
                    .unwrap_or_default();
                let count = stat.count.saturating_sub(prior.count);
                let total_ns = stat.total_ns.saturating_sub(prior.total_ns);
                (count > 0).then(|| (path.clone(), count, total_ns))
            })
            .collect();

        let counters: Vec<CounterSnapshot> = now
            .counters
            .iter()
            .filter_map(|c| {
                let prior = baseline
                    .and_then(|b| b.counters.iter().find(|p| p.name == c.name))
                    .map_or(0, |p| p.value);
                let value = c.value.saturating_sub(prior);
                (value > 0).then(|| CounterSnapshot {
                    name: c.name.clone(),
                    value,
                })
            })
            .collect();

        let histograms: Vec<HistogramSnapshot> = now
            .histograms
            .iter()
            .filter_map(|h| {
                let delta =
                    match baseline.and_then(|b| b.histograms.iter().find(|p| p.name == h.name)) {
                        Some(prior) => h.diff(prior),
                        None => h.clone(),
                    };
                (delta.count > 0).then_some(delta)
            })
            .collect();

        Self {
            wall_seconds,
            spans: build_tree(&spans),
            counters,
            histograms,
        }
    }

    /// Renders the span tree with per-stage totals, e.g.
    ///
    /// ```text
    /// core.fit                      1x   12.31s
    ///   core.fit.hotspot            1x    0.84s
    ///   core.fit.train              1x   10.02s
    /// ```
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in &self.spans {
            render_node(&mut out, root, 0);
        }
        out
    }

    /// Writes the whole capture as one compact JSON object:
    ///
    /// ```json
    /// {"wall_seconds":..,"spans":[{"name":..,"count":..,"seconds":..,
    ///  "children":[..]}],"counters":[{"name":..,"value":..}],
    ///  "histograms":[{"name":..,"count":..,"sum":..,"mean":..,
    ///  "p50":..,"p95":..,"p99":..,"max":..}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_key(&mut out, "wall_seconds");
        push_f64(&mut out, self.wall_seconds);
        out.push(',');
        push_key(&mut out, "spans");
        push_span_array(&mut out, &self.spans);
        out.push(',');
        push_key(&mut out, "counters");
        out.push('[');
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_counter(&mut out, c);
        }
        out.push(']');
        out.push(',');
        push_key(&mut out, "histograms");
        out.push('[');
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_histogram(&mut out, h);
        }
        out.push_str("]}");
        out
    }
}

pub(crate) fn push_counter(out: &mut String, c: &CounterSnapshot) {
    out.push('{');
    push_key(out, "name");
    push_str_literal(out, &c.name);
    out.push(',');
    push_key(out, "value");
    out.push_str(&c.value.to_string());
    out.push('}');
}

pub(crate) fn push_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    push_key(out, "name");
    push_str_literal(out, &h.name);
    for (key, value) in [("count", h.count), ("sum", h.sum)] {
        out.push(',');
        push_key(out, key);
        out.push_str(&value.to_string());
    }
    out.push(',');
    push_key(out, "mean");
    push_f64(out, h.mean);
    for (key, value) in [
        ("p50", h.p50),
        ("p95", h.p95),
        ("p99", h.p99),
        ("max", h.max),
    ] {
        out.push(',');
        push_key(out, key);
        out.push_str(&value.to_string());
    }
    out.push('}');
}

fn push_span_array(out: &mut String, nodes: &[SpanNode]) {
    out.push('[');
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_key(out, "name");
        push_str_literal(out, &n.name);
        out.push(',');
        push_key(out, "count");
        out.push_str(&n.count.to_string());
        out.push(',');
        push_key(out, "seconds");
        push_f64(out, n.seconds);
        out.push(',');
        push_key(out, "children");
        push_span_array(out, &n.children);
        out.push('}');
    }
    out.push(']');
}

/// Builds the nested tree from flat `(path, count, total_ns)` rows. Paths
/// arrive sorted, so a child (`a>b`) always follows its parent (`a`); a
/// child whose parent never closed during the capture becomes a root.
fn build_tree(flat: &[(String, u64, u64)]) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    for (path, count, total_ns) in flat {
        let components: Vec<&str> = path.split(PATH_SEP).collect();
        let node = SpanNode {
            name: components.last().unwrap().to_string(),
            count: *count,
            seconds: *total_ns as f64 / 1e9,
            children: Vec::new(),
        };
        insert(&mut roots, &components, node);
    }
    roots
}

fn insert(siblings: &mut Vec<SpanNode>, components: &[&str], node: SpanNode) {
    if components.len() == 1 {
        siblings.push(node);
        return;
    }
    match siblings.iter_mut().find(|s| s.name == components[0]) {
        Some(parent) => insert(&mut parent.children, &components[1..], node),
        // Parent path never closed during this capture: attach at this
        // level rather than dropping the measurement.
        None => siblings.push(node),
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    out.push_str(&format!(
        "{label:<44} {:>6}x {:>9.3}s\n",
        node.count, node.seconds
    ));
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, count: u64, ns: u64) -> (String, u64, u64) {
        (path.to_string(), count, ns)
    }

    #[test]
    fn tree_nests_children_under_parents() {
        let flat = vec![
            row("fit", 1, 5_000_000_000),
            row("fit>graph", 1, 1_000_000_000),
            row("fit>graph>edges", 4, 400_000_000),
            row("fit>train", 1, 3_000_000_000),
        ];
        let tree = build_tree(&flat);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "fit");
        assert_eq!(tree[0].children.len(), 2);
        assert_eq!(tree[0].children[0].name, "graph");
        assert_eq!(tree[0].children[0].children[0].name, "edges");
        assert_eq!(tree[0].children[0].children[0].count, 4);
    }

    #[test]
    fn orphan_child_becomes_root() {
        let flat = vec![row("a>b", 2, 1_000)];
        let tree = build_tree(&flat);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "b");
    }

    #[test]
    fn render_shows_counts_and_seconds() {
        let flat = vec![
            row("fit", 1, 2_500_000_000),
            row("fit>train", 3, 1_500_000_000),
        ];
        let telemetry = RunTelemetry {
            wall_seconds: 2.5,
            spans: build_tree(&flat),
            counters: vec![],
            histograms: vec![],
        };
        let text = telemetry.render_tree();
        assert!(text.contains("fit"), "{text}");
        assert!(text.contains("  train"), "{text}");
        assert!(text.contains("3x"), "{text}");
        assert!(text.contains("1.500s"), "{text}");
    }

    #[test]
    fn json_shape_is_stable() {
        let telemetry = RunTelemetry {
            wall_seconds: 1.25,
            spans: build_tree(&[row("fit", 1, 1_000_000_000)]),
            counters: vec![CounterSnapshot {
                name: "embed.samples".into(),
                value: 42,
            }],
            histograms: vec![HistogramSnapshot::from_buckets(
                "hotspot.iters".into(),
                {
                    let mut b = vec![0u64; crate::metrics::HIST_BUCKETS];
                    b[2] = 5;
                    b
                },
                15,
                3,
            )],
        };
        let json = telemetry.to_json();
        assert!(json.starts_with("{\"wall_seconds\":1.250000"), "{json}");
        assert!(json.contains("\"name\":\"fit\",\"count\":1"), "{json}");
        assert!(
            json.contains("\"name\":\"embed.samples\",\"value\":42}"),
            "{json}"
        );
        assert!(json.contains("\"p50\":3"), "{json}");
        assert!(json.ends_with("}"), "{json}");
    }
}
