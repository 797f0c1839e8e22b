//! The metrics the benchmark prints: every end-to-end metric with tracing
//! off, every per-layer metric with tracing on. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("fit_s", "s", Lower),
    m("mrr_text", "ratio", Higher),
    m("mrr_location", "ratio", Higher),
    m("mrr_time", "ratio", Higher),
    m("query_qps", "1/s", Higher),
    m("query_p50_us", "us", Lower),
    m("query_p99_us", "us", Lower),
    m("ann_recall_at_10", "ratio", Higher),
    m("stream_records_per_s", "1/s", Higher),
    m("publish_p50_ms", "ms", Lower),
    m("publish_p90_ms", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("failed_frac", "ratio", Lower),
];

/// Metrics of single layers, measured in a separate traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("hotspot.spatial_detect_s", "s", Lower),
    m("hotspot.temporal_detect_s", "s", Lower),
    m("hotspot.meanshift_iterations", "count", Lower),
    m("stgraph.activity_build_s", "s", Lower),
    m("stgraph.user_build_s", "s", Lower),
    m("stgraph.tables_s", "s", Lower),
    m("stgraph.alias_draw_ns", "ns", Lower),
    m("embed.line_train_s", "s", Lower),
    m("embed.sgd_step_ns", "ns", Lower),
    m("embed.sgd_step_bag_ns", "ns", Lower),
    m("core.train_s", "s", Lower),
    m("core.updates_per_s", "1/s", Higher),
    m("core.observe_us", "us", Lower),
    m("serve.snapshot_build_s", "s", Lower),
    m("serve.cache_hit_ratio", "ratio", Higher),
    m("serve.cache_queries", "count", Higher),
    m("serve.query_hit_us_p50", "us", Lower),
    m("serve.query_miss_us_p50", "us", Lower),
    m("serve.ann_search_us", "us", Lower),
    m("serve.exact_scan_us", "us", Lower),
    m("serve.publish_dirty_rows", "count", Lower),
    m("serve.publish_us_per_row", "us", Lower),
    m("loadgen.lag_us_p99", "us", Lower),
    m("trace_overhead_frac", "ratio", Lower),
];

/// The definition of a metric by name, from either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
