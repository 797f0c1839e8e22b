//! What one run measured and checked, and how it is printed.
//!
//! The last line of standard output is the result object a benchmark
//! runner reads. A fuller record (host, threads, seed, git revision,
//! sample counts, checks, program counters, span totals) is written next
//! to the span file under `perfbench/out/`.

use std::fmt::Write as _;
use std::path::Path;

use crate::catalog::{self, MetricDef};
use crate::trace::SpanSummary;

/// Added to `failed_frac` so that it is never 0.
pub const FAILED_FRAC_FLOOR: f64 = 1e-6;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (a percentile's sample count, repeats
    /// behind a median); 0 when it is a single measurement.
    pub samples: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Vec<Value>,
    pub checks: Vec<Check>,
    /// Operations whose outcome was checked (fits, queries, observed
    /// records, publishes).
    pub attempted: u64,
    /// Operations that errored or whose output failed a check.
    pub failed: u64,
    /// Run facts: host, threads, seed, sizes.
    pub info: Vec<(String, String)>,
    /// Program counters copied from the `obs` registry.
    pub counters: Vec<(String, u64)>,
    pub spans: Vec<SpanSummary>,
}

impl Report {
    /// Records a metric; the name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            catalog::lookup(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.retain(|v| v.name != name);
        self.values.push(Value {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Records an output check; a failed check counts as one failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        let (name, detail) = (name.into(), detail.into());
        if !ok {
            eprintln!("perfbench: CHECK FAILED {name}: {detail}");
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    /// Counts operations attempted and how many of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The failure fraction printed as `failed_frac`: failed over
    /// attempted operations plus a floor of one in a million, which keeps
    /// it above zero when nothing failed without making it depend on how
    /// many operations a run managed (that would tie it to speed).
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64 + FAILED_FRAC_FLOOR
    }

    /// The result object over the metrics in `defs`. Panics if
    /// one of them was not measured: that is a bug in a workload.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_f64(v),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Writes the full run record as one JSON object.
    pub fn write_record(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\n  \"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    {}: {}", json_str(k), json_str(v));
        }
        let _ = write!(
            out,
            "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": [",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, v) in self.values.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let def = catalog::lookup(v.name).expect("set() admits catalog metrics only");
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}, \"samples\": {}}}",
                json_str(v.name),
                json_f64(v.value),
                json_str(def.unit),
                json_str(def.better.label()),
                v.samples
            );
        }
        out.push_str("\n  ],\n  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        out.push_str("\n  ],\n  \"counters\": [");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"value\": {value}, \"unit\": \"count\"}}",
                json_str(name)
            );
        }
        out.push_str("\n  ],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(s.name),
                s.count,
                json_f64(s.total_s),
                json_f64(s.self_s)
            );
        }
        out.push_str("\n  ]\n}\n");
        std::fs::write(path, out)
    }
}

/// A finite f64 as JSON, with every digit Rust's shortest round-trip
/// form gives.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_requested_metrics_in_order() {
        let mut r = Report::default();
        r.set("setup_s", 0.5, 3);
        r.set("fit_s", 2.0, 1);
        r.ops(10, 0);
        let defs = &catalog::END_TO_END[..2];
        assert_eq!(
            r.result_line(defs),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"fit_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut r = Report::default();
        r.ops(4, 0);
        r.check("ok", true, "");
        assert!(r.correct());
        let clean = r.failed_frac();
        assert_eq!(clean, FAILED_FRAC_FLOOR);
        r.check("bad", false, "mismatch");
        assert!(!r.correct());
        assert!(r.failed_frac() > clean);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
