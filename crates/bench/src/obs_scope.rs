//! Binary-wide telemetry scope for the experiment binaries.
//!
//! Each `src/bin/` entry point opens one [`ObsScope`] at the top of
//! `main`. The scope starts the live [`obs::Reporter`] when
//! `ACTOR_OBS_INTERVAL_MS` is set and, when it drops at process exit,
//! prints the final aggregated stage tree to stderr and appends one
//! `{"type":"run",...}` line to the `ACTOR_OBS_JSON` file after the
//! reporter's snapshot stream ends (schema in `docs/OBSERVABILITY.md`).

use std::io::Write as _;

/// RAII guard bracketing a whole experiment run.
pub struct ObsScope {
    label: &'static str,
    baseline: obs::Snapshot,
    reporter: Option<obs::Reporter>,
}

impl ObsScope {
    /// Opens the scope; `label` names the binary in the run summary.
    pub fn start(label: &'static str) -> Self {
        Self {
            label,
            baseline: obs::snapshot(),
            reporter: obs::Reporter::from_env(),
        }
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        let telemetry = obs::RunTelemetry::since(&self.baseline);
        // Stop the reporter first so its final snapshot lands in the JSONL
        // before the run summary line.
        drop(self.reporter.take());
        eprintln!(
            "\n-- telemetry: {} ({:.1}s) --",
            self.label, telemetry.wall_seconds
        );
        eprint!("{}", telemetry.render_tree());
        if let Ok(path) = std::env::var(obs::ENV_JSON) {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| {
                    writeln!(
                        f,
                        "{{\"type\":\"run\",\"label\":\"{}\",\"data\":{}}}",
                        self.label,
                        telemetry.to_json()
                    )
                });
            if let Err(e) = appended {
                eprintln!("[obs] cannot append run summary to {path}: {e}");
            }
        }
    }
}
