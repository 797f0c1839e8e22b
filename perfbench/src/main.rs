//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit-paper|serve-read> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` it holds every per-layer
//! metric instead. A fuller record and, when traced, the spans go to
//! `perfbench/out/`. The exit code is 0 only when every output check
//! passed. README.md describes the workloads and metrics.

mod catalog;
mod fitting;
mod record;
mod serving;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Tracer;
use workloads::{Run, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <fit-paper|serve-read> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<(Run, bool), String> {
    let (mut workload, mut seed, mut secs, mut trace) = (None, None, None, None);
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                secs = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let run = Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        secs: secs.ok_or("--seconds is required")?,
        scale: Scale::Full,
    };
    Ok((run, trace.ok_or("--trace is required")?))
}

/// `perfbench/out/`, next to this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit checked out around this package, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let mut dir = Some(Path::new(env!("CARGO_MANIFEST_DIR")));
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
                .unwrap_or_else(|| "unknown".to_string());
        }
        dir = d.parent();
    }
    "unknown".to_string()
}

fn main() -> ExitCode {
    let (run, trace) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(trace);
    let mut report = workloads::run_workload(&run, &tracer);
    report.info("git_rev", git_rev());

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload.name(),
        run.seed,
        u8::from(trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| report.write_record(&dir.join(format!("{stem}.json"))))
        .and_then(|()| {
            if trace {
                tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the run record under {}: {e}",
            dir.display()
        );
        return ExitCode::from(1);
    }
    for v in &report.values {
        eprintln!(
            "perfbench: {:<32} {:>16.6} (n={})",
            v.name, v.value, v.samples
        );
    }

    let defs = if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    println!("{}", report.result_line(defs));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_required_flags() {
        let (run, trace) = parse_args(args(
            "--workload serve-read --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workload, Workload::ServeRead);
        assert_eq!(run.seed, 7);
        assert_eq!(run.secs, 10.0);
        assert_eq!(run.scale, Scale::Full);
        assert!(trace);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload fit-paper --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(args("--workload fit-paper --seed 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload fit-paper --seed x --seconds 1 --trace 0")).is_err());
    }
}
