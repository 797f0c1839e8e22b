//! Measures what the resilience layer costs and what it saves: times
//! plain `fit` against `fit_checkpointed` under the default checkpoint
//! policy (acceptance bar: ≤ 5 % overhead), then kills the checkpointed
//! run mid-training with a seeded [`FaultPlan`] and times the resumed
//! completion — the work saved is the epochs the resume did *not* have
//! to replay.
//!
//! Run: `cargo run -p actor-bench --bin crash_recovery --release [epochs] [rounds]`

use std::path::PathBuf;
use std::time::Instant;

use actor_core::{fit, fit_checkpointed, fit_resume, ActorConfig, ResilienceOptions};
use evalkit::{evaluate_mrr, EvalParams, PredictionTask};
use mobility::synth::{generate, DatasetPreset};
use mobility::{CorpusSplit, SplitSpec};
use resilience::FaultPlan;

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("actor-crash-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Process CPU seconds (utime + stime across all threads), or `None`
/// off-Linux. CPU time is the acceptance metric for checkpoint overhead:
/// the writer thread's serialization/CRC/copy work all lands here, while
/// shared-host wall-clock noise (CPU steal, disk-latency spikes) does
/// not.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Skip past the parenthesized comm field, which may contain spaces.
    let rest = stat.rsplit(") ").next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let epochs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let rounds: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(7)).expect("synth corpus");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("split");
    let config = ActorConfig {
        max_epochs: epochs,
        seed: 7,
        ..ActorConfig::default()
    };

    println!(
        "== crash_recovery: {} records, {} epochs, default checkpoint policy ==\n",
        corpus.len(),
        epochs
    );

    // 1. Checkpoint overhead: paired plain / checkpointed rounds. One
    // untimed warm-up of each, then each timed round runs both fits
    // back-to-back under the same ambient conditions (page cache,
    // background flusher, scheduler) and contributes one time ratio;
    // the median ratio strips disk-latency outliers in either direction.
    let dir = ckpt_dir("overhead");
    let opts = ResilienceOptions::new(&dir);
    let _ = fit(&corpus, &split.train, &config).expect("plain fit");
    let _ = fit_checkpointed(&corpus, &split.train, &config, &opts).expect("ckpt fit");
    let mut best_plain = f64::INFINITY;
    let mut best_ckpt = f64::INFINITY;
    let mut cpu_plain = 0.0;
    let mut cpu_ckpt = 0.0;
    let mut ratios = Vec::with_capacity(rounds);
    let mut written = 0;
    for _ in 0..rounds {
        let c = cpu_seconds();
        let t = Instant::now();
        let _ = fit(&corpus, &split.train, &config).expect("plain fit");
        let plain = t.elapsed().as_secs_f64();
        best_plain = best_plain.min(plain);
        cpu_plain += cpu_seconds().zip(c).map_or(0.0, |(b, a)| b - a);

        let c = cpu_seconds();
        let t = Instant::now();
        let (_, _, res) =
            fit_checkpointed(&corpus, &split.train, &config, &opts).expect("ckpt fit");
        let ckpt = t.elapsed().as_secs_f64();
        best_ckpt = best_ckpt.min(ckpt);
        cpu_ckpt += cpu_seconds().zip(c).map_or(0.0, |(b, a)| b - a);
        ratios.push(ckpt / plain);
        written = res.checkpoints_written;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let wall_overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    println!("plain fit:        {best_plain:.3}s wall (best of {rounds}), {cpu_plain:.2}s cpu (sum of {rounds})");
    println!("checkpointed fit: {best_ckpt:.3}s wall (best of {rounds}), {cpu_ckpt:.2}s cpu ({written} snapshots)");
    if cpu_plain > 0.0 && cpu_ckpt > 0.0 {
        let cpu_overhead = (cpu_ckpt / cpu_plain - 1.0) * 100.0;
        println!(
            "overhead:         {cpu_overhead:+.2}% cpu (bar: < 5%), {wall_overhead:+.2}% wall (median of {rounds} paired rounds)\n"
        );
    } else {
        println!("overhead:         {wall_overhead:+.2}% wall (median of {rounds} paired rounds; bar: < 5%)\n");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // 2. Crash and recover: kill past the halfway sample count, resume.
    let dir = ckpt_dir("crash");
    let mut opts = ResilienceOptions::new(&dir);
    let spe = 7 * config.batch_size as u64 * config.batches_per_type as u64;
    let kill_at = epochs as u64 / 2 * spe;
    opts.fault = Some(FaultPlan::new(7).with_worker_failure_after(kill_at));
    let t = Instant::now();
    let err = fit_checkpointed(&corpus, &split.train, &config, &opts).err();
    let until_crash = t.elapsed().as_secs_f64();
    println!("killed after {until_crash:.3}s: {err:?}");

    opts.fault = None;
    let t = Instant::now();
    let (model, _, res) = fit_resume(&corpus, &split.train, &config, &opts).expect("resume");
    let resume_secs = t.elapsed().as_secs_f64();
    let from = res.resumed_from.expect("resumed from a checkpoint").epoch;
    println!(
        "resumed from epoch {from}/{epochs} in {resume_secs:.3}s — skipped {:.0}% of the run",
        from as f64 / epochs as f64 * 100.0
    );

    let mrr = evaluate_mrr(
        &model,
        &corpus,
        &split.test,
        PredictionTask::Location,
        &EvalParams::default(),
    );
    println!("resumed-model location MRR: {mrr:.4}");
    let _ = std::fs::remove_dir_all(&dir);
}
