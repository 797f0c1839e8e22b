//! Integration tests for the telemetry layer: span nesting and
//! aggregation through the public API, counter exactness under concurrent
//! writers, and JSONL schema round-trips through a strict JSON reader
//! (`json/mod.rs`).

mod json;

use std::time::Duration;

#[test]
fn span_tree_nests_and_aggregates() {
    {
        let _run = obs::span!("it.run");
        for _ in 0..4 {
            let _stage = obs::span!("it.stage");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _other = obs::span!("it.other");
    }
    let telemetry = obs::RunTelemetry::capture();
    let run = telemetry
        .spans
        .iter()
        .find(|n| n.name == "it.run")
        .expect("root span recorded");
    assert_eq!(run.count, 1);
    let stage = run
        .children
        .iter()
        .find(|n| n.name == "it.stage")
        .expect("nested span is a child");
    assert_eq!(stage.count, 4, "same-path spans aggregate");
    assert!(stage.seconds >= 0.004);
    assert!(run.seconds >= stage.seconds, "parent covers children");
    assert!(run.children.iter().any(|n| n.name == "it.other"));
}

#[test]
fn counters_are_exact_under_concurrent_threads() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;
    let before = obs::counter("it.concurrent").value();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let c = obs::counter("it.concurrent");
                for _ in 0..PER_THREAD {
                    c.incr();
                }
            });
        }
    });
    let after = obs::counter("it.concurrent").value();
    assert_eq!(after - before, THREADS as u64 * PER_THREAD);
}

#[test]
fn snapshot_diff_isolates_a_run() {
    obs::counter("it.diff").add(10);
    let baseline = obs::snapshot();
    obs::counter("it.diff").add(32);
    obs::histogram("it.diff.hist").record(7);
    let telemetry = obs::RunTelemetry::since(&baseline);
    let c = telemetry
        .counters
        .iter()
        .find(|c| c.name == "it.diff")
        .expect("changed counter present");
    assert_eq!(c.value, 32, "only the delta since the baseline");
    let h = telemetry
        .histograms
        .iter()
        .find(|h| h.name == "it.diff.hist")
        .expect("changed histogram present");
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, 7);
}

#[test]
fn run_telemetry_json_round_trips() {
    {
        let _root = obs::span!("it.json.run");
        let _child = obs::span!("it.json.child");
        obs::counter("it.json.samples").add(12345);
        obs::histogram("it.json.iters").record(3);
        obs::histogram("it.json.iters").record(300);
    }
    let json = obs::RunTelemetry::capture().to_json();
    let v = json::parse(&json).expect("valid JSON");

    let root = v.as_map().expect("top-level object");
    assert!(root.iter().any(|(k, _)| k == "wall_seconds"));

    let spans = v.get("spans").as_seq().expect("spans array");
    let run = spans
        .iter()
        .find(|s| s.get("name").as_str() == Some("it.json.run"))
        .expect("span node present");
    let children = run.get("children").as_seq().expect("children array");
    assert!(children
        .iter()
        .any(|c| c.get("name").as_str() == Some("it.json.child")));

    let counters = v.get("counters").as_seq().expect("counters array");
    assert!(counters.iter().any(|c| {
        c.get("name").as_str() == Some("it.json.samples")
            && c.get("value") == &json::Value::Int(12345)
    }));

    let histograms = v.get("histograms").as_seq().expect("histograms array");
    let h = histograms
        .iter()
        .find(|h| h.get("name").as_str() == Some("it.json.iters"))
        .expect("histogram present");
    for key in ["count", "sum", "mean", "p50", "p95", "p99", "max"] {
        assert!(
            !matches!(h.get(key), json::Value::Null),
            "histogram field {key} missing in {json}"
        );
    }
}

#[test]
fn special_characters_in_names_survive_the_json_round_trip() {
    let name = "it.json.\"quoted\\path\"\nnext\u{1}";
    obs::counter(name).add(5);
    drop(obs::span!(name));
    let json = obs::RunTelemetry::capture().to_json();
    let v = json::parse(&json).expect("valid JSON");
    for key in ["counters", "spans"] {
        let mut names = v.get(key).as_seq().unwrap().iter().map(|n| n.get("name").as_str());
        assert!(names.any(|n| n == Some(name)), "{key}: no {name:?} in {json}");
    }
}

#[test]
fn reporter_writes_parseable_jsonl() {
    let path = std::env::temp_dir().join(format!(
        "actor-obs-test-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let _reporter =
            obs::Reporter::start(Duration::from_millis(20), Some(path.clone()));
        let _work = obs::span!("it.reporter.work");
        obs::counter("it.reporter.ticks").add(99);
        std::thread::sleep(Duration::from_millis(70));
    } // drop flushes a final snapshot
    let contents = std::fs::read_to_string(&path).expect("jsonl written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 2, "expected several ticks, got {lines:?}");
    for line in &lines {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        assert_eq!(v.get("type").as_str(), Some("snapshot"));
        assert!(!matches!(v.get("elapsed_s"), json::Value::Null));
        assert!(v.get("counters").as_seq().is_some());
        assert!(v.get("active").as_seq().is_some());
    }
    // The counter we bumped must appear in the final snapshot.
    let last = json::parse(lines.last().unwrap()).unwrap();
    assert!(last
        .get("counters")
        .as_seq()
        .unwrap()
        .iter()
        .any(|c| c.get("name").as_str() == Some("it.reporter.ticks")));
}
