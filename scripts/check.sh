#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check (the workspace is rustfmt-clean) =="
cargo fmt --all --check

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== embed kernel, hotspot oracle, serve (HNSW recall), thread driver and golden fingerprint tests at the shipped opt level =="
cargo test -q --release -p actor-embed
cargo test -q --release -p actor-hotspot
cargo test -q --release -p actor-serve
cargo test -q --release -p actor-par
cargo test -q --release --test parallel_determinism

echo "== resilience acceptance suite =="
cargo test -q --test resilience

echo "== save/load example (a saved model is a sealed ACTORCP1 file) =="
cargo run -q --release --example train_save_load

echo "== serving conformance + walkthrough example + load smoke =="
cargo test -q -p actor-serve --test conformance
cargo run -q --release --example serve_queries
cargo run -q -p actor-bench --release --bin serve_load -- --fast

echo "== publish latency smoke (full rebuild vs delta apply) =="
cargo run -q -p actor-bench --release --bin publish_latency -- --fast

echo "== parallel preprocessing: determinism suite + scaling smoke =="
cargo test -q --test parallel_determinism
cargo run -q -p actor-bench --release --bin preprocess_scaling -- --fast

echo "== benchmark package (its own workspace; builds against the crates' public API) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings: no dangling or ambiguous doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== non-test Rust lines (reported, gates nothing) =="
scripts/loc.sh

echo "all checks passed"
