#!/usr/bin/env bash
# Full verification gate: formatting, release build, tier-1 tests, the
# complete workspace test suite (including the vendored stub crates), the
# exec and pack unit tests again in the release profile, the
# paper-fidelity diff of `figures all` against figures_fast_output.txt,
# perfbench's build and unit tests, and warnings-as-errors clippy and
# rustdoc passes (the latter catches intra-doc links to moved or deleted
# items).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

# `--locked`: a manifest edit whose Cargo.lock is stale fails here instead
# of being rewritten silently.
echo "== cargo build --release --locked =="
cargo build --release --locked

echo "== cargo test -q (tier-1: root package) =="
cargo test -q

echo "== cargo test --workspace -q =="
cargo test --workspace -q

# The crew's spin-then-park hand-off races on timing, so its pool tests
# and the pack tests that probe from every seat also run optimized.
echo "== cargo test --release: exec + pack unit tests (optimized timing) =="
cargo test --release -p autotype-exec -p autotype-pack --lib -q

echo "== serve integration tests (keep-alive, lazy==eager, golden packs) =="
cargo test -p autotype-serve --test keepalive --test lazy_eager --test golden --test loopback -q

# `figures all` is deterministic (fuel, not wall clock, drives every
# number), so any drift in the paper's tables shows up as a diff. A change
# that moves them on purpose regenerates the file and explains the move.
echo "== figures all vs figures_fast_output.txt (paper fidelity) =="
cargo run --release --offline -q -p autotype-bench --bin figures -- all |
    diff figures_fast_output.txt -

# perfbench is a workspace of its own, so the builds above never compile
# it: build it and run its unit tests here, so removing API it uses fails
# this gate instead of the benchmark.
echo "== perfbench: build + unit tests =="
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml --bins -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: all green"
