#!/usr/bin/env bash
# Full verification gate: formatting, release build, tier-1 tests, the
# complete workspace test suite (including the vendored stub crates),
# perfbench's build and unit tests, and warnings-as-errors clippy and
# rustdoc passes (the latter catches intra-doc links to moved or deleted
# items).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (tier-1: root package) =="
cargo test -q

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== serve integration tests (keep-alive, lazy==eager, golden packs) =="
cargo test -p autotype-serve --test keepalive --test lazy_eager --test golden --test loopback -q

# perfbench is a workspace of its own, so the builds above never compile
# it: build it and run its unit tests here, so removing API it uses fails
# this gate instead of the benchmark.
echo "== perfbench: build + unit tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml --bins -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: all green"
