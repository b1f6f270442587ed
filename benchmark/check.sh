#!/bin/sh
# What CI can call once it is wired up (.github/ is outside the benchmark's
# paths, so this change leaves the workflows alone): the unit tests, every
# workload untraced and traced with outputs checked, and the
# repeat-and-compare self-check.
#
# Exits non-zero on a failing test, an incorrect output, a failed
# operation, or a pair of runs that disagree.
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- --all
cargo run --release --offline --quiet --manifest-path "$manifest" -- --selfcheck
