#!/usr/bin/env bash
# The altx benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       builds altxd from the checked-out commit, runs every workload and
#       the per-layer binary, verifies replies, prints every metric by
#       name and writes benchmark/out/result.json and trace.json.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       the form BENCHMARK.json's command takes: one workload; the last
#       stdout line is the result object.
#
# Loopback only. Everything it reads or writes is inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# The benchmark measures the program beside it; without the program's
# sources there is nothing to build or measure.
if [ ! -f crates/serve/Cargo.toml ] || [ ! -f Cargo.toml ]; then
    echo "benchmark/run.sh: no program sources in $root (crates/serve is missing)" >&2
    exit 2
fi

export CARGO_NET_OFFLINE=true
# `git rev-parse` (provenance) must not wander above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
# One target directory for both builds when the caller names one
# (resolved against the checkout root); cargo's defaults otherwise.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    program_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    program_target="$root/target"
    bench_target="$root/benchmark/target"
fi

# Build output goes to stderr: stdout carries the results.
cargo build --release --offline --locked -p altx-serve --bin altxd >&2
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml --bin e2e >&2
# `layers` calls into the program's modules and may stop compiling
# against a later commit; the end-to-end metrics must survive that.
layers_flag=()
if cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml --bin layers >&2; then
    layers_flag=(--layers "$bench_target/release/layers")
else
    echo "benchmark/run.sh: the layers binary did not build; its metrics will read null" >&2
fi

exec "$bench_target/release/e2e" \
    --altxd "$program_target/release/altxd" \
    ${layers_flag[@]+"${layers_flag[@]}"} \
    --out "$root/benchmark/out" \
    "$@"
