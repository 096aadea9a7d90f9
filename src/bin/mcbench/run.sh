#!/usr/bin/env bash
# Builds `mcc` and `mcbench` from source in release mode, then runs one
# benchmark pass. Run from the repository root:
#
#   bash src/bin/mcbench/run.sh --workload passive-match --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), and the
# generated inputs to a work directory beneath it.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/../../.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin mcc >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target/release/mcbench" run \
    --mcc "$target/release/mcc" \
    --work-dir "$target/mcbench-work" \
    "$@"
