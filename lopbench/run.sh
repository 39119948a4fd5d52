#!/usr/bin/env bash
# Builds the release `lopacify` and `lopacityd` binaries plus the benchmark
# runner from source, then runs one workload:
#
#   bash lopbench/run.sh --workload oneshot|service|churn --seed N \
#        --seconds S --trace 0|1 [--scale full|toy]
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/ at the root); the runner's inputs, daemon state and span
# dumps go to .bench_work/ at the root. The last line of stdout is the JSON
# result; everything else (build chatter, the readable report) is on stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" \
    -p lopacity-cli -p lopacity-daemon >&2
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/lopbench" --bin-dir "$target/release" --work "$root/.bench_work" "$@"
