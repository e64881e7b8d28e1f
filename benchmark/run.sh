#!/usr/bin/env bash
# Build the benchmark from source and run it. See README.md beside this file.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds N] [--trace 0|1]
#   benchmark/run.sh all [--seed N] [--out-dir DIR]   every workload, one process each
#   benchmark/run.sh agree <A> <B>                    compare two sets of reports
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/dex-benchmark"

case "${1:-}" in
agree)
    exec "$bin" "$@"
    ;;
all)
    shift
    for w in churn dht resize batch serve lossy; do
        "$bin" --out-dir "$here/out" --rustc "$(rustc --version)" --workload "$w" "$@"
    done
    ;;
*)
    exec "$bin" --out-dir "$here/out" --rustc "$(rustc --version)" "$@"
    ;;
esac
