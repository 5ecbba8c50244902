#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload dse-sweep --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, the serve state
# directories and trace files — stays under .bench_build/ at the root of
# the checkout. Build output goes to stderr; stdout carries the report,
# whose last line is the JSON result. A checkout without the repository's
# sources fails the build, so the script exits non-zero without a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spec "$root/BENCHMARK.json" --out "$out" "$@"
