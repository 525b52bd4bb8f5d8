#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload cpu_pipelined --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench
# in the checkout: the binary, the Go build cache and config (telemetry),
# temp and spill files, and the traced run's span dump.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" "$@"
