#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags, e.g.
#
#   bash perf/run.sh --workload commit-churn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build in that root, or
# under $CARGO_TARGET_DIR when that is set. XDG_CONFIG_HOME points there
# too, so the go command's own config and telemetry files stay inside.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perf" && go build -o "$out/perf" .) >&2
exec "$out/perf" -root "$root" -rundir "$out" "$@"
