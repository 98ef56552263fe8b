#!/usr/bin/env bash
# Builds rws-serve and the benchmark driver from this checkout's source,
# then runs the driver pinned to CPU 1 (it starts rws-serve on CPU 0).
#
#   bash perfbench/run.sh --workload embedded-point --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Build caches, binaries and run files stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/rws-serve" ./cmd/rws-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec taskset -c 1 "$out/bin/perfbench" -serve-bin "$out/bin/rws-serve" -work-dir "$out" "$@"
