#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary data all
# live under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomod"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
