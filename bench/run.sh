#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root with the given arguments (see bench/README.md):
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -runs 5 -out set.json
#   bash bench/run.sh compare A.json B.json
#
# Everything the build and the run write (Go build cache, binary, temp
# job stores, spans) stays under .bench_build/ in the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/carbonbench" .)
cd "$root"
exec "$out/carbonbench" "$@"
