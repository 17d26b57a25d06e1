#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload sim-native --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, result
# store, span files) stays under .bench_build/ in the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --workdir "$out/work" "$@"
