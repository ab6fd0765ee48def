#!/usr/bin/env bash
# Builds kbtim-gen, kbtim-build, kbtim-serve and the benchmark from the
# checkout in the current directory, then runs the benchmark:
#
#   bash kbbench/run.sh --workload hot-mix --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$TMPDIR"
go build -o "$out/bin/" ./cmd/kbtim-gen ./cmd/kbtim-build ./cmd/kbtim-serve
(cd kbbench && go build -o "$out/bin/kbbench" .)
exec "$out/bin/kbbench" "$@"
