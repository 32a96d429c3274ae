#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload fresh-batch --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary and the
# runs' write-ahead logs.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" GOENV="$out/config/go.env" GOPATH="$out/gopath"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
