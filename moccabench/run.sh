#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash moccabench/run.sh --workload mesh-chaos --seed 1992 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the working directory. Arguments pass through to the
# benchmark; its last line of standard output is the JSON result.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/moccabench" .) >&2
exec "$out/moccabench" "$@"
