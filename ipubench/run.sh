#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see ipubench/README.md). Run from the repository root:
#
#   bash ipubench/run.sh --workload matrix --seed 42 --seconds 10 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/ipubench" && go build -o "$out/ipubench" .)
exec "$out/ipubench" "$@"
