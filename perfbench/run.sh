#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from anywhere; the build cache and binary go to
# .bench_build at the checkout root, so nothing is written outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
