#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the go tool writes (build cache, module cache, its own
# settings) and the binary land under .bench_build in the checkout, so a
# run reads and writes nothing outside it. Results go to benchmark/out.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
