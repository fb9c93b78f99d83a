#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build writes (Go build and module caches, the binary) stays under
# .bench_build/, so a run reads and writes only inside its checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/vlasov6d-benchmark" . >&2
exec "$build/vlasov6d-benchmark" "$@"
