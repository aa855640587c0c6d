#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (binary, Go build cache, link
# temporaries) stays under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C bench -o "$build/mptcp-bench" .
exec "$build/mptcp-bench" "$@"
