#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# build cache, the binary, durable databases and scratch logs all live under
# .bench_build/ at the checkout's root; traces and result files under
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTELEMETRY=off
(cd "$here" && go build -o "$build/xnf-benchmark" .)
if [ "${1:-}" = agree ]; then
	cd "$root" && exec "$build/xnf-benchmark" "$@"
fi
exec "$build/xnf-benchmark" -root "$root" "$@"
