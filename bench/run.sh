#!/usr/bin/env bash
# Builds stripbench from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# Everything the build writes — compiler cache, temporaries, binary —
# stays inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/stripbench" .
exec "$build/stripbench" "$@"
