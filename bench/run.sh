#!/usr/bin/env bash
# Builds bccbench and runs it from the repository root with the given
# flags, e.g. `bash bench/run.sh -workload sweep-cold -seed 1 -seconds 25
# -trace 0`. Every Go cache, temporary file and binary stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C bench build -o "$out/bccbench" ./bccbench
exec "$out/bccbench" "$@"
