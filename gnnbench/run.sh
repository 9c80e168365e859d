#!/usr/bin/env bash
# Builds gnnbench from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash gnnbench/run.sh --workload extract-file --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/gnnbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# The go command's caches, telemetry and temporary files stay in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/gnnbench" && go build -buildvcs=false -o "$out/gnnbench" .)
exec "$out/gnnbench" "$@"
