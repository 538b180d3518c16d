#!/usr/bin/env bash
# Builds acornbench from this checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload fleet-steady -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh compare DIR_A DIR_B
#
# The build cache, temporary files and the binary stay under .bench_build
# in the checkout, and the module proxy is off: the build reads nothing but
# the checkout and the Go toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly \
	GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/acornbench" ./acornbench
exec "$out/acornbench" "$@"
