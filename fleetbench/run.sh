#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash fleetbench/run.sh --workload web-churn --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's own
# output (span logs, fingerprint log) all stay under .bench_build in the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/fleet || ! -f fleetbench/go.mod ]]; then
	echo "fleetbench: run from the repository root: the fleet sources are not here" >&2
	exit 2
fi

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd fleetbench && go build -o "$out/bin/fleetbench" .)
exec "$out/bin/fleetbench" "$@"
