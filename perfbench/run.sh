#!/usr/bin/env bash
# Builds `hsched` and the benchmark driver from the checkout this is run
# from, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload hit-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/
# at the checkout root, including the Go build cache.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"

if [[ ! -f go.mod || ! -d cmd/hsched ]]; then
	echo "perfbench: run from the root of an hsched checkout (go.mod and cmd/hsched not found)" >&2
	exit 1
fi
mkdir -p "$out"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too. Telemetry is switched off there: otherwise
# every go command forks a detached sidecar that outlives this script.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/hsched" ./cmd/hsched
(cd perfbench && go build -o "$out/driver" .)
exec "$out/driver" -hsched "$out/hsched" -out "$out" "$@"
