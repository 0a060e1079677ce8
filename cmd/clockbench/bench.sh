#!/usr/bin/env bash
# Builds clockbench from source and runs it, keeping every build artifact,
# cache and trace inside .bench_build/ of the current directory, which must
# be the module root:
#
#   bash cmd/clockbench/bench.sh --workload dense-batch --seed 1 --seconds 10 --trace 0
#
# --trace 1 becomes -trace .bench_build/traces (per-layer metrics, Perfetto
# traces, layer tables); --trace 0 is an untraced run. Every other argument
# is passed to clockbench unchanged.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "clockbench: run from the module root (no go.mod or internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# XDG_CONFIG_HOME also holds the go command's telemetry counters.
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/clockbench" ./cmd/clockbench

args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--trace | -trace)
		case "${2:-}" in
		0) ;;
		1) args+=(-trace "$build/traces") ;;
		*) args+=(-trace "${2:-}") ;;
		esac
		shift 2 || shift
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$build/clockbench" ${args[@]+"${args[@]}"}
