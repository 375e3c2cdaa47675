#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (compiler cache included, so nothing is written outside the
# checkout) and runs it with the arguments given. BENCHMARK.json names
# this script as the command; `go run ./bench` is the same program.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the module this benchmark measures is not here" >&2
	exit 1
fi
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
# The go command keeps its telemetry counters under the user config
# directory; in the default "local" mode its first use of a fresh directory
# starts a detached child that outlives the command. Keep the directory in
# the checkout and switch the mode off so nothing is left running.
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo "off 2024-01-01" > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/mlocbench ./bench
exec .bench_build/mlocbench "$@"
