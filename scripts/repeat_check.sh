#!/usr/bin/env bash
# Runs the curve and assignment ablations of cmd/benchtables twice each
# (5 queries, 4 ranks, seed 3) and fails if any table cell differs
# between the two runs, then runs examples/insitu twice, at GOMAXPROCS 1
# and at 2, and fails if any line of its output differs, the ingest line
# of its builds included. Query and build compute are charged from a
# rate table, a default build is charged a fixed pool width whatever the
# host's cores, and the split of a plan over ranks is a function of the
# plan, so virtual seconds repeat exactly; only the "regenerated in ...
# wall" lines, which time the host, are left out of the comparison.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/benchtables" ./cmd/benchtables
for ablation in curve assignment; do
	for run in 1 2; do
		"$tmp/benchtables" -ablation "$ablation" -queries 5 -ranks 4 -seed 3 |
			grep -v 'regenerated in' >"$tmp/$ablation.$run"
	done
	if ! diff -u "$tmp/$ablation.1" "$tmp/$ablation.2"; then
		echo "repeat-check: the $ablation ablation differs between two runs" >&2
		exit 1
	fi
done
go build -o "$tmp/insitu" ./examples/insitu
for procs in 1 2; do
	GOMAXPROCS=$procs "$tmp/insitu" >"$tmp/insitu.$procs"
done
if ! diff -u "$tmp/insitu.1" "$tmp/insitu.2"; then
	echo "repeat-check: examples/insitu differs between GOMAXPROCS 1 and 2" >&2
	exit 1
fi
echo "repeat-check: ok"
