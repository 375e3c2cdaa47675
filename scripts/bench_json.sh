#!/bin/sh
# bench_json.sh — run BenchmarkBuildParallel and distill its output into
# BENCH_build.json, the recorded build-bench trajectory: per mode and
# worker count, wall ns/op, allocs/op, B/op, the virtual-clock build
# time (virt-s/op), and both speedups relative to the 1-worker run of
# the same mode. BenchmarkObsOverhead (query path traced vs untraced)
# rides along as an "obs_overhead" section, so the cost of tracing is
# part of the recorded trajectory; BenchmarkDistTraceOverhead (a routed
# two-node query with remote span propagation off vs on) as a
# "dist_trace_overhead" section, so the distributed-tracing tax is too;
# and BenchmarkMlocvetRepo (one full static-analysis pass over the
# repository) as a "vet_repo" section, so the analyzer gate's CI cost
# is too. CI uploads the file as an
# artifact; the committed copy is the checkpoint the next optimization
# PR measures against.
#
#   ./scripts/bench_json.sh [output.json]   (default BENCH_build.json)
#   ./scripts/bench_json.sh query [out]     query-latency mode (default
#                                           BENCH_query.json): distills
#                                           BenchmarkQueryLatency — flat
#                                           vs hierarchical index across
#                                           selectivities and codecs —
#                                           with hier speedup vs the
#                                           flat scan per cell — and
#                                           BenchmarkResultPath (gather,
#                                           sort and encode per match)
#                                           as a "result_path" section
#                                           and BenchmarkValuePath (a
#                                           sub-volume value query per
#                                           store, cold and warm cache)
#                                           as a "value_path" section
#   BENCHTIME=10x ./scripts/bench_json.sh   longer runs for stabler numbers
#
# Any benchmark that fails, and any result line the distiller cannot
# read in full, stops the script with a non-zero exit before the output
# file is touched: a committed 0 would switch that row's gate off.
set -eu
cd "$(dirname "$0")/.."

# bench runs one benchmark command, shows its output and appends it to
# $raw. It exits the script when the command fails: a pipeline into tee
# would report tee's status instead.
bench() {
	step=$(mktemp)
	if ! "$@" >"$step" 2>&1; then
		cat "$step"
		rm -f "$step"
		echo "bench_json: failed: $*" >&2
		exit 1
	fi
	cat "$step"
	cat "$step" >>"$raw"
	rm -f "$step"
}

# distill runs the awk program $1 over $raw into $out only when it
# succeeds, so a failed run leaves the committed file as it was.
distill() {
	if ! awk -v benchtime="$benchtime" -v goversion="$(go env GOVERSION)" "$1" "$raw" >"$raw.json"; then
		rm -f "$raw.json"
		exit 1
	fi
	mv "$raw.json" "$out"
	echo "wrote $out"
}

if [ "${1:-}" = "query" ]; then
	out=${2:-BENCH_query.json}
	benchtime=${BENCHTIME:-3x}
	raw=$(mktemp)
	bin=$(mktemp -d)
	trap 'rm -rf "$raw" "$raw.json" "$bin"' EXIT
	# BenchmarkQueryLatency fails on any row that differs from the
	# committed file; a recording runs where there is none to read.
	go test -c -o "$bin/mloc.test" .
	bench sh -c 'cd "$1" && ./mloc.test -test.run "^\$" -test.bench "^BenchmarkQueryLatency\$" -test.benchmem -test.benchtime "$2"' \
		sh "$bin" "$benchtime"
	# The result path is wall-clock and microseconds per op: a few
	# hundred iterations, not three, make its ns/match repeatable.
	bench go test . -run '^$' -bench '^BenchmarkResultPath$' \
		-benchmem -benchtime 300x
	# The value path is wall-clock too, about a millisecond per op.
	bench go test . -run '^$' -bench '^BenchmarkValuePath$' \
		-benchmem -benchtime 300x

	# Result lines look like
	#   BenchmarkQueryLatency/hier/planes/sel=10%-8  2  1649274 ns/op \
	#       101.0 bins-covered/op  921.0 bins-pruned/op  39720000000000 virt-fs/op \
	#       728776 B/op  1094 allocs/op
	distill '
	/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
	/^--- FAIL/ { bad = bad " " $3 }
	# need records a result line that lacks one of its columns.
	function need(v, col) { if (v == "") bad = bad " " $1 "(" col ")" }
	/^BenchmarkQueryLatency\// {
		split($1, parts, "/")
		idx = parts[2]
		codec = parts[3]
		sel = parts[4]
		sub(/-[0-9]+$/, "", sel)
		ns = allocs = bytes = virt = pruned = covered = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
			else if ($(i + 1) == "B/op") bytes = $i
			else if ($(i + 1) == "virt-fs/op") virt = $i / 1e15
			else if ($(i + 1) == "bins-pruned/op") pruned = $i
			else if ($(i + 1) == "bins-covered/op") covered = $i
		}
		need(ns, "ns/op"); need(allocs, "allocs/op"); need(bytes, "B/op")
		need(virt, "virt-fs/op"); need(pruned, "bins-pruned/op"); need(covered, "bins-covered/op")
		if (idx == "flat") flatVirt[codec "/" sel] = virt
		n++
		ridx[n] = idx; rcodec[n] = codec; rsel[n] = sel
		rns[n] = ns; rallocs[n] = allocs; rbytes[n] = bytes
		rvirt[n] = virt; rpruned[n] = pruned; rcovered[n] = covered
	}
	/^BenchmarkResultPath\// {
		name = $1
		sub(/^BenchmarkResultPath\//, "", name)
		sub(/-[0-9]+$/, "", name)
		ns = nsmatch = allocs = bytes = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "ns/match") nsmatch = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
			else if ($(i + 1) == "B/op") bytes = $i
		}
		need(ns, "ns/op"); need(nsmatch, "ns/match"); need(allocs, "allocs/op"); need(bytes, "B/op")
		pn++
		pcase[pn] = name; pns[pn] = ns; pnsmatch[pn] = nsmatch
		pallocs[pn] = allocs; pbytes[pn] = bytes
	}
	/^BenchmarkValuePath\// {
		name = $1
		sub(/^BenchmarkValuePath\//, "", name)
		sub(/-[0-9]+$/, "", name)
		ns = allocs = bytes = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
			else if ($(i + 1) == "B/op") bytes = $i
		}
		need(ns, "ns/op"); need(allocs, "allocs/op"); need(bytes, "B/op")
		vn++
		vcase[vn] = name; vns[vn] = ns; vallocs[vn] = allocs; vbytes[vn] = bytes
	}
	END {
		if (n == 0 || pn == 0 || vn == 0) { print "bench_json: no query results parsed" > "/dev/stderr"; exit 1 }
		if (bad != "") { print "bench_json: failed or incomplete results:" bad > "/dev/stderr"; exit 1 }
		printf "{\n"
		printf "  \"benchmark\": \"BenchmarkQueryLatency\",\n"
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"go\": \"%s\",\n", goversion
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"query_latency\": [\n"
		for (i = 1; i <= n; i++) {
			fv = flatVirt[rcodec[i] "/" rsel[i]]
			sp = (fv > 0 && rvirt[i] > 0) ? fv / rvirt[i] : 0
			printf "    {\"index\": \"%s\", \"codec\": \"%s\", \"sel\": \"%s\", \"ns_op\": %.0f, \"allocs_op\": %.0f, \"bytes_op\": %.0f, \"virt_s_op\": %.12g, \"bins_pruned\": %.0f, \"bins_covered\": %.0f, \"speedup_vs_flat\": %.3f}%s\n", \
				ridx[i], rcodec[i], rsel[i], rns[i], rallocs[i], rbytes[i], rvirt[i], rpruned[i], rcovered[i], sp, (i < n ? "," : "")
		}
		printf "  ],\n"
		printf "  \"result_path\": [\n"
		for (i = 1; i <= pn; i++) {
			printf "    {\"case\": \"%s\", \"ns_op\": %.0f, \"ns_match\": %g, \"allocs_op\": %.0f, \"bytes_op\": %.0f}%s\n", \
				pcase[i], pns[i], pnsmatch[i], pallocs[i], pbytes[i], (i < pn ? "," : "")
		}
		printf "  ],\n"
		printf "  \"value_path\": [\n"
		for (i = 1; i <= vn; i++) {
			printf "    {\"case\": \"%s\", \"ns_op\": %.0f, \"allocs_op\": %.0f, \"bytes_op\": %.0f}%s\n", \
				vcase[i], vns[i], vallocs[i], vbytes[i], (i < vn ? "," : "")
		}
		printf "  ]\n"
		printf "}\n"
	}
	'
	exit 0
fi

out=${1:-BENCH_build.json}
benchtime=${BENCHTIME:-5x}

raw=$(mktemp)
trap 'rm -f "$raw" "$raw.json"' EXIT
bench go test ./internal/core -run '^$' -bench '^(BenchmarkBuildParallel|BenchmarkObsOverhead)$' \
	-benchmem -benchtime "$benchtime"
# The routed benchmark boots a two-node cluster per run; a few
# iterations dominate the HTTP noise without dragging the gate.
bench go test ./internal/cluster/router -run '^$' -bench '^BenchmarkDistTraceOverhead$' \
	-benchmem -benchtime "$benchtime"
# The vet pass is seconds per op: one iteration five times, and the
# median of the five is recorded, so that one pass on a busy host does
# not move the analyzer gate's budget (twice this figure).
bench go test ./cmd/mlocvet -run '^$' -bench '^BenchmarkMlocvetRepo$' \
	-benchmem -benchtime 1x -count 5

# Each result line looks like
#   BenchmarkBuildParallel/planes/w=4-8  3  50046548 ns/op  10.48 MB/s \
#       0.02391 virt-s/op  6950792 B/op  28584 allocs/op
# (the trailing -8 is GOMAXPROCS and only appears when it isn't 1).
# Scan for the unit tokens rather than hard-coding field positions.
distill '
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
/^--- FAIL/ { bad = bad " " $3 }
# need records a result line that lacks one of its columns.
function need(v, col) { if (v == "") bad = bad " " $1 "(" col ")" }
/^BenchmarkBuildParallel\// {
	split($1, parts, "/")
	mode = parts[2]
	workers = parts[3]
	sub(/-[0-9]+$/, "", workers)
	ns = allocs = bytes = virt = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "allocs/op") allocs = $i
		else if ($(i + 1) == "B/op") bytes = $i
		else if ($(i + 1) == "virt-s/op") virt = $i
	}
	need(ns, "ns/op"); need(allocs, "allocs/op"); need(bytes, "B/op"); need(virt, "virt-s/op")
	if (workers == "w=1") { baseNs[mode] = ns; baseVirt[mode] = virt }
	n++
	rmode[n] = mode; rworkers[n] = workers
	rns[n] = ns; rallocs[n] = allocs; rbytes[n] = bytes; rvirt[n] = virt
}
/^BenchmarkObsOverhead\// {
	split($1, parts, "/")
	tracing = parts[2]
	sub(/-[0-9]+$/, "", tracing)
	ns = allocs = bytes = 0
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "allocs/op") allocs = $i
		else if ($(i + 1) == "B/op") bytes = $i
	}
	on++
	omode[on] = tracing; ons[on] = ns; oallocs[on] = allocs; obytes[on] = bytes
	if (tracing == "off") offNs = ns
}
/^BenchmarkDistTraceOverhead\// {
	split($1, parts, "/")
	prop = parts[2]
	sub(/-[0-9]+$/, "", prop)
	ns = allocs = bytes = 0
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "allocs/op") allocs = $i
		else if ($(i + 1) == "B/op") bytes = $i
	}
	dn++
	dmode[dn] = prop; dns[dn] = ns; dallocs[dn] = allocs; dbytes[dn] = bytes
	if (prop == "off") dOffNs = ns
}
/^BenchmarkMlocvetRepo/ {
	vn++
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") vns[vn] = $i
		else if ($(i + 1) == "allocs/op") vallocs[vn] = $i
		else if ($(i + 1) == "B/op") vbytes[vn] = $i
		else if ($(i + 1) == "analyzers/op") vanalyzers = $i
	}
}
# median returns the median of a[1..n], sorting a in place.
function median(a, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
	return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
END {
	if (n == 0) { print "bench_json: no benchmark results parsed" > "/dev/stderr"; exit 1 }
	if (bad != "") { print "bench_json: failed or incomplete results:" bad > "/dev/stderr"; exit 1 }
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkBuildParallel\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"results\": [\n"
	for (i = 1; i <= n; i++) {
		m = rmode[i]
		ws = (baseNs[m] > 0 && rns[i] > 0) ? baseNs[m] / rns[i] : 0
		vs = (baseVirt[m] > 0 && rvirt[i] > 0) ? baseVirt[m] / rvirt[i] : 0
		# w=max is GOMAXPROCS workers, so on a host with fewer than four
		# cores it is a smaller pool than w=4; annotate the row so the
		# trajectory is not misread as a regression (see DESIGN.md,
		# "Modelled CPU, not a stopwatch").
		note = (rworkers[i] == "w=max") ? ", \"note\": \"w=max is GOMAXPROCS workers: with fewer than 4 cores it is a smaller pool than w=4, so a lower speedup here is expected, not a regression\"" : ""
		printf "    {\"mode\": \"%s\", \"workers\": \"%s\", \"ns_op\": %d, \"allocs_op\": %d, \"bytes_op\": %d, \"virt_s_op\": %g, \"wall_speedup\": %.3f, \"virt_speedup\": %.3f%s}%s\n", \
			m, rworkers[i], rns[i], rallocs[i], rbytes[i], rvirt[i], ws, vs, note, (i < n ? "," : "")
	}
	printf "  ],\n"
	printf "  \"obs_overhead\": [\n"
	for (i = 1; i <= on; i++) {
		ratio = (offNs > 0 && ons[i] > 0) ? ons[i] / offNs : 0
		printf "    {\"tracing\": \"%s\", \"ns_op\": %d, \"allocs_op\": %d, \"bytes_op\": %d, \"vs_off\": %.3f}%s\n", \
			omode[i], ons[i], oallocs[i], obytes[i], ratio, (i < on ? "," : "")
	}
	printf "  ],\n"
	printf "  \"dist_trace_overhead\": [\n"
	for (i = 1; i <= dn; i++) {
		ratio = (dOffNs > 0 && dns[i] > 0) ? dns[i] / dOffNs : 0
		printf "    {\"propagation\": \"%s\", \"ns_op\": %.0f, \"allocs_op\": %.0f, \"bytes_op\": %.0f, \"vs_off\": %.3f}%s\n", \
			dmode[i], dns[i], dallocs[i], dbytes[i], ratio, (i < dn ? "," : "")
	}
	printf "  ],\n"
	printf "  \"vet_repo\": "
	if (vn > 0) {
		# %.0f: the pass is seconds, and ns counts overflow %d in
		# 32-bit awks.
		printf "{\"ns_op\": %.0f, \"allocs_op\": %.0f, \"bytes_op\": %.0f, \"analyzers\": %.0f}\n", \
			median(vns, vn), median(vallocs, vn), median(vbytes, vn), vanalyzers
	} else {
		printf "null\n"
	}
	printf "}\n"
}
'
