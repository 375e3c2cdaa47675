#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the mlocd query service:
# build the binaries, boot mlocd on an ephemeral port over a tiny
# synthetic store, run the same remote query twice through mlocctl,
# check the answers agree, and assert the second run hit the shared
# decode cache. The observability surface is exercised too: /metrics
# and /debug/traces are scraped and validated with mloclint (the
# promtool-style checker — malformed exposition or trace JSON fails
# the smoke), pprof answers behind -pprof, the per-query trace renders
# one fetch/decode/reassemble/filter quartet per rank span and no bin
# span, and the query log finds the query by its trace id.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
mlocd_pid=""
cleanup() {
    if [[ -n "$mlocd_pid" ]] && kill -0 "$mlocd_pid" 2>/dev/null; then
        kill "$mlocd_pid" 2>/dev/null || true
        wait "$mlocd_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve-smoke: building binaries"
go build -o "$workdir/mlocd" ./cmd/mlocd
go build -o "$workdir/mlocctl" ./cmd/mlocctl
go build -o "$workdir/mloclint" ./cmd/mloclint

echo "serve-smoke: booting mlocd"
"$workdir/mlocd" -addr 127.0.0.1:0 -store t=gts:64:1 -bins 16 -ranks 2 \
    -pprof \
    >"$workdir/mlocd.log" 2>&1 &
mlocd_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^mlocd: listening on //p' "$workdir/mlocd.log" | head -n1)
    [[ -n "$addr" ]] && break
    if ! kill -0 "$mlocd_pid" 2>/dev/null; then
        echo "serve-smoke: mlocd died during startup:" >&2
        cat "$workdir/mlocd.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "serve-smoke: mlocd never reported a listen address" >&2
    cat "$workdir/mlocd.log" >&2
    exit 1
fi
echo "serve-smoke: mlocd is up at $addr"

query() {
    "$workdir/mlocctl" query -remote "$addr" -var t \
        -vc=-1e30:1e30 -sc 0:31,0:31 -ranks 2
}

echo "serve-smoke: first query (cold cache)"
query >"$workdir/q1.out"
echo "serve-smoke: second identical query (must hit the cache)"
query >"$workdir/q2.out"

# The match lines must agree exactly; timing lines are virtual-time
# and excluded only because the queue wait differs per run.
grep 'match at' "$workdir/q1.out" >"$workdir/q1.matches"
grep 'match at' "$workdir/q2.out" >"$workdir/q2.matches"
if ! diff -u "$workdir/q1.matches" "$workdir/q2.matches"; then
    echo "serve-smoke: FAIL — repeated query returned different matches" >&2
    exit 1
fi
if [[ ! -s "$workdir/q1.matches" ]]; then
    echo "serve-smoke: FAIL — query returned no matches" >&2
    cat "$workdir/q1.out" >&2
    exit 1
fi

"$workdir/mlocctl" stats -remote "$addr" >"$workdir/stats.out"
cache_hits=$(awk '$1 == "cache_hits" {print $2}' "$workdir/stats.out")
queries_ok=$(awk '$1 == "queries_ok" {print $2}' "$workdir/stats.out")
if [[ "${queries_ok:-0}" -ne 2 ]]; then
    echo "serve-smoke: FAIL — queries_ok=$queries_ok, want 2" >&2
    cat "$workdir/stats.out" >&2
    exit 1
fi
if [[ "${cache_hits:-0}" -le 0 ]]; then
    echo "serve-smoke: FAIL — second identical query produced no cache hits" >&2
    cat "$workdir/stats.out" >&2
    exit 1
fi
# The cache keeps each unit's offsets with its values, so the repeat
# opens no bin file: it reads no byte and charges no I/O time.
if ! grep -q ', 0\.00 MB read,' "$workdir/q2.out" || ! grep -q 'time: io 0\.0000s,' "$workdir/q2.out"; then
    echo "serve-smoke: FAIL — second identical query still read from the PFS" >&2
    cat "$workdir/q2.out" >&2
    exit 1
fi

echo "serve-smoke: validating /metrics and /debug/traces"
if ! "$workdir/mloclint" -remote "$addr" -pprof; then
    echo "serve-smoke: FAIL — observability surface is malformed" >&2
    exit 1
fi

# The query response names its trace; rendering it must show the
# per-rank span tree.
trace_id=$(sed -n 's/^  trace: \([0-9][0-9]*\).*/\1/p' "$workdir/q1.out" | head -n1)
if [[ -z "$trace_id" ]]; then
    echo "serve-smoke: FAIL — query output carries no trace id" >&2
    cat "$workdir/q1.out" >&2
    exit 1
fi
"$workdir/mlocctl" trace -remote "$addr" -id "$trace_id" >"$workdir/trace.out"
if ! grep -q 'rank' "$workdir/trace.out"; then
    echo "serve-smoke: FAIL — rendered trace $trace_id has no rank spans" >&2
    cat "$workdir/trace.out" >&2
    exit 1
fi
# Each rank is traced per stage, not per bin: the four stage events sit
# directly under a rank span, and no bin span is rendered.
if ! awk '
    { match($0, /^ */); depth = RLENGTH; name = $1 }
    name == "bin" { bin = 1 }
    name == "rank" { rank = depth; next }
    rank && depth == rank + 2 && name ~ /^(fetch|decode|reassemble|filter)$/ { seen[name] = 1 }
    depth <= rank { rank = 0 }
    END { exit bin || !(("fetch" in seen) && ("decode" in seen) && ("reassemble" in seen) && ("filter" in seen)) }
' "$workdir/trace.out"; then
    echo "serve-smoke: FAIL — rendered trace $trace_id is not one fetch/decode/reassemble/filter quartet per rank" >&2
    cat "$workdir/trace.out" >&2
    exit 1
fi

# A slow query can be found, with its trace id: every query is at least
# 1ns slow, so the latency filter must list the first one.
"$workdir/mlocctl" querylog -remote "$addr" -min-latency 1ns >"$workdir/querylog.out"
if ! grep -q "trace=$trace_id\b" "$workdir/querylog.out"; then
    echo "serve-smoke: FAIL — querylog -min-latency 1ns does not list trace $trace_id" >&2
    cat "$workdir/querylog.out" >&2
    exit 1
fi

kill -TERM "$mlocd_pid"
wait "$mlocd_pid"
mlocd_pid=""
if ! grep -q 'drained' "$workdir/mlocd.log"; then
    echo "serve-smoke: FAIL — mlocd did not drain gracefully on SIGTERM" >&2
    cat "$workdir/mlocd.log" >&2
    exit 1
fi

echo "serve-smoke: OK ($(wc -l <"$workdir/q1.matches") match lines, cache_hits=$cache_hits)"
