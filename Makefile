GO ?= go
FUZZTIME ?= 10s

# Packages exercising the goroutine-based SPMD runtime and the
# concurrent query service — the ones where a data race would actually
# bite.
RACE_PKGS = ./internal/client ./internal/mpi ./internal/pfs ./internal/compress ./internal/core ./internal/fastbit ./internal/cache ./internal/query ./internal/server ./internal/obs \
	./internal/cluster/shardmap ./internal/cluster/health ./internal/cluster/fault ./internal/cluster/router

.PHONY: build test vet mlocvet race bench-json bench-query query-gate repeat-check fuzz-short fuzz-list fuzz-list-check serve-smoke cluster-smoke obslint examples check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## vet: go vet plus the repo's own analyzer suite (cmd/mlocvet); any
## finding fails.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/mlocvet ./...

## mlocvet: just the custom analyzer suite.
mlocvet:
	$(GO) run ./cmd/mlocvet ./...

## race: race-detector pass over the parallel engine packages.
race:
	$(GO) test -race $(RACE_PKGS)

## bench-json: run the parallel-build benchmark and regenerate
## BENCH_build.json (the recorded bench trajectory; CI uploads it as an
## artifact). BENCHTIME=10x stabilizes the numbers on noisy hosts.
bench-json:
	./scripts/bench_json.sh

## bench-query: run the flat-vs-hierarchical query-latency matrix and
## regenerate BENCH_query.json (the committed query-latency
## trajectory; the benchmark itself fails past 2x the committed
## virtual latency, so running it doubles as the regression gate).
bench-query:
	./scripts/bench_json.sh query

## query-gate: run the query-latency matrix once as a gate. The
## benchmark fails by itself past 2x the virtual latency committed in
## BENCH_query.json, and it rewrites no file.
query-gate:
	$(GO) test . -run '^$$' -bench '^BenchmarkQueryLatency$$' -benchtime 3x

## repeat-check: run the curve and assignment ablations and
## examples/insitu twice each and fail if any table cell or output line
## differs between the runs (virtual seconds are charged from models,
## so they repeat exactly).
repeat-check:
	./scripts/repeat_check.sh

## fuzz-short: run every fuzz target briefly (~$(FUZZTIME) each). The
## target inventory lives in scripts/fuzz_targets.txt (regenerate with
## `make fuzz-list`; `make check` fails if it goes stale). `go test
## -fuzz` accepts exactly one matching target per invocation, so each
## line runs separately.
fuzz-short: fuzz-list-check
	@while read -r pkg target; do \
		echo "$(GO) test $$pkg -fuzz=^$$target\$$ -fuzztime=$(FUZZTIME)"; \
		$(GO) test "$$pkg" -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done <scripts/fuzz_targets.txt

## fuzz-list: regenerate the fuzz-target inventory from `go test -list`.
fuzz-list:
	./scripts/list_fuzz.sh

## fuzz-list-check: fail when scripts/fuzz_targets.txt is stale.
fuzz-list-check:
	./scripts/list_fuzz.sh --check

## serve-smoke: boot mlocd, query it twice via mlocctl, assert the
## second query hits the shared decode cache, validate /metrics,
## /debug/traces, pprof, and the query log, drain gracefully.
serve-smoke:
	./scripts/serve_smoke.sh

## cluster-smoke: boot a router over two data nodes, compare a routed
## query against a direct one, kill a node via fault injection and
## assert a degraded partial result, then validate the router's
## /metrics with mloclint and drain it gracefully.
cluster-smoke:
	./scripts/cluster_smoke.sh

## obslint: promtool-style validation of the metrics exposition and
## trace dumps against an in-process server (cmd/mloclint).
obslint:
	$(GO) run ./cmd/mloclint -selfcheck

## examples: run every examples/* program end to end; a non-zero exit
## fails. Each prints its own report, so only the failing one's stderr
## shows.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$${d%/}"; \
		$(GO) run "./$${d%/}" >/dev/null || exit 1; \
	done

## check: everything CI runs (minus the fuzzing).
check: build test vet fuzz-list-check race query-gate repeat-check obslint serve-smoke cluster-smoke examples
