#!/bin/sh
# vet_fast.sh — the PR fast path for the mlocvet gate. A pull request
# rarely touches the analyzer suite, so re-running all nineteen analyzers
# over the whole repository on every push to a branch is mostly wasted
# work. This script diffs against a base ref and picks the cheapest
# sound pass:
#
#   1. Shared analyzer infrastructure changed (the driver, the loader,
#      the flow engine, the baseline/SARIF plumbing) — every analyzer's
#      behaviour may have changed, so run the full suite over the full
#      repository, exactly like `make mlocvet`.
#   2. Individual analyzer files changed — run just those analyzers
#      (by their registered names) over the full repository.
#   3. Only non-lint Go code changed — run the full suite, but only
#      over the packages containing changed files (plus their test
#      fixtures never matter: testdata is excluded by the loader).
#   4. No Go code changed — nothing to vet.
#
# `make check` and the push workflow still run the full suite; this is
# strictly a PR-latency optimization, never the gate of record.
#
#   BASE_REF=origin/main ./scripts/vet_fast.sh   (default origin/main,
#                                                 falling back to HEAD~1)
set -eu
cd "$(dirname "$0")/.."

base=${BASE_REF:-origin/main}
if ! git rev-parse --verify --quiet "$base" >/dev/null; then
	base=HEAD~1
fi
if ! git rev-parse --verify --quiet "$base" >/dev/null; then
	echo "vet-fast: no usable base ref; running the full suite" >&2
	exec go run ./cmd/mlocvet -baseline mlocvet-baseline.json ./...
fi

# Changed files: committed relative to the merge base, plus anything
# dirty in the working tree (a developer runs this before committing).
changed=$( (git diff --name-only "$base"...HEAD 2>/dev/null || git diff --name-only "$base" HEAD; git diff --name-only HEAD) | sort -u)

go_changed=$(printf '%s\n' "$changed" | grep '\.go$' || true)
if [ -z "$go_changed" ] && ! printf '%s\n' "$changed" | grep -q '^go\.mod$'; then
	echo "vet-fast: no Go changes against $base; skipping the analyzer pass"
	exit 0
fi

# Shared infrastructure: a change here can alter any analyzer's
# behaviour, so the subset optimization would be unsound.
if printf '%s\n' "$changed" | grep -Eq '^(go\.mod|cmd/mlocvet/|internal/lint/flow/|internal/lint/(lint|load|baseline|sarif)\.go)'; then
	echo "vet-fast: analyzer infrastructure changed; running the full suite"
	exec go run ./cmd/mlocvet -baseline mlocvet-baseline.json ./...
fi

# Analyzer implementation files: run exactly the analyzers whose
# registered names appear in the changed files, over the whole repo
# (their findings are cross-package).
lint_changed=$(printf '%s\n' "$go_changed" | grep '^internal/lint/[^/]*\.go$' | grep -v '_test\.go$' || true)
if [ -n "$lint_changed" ]; then
	names=$(printf '%s\n' "$lint_changed" | while read -r f; do
		[ -f "$f" ] && sed -n 's/.*Name:[[:space:]]*"\([a-z-]*\)".*/\1/p' "$f"
	done | sort -u | paste -sd, -)
	if [ -z "$names" ]; then
		echo "vet-fast: lint helpers changed without a registered analyzer; running the full suite"
		exec go run ./cmd/mlocvet -baseline mlocvet-baseline.json ./...
	fi
	echo "vet-fast: analyzers changed; running only: $names"
	exec go run ./cmd/mlocvet -only "$names" -baseline mlocvet-baseline.json ./...
fi

# Plain code change: full suite, changed packages only.
dirs=$(printf '%s\n' "$go_changed" | grep -v '/testdata/' | xargs -r -n1 dirname | sort -u | while read -r d; do
	[ -d "$d" ] && printf './%s\n' "$d"
done | paste -sd' ' -)
if [ -z "$dirs" ]; then
	echo "vet-fast: changed Go files no longer exist; skipping the analyzer pass"
	exit 0
fi
echo "vet-fast: running the full suite over changed packages: $dirs"
# shellcheck disable=SC2086
exec go run ./cmd/mlocvet -baseline mlocvet-baseline.json $dirs
