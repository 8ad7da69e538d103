#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it,
# passing every argument through (see main.go). Run from the repository
# root: bash wirebench/run.sh --workload watch --seed 1 --seconds 25 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
# Keep the build cache, module cache and the go command's own config
# and telemetry files inside the checkout; the module needs nothing
# beyond the repository itself.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/wirebench" .) >&2
exec "$out/wirebench" "$@"
