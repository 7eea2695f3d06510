#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout. Build errors go to standard error and end
# the script with a non-zero status before anything is measured.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
