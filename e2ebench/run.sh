#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark (see main.go) from the
# repository root, e.g.
#
#   bash e2ebench/run.sh --workload fleet_lit --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files, the
# benchmark and the programs it measures — stays in .bench_build at the
# root, and no module is ever downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
