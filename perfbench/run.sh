#!/usr/bin/env bash
# Builds the service benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go command's configuration
# directory and the binary stay under .bench_build/ in the current
# directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
