#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run from the
# repository root:
#
#   bash pipebench/run.sh --workload ingest-continuous --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, node data and trace files all stay
# under .bench_build/ in the current directory, and the build never
# touches the network (GOPROXY=off: the module has no dependencies
# beyond the repository itself).
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd pipebench && go build -o "$build/pipebench" .) >&2
exec "$build/pipebench" --work "$build" "$@"
