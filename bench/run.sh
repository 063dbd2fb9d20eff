#!/usr/bin/env bash
# Runs the end-to-end benchmark from the repository root; every argument
# goes to the harness (see bench/README.md). The Go build cache, the built
# binaries and every temporary file stay under .bench_build/, and nothing
# is fetched over the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
