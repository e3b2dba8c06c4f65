#!/usr/bin/env bash
# Builds the ladder from source inside the checkout (.bench_build/ holds
# the binary and the go build cache) and runs it with the given arguments,
# from the caller's working directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$here/../.." && pwd)/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/ladder" .) >&2
exec "$build/ladder" "$@"
