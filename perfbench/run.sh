#!/usr/bin/env bash
# Builds the benchmark binary from the sources of the checkout it is
# run in, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload weakscale --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays under
# .bench_build/ in the checkout: the Go build cache, the benchmark binary
# and the per-run result files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
