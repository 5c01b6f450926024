#!/usr/bin/env bash
# Builds lbbench from the sources of the checkout it is run from and runs it
# with the given arguments, e.g.
#
#   bash cmd/lbbench/run.sh -seed 1
#   bash cmd/lbbench/run.sh --workload sweep20 --seed 3 --seconds 12 --trace 0
#
# Run it from the root of the repository. Everything the Go toolchain and
# the benchmark write (build cache, binary, temporary stores) stays under
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/cmd/lbbench" && go build -o "$build/lbbench" .)
exec "$build/lbbench" "$@"
