#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload nn-mem --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the benchmark's page files and span logs all live under .bench_build, so
# nothing is written outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "run.sh: run from the repository root (go.mod and bench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" --workdir "$out" "$@"
