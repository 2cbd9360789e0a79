#!/usr/bin/env bash
# Builds the benchmark and the pgserve daemon from the sources of the
# checkout it is started in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload reduce-ckt1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, scratch
# stores) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/pgserve" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/pgserve/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

go build -o "$out/pgserve" ./cmd/pgserve
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -pgserve "$out/pgserve" -workdir "$out/work" "$@"
