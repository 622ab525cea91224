#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache) stays under .bench_build/ at
# the root of the tree, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -f chatls.go ]]; then
	echo "perfbench: $root does not hold the ChatLS sources; nothing to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
