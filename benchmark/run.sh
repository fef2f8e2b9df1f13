#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write — Go's caches,
# the binary, the databases, the trace files — stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The benchmark is a package of the module at the checkout's root; a go.mod
# further up must not stand in for it.
[ -f go.mod ] || { echo "run.sh: no go.mod in $root: the benchmark builds only inside the repository" >&2; exit 1; }
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/boltbench" ./benchmark
exec "$out/boltbench" --dir "$out/run" "$@"
