#!/usr/bin/env bash
# Builds geniebench from source into .bench_build/ (Go caches included, so
# nothing is written outside the checkout) and runs it with the given
# arguments from the checkout's root. BENCHMARK.json's command is
# "bash bench/run.sh"; the driver appends --workload/--seed/--seconds/--trace.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/geniebench" ./cmd/geniebench)
cd "$root"
exec "$out/geniebench" "$@"
