#!/usr/bin/env bash
# Builds krakbench from the checkout's sources and runs it from the
# repository root with the given flags, e.g.
#
#   bash bench/run.sh -workload predict-hot -seed 1 -seconds 18 -trace 0
#
# Every build output (binary, Go build cache) goes under .bench_build/ in
# the repository, so the run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd bench && go build -o "$out/krakbench" ./krakbench)
exec "$out/krakbench" "$@"
