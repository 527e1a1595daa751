#!/usr/bin/env bash
# Builds locmapd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload serve-plan --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, each run's journals and
# access logs, and the traced runs' spans. Nothing is downloaded: the
# module has no dependencies outside the standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/locmapd" ./cmd/locmapd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --locmapd "$out/bin/locmapd" --root "$root" "$@"
