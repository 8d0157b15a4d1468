#!/usr/bin/env bash
# Builds the benchmark and the campaignd daemon from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload campaign-gcc --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the result object; progress and
# the human-readable metric table go to standard error. Everything the
# build and the run write stays under .bench_build/ in the checkout:
# binaries, the Go build cache, temporary files, daemon state, traces and
# the per-seed determinism digests.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
(cd "$root" && go build -o "$out/bin/campaignd" ./cmd/campaignd)
exec "$out/bin/perfbench" -root "$root" "$@"
