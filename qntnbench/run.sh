#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash qntnbench/run.sh --workload paper-serve --seed 1 --seconds 15 --trace 0
#
# Every build product (binary, Go build cache, span dumps) stays under
# .bench_build/ in the checkout. The build needs no network: the benchmark
# module requires only the repository's own module, through a directory
# replacement.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
go -C "$root/qntnbench" build -o "$out/qntnbench" .
exec "$out/qntnbench" -root "$root" "$@"
