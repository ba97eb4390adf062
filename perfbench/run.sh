#!/usr/bin/env bash
# Builds the load benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 10 --trace 0
#
# The binary, the Go toolchain's caches and config (telemetry included)
# and the benchmark's temp dirs and span dumps all stay under
# .bench_build/ in the current directory. The build is offline
# (GOPROXY=off): the benchmark module depends only on the repository
# module beside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/lphbench" .
) >&2
exec "$out/lphbench" --dir "$out" "$@"
