#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 55 --trace 0
#
# Run it from the repository root. The build and its Go cache live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; the build
# never touches the network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found in $root)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
