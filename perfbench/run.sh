#!/usr/bin/env bash
# Builds coruscantd and the perfbench binary from source, then runs one
# benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine-batch --seed 1 --seconds 15 --trace 0
#
# Build artefacts, the Go build cache, temporary files and the traced
# runs' Chrome traces all go under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/coruscantd" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/coruscantd and perfbench/ must be present)" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

go build -o "$out/bin/coruscantd" ./cmd/coruscantd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/coruscantd" -root "$root" -out "$out" "$@"
