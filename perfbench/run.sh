#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Build outputs, the Go build cache, data dirs, result files and span
# files all stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"

# Keep every file the go command writes (build cache, module cache, temp
# files, telemetry counters under the user config dir) inside $out, and
# never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench.bin" "$@"
fi
exec "$out/perfbench.bin" -out "$out/perfbench" "$@"
