#!/usr/bin/env bash
# Builds rsserve, rsrouter and the load generator from this checkout and
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload q3-read --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache and store file stays under .bench_build
# in the checkout; the last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"

# Without the program's sources there is nothing to measure: fail before
# any go command runs.
for f in go.mod cmd/rsserve cmd/rsrouter; do
	if [ ! -e "$root/$f" ]; then
		echo "perfbench: $f not found; run from the repository root" >&2
		exit 1
	fi
done

mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/config/go/telemetry"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
# The go command reads its telemetry mode from this file (the GOTELEMETRY
# variable is read-only); in the default "local" mode it forks a detached
# upload process that outlives the build.
echo off >"$out/config/go/telemetry/mode"

# Build output goes to stderr so the result stays the last stdout line.
go build -o "$out/bin/rsserve" ./cmd/rsserve 1>&2
go build -o "$out/bin/rsrouter" ./cmd/rsrouter 1>&2
(cd perfbench && go build -o "$out/bin/perfbench" .) 1>&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
