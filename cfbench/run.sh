#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the checkout root:
#
#   bash cfbench/run.sh --workload paper-relaxed --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the
# checkout. Without the program's sources beside cfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's env file and telemetry
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/cfbench" && go build -o "$build/cfbench" .) >&2
exec "$build/cfbench" "$@"
