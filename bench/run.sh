#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness inside the checkout
# (build cache included, so nothing is written outside it) and runs it from
# the benchmark's directory with the arguments given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o out/bin/bench .
exec out/bin/bench "$@"
