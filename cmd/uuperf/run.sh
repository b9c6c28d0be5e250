#!/usr/bin/env bash
# BENCHMARK.json's command: builds uuperf from the checkout's source into
# .bench_build/ at the checkout's root and runs it with the arguments given.
# Everything the go tool writes (build cache, module cache, telemetry) is
# kept under .bench_build/ too, so a run touches nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

# Without the repository around it (no ../../go.mod for the replace
# directive) this fails, and set -e ends the run before any result line.
go -C "$here" build -o "$build/uuperf" .
cd "$root"
exec "$build/uuperf" "$@"
