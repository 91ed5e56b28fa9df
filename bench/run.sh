#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through: bash bench/run.sh --workload crash-quiet --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# toolchain's scratch files all go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
#
# Go telemetry is switched off in that private config directory: in its
# default mode the go command forks a detached helper that outlives this
# script.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/main.go ]]; then
	echo "bench/run.sh: no Go module here; run it from the repository root" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/home/.config/go/telemetry"
printf 'off\n' >"$out/home/.config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/renaming-bench" ./bench
exec "$out/renaming-bench" "$@"
