#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload cold_batch --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write (the binary, the Go build
# cache, temporary files, cache directories, trace files) stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -workdir "$out/work" -tracedir "$out/traces" "$@"
