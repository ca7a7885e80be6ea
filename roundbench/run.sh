#!/usr/bin/env bash
# Builds the round benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash roundbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build/ in the repository root, so a run writes nowhere else.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/roundbench" .)
exec "$out/roundbench" "$@"
