#!/usr/bin/env bash
# Builds the end-to-end benchmark and the iltopt CLI from the checkout in the
# current directory, then runs one workload:
#
#   bash e2ebench/run.sh --workload via-warm --seed 1 --seconds 45 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/iltopt" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (need go.mod, cmd/iltopt and e2ebench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# The revision is read only from a .git at the checkout root; builds skip
# VCS stamping, which would look for a repository above it.
rev=unknown
if [[ -d .git ]]; then
	rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

go build -buildvcs=false -o "$out/iltopt" ./cmd/iltopt
(cd e2ebench && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" -iltopt "$out/iltopt" -work "$out/work" -rev "$rev" "$@"
