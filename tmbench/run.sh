#!/usr/bin/env bash
# Builds tmcheck, tmcheckd and the tmbench program from source into
# .bench_build/ and runs tmbench. Run from the repository root:
#
#   bash tmbench/run.sh --workload service-mix --seed 1 --seconds 10 --trace 0
#   bash tmbench/run.sh --steadiness 5
#
# Every build output and temporary file stays under .bench_build/ (Go build
# cache included); nothing is fetched, the module has no dependencies.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tmcheck" ]]; then
	echo "tmbench: run from the root of a tmcheck checkout (no go.mod or cmd/tmcheck here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/tmcheck ./cmd/tmcheckd >&2
(cd "$root/tmbench" && go build -o "$out/bin/tmbench" .) >&2
exec "$out/bin/tmbench" -root "$root" -bin "$out/bin" "$@"
