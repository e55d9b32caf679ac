#!/usr/bin/env bash
# Builds the service benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash servicebench/run.sh --workload warm-apply --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# (or $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# The go command's cache, module path, temporary files and user config
# (where it keeps telemetry counters) all stay inside the build directory.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Outside a git checkout the commit is a digest of the Go sources instead.
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null) ||
	commit=src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
(cd "$root/servicebench" && go build -ldflags "-X main.commit=$commit" -o "$out/servicebench" .) >&2
exec "$out/servicebench" --out "$out/servicebench-out" "$@"
