#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans go to
# $CARGO_TARGET_DIR (default .bench_build), so the run reads and writes
# nothing outside the checkout. Outside a checkout of the repository the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-out "$out/spans" "$@"
