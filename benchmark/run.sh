#!/usr/bin/env bash
# The repository benchmark in one command: builds benchmark/ (Release) into
# build-benchmark/ at the repository root, then runs tcplp_benchmark.
#
#   benchmark/run.sh                     every workload, one process each
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --check [--seed N]  determinism and output checks
#
# Prints one "workload metric value unit" line per metric and one JSON line
# per workload; with --workload the JSON line is the last line of stdout.
# --trace 1 reports the per-layer metrics instead of the end-to-end ones and
# writes a Chrome trace to build-benchmark/traces/. Exits nonzero if the
# build or any output check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"

if [[ ! -d "$root/src/tcplp" ]]; then
    echo "run.sh: no library sources at $root/src/tcplp" >&2
    exit 2
fi

workload=""
trace=0
check=0
args=()
while (($#)); do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --trace) trace="${2:?--trace needs 0 or 1}"; args+=("$1" "$2"); shift 2 ;;
        --seed | --seconds) args+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        --check) check=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$build"
log="$build/build.log"
jobs=$(nproc)
((jobs > 4)) && jobs=4
if ! {
    { [[ -f "$build/CMakeCache.txt" ]] ||
        cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
        cmake --build "$build" -j "$jobs"
} >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: build failed; full log in $log" >&2
    exit 1
fi
bin="$build/tcplp_benchmark"

if ((check)); then
    exec "$bin" --check "${args[@]}"
fi
if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/traces"
    args+=(--trace-dir "$build/traces")
fi
if [[ -n "$workload" ]]; then
    exec "$bin" --workload "$workload" "${args[@]}"
fi
status=0
for w in $("$bin" --list); do
    "$bin" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
