#!/bin/sh
# Build the tree under the sanitizers and run the whole ctest suite
# in each build: first AddressSanitizer + UndefinedBehaviorSanitizer,
# then ThreadSanitizer (the ASan and TSan runtimes cannot share a
# binary). UBSan findings fail the run rather than only printing.
# Usage:
#
#   scripts/check_sanitizers.sh [asan-build-dir [tsan-build-dir]]
#
# The build directories default to build-asan and build-tsan next to
# the regular build, so the configurations never share object files.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
asan=${1:-"$repo/build-asan"}
tsan=${2:-"$repo/build-tsan"}
jobs=$(nproc)

suite() {
    cmake -B "$1" -S "$repo" -DXPRO_SANITIZE="$2"
    cmake --build "$1" -j "$jobs"
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --test-dir "$1" -j "$jobs" --output-on-failure
}

suite "$asan" address,undefined
echo "ASan+UBSan: whole suite OK"
suite "$tsan" thread
echo "TSan: whole suite OK"
