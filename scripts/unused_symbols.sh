#!/bin/sh
# List library functions that no shipped binary keeps: a report, not
# a gate (it always exits 0 once the build succeeds).
#
#   scripts/unused_symbols.sh [build-dir]
#
# Builds the non-test binaries (tools/xpro_cli, every bench/ and
# examples/ program) at -O0 with -ffunction-sections and links them
# with --gc-sections, so the linker drops every function none of them
# reaches. It then prints, demangled and sorted, the global text
# symbols (nm type T) defined in the src/ libraries that appear in
# none of those binaries. The build directory defaults to build-gc
# next to the regular build.
#
# Read the output as candidates, not verdicts:
#  - Functions the compiler inlines into every caller within their own
#    translation unit leave no out-of-line copy behind and show up as
#    false positives. -O0 keeps that rare, but always_inline and
#    constant-folded helpers can still appear.
#  - A function only the tests call is listed on purpose: that is what
#    the scan is for. Check with grep over src/ bench/ examples/
#    tools/ perfbench/ before deleting anything.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-gc"}
jobs=$(nproc)

targets=xpro_cli
for src in "$repo"/bench/bench_*.cpp "$repo"/examples/*.cpp; do
    name=$(basename "$src")
    targets="$targets ${name%.cpp}"
done

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
# shellcheck disable=SC2086 # one --target per word
cmake --build "$build" -j "$jobs" --target $targets >/dev/null

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

find "$build/src" -name 'libxpro_*.a' -exec nm --defined-only {} + |
    awk '$2 == "T" { print $3 }' | sort -u >"$work/defined"

: >"$work/kept"
for target in $targets; do
    binary=$(find "$build" -type f -name "$target" | head -n 1)
    nm --defined-only "$binary" | awk '{ print $3 }' >>"$work/kept"
done
sort -u -o "$work/kept" "$work/kept"

comm -23 "$work/defined" "$work/kept" | c++filt | sort >"$work/unused"
count=$(wc -l <"$work/unused")
cat "$work/unused"
echo "$count library functions kept by no shipped binary" \
    "(candidates; see the header comment)" >&2
