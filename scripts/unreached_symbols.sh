#!/usr/bin/env bash
# Lists the functions of libatlas that no product binary keeps.
#
# Builds every product binary (the tools, benches and examples, plus the
# standalone servebench, which compiles ../src itself) with
# -ffunction-sections -fdata-sections -Wl,--gc-sections, so the linker drops
# each function that nothing reachable from main() calls. It then prints each
# atlas:: function that libatlas.a defines and no binary still defines.
#
# A hit is a candidate, not a verdict: a function that every caller inlined
# appears too, and so does one that only the tests call. Grep each hit before
# deleting it. The output depends on the compiler's inlining, so nothing
# gates on it.
#
# Usage: scripts/unreached_symbols.sh <build-dir>
#   e.g. build-probe: a directory no other build shares, since the script
#   configures its own flags there (servebench builds in <build-dir>/servebench)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$1
JOBS=${JOBS:-4}
GC_FLAGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
          "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

TOOLS=(atlas_cli atlas_serve atlas_client atlas_router)
BENCHES=(bench_table2 bench_table3 bench_table4 bench_fig5 bench_fig6
         bench_memory_group bench_ablation bench_micro)
EXAMPLES=(quickstart cpu_component_power peak_power_sweep cross_design_flow)

cmake -S "$ROOT" -B "$BUILD" "${GC_FLAGS[@]}" >&2
cmake --build "$BUILD" -j "$JOBS" --target "${TOOLS[@]}" "${BENCHES[@]}" \
      "${EXAMPLES[@]}" >&2
cmake -S "$ROOT/servebench" -B "$BUILD/servebench" "${GC_FLAGS[@]}" >&2
cmake --build "$BUILD/servebench" -j "$JOBS" --target servebench >&2

# Demangled names of the defined functions (global, local and weak text).
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -nE 's/^[0-9a-f]+ [TtWw] (atlas::.*)$/\1/p' | sort -u
}

BINARIES=()
for t in "${TOOLS[@]}"; do BINARIES+=("$BUILD/tools/$t"); done
for t in "${BENCHES[@]}"; do BINARIES+=("$BUILD/bench/$t"); done
for t in "${EXAMPLES[@]}"; do BINARIES+=("$BUILD/examples/$t"); done
BINARIES+=("$BUILD/servebench/servebench")

comm -23 <(functions "$BUILD/src/libatlas.a") <(functions "${BINARIES[@]}")
