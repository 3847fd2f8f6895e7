#!/usr/bin/env bash
# Regenerates the committed benchmark baselines (BENCH_<name>.json at the
# repo root). Each file is the google-benchmark JSON record plus the
# "obs_registry" member that RunBenchmarks injects, so a baseline carries
# both the timings and the storage/query counters that produced them. The
# record's context names the git commit and build type it was taken at.
#
# Usage:
#   scripts/snapshot_bench.sh [build_dir] [bench_target ...]
#
# build_dir must be configured with CMAKE_BUILD_TYPE=Release (timings of
# any other build are not baselines), e.g.
#   cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release
#   scripts/snapshot_bench.sh build-release
#
# Defaults: build_dir = <repo>/build, targets = bench_storage
# bench_sql_optimizer bench_secondary_index bench_stream bench_spatial_range
# bench_st_range bench_knn. Extra google-benchmark flags can be passed
# through BENCH_FLAGS (e.g. BENCH_FLAGS="--benchmark_filter=Refine").
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(cd "${1:-$ROOT/build}" && pwd)"
if [ "$#" -gt 0 ]; then shift; fi
BENCHES=("$@")
if [ "${#BENCHES[@]}" -eq 0 ]; then
  BENCHES=(bench_storage bench_sql_optimizer bench_secondary_index
    bench_stream bench_spatial_range bench_st_range bench_knn)
fi

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
  "$BUILD/CMakeCache.txt" 2>/dev/null || true)"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "snapshot_bench: $BUILD is a '${BUILD_TYPE:-unconfigured}' build;" \
    "baselines need CMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
SHA="$(git -C "$ROOT" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$ROOT" status --porcelain -- src bench 2>/dev/null)" ]; then
  SHA="$SHA-dirty"
fi

for bench in "${BENCHES[@]}"; do
  cmake --build "$BUILD" --target "$bench" >/dev/null
  out="$ROOT/BENCH_${bench#bench_}.json"
  echo "=== $bench -> $out"
  # min_time keeps the full sweep tractable on a laptop; baselines are for
  # trend-watching, not for publishing absolute numbers. Run from the build
  # directory so the record names the binary, not the checkout's path.
  (cd "$BUILD/bench" && "./$bench" \
    --benchmark_min_time=0.05 \
    --benchmark_context=git_sha="$SHA" \
    --benchmark_context=build_type="$BUILD_TYPE" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    ${BENCH_FLAGS:-})
done
