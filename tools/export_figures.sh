#!/usr/bin/env sh
# export_figures.sh — regenerate every paper figure's data as CSV.
#
# Usage: tools/export_figures.sh [build-dir] [output-dir] [gpu]
# Writes one <figure>.csv per figure `codesign-bench figure` lists, plus
# bench_kernels_cpu.csv (CSV mode interleaves "#" comment lines between
# series; strip them or split on them when plotting).
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-figures}"
GPU="${3:-a100}"
DRIVER="$BUILD_DIR/tools/codesign-bench"

if [ ! -x "$DRIVER" ]; then
  echo "error: '$DRIVER' not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"

# google-benchmark owns bench_kernels_cpu and has its own CSV reporter.
"$BUILD_DIR/bench/bench_kernels_cpu" --benchmark_format=csv \
  >"$OUT_DIR/bench_kernels_cpu.csv" 2>/dev/null
echo "wrote $OUT_DIR/bench_kernels_cpu.csv"

for name in $("$DRIVER" figure); do
  "$DRIVER" figure "$name" --gpu="$GPU" --format=csv >"$OUT_DIR/$name.csv"
  echo "wrote $OUT_DIR/$name.csv"
done

echo "done: $(ls "$OUT_DIR" | wc -l) figure data files in $OUT_DIR/"
