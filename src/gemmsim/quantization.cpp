#include "gemmsim/quantization.hpp"

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace codesign::gemm {

TileQuantization tile_quantization(const GemmProblem& p,
                                   const gpu::TileConfig& tile) {
  p.validate();
  CODESIGN_CHECK(tile.tm > 0 && tile.tn > 0 && tile.tk > 0,
                 "tile dimensions must be positive");
  TileQuantization q;
  q.tiles_m = ceil_div(p.m, tile.tm);
  q.tiles_n = ceil_div(p.n, tile.tn);
  q.tiles_total = q.tiles_m * q.tiles_n * p.batch;
  q.padded_m = q.tiles_m * tile.tm;
  q.padded_n = q.tiles_n * tile.tn;
  q.padded_k = round_up(p.k, tile.tk);
  q.wasted_compute_fraction =
      wasted_compute_fraction(p, q.padded_m, q.padded_n, q.padded_k);
  return q;
}

double wasted_compute_fraction(const GemmProblem& p, std::int64_t padded_m,
                               std::int64_t padded_n, std::int64_t padded_k) {
  const double useful = static_cast<double>(p.m) * static_cast<double>(p.n) *
                        static_cast<double>(p.k);
  const double scheduled = static_cast<double>(padded_m) *
                           static_cast<double>(padded_n) *
                           static_cast<double>(padded_k);
  return 1.0 - useful / scheduled;
}

WaveQuantization wave_quantization(std::int64_t total_tiles,
                                   const gpu::TileConfig& tile,
                                   const gpu::GpuSpec& gpu) {
  CODESIGN_CHECK(total_tiles > 0, "wave quantization needs at least one tile");
  WaveQuantization w;
  w.blocks_per_wave =
      static_cast<std::int64_t>(gpu.sm_count) * tile.blocks_per_sm;
  w.waves = ceil_div(total_tiles, w.blocks_per_wave);
  const std::int64_t rem = total_tiles % w.blocks_per_wave;
  w.tail_blocks = rem == 0 ? w.blocks_per_wave : rem;
  w.efficiency = static_cast<double>(total_tiles) /
                 static_cast<double>(w.waves * w.blocks_per_wave);
  return w;
}

bool wave_quantization_free(std::int64_t x, std::int64_t y,
                            const gpu::TileConfig& tile,
                            const gpu::GpuSpec& gpu) {
  CODESIGN_CHECK(x > 0 && y > 0, "dimensions must be positive");
  const std::int64_t sms = gpu.sm_count;
  const std::int64_t a = ceil_div(x, tile.tm) * ceil_div(y, tile.tn);
  const std::int64_t b = ceil_div(x, tile.tn) * ceil_div(y, tile.tm);
  return a % sms == 0 || b % sms == 0;
}

}  // namespace codesign::gemm
