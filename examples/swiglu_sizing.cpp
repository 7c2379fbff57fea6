// swiglu_sizing — the §VII-B workflow as a tool: you picked a good h for a
// SwiGLU model; now pick d_ff. The 8h/3 parameter-preserving suggestion is
// only a suggestion — brute-force the range and take an aligned value
// (that is how Llama-2-7B ended up at 11008 for h = 4096).
//
// Usage: swiglu_sizing --h=4096 [--radius=512] [--gpu=a100] [--top=12]
#include <cmath>
#include <iostream>

#include "advisor/search.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/params.hpp"

int main(int argc, char** argv) {
  using namespace codesign;
  try {
    const CliArgs args = CliArgs::parse(argc, argv);
    const std::int64_t h = args.get_int("h", 4096);
    const std::int64_t radius = args.get_int("radius", 512);
    const int top = static_cast<int>(args.get_int("top", 12));

    tfm::TransformerConfig cfg;
    cfg.name = "swiglu-design";
    cfg.hidden_size = h;
    cfg.num_heads = h / 128;  // a reasonable aligned default head dim
    cfg.num_layers = 32;
    cfg.activation = tfm::Activation::kSwiGlu;
    cfg.vocab_size = 32000;
    cfg.seq_len = 4096;
    cfg.validate();

    const gemm::GemmSimulator sim =
        gemm::GemmSimulator::for_gpu(args.get_string("gpu", "a100"));

    const auto suggested =
        static_cast<std::int64_t>(std::llround(8.0 * h / 3.0));
    std::cout << "h = " << h << "; parameter-preserving suggestion d_ff = "
              << "round(8h/3) = " << suggested << " (pow2 granule "
              << largest_pow2_dividing(static_cast<std::uint64_t>(suggested))
              << ")\n";

    const auto scan = advisor::run_mlp_search(
        cfg, sim, suggested - radius, suggested + radius).ranked;

    std::cout << "\nBest d_ff candidates within +/-" << radius << ":\n";
    TableWriter t({"d_ff", "coeff", "pow2", "MLP TFLOP/s",
                   "MLP params/layer"});
    int listed = 0;
    for (const auto& c : scan) {
      if (listed++ >= top) break;
      cfg.mlp_intermediate = c.d_ff;
      // 3 SwiGLU matrices: up, gate (h x d_ff each) and down (d_ff x h).
      const double mlp_params = 3.0 * static_cast<double>(h) * c.d_ff;
      t.new_row()
          .cell(c.d_ff)
          .cell(c.coefficient, 4)
          .cell(static_cast<std::int64_t>(
              largest_pow2_dividing(static_cast<std::uint64_t>(c.d_ff))))
          .cell(c.mlp_tflops, 1)
          .cell(human_count(mlp_params));
    }
    t.write(std::cout);

    std::cout << "\nThe suggestion itself ranks at percentile "
              << str_format("%.2f",
                            advisor::mlp_candidate_percentile(scan, suggested))
              << " (0 = best) — pick an aligned neighbour instead.\n";
    return 0;
  } catch (const codesign::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
