// Fig 14 (appendix) — GEMMs with different orderings of the batched
// dimension: (2048, 4, n) x (n, 3n), (4, 2048, n) x (n, 3n), and the flat
// (8192, n) x (n, 3n). The paper shows all three perform identically, so
// 3-D x 2-D contractions can be modelled as 2-D GEMMs — which is exactly
// the folding rule GemmProblem::folded_3d implements. This bench both
// demonstrates the modelled equality and validates it numerically with the
// CPU substrate.
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "kernels/gemm_cpu.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig14_dim_order",
    "Fig 14: batched-dimension ordering does not matter",
    {}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 14", "batched-dimension ordering does not matter");

  ctx.section("modelled throughput of the three orderings");
  TableWriter t({"n", "(2048,4,n)x(n,3n)", "(4,2048,n)x(n,3n)",
                 "(8192,n)x(n,3n)"});
  for (std::int64_t n = 512; n <= 8192; n *= 2) {
    const auto a = gemm::GemmProblem::folded_3d(2048, 4, n, 3 * n);
    const auto b = gemm::GemmProblem::folded_3d(4, 2048, n, 3 * n);
    const auto c = gemm::GemmProblem::gemm(8192, 3 * n, n);
    t.new_row()
        .cell(n)
        .cell(ctx.sim().throughput_tflops(a), 1)
        .cell(ctx.sim().throughput_tflops(b), 1)
        .cell(ctx.sim().throughput_tflops(c), 1);
  }
  ctx.emit(t);

  ctx.section("numerical check on the CPU substrate (small shapes)");
  Rng rng(7);
  const std::int64_t n = 64;
  const kern::Tensor x3a = kern::Tensor::randn({16, 4, n}, rng);
  const kern::Tensor w = kern::Tensor::randn({3 * n, n}, rng);
  const kern::Tensor y_a = kern::linear(x3a, w);
  const kern::Tensor y_flat = kern::linear(x3a.reshape({64, n}), w);
  const float diff =
      kern::max_abs_diff(y_a.reshape({64, 3 * n}), y_flat);
  std::cout << "max |3-D result - folded 2-D result| = "
            << str_format("%.2e", static_cast<double>(diff))
            << (diff == 0.0f ? " (bit-identical)" : "") << "\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig14_dim_order) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig14.dim_order", "bench_fig14_dim_order",
           "3-D vs folded 2-D GEMM estimates plus the CPU-substrate check",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (std::int64_t n = 512; n <= 8192; n *= 2) {
               c.consume(c.sim().throughput_tflops(
                   gemm::GemmProblem::folded_3d(2048, 4, n, 3 * n)));
               c.consume(c.sim().throughput_tflops(
                   gemm::GemmProblem::folded_3d(4, 2048, n, 3 * n)));
               c.consume(c.sim().throughput_tflops(
                   gemm::GemmProblem::gemm(8192, 3 * n, n)));
             }
             Rng rng(7);
             const std::int64_t n = 64;
             const kern::Tensor x3a = kern::Tensor::randn({16, 4, n}, rng);
             const kern::Tensor w = kern::Tensor::randn({3 * n, n}, rng);
             const kern::Tensor y_a = kern::linear(x3a, w);
             const kern::Tensor y_flat = kern::linear(x3a.reshape({64, n}), w);
             c.consume(static_cast<double>(
                 kern::max_abs_diff(y_a.reshape({64, 3 * n}), y_flat)));
           },
           /*threshold_frac=*/0.25});
}
