// Case study (§VIII) — BERT as the procurement benchmark: the paper notes
// MLCommons BERT results track kernel-level throughput (~3:1 H100:A100)
// and that its conclusions extend to encoder-only models. This bench runs
// the encoder serving model across every GPU, shows the cross-device
// ratios, and reproduces BERT's own shape flaw (v = 30522).
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/inference.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_case_bert",
    "Case study: BERT/MLPerf encoder serving across devices",
    {"batch"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Case study: BERT / MLPerf",
             "encoder serving throughput across devices");

  const std::int64_t batch = ctx.args().get_int("batch", 32);
  const auto& bert = tfm::model_by_name("bert-large");

  ctx.section(str_format("bert-large serving (s = 512, batch = %lld)",
                         static_cast<long long>(batch)));
  TableWriter t({"gpu", "batch latency", "sequences/s", "vs a100"});
  double a100_sps = 0.0;
  std::vector<std::pair<std::string, double>> results;
  for (const std::string& id :
       {std::string("v100-16gb"), std::string("a100-40gb"),
        std::string("h100-sxm"), std::string("mi250x-gcd")}) {
    const auto sim = gemm::GemmSimulator::for_gpu(id);
    const auto e = tfm::estimate_encoder_serving(bert, sim, batch);
    if (id == "a100-40gb") a100_sps = e.sequences_per_second;
    results.emplace_back(id, e.sequences_per_second);
    t.new_row()
        .cell(id)
        .cell(human_time(e.batch_latency))
        .cell(e.sequences_per_second, 0)
        .cell("");
  }
  // Fill the ratio column now that the A100 baseline is known.
  TableWriter t2({"gpu", "sequences/s", "vs a100-40gb"});
  for (const auto& [id, sps] : results) {
    t2.new_row().cell(id).cell(sps, 0).cell(
        str_format("%.2fx", sps / a100_sps));
  }
  ctx.emit(t2);
  std::cout << "(paper §VIII: MLCommons BERT shows ~3:1 H100:A100 — the "
               "encoder model's ratio lands in the same band because the "
               "same kernels dominate)\n";

  ctx.section("BERT's own vocabulary flaw (30522 -> 30528)");
  const auto sim = ctx.sim();
  const double odd = sim.throughput_tflops(tfm::logit_gemm(
      bert.with_microbatch(batch)));
  const double pad = sim.throughput_tflops(tfm::logit_gemm(
      bert.with_microbatch(batch).with_vocab(30528)));
  std::cout << str_format(
      "MLM head GEMM: v=30522: %.1f TFLOP/s; v=30528: %.1f TFLOP/s "
      "(%.2fx — the padding MLPerf submissions apply)\n",
      odd, pad, pad / odd);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(case_bert) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"case.bert_serving", "bench_case_bert",
           "encoder serving estimates on four devices + the vocab flaw",
           {benchlib::kSuiteExt, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto& bert = tfm::model_by_name("bert-large");
             for (const char* id :
                  {"v100-16gb", "a100-40gb", "h100-sxm", "mi250x-gcd"}) {
               const auto sim = gemm::GemmSimulator::for_gpu(id);
               c.consume(tfm::estimate_encoder_serving(bert, sim, 32)
                             .sequences_per_second);
             }
             c.consume(c.sim().throughput_tflops(
                 tfm::logit_gemm(bert.with_microbatch(32))));
             c.consume(c.sim().throughput_tflops(
                 tfm::logit_gemm(bert.with_microbatch(32).with_vocab(30528))));
           }});
}
