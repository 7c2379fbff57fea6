// Extension — pipeline-parallel stage-count sweep: quantifies the paper's
// closing §VI-B rule ("the number of layers should be divisible by the
// number of pipeline parallel stages") with the 1F1B bubble + imbalance
// model. The paper leaves full pipeline shape analysis to future work;
// this bench covers exactly the rule it does state.
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/pipeline.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_ext_pipeline",
    "Extension: pipeline bubble + imbalance across stage counts",
    {"model", "microbatches"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Extension: pipeline stages",
             "bubble + imbalance across stage counts (L % p rule)");

  const std::string model = ctx.args().get_string("model", "gpt3-2.7b");
  const std::int64_t m = ctx.args().get_int("microbatches", 32);
  const auto cfg = tfm::model_by_name(model);

  ctx.section(str_format("stage sweep for %s (L = %lld, m = %lld)",
                         cfg.name.c_str(),
                         static_cast<long long>(cfg.num_layers),
                         static_cast<long long>(m)));
  TableWriter t({"p", "L % p", "layers/stage", "bubble", "imbalance",
                 "efficiency", "step time", "tokens/s"});
  for (std::int64_t p = 1; p <= 16; ++p) {
    tfm::PipelineSchedule s;
    s.stages = p;
    s.microbatches = m;
    const auto r = tfm::analyze_pipeline(cfg, ctx.sim(), s);
    t.new_row()
        .cell(p)
        .cell(cfg.num_layers % p)
        .cell(str_format("%lld..%lld",
                         static_cast<long long>(r.layers_per_stage_min),
                         static_cast<long long>(r.layers_per_stage_max)))
        .cell(str_format("%.1f%%", 100.0 * r.bubble_fraction))
        .cell(r.imbalance_factor, 3)
        .cell(str_format("%.1f%%", 100.0 * r.efficiency))
        .cell(human_time(r.step_time))
        .cell(r.tokens_per_second, 0);
  }
  ctx.emit(t);

  ctx.section("balanced stage counts (the rule's good choices)");
  std::string good;
  for (const std::int64_t p : tfm::balanced_stage_counts(cfg, 32)) {
    if (!good.empty()) good += ", ";
    good += std::to_string(p);
  }
  std::cout << "L = " << cfg.num_layers << " divides evenly into p = {"
            << good << "}\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(ext_pipeline) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"ext.pipeline_stages", "bench_ext_pipeline",
           "1F1B analysis over p = 1..16 for gpt3-2.7b",
           {benchlib::kSuiteExt, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto cfg = tfm::model_by_name("gpt3-2.7b");
             for (std::int64_t p = 1; p <= 16; ++p) {
               tfm::PipelineSchedule s;
               s.stages = p;
               s.microbatches = 32;
               const auto r = tfm::analyze_pipeline(cfg, c.sim(), s);
               c.consume(r.step_time);
               c.consume(r.bubble_fraction);
             }
           }});
}
