// Extension — tensor parallelism with communication, on the paper's
// Table-III systems: per-GPU compute shrinks with t while the two
// per-layer all-reduces grow, so the best t depends on the fabric — the
// quantitative backing for "t should be as small as possible" and for the
// paper's note that parallelism choices depend on interconnect speed.
#include "bench_common.hpp"
#include "comm/collectives.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_ext_tp_comm",
    "Extension: layer time vs t on the paper's Table-III systems",
    {"model"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Extension: TP + communication",
             "layer time vs t on the paper's Table-III systems");

  const std::string model = ctx.args().get_string("model", "gpt3-2.7b");
  const tfm::TransformerConfig base =
      tfm::model_by_name(model).with_vocab(50304);

  for (const std::string& cluster_id : comm::known_clusters()) {
    const comm::ClusterSpec& cluster = comm::cluster_by_name(cluster_id);
    ctx.section(cluster.description);
    TableWriter t({"t", "compute/layer", "comm/layer", "total/layer",
                   "comm share", "speedup vs t=1"});
    double t1_time = 0.0;
    for (std::int64_t tp = 1; tp <= cluster.gpus_per_node; tp *= 2) {
      if (base.num_heads % tp != 0 || base.hidden_size % tp != 0 ||
          base.vocab_size % tp != 0) {
        continue;
      }
      const auto r = comm::tp_total_layer_time(
          base.with_tensor_parallel(tp), cluster);
      if (tp == 1) t1_time = r.total_time;
      t.new_row()
          .cell(tp)
          .cell(human_time(r.compute_time))
          .cell(human_time(r.comm_time))
          .cell(human_time(r.total_time))
          .cell(str_format("%.1f%%", 100.0 * r.comm_fraction))
          .cell(str_format("%.2fx", t1_time / r.total_time));
    }
    ctx.emit(t);
  }
  std::cout << "(the marginal return of each doubling of t decays fastest "
               "on the slowest NVLink — Summit — which is also the system "
               "where t = 6 breaks the h/t alignment, the paper's "
               "double-bind for 6-GPU nodes)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(ext_tp_comm) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"ext.tp_comm", "bench_ext_tp_comm",
           "TP compute + all-reduce time across clusters and degrees",
           {benchlib::kSuiteExt},
           [](benchlib::CaseContext& c) {
             const auto base =
                 tfm::model_by_name("gpt3-2.7b").with_vocab(50304);
             for (const std::string& cluster_id : comm::known_clusters()) {
               const comm::ClusterSpec& cluster =
                   comm::cluster_by_name(cluster_id);
               for (std::int64_t tp = 1; tp <= cluster.gpus_per_node;
                    tp *= 2) {
                 if (base.num_heads % tp != 0 || base.hidden_size % tp != 0 ||
                     base.vocab_size % tp != 0) {
                   continue;
                 }
                 const auto r = comm::tp_total_layer_time(
                     base.with_tensor_parallel(tp), cluster);
                 c.consume(r.compute_time);
                 c.consume(r.comm_time);
               }
             }
           }});
}
