// shape_explorer — design a custom architecture from scratch and explore
// its shape space: the workflow of a practitioner sizing a new model
// before burning GPU-hours (the paper's intended use).
//
// Usage: shape_explorer --h=2560 --a=32 --layers=32 [--b=4] [--s=2048]
//                       [--v=50257] [--t=1] [--gpu=a100] [--swiglu]
#include <iostream>

#include "advisor/cluster.hpp"
#include "advisor/report.hpp"
#include "advisor/search.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/layer_model.hpp"

int main(int argc, char** argv) {
  using namespace codesign;
  try {
    const CliArgs args = CliArgs::parse(argc, argv);

    tfm::TransformerConfig cfg;
    cfg.name = "custom";
    cfg.hidden_size = args.get_int("h", 2560);
    cfg.num_heads = args.get_int("a", 32);
    cfg.num_layers = args.get_int("layers", 32);
    cfg.microbatch = args.get_int("b", 4);
    cfg.seq_len = args.get_int("s", 2048);
    cfg.vocab_size = args.get_int("v", 50257);
    cfg.tensor_parallel = args.get_int("t", 1);
    if (args.get_bool("swiglu", false)) {
      cfg.activation = tfm::Activation::kSwiGlu;
      cfg.mlp_intermediate = args.get_int("dff", 0);
    }
    cfg.validate();

    const gemm::GemmSimulator sim =
        gemm::GemmSimulator::for_gpu(args.get_string("gpu", "a100"));

    // Full advisor report: breakdown, rules, ranked alternatives.
    std::cout << advisor::advise(cfg, sim);

    // Head-count search in detail: predicted speedup for every legal a.
    std::cout << "\nFull head-count landscape (same h, same params):\n";
    TableWriter t({"a", "h/a", "layer time", "TFLOP/s", "speedup", "rules"});
    for (const auto& c :
         advisor::run_shape_search(advisor::SearchMode::kHeads, cfg, sim)
             .ranked) {
      t.new_row()
          .cell(c.config.num_heads)
          .cell(c.config.head_dim())
          .cell(human_time(c.layer_time))
          .cell(c.layer_tflops, 1)
          .cell(str_format("%.3fx", c.speedup_vs_base))
          .cell(c.rules_pass ? "PASS" : "FAIL");
    }
    t.write(std::cout);

    // Where could this shape deploy?
    std::cout << "\nTensor-parallel deployment matrix:\n";
    TableWriter td({"node GPUs", "feasible", "per-GPU TFLOP/s", "reason"});
    for (const auto& cell : advisor::deployment_matrix(cfg, sim)) {
      td.new_row()
          .cell(cell.node_gpus)
          .cell(cell.option.feasibility.feasible ? "yes" : "NO")
          .cell(cell.option.feasibility.feasible
                    ? str_format("%.1f", cell.option.layer_tflops)
                    : "-")
          .cell(cell.option.feasibility.reason);
    }
    td.write(std::cout);
    return 0;
  } catch (const codesign::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
