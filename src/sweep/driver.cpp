#include "sweep/driver.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/thread_pool.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "obs/metrics.hpp"

namespace codesign::sweep {

namespace {

/// Cell-unique candidate name: the search checkpoint keys records by
/// config name, and the whole matrix shares one checkpoint file, so every
/// (workload, variant, gpu) triple must map to a distinct name.
std::string candidate_name(const WorkloadSpec& wl, const WorkloadVariant& v,
                           const std::string& gpu) {
  return wl.name + "/" + v.label + "@" + gpu;
}

}  // namespace

SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& options) {
  // run_grid_search leaves fingerprint validation to its caller; the sweep
  // owns the matrix identity, so validate and seed here once for all cells.
  if (options.resume != nullptr) {
    const std::string fp = sweep_fingerprint(plan, options.policy);
    if (options.resume->fingerprint() != fp) {
      throw ConfigError(
          "cannot resume: checkpoint belongs to a different sweep (file: '" +
          options.resume->fingerprint() + "', this run: '" + fp + "')");
    }
    if (options.checkpoint != nullptr) {
      options.checkpoint->seed_from(*options.resume);
    }
  }

  SweepResult result;
  result.name = plan.name;
  result.policy = options.policy;
  result.gpus = plan.gpus;
  result.planned_cells = plan.cells();
  for (const WorkloadSpec& wl : plan.workloads) {
    result.workloads.push_back(
        {wl.name, wl.family, wl.base.to_string(), wl.variants.size()});
  }

  // One pool for the whole matrix: every cell's grid runs on it.
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }

  // One simulator per GPU for the whole matrix: every workload on a GPU
  // shares its prepared catalogue (and the cache, attached once).
  std::vector<gemm::GemmSimulator> sims;
  sims.reserve(plan.gpus.size());
  for (const std::string& gpu : plan.gpus) {
    gemm::GemmSimulator& sim =
        sims.emplace_back(gpu::gpu_by_name(gpu), options.policy);
    if (options.cache != nullptr) sim.set_cache(options.cache);
  }

  for (const WorkloadSpec& wl : plan.workloads) {
    for (std::size_t g = 0; g < plan.gpus.size(); ++g) {
      const std::string& gpu = plan.gpus[g];
      const gemm::GemmSimulator& sim = sims[g];
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        result.truncated = true;
        result.cancel_reason = options.cancel->reason();
        return result;
      }
      const std::string cell_key = wl.name + "@" + gpu;
      CODESIGN_FAILPOINT_T("sweep.cell", fail::token(cell_key));

      // Variant i of the workload is grid candidate i: the configs are
      // read in place, and the cell-unique names are only built for
      // checkpoint keys, failpoint tokens and the report.
      const std::vector<WorkloadVariant>& variants = wl.variants;
      const advisor::GridSource grid{
          variants.size(),
          [&variants](std::size_t i) -> const tfm::TransformerConfig& {
            return variants[i].config;
          },
          [&](std::size_t i) { return candidate_name(wl, variants[i], gpu); }};
      advisor::SearchOptions so;
      so.threads = options.threads;
      so.pool = pool.get();
      so.faults = options.faults;
      so.cancel = options.cancel;
      so.checkpoint = options.checkpoint;
      so.resume = options.resume;
      const advisor::GridEvaluation ev =
          advisor::evaluate_grid(grid, wl.base, sim, so);

      result.evaluated += ev.evaluated;
      result.resumed += ev.resumed;
      result.retries += ev.retries;
      result.skipped += ev.skipped;
      if (obs::MetricsRegistry::enabled()) {
        // A cell keeps every evaluated variant.
        obs::MetricsRegistry::global()
            .counter("advisor.search.kept")
            .add(ev.evaluated);
      }
      if (ev.truncated) {
        result.truncated = true;
        result.cancel_reason = ev.cancel_reason;
        return result;  // drop the partial cell: completed cells only
      }

      SweepCell cell;
      cell.workload = wl.name;
      cell.family = wl.family;
      cell.gpu = gpu;
      // Families vary seq_len within one cell, so the comparable score is
      // time per token, not raw layer time; (tpt, label) is a total order
      // because labels are unique within a workload.
      std::vector<double> tpt(variants.size());
      std::vector<std::size_t> order;
      order.reserve(ev.evaluated);
      for (std::size_t i = 0; i < variants.size(); ++i) {
        const advisor::CandidateSlot& s = ev.slots[i];
        if (s.state == advisor::SlotState::kDone) {
          tpt[i] = s.layer_time /
                   static_cast<double>(variants[i].config.tokens());
          order.push_back(i);
        } else if (s.state == advisor::SlotState::kSkipped) {
          cell.skipped.push_back(
              {variants[i].label, s.skip_reason, s.attempts});
        }
      }
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (tpt[a] != tpt[b]) return tpt[a] < tpt[b];
                  return variants[a].label < variants[b].label;
                });
      cell.variants.reserve(order.size());
      for (const std::size_t i : order) {
        const advisor::CandidateSlot& s = ev.slots[i];
        SweepVariantResult& vr = cell.variants.emplace_back();
        vr.label = variants[i].label;
        vr.note = variants[i].note;
        vr.config = variants[i].config;
        vr.config.name = candidate_name(wl, variants[i], gpu);
        vr.layer_time = s.layer_time;
        vr.layer_tflops = s.layer_tflops;
        vr.time_per_token = tpt[i];
        vr.param_count = static_cast<std::int64_t>(s.param_count);
        vr.rules_pass = s.rules_pass;
      }
      if (!cell.variants.empty()) {
        cell.attribution =
            tfm::attribute_model(cell.variants.front().config, sim);
      }
      result.cells.push_back(std::move(cell));
    }
  }
  if (options.checkpoint != nullptr) options.checkpoint->flush();
  return result;
}

}  // namespace codesign::sweep
