#include "bench_common.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace codesign::bench {

namespace {

// Flags every figure accepts, independent of its BenchSpec.
const char* const kStandardFlags[] = {"gpu", "policy", "format", "help"};

std::string usage_text(const BenchSpec& spec) {
  std::string out = "usage: codesign-bench figure " +
                    (spec.name.empty() ? "<name>" : spec.name) +
                    " [--gpu=<id>] [--policy=auto|fixed]"
                    " [--format=ascii|csv|markdown]";
  for (const auto& f : spec.flags) out += " [--" + f + "=<v>]";
  if (!spec.summary.empty()) out += "\n  " + spec.summary;
  return out;
}

void reject_unknown_flags(const CliArgs& args, const BenchSpec& spec) {
  std::vector<std::string> unknown;
  for (const auto& name : args.flag_names()) {
    const bool standard =
        std::find(std::begin(kStandardFlags), std::end(kStandardFlags), name) !=
        std::end(kStandardFlags);
    const bool declared =
        std::find(spec.flags.begin(), spec.flags.end(), name) !=
        spec.flags.end();
    if (!standard && !declared) unknown.push_back(name);
  }
  if (unknown.empty()) return;
  throw UsageError("unknown flag" + std::string(unknown.size() > 1 ? "s" : "") +
                   " --" + join(unknown, ", --") + "\n" + usage_text(spec));
}

}  // namespace

BenchContext BenchContext::from_args(int argc, const char* const* argv,
                                     const BenchSpec& spec) {
  CliArgs args = CliArgs::parse(argc, argv);
  reject_unknown_flags(args, spec);
  if (args.get_bool("help", false)) throw UsageError(usage_text(spec));

  const gpu::GpuSpec& g =
      gpu::gpu_by_name(args.get_string("gpu", spec.default_gpu.empty()
                                                  ? "a100"
                                                  : spec.default_gpu));

  const std::string policy_name = to_lower(args.get_string("policy", "auto"));
  gemm::TilePolicy policy;
  if (policy_name == "auto") {
    policy = gemm::TilePolicy::kAuto;
  } else if (policy_name == "fixed") {
    policy = gemm::TilePolicy::kFixedLargest;
  } else {
    throw UsageError("--policy must be 'auto' or 'fixed', got '" +
                     policy_name + "'");
  }

  const TableFormat format =
      parse_table_format(args.get_string("format", "ascii"));

  return BenchContext(std::move(args), g, policy, format);
}

void BenchContext::banner(const std::string& figure,
                          const std::string& description) const {
  const char* prefix = format_ == TableFormat::kCsv ? "# " : "";
  std::cout << prefix << "=== " << figure << " — " << description << " ===\n";
  std::cout << prefix << "GPU: " << gpu_->marketing_name << " ("
            << gpu_->sm_count << " SMs, "
            << str_format("%.0f TFLOP/s fp16 tensor, %.0f GB/s HBM",
                          gpu_->tensor_flops_fp16 / 1e12,
                          gpu_->hbm_bandwidth / 1e9)
            << "), tile policy: "
            << (sim_.policy() == gemm::TilePolicy::kAuto ? "auto" : "fixed 256x128")
            << "\n";
}

void BenchContext::section(const std::string& title) const {
  const char* prefix = format_ == TableFormat::kCsv ? "# " : "";
  std::cout << '\n' << prefix << "--- " << title << " ---\n";
}

void BenchContext::emit(const TableWriter& table) const {
  table.write(std::cout, format_);
}

int run_bench(int argc, const char* const* argv, FigureBody body,
              const BenchSpec& spec) {
  try {
    BenchContext ctx = BenchContext::from_args(argc, argv, spec);
    return body(ctx);
  } catch (const Error& e) {
    std::cerr << "bench error: " << e.what() << '\n';
    return exit_code_for_current_exception();
  }
}

void Roster::figure(const BenchSpec& spec, FigureBody body) {
  if (find_figure(spec.name) != nullptr) {
    throw Error("figure '" + spec.name + "' is registered twice");
  }
  figures.push_back({spec, body});
}

const Figure* Roster::find_figure(const std::string& name) const {
  for (const Figure& f : figures) {
    if (f.spec.name == name) return &f;
  }
  return nullptr;
}

}  // namespace codesign::bench
