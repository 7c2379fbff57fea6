// codesign-bench — the single entry point of the paper figures and the
// continuous benchmark harness (docs/BENCHMARKS.md).
//
//   codesign-bench figure  [<name> [--gpu=ID] [--policy=auto|fixed]
//                          [--format=F] [that figure's own flags]]
//   codesign-bench list    [--suite=S] [--filter=SUB]
//   codesign-bench run     [--suite=S] [--filter=SUB] [--gpu=ID]
//                          [--policy=auto|fixed] [--warmup=N] [--repeats=N]
//                          [--threads=N] [--out=PATH] [--format=F]
//   codesign-bench compare <baseline.json> <candidate.json>
//                          [--min-frac=F] [--mad-factor=F] [--no-data-check]
//
// `figure` prints one paper figure's data (with no name, it lists the
// figures); `run` times every selected case (warmup + repeats,
// median/MAD/p95) and writes a schema-versioned BENCH_<suite>.json;
// `compare` gates a candidate report against a baseline with noise-aware
// thresholds and exits nonzero on a regression, checksum mismatch, or
// missing case.
#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_cases.hpp"
#include "benchlib/compare.hpp"
#include "benchlib/runner.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace codesign {
namespace {

constexpr const char* kUsage =
    "usage: codesign-bench <command> [flags]\n"
    "\n"
    "commands:\n"
    "  figure [<name> [flags]]  print one paper figure (no name: list them);\n"
    "                           flags: --gpu, --policy, --format and the\n"
    "                           figure's own (figure <name> --help)\n"
    "  list                     list registered cases\n"
    "  run                      time the selected cases, write a report\n"
    "  compare <base> <cand>    gate candidate report against baseline\n"
    "\n"
    "list/run flags:\n"
    "  --suite=S       smoke | fig | ext | perf (default: all cases)\n"
    "  --filter=SUB    substring match on case name or owning bench\n"
    "run flags:\n"
    "  --gpu=ID        simulated GPU (default a100)\n"
    "  --policy=P      tile policy: auto | fixed (default auto)\n"
    "  --warmup=N      untimed executions per case (default 1)\n"
    "  --repeats=N     timed executions per case (default 5)\n"
    "  --threads=N     cases timed concurrently (default 1; checksums and\n"
    "                  report bytes are identical at any thread count)\n"
    "  --out=PATH      report path (default BENCH_<suite>.json)\n"
    "  --format=F      table format: ascii | csv | markdown\n"
    "compare flags:\n"
    "  --min-frac=F    regression threshold floor (default 0.05)\n"
    "  --mad-factor=F  noise band width in MADs (default 3.0)\n"
    "  --no-data-check skip checksum gating (timing-only compare)\n";

/// Flags a subcommand accepts; anything else on the command line is a
/// usage error (same contract as a figure's BenchSpec).
void reject_unknown_flags(const CliArgs& args,
                          const std::vector<std::string>& allowed) {
  std::vector<std::string> unknown;
  const std::set<std::string> ok(allowed.begin(), allowed.end());
  for (const std::string& name : args.flag_names()) {
    if (!ok.count(name)) unknown.push_back(name);
  }
  if (unknown.empty()) return;
  std::sort(unknown.begin(), unknown.end());
  throw UsageError("unknown flag(s): --" + join(unknown, ", --") + "\n\n" +
                   kUsage);
}

/// argv[0] is "figure"; argv[1], when present, names the figure and the
/// rest are its flags, parsed exactly as the figure's BenchSpec declares.
int cmd_figure(int argc, const char* const* argv) {
  bench::Roster roster;
  bench::register_all(roster);
  if (argc < 2) {
    for (const bench::Figure& f : roster.figures) {
      std::cout << f.spec.name << "\n";
    }
    return kExitOk;
  }
  const std::string name = argv[1];
  if (name.starts_with("--")) {
    throw UsageError(
        "usage: codesign-bench figure <name> [flags] (`codesign-bench "
        "figure` lists the names)");
  }
  const bench::Figure* figure = roster.find_figure(name);
  if (figure == nullptr) {
    throw LookupError("unknown figure '" + name +
                      "' (`codesign-bench figure` lists them)");
  }
  return bench::run_bench(argc - 1, argv + 1, figure->body, figure->spec);
}

int cmd_list(const CliArgs& args) {
  reject_unknown_flags(args, {"suite", "filter", "format"});
  bench::Roster roster;
  bench::register_all(roster);
  const benchlib::BenchRegistry& reg = roster.cases;
  const auto selected = reg.select(args.get_string("suite", ""),
                                   args.get_string("filter", ""));
  TableWriter t({"case", "bench", "suites", "description"});
  for (const benchlib::BenchCase* c : selected) {
    t.new_row()
        .cell(c->name)
        .cell(c->bench)
        .cell(join(c->suites, ","))
        .cell(c->description);
  }
  t.write(std::cout, parse_table_format(args.get_string("format", "ascii")));
  std::cout << selected.size() << " of " << reg.size() << " cases\n";
  return kExitOk;
}

int cmd_run(const CliArgs& args) {
  reject_unknown_flags(args, {"suite", "filter", "gpu", "policy", "warmup",
                              "repeats", "threads", "out", "format"});
  benchlib::RunOptions opt;
  opt.suite = args.get_string("suite", "");
  opt.filter = args.get_string("filter", "");
  opt.gpu = args.get_string("gpu", "a100");
  opt.policy = args.get_string("policy", "auto");
  opt.timing.warmup = static_cast<int>(args.get_int("warmup", 1));
  opt.timing.repeats = static_cast<int>(args.get_int("repeats", 5));
  opt.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  if (opt.timing.warmup < 0 || opt.timing.repeats < 1 || opt.threads < 1) {
    throw UsageError(
        "--warmup must be >= 0, --repeats and --threads must be >= 1");
  }
  const std::string out = args.get_string(
      "out",
      "BENCH_" + (opt.suite.empty() ? std::string("all") : opt.suite) +
          ".json");

  bench::Roster roster;
  bench::register_all(roster);
  const benchlib::BenchReport report = benchlib::run_suite(roster.cases, opt);

  TableWriter t({"case", "median ms", "mad ms", "p95 ms", "outliers",
                 "checksum", "stable"});
  for (const benchlib::CaseStats& s : report.cases) {
    t.new_row()
        .cell(s.name)
        .cell(s.median_ms, 3)
        .cell(s.mad_ms, 3)
        .cell(s.p95_ms, 3)
        .cell(static_cast<std::int64_t>(s.outliers))
        .cell(str_format("%016llx",
                         static_cast<unsigned long long>(s.checksum)))
        .cell(s.checksum_stable ? "yes" : "NO");
  }
  t.write(std::cout, parse_table_format(args.get_string("format", "ascii")));

  report.write_file(out);
  std::cout << report.cases.size() << " cases -> " << out << "\n";

  int unstable = 0;
  for (const benchlib::CaseStats& s : report.cases) {
    if (!s.checksum_stable) ++unstable;
  }
  if (unstable > 0) {
    std::cerr << "error: " << unstable
              << " case(s) produced a nondeterministic checksum\n";
    return kExitError;
  }
  return kExitOk;
}

int cmd_compare(const CliArgs& args) {
  reject_unknown_flags(args,
                       {"min-frac", "mad-factor", "no-data-check", "format"});
  // positional()[0] is the subcommand itself.
  const auto& pos = args.positional();
  if (pos.size() != 3) {
    throw UsageError(
        "compare needs exactly two report paths: codesign-bench compare "
        "<baseline.json> <candidate.json>");
  }
  const benchlib::BenchReport baseline = benchlib::BenchReport::load_file(pos[1]);
  const benchlib::BenchReport candidate =
      benchlib::BenchReport::load_file(pos[2]);

  benchlib::CompareOptions opt;
  opt.min_frac = args.get_double("min-frac", opt.min_frac);
  opt.mad_factor = args.get_double("mad-factor", opt.mad_factor);
  opt.check_data = !args.get_bool("no-data-check", false);
  if (opt.min_frac < 0.0 || opt.mad_factor < 0.0) {
    throw UsageError("--min-frac and --mad-factor must be >= 0");
  }

  const benchlib::CompareResult result =
      benchlib::compare_reports(baseline, candidate, opt);
  for (const std::string& w : result.warnings) {
    std::cout << "warning: " << w << "\n";
  }
  benchlib::delta_table(result).write(
      std::cout, parse_table_format(args.get_string("format", "ascii")));
  std::cout << str_format(
      "%d regression(s), %d data mismatch(es), %d missing, %d faster\n",
      result.regressions, result.data_mismatches, result.missing,
      result.faster);
  if (!result.ok()) {
    std::cerr << "error: candidate fails the regression gate\n";
    return kExitError;
  }
  std::cout << "gate: PASS\n";
  return kExitOk;
}

int run(int argc, char** argv) {
  // A figure owns its flags (--help included), so it is dispatched before
  // the harness parses any.
  if (argc >= 2 && std::string_view(argv[1]) == "figure") {
    return cmd_figure(argc - 1, argv + 1);
  }
  const CliArgs args = CliArgs::parse(argc, argv);
  if (args.positional().empty() || args.get_bool("help", false)) {
    std::cout << kUsage;
    return args.positional().empty() && !args.get_bool("help", false)
               ? kExitUsage
               : kExitOk;
  }
  const std::string& cmd = args.positional().front();
  if (cmd == "list") return cmd_list(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "compare") return cmd_compare(args);
  throw UsageError("unknown command '" + cmd + "'\n\n" + kUsage);
}

}  // namespace
}  // namespace codesign

int main(int argc, char** argv) {
  try {
    return codesign::run(argc, argv);
  } catch (const codesign::Error& e) {
    std::cerr << "codesign-bench: " << e.what() << "\n";
    return codesign::exit_code_for_current_exception();
  } catch (const std::exception& e) {
    std::cerr << "codesign-bench: internal error: " << e.what() << "\n";
    return codesign::kExitInternal;
  }
}
