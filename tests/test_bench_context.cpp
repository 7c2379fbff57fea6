// Tests for bench/bench_common.hpp — the shared harness every figure is
// built on (flag parsing, unknown-flag rejection, banner/section/table
// emission, exit-code taxonomy) — and for the bench_cases.cpp roster that
// `codesign-bench` runs figures and cases from.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench_cases.hpp"

#include "common/error.hpp"

namespace codesign::bench {
namespace {

BenchContext make(std::initializer_list<const char*> flags,
                  const BenchSpec& spec = {}) {
  std::vector<const char*> argv = {"bench"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  return BenchContext::from_args(static_cast<int>(argv.size()), argv.data(),
                                 spec);
}

TEST(BenchContext, Defaults) {
  const BenchContext ctx = make({});
  EXPECT_EQ(ctx.gpu().id, "a100-40gb");
  EXPECT_EQ(ctx.sim().policy(), gemm::TilePolicy::kAuto);
  EXPECT_EQ(ctx.format(), TableFormat::kAscii);
}

TEST(BenchContext, GpuFlag) {
  EXPECT_EQ(make({"--gpu=v100"}).gpu().id, "v100-16gb");
  EXPECT_EQ(make({"--gpu=h100"}).gpu().id, "h100-sxm");
  EXPECT_THROW(make({"--gpu=tpu"}), LookupError);
}

TEST(BenchContext, SpecDefaultGpu) {
  BenchSpec spec;
  spec.default_gpu = "v100";
  EXPECT_EQ(make({}, spec).gpu().id, "v100-16gb");
  EXPECT_EQ(make({"--gpu=h100"}, spec).gpu().id, "h100-sxm");
}

TEST(BenchContext, PolicyFlag) {
  EXPECT_EQ(make({"--policy=fixed"}).sim().policy(),
            gemm::TilePolicy::kFixedLargest);
  EXPECT_EQ(make({"--policy=auto"}).sim().policy(), gemm::TilePolicy::kAuto);
  EXPECT_THROW(make({"--policy=greedy"}), Error);
}

TEST(BenchContext, FormatFlag) {
  EXPECT_EQ(make({"--format=csv"}).format(), TableFormat::kCsv);
  EXPECT_EQ(make({"--format=markdown"}).format(), TableFormat::kMarkdown);
  EXPECT_EQ(make({"--format=md"}).format(), TableFormat::kMarkdown);
  EXPECT_THROW(make({"--format=xml"}), Error);
}

TEST(BenchContext, DeclaredFlagsReachableViaArgs) {
  BenchSpec spec;
  spec.flags = {"heads", "b"};
  const BenchContext ctx = make({"--heads=8,16", "--b=2"}, spec);
  const auto heads = ctx.args().get_int_list("heads", {});
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(ctx.args().get_int("b", 0), 2);
}

TEST(BenchContext, UndeclaredFlagIsUsageError) {
  // Flags the spec does not declare are rejected, naming every offender
  // and carrying the usage text.
  EXPECT_THROW(make({"--heads=8"}), UsageError);
  try {
    make({"--zzz=1", "--aaa=2"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--aaa"), std::string::npos);
    EXPECT_NE(what.find("--zzz"), std::string::npos);
    EXPECT_NE(what.find("usage:"), std::string::npos);
  }
}

TEST(BenchContext, HelpIsUsageError) {
  EXPECT_THROW(make({"--help"}), UsageError);
}

TEST(BenchContext, BannerAndEmit) {
  // Capture stdout to verify banner/section/table routing.
  const BenchContext ctx = make({"--format=csv"});
  ::testing::internal::CaptureStdout();
  ctx.banner("Figure X", "smoke");
  ctx.section("series one");
  TableWriter t({"a"});
  t.new_row().cell(std::int64_t{1});
  ctx.emit(t);
  const std::string out = ::testing::internal::GetCapturedStdout();
  // CSV mode prefixes narrative lines with '#'.
  EXPECT_NE(out.find("# === Figure X"), std::string::npos);
  EXPECT_NE(out.find("# --- series one"), std::string::npos);
  EXPECT_NE(out.find("a\n1\n"), std::string::npos);
}

TEST(RunBench, CleanErrorPath) {
  // Errors are caught, reported, and mapped through the exit taxonomy:
  // unknown GPU is a lookup failure, not a generic error.
  const char* argv[] = {"bench", "--gpu=bogus"};
  const int rc = run_bench(2, argv, [](BenchContext&) { return 0; });
  EXPECT_EQ(rc, kExitLookup);
}

TEST(RunBench, UnknownFlagExitsUsage) {
  const char* argv[] = {"bench", "--not-a-flag=1"};
  EXPECT_EQ(run_bench(2, argv, [](BenchContext&) { return 0; }), kExitUsage);
}

TEST(RunBench, BodyReturnCodePropagates) {
  const char* argv[] = {"bench"};
  EXPECT_EQ(run_bench(1, argv, [](BenchContext&) { return 0; }), 0);
  EXPECT_EQ(run_bench(1, argv, [](BenchContext&) { return 7; }), 7);
}

TEST(Roster, DuplicateFigureIsAnError) {
  Roster roster;
  BenchSpec spec;
  spec.name = "bench_x";
  const FigureBody body = [](BenchContext&) { return 0; };
  roster.figure(spec, body);
  EXPECT_THROW(roster.figure(spec, body), Error);
  ASSERT_NE(roster.find_figure("bench_x"), nullptr);
  EXPECT_EQ(roster.find_figure("bench_y"), nullptr);
}

TEST(Roster, EveryBenchSourceRegistersOneFigure) {
  Roster roster;
  register_all(roster);  // throws on a duplicate figure or case name
  ASSERT_FALSE(roster.figures.empty());
  std::set<std::string> names;
  for (const Figure& f : roster.figures) {
    EXPECT_TRUE(names.insert(f.spec.name).second)
        << f.spec.name << " registered twice";
    EXPECT_EQ(f.spec.name.rfind("bench_", 0), 0u) << f.spec.name;
    EXPECT_NE(f.body, nullptr) << f.spec.name;
  }
}

TEST(Roster, EveryCaseNamesARegisteredFigure) {
  Roster roster;
  register_all(roster);
  std::set<std::string> with_cases;
  for (const benchlib::BenchCase& c : roster.cases.cases()) {
    EXPECT_NE(roster.find_figure(c.bench), nullptr)
        << "case " << c.name << " names unknown figure " << c.bench;
    with_cases.insert(c.bench);
  }
  for (const Figure& f : roster.figures) {
    EXPECT_TRUE(with_cases.count(f.spec.name))
        << f.spec.name << " registers no timing case";
  }
}

TEST(Roster, EveryFigureKeepsTheExitCodeContract) {
  // What each figure's own main() used to guarantee: an undeclared flag is
  // a usage error (2) and an unknown GPU a lookup error (5), both raised
  // before the body runs.
  Roster roster;
  register_all(roster);
  for (const Figure& f : roster.figures) {
    const std::string name = f.spec.name;
    const char* undeclared[] = {name.c_str(), "--no-such-flag=1"};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_bench(2, undeclared, f.body, f.spec), kExitUsage) << name;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "usage: codesign-bench figure " + name),
              std::string::npos)
        << name;
    const char* bad_gpu[] = {name.c_str(), "--gpu=bogus"};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_bench(2, bad_gpu, f.body, f.spec), kExitLookup) << name;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("unknown GPU"),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace codesign::bench
