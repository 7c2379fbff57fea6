// perfbench — runs one benchmark workload against the system and prints
// its metrics; perfbench/run.py builds it and wraps the result.
//
//   perfbench --workload=<serve_advise|sweep_grid>
//             --seed=N --seconds=S --trace=0|1 --codesign=<binary>
//             --out-dir=<dir>
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// with --trace=1 the metrics are the per-layer ones and the spans go to
// <out-dir>/spans-<workload>-<seed>.json. Exit status 1 when any output
// differed from the one-shot path, 2 on a usage or set-up error.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "speed.hpp"
#include "workloads.hpp"

namespace {

bool flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs a;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (flag(argv[i], "--workload", &v)) a.workload = v;
    else if (flag(argv[i], "--seed", &v)) a.seed = std::stoull(v);
    else if (flag(argv[i], "--seconds", &v)) a.seconds = std::stod(v);
    else if (flag(argv[i], "--trace", &v)) a.trace = v == "1";
    else if (flag(argv[i], "--codesign", &v)) a.codesign = v;
    else if (flag(argv[i], "--out-dir", &v)) a.out_dir = v;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (a.codesign.empty() || a.out_dir.empty() || a.seconds <= 0 ||
      (a.workload != "serve_advise" && a.workload != "sweep_grid")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<serve_advise|sweep_grid> "
                 "--seed=N --seconds=S --trace=0|1 --codesign=<binary> "
                 "--out-dir=<dir>\n");
    return 2;
  }
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) a.cpus.push_back(c);
    }
  }
  if (a.cpus.empty()) a.cpus.push_back(0);
  a.nproc = static_cast<unsigned>(a.cpus.size());
  ::mkdir(a.out_dir.c_str(), 0755);

  Outcome out;
  try {
    SpeedProbe speed(a.cpus);  // forks: before any thread starts
    if (a.workload == "sweep_grid") {
      run_sweep_workload(a, speed, out);
    } else {
      run_serve_workload(a, speed, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (a.trace) {
    note("per-layer self time (%s, spans from the benchmark's own calls):",
         a.workload.c_str());
    std::fputs(out.spans.self_time_table().c_str(), stdout);
    const std::string path = a.out_dir + "/spans-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    std::ofstream(path) << out.spans.json();
    note("wrote %zu spans to %s", out.spans.spans().size(), path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.json().c_str());
  return out.correct ? 0 : 1;
}
