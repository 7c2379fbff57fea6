// selftest.cpp — the benchmark's own tests (`python3 perfbench/run.py
// --selftest`): seeded inputs are reproducible, and the byte check catches
// a single flipped byte in a reply.
#include <cstdio>
#include <string>
#include <vector>

#include "gen.hpp"
#include "oracle.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Everything a workload sends for `seed`, as bytes: the pooled request
/// lines, one phase's arrival schedule, and the sweep configs.
std::string inputs(std::uint64_t seed) {
  using namespace perfbench;
  std::string out;
  const AdvisePool pool = advise_pool(seed);
  for (const RequestSpec& s : pool.entries) out += request_line(s, 0);
  char buf[64];
  for (const Arrival& a : poisson_schedule(derive(seed, 101), 2000.0, 0.5,
                                           Mix::advise(pool))) {
    std::snprintf(buf, sizeof buf, "%.9f %u\n", a.t, a.entry);
    out += buf;
  }
  for (std::size_t i = 0; i < 4; ++i) out += perfbench::sweep_config(seed, i, false);
  return out;
}

/// Flip one bit at every `stride`-th byte of the reply to `p` and count
/// the flips the check accepts (must be none).
int accepted_flips(const perfbench::Prepared& p, std::size_t stride) {
  std::string reply = p.expected;
  const std::string id = "0000000042";
  reply.replace(p.expected_id_off, id.size(), id);
  if (perfbench::check_response(reply, p, id) != perfbench::Verdict::kOk) {
    return -1;  // the untouched reply must pass
  }
  int accepted = 0;
  for (std::size_t i = 0; i < reply.size(); i += stride) {
    std::string bad = reply;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    if (perfbench::check_response(bad, p, id) == perfbench::Verdict::kOk) ++accepted;
  }
  return accepted;
}

}  // namespace

int main() {
  using namespace perfbench;
  const std::string a = inputs(7), b = inputs(7), c = inputs(8);
  check(a == b, "the same seed yields byte-identical streams and sweep configs");
  check(a != c, "a different seed changes them");
  check(sweep_config(7, 0, false) != sweep_config(7, 1, false),
        "the configs of one run differ from each other");

  const AdvisePool pool = advise_pool(7);
  const Prepared adv = prepare(pool.entries[0]);
  check(accepted_flips(adv, 1) == 0,
        "every single-bit flip in an advise reply is caught");
  const Prepared search = prepare(pool.entries[pool.search_first]);
  check(accepted_flips(search, 3) == 0,
        "single-bit flips across a search reply are caught");
  std::string reply = adv.expected;
  reply.replace(adv.expected_id_off, kIdWidth, "0000000042");
  check(check_response(reply, prepare(pool.entries[1]), "0000000042") == Verdict::kWrong,
        "the reply to another request is caught");
  check(check_response("{\"status\":\"overloaded\",\"code\":75}", adv,
                       "0000000042") == Verdict::kRefused,
        "an overloaded reply counts as refused");
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
