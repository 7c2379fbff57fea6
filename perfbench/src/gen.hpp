// gen.hpp — seeded input generation for the benchmark's workloads.
//
// Everything the system under test receives is made here from the
// workload seed: serve request lines, their arrival schedules and the
// sweep configs. The same seed yields byte-identical streams and configs
// (tests/selftest.cpp checks this); the program never sees the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform (unlike the
/// std:: distributions, whose outputs are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                        ///< [0, 1)
  std::uint64_t below(std::uint64_t n);    ///< [0, n), n > 0
  double exponential();                    ///< mean 1
  template <class T>
  const T& pick(const std::vector<T>& v) { return v[below(v.size())]; }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from a parent seed and a tag.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

enum class Op : std::uint8_t { kAdvise, kSearch, kSweep };
const char* op_name(Op op);

/// One request as the serve protocol carries it, minus the correlation id.
/// `fields` holds the JSON members after "op" and "id", e.g.
/// `"model":"gpt3-2.7b","gpu":"a100"`.
struct RequestSpec {
  Op op = Op::kAdvise;
  std::string fields;
};

/// Width of the zero-padded decimal request id every line carries.
inline constexpr std::size_t kIdWidth = 10;

/// The request line `{"op":...,"id":"<id>",<fields>}\n`, with `id`
/// rendered as kIdWidth digits.
std::string request_line(const RequestSpec& spec, std::uint64_t id);
/// Byte offset of the id digits inside request_line(spec, ...).
std::size_t request_id_offset(const RequestSpec& spec);

/// The GPUs every workload spreads its inputs across.
const std::vector<std::string>& workload_gpus();

// ---- serve_advise ---------------------------------------------------

/// The advise/search/sweep request pool, with `sweep_first` the index of
/// the first inline sweep entry (entries from there on are sweeps).
struct AdvisePool {
  std::vector<RequestSpec> entries;
  std::size_t search_first = 0;
  std::size_t sweep_first = 0;
};
AdvisePool advise_pool(std::uint64_t seed);

// ---- sweep_grid -----------------------------------------------------

/// A generated sweep config: decoder heads x hidden grid plus gqa, moe and
/// prefill families across the four workload GPUs (`small` = the few-
/// variant configs the serve_advise workload sends inline).
std::string sweep_config(std::uint64_t seed, std::size_t index, bool small);

// ---- arrivals -------------------------------------------------------

/// One scheduled request: due `t` seconds after the phase starts, asking
/// for pool entry `entry`.
struct Arrival {
  double t = 0.0;
  std::uint32_t entry = 0;
};

/// How a workload picks the request behind each arrival: weighted op
/// classes over the pool ranges.
struct Mix {
  static Mix advise(const AdvisePool& pool);

  std::vector<double> cdf;  ///< over pool entries
};

/// Poisson arrivals at `rate` per second for `seconds`, with requests
/// drawn from `mix`.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double seconds, const Mix& mix);

}  // namespace perfbench
