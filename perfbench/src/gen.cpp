#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

double Rng::exponential() { return -std::log1p(-uniform()); }

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  r.next();
  return r.next();
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kAdvise: return "advise";
    case Op::kSearch: return "search";
    case Op::kSweep: return "sweep";
  }
  return "?";
}

std::string request_line(const RequestSpec& spec, std::uint64_t id) {
  char digits[32];
  std::snprintf(digits, sizeof digits, "%0*llu", static_cast<int>(kIdWidth),
                static_cast<unsigned long long>(id));
  std::string line = "{\"op\":\"";
  line += op_name(spec.op);
  line += "\",\"id\":\"";
  line += digits;
  line += "\",";
  line += spec.fields;
  line += "}\n";
  return line;
}

std::size_t request_id_offset(const RequestSpec& spec) {
  return std::char_traits<char>::length("{\"op\":\"") +
         std::char_traits<char>::length(op_name(spec.op)) +
         std::char_traits<char>::length("\",\"id\":\"");
}

const std::vector<std::string>& workload_gpus() {
  static const std::vector<std::string> gpus = {"a100", "h100", "b200",
                                                "mi300x"};
  return gpus;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Zoo models every advise/search request may name (MHA and GQA, GELU and
/// SwiGLU, 70M to 175B).
const std::vector<std::string>& advise_models() {
  static const std::vector<std::string> models = {
      "bert-base",  "bert-large", "gpt3-125m",  "gpt3-350m",   "gpt3-760m",
      "gpt3-1.3b",  "gpt3-2.7b",  "gpt3-6.7b",  "gpt3-13b",    "gpt3-175b",
      "gpt3-2.7b-c1", "gpt3-2.7b-c2", "llama2-7b", "llama2-13b", "llama2-70b",
      "mistral-7b", "falcon-7b",  "pythia-70m", "pythia-410m", "pythia-1.4b",
      "pythia-6.9b", "pythia-12b", "opt-2.7b",  "gpt-neox-20b"};
  return models;
}

/// Search bases: a joint search over a grouped-query model fails config
/// validation (`codesign search llama2-70b --mode=joint` exits 3), so the
/// workload leaves those out.
std::vector<std::string> search_models() {
  std::vector<std::string> models;
  for (const std::string& m : advise_models()) {
    if (m != "llama2-70b" && m != "mistral-7b") models.push_back(m);
  }
  return models;
}

/// Multi-head decoder bases: grids replace both h and a, so the base must
/// not pin a KV-head count.
const std::vector<std::string>& decoder_models() {
  static const std::vector<std::string> models = {
      "gpt3-1.3b", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b",
      "llama2-7b", "llama2-13b", "pythia-1b", "opt-2.7b"};
  return models;
}

std::string join(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out;
}

std::vector<std::int64_t> divisors_at_least(std::int64_t n, std::int64_t lo) {
  std::vector<std::int64_t> d;
  for (std::int64_t i = lo; i <= n; ++i) {
    if (n % i == 0) d.push_back(i);
  }
  return d;
}

/// A sorted, distinct subset of `values` of size `k` (all when k >= size).
std::vector<std::int64_t> subset(Rng& r, std::vector<std::int64_t> values,
                                 std::size_t k) {
  while (values.size() > k) {
    values.erase(values.begin() +
                 static_cast<std::ptrdiff_t>(r.below(values.size())));
  }
  return values;
}

}  // namespace

AdvisePool advise_pool(std::uint64_t seed) {
  Rng r(derive(seed, 3));
  AdvisePool pool;
  const auto& gpus = workload_gpus();
  // Every (model, gpu) pair once; a seeded quarter of them (exactly)
  // with attribution, so the work per request does not vary with the seed.
  const std::size_t pairs = advise_models().size() * gpus.size();
  std::vector<bool> attribution(pairs, false);
  for (std::size_t marked = 0; marked < pairs / 4;) {
    const std::size_t i = r.below(pairs);
    if (!attribution[i]) {
      attribution[i] = true;
      ++marked;
    }
  }
  for (const std::string& model : advise_models()) {
    for (const std::string& gpu : gpus) {
      RequestSpec s;
      s.op = Op::kAdvise;
      s.fields = "\"model\":\"" + model + "\",\"gpu\":\"" + gpu + "\"";
      if (attribution[pool.entries.size()]) s.fields += ",\"attribution\":true";
      pool.entries.push_back(std::move(s));
    }
  }
  // One joint search per searchable model, on a seeded GPU.
  pool.search_first = pool.entries.size();
  for (const std::string& model : search_models()) {
    RequestSpec s;
    s.op = Op::kSearch;
    s.fields = "\"model\":\"" + model + "\",\"gpu\":\"" + r.pick(gpus) +
               "\",\"mode\":\"joint\"";
    pool.entries.push_back(std::move(s));
  }
  pool.sweep_first = pool.entries.size();
  for (std::size_t i = 0; i < 8; ++i) {
    RequestSpec s;
    s.op = Op::kSweep;
    s.fields = "\"config\":" + json_string(sweep_config(seed, i, true)) +
               ",\"origin\":\"inline-" + std::to_string(i) + "\"";
    pool.entries.push_back(std::move(s));
  }
  return pool;
}

std::string sweep_config(std::uint64_t seed, std::size_t index, bool small) {
  Rng r(derive(derive(seed, small ? 5 : 4), index));
  std::string c = "[sweep]\nname = " + std::string(small ? "inline" : "grid") +
                  "-" + std::to_string(index) + "\ngpus = ";
  std::vector<std::string> gpus = workload_gpus();
  if (small) gpus = {gpus[index % gpus.size()]};
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    c += (i > 0 ? ", " : "") + gpus[i];
  }
  c += "\n\n";

  // The base models and the grid unit follow the config's index, not the
  // seed, and the variant counts are fixed, so the work per cycle of
  // configs does not depend on the seed; the seed picks the grids.
  const auto& bases = decoder_models();
  auto base = [&](std::size_t k) { return bases[(index * 3 + k) % bases.size()]; };

  // Decoder heads x hidden grid. Heads are divisors of a unit u and hidden
  // sizes multiples of u, so every pair is a legal config while head_dim
  // = hidden/heads still runs through aligned and unaligned values.
  const std::int64_t unit = std::vector<std::int64_t>{64, 96, 128, 192}[index % 4];
  const std::vector<std::int64_t> heads =
      subset(r, divisors_at_least(unit, 4), small ? 3 : 5);
  std::vector<std::int64_t> hidden;
  const std::int64_t first = (1024 + unit - 1) / unit +
                             static_cast<std::int64_t>(r.below(8));
  const std::int64_t count = small ? 3 : 400;
  for (std::int64_t j = 0; j < count; ++j) {
    hidden.push_back(unit * (first + j * (small ? 5 : 1)));
  }
  c += "[workload]\nfamily = decoder\nname = dec\nmodel = " +
       base(0) + "\nheads = " + join(heads) +
       "\nhidden = " + join(hidden) + "\n\n";

  // GQA: KV ratios of a 64-head (8 KV groups) or 32-head base.
  const bool big = index % 2 == 1;
  c += std::string("[workload]\nfamily = gqa\nname = gqa\nmodel = ") +
       (big ? "llama2-70b" : "llama2-7b") + "\nkv_ratios = " +
       join(subset(r, divisors_at_least(big ? 8 : 32, 1), small ? 2 : 4)) +
       "\n\n";

  // MoE: experts x top_k, top_k never above the smallest expert count.
  const std::vector<std::int64_t> experts =
      subset(r, {16, 32, 64, 128, 256}, small ? 1 : 4);
  const std::vector<std::int64_t> top_k = subset(r, {1, 2, 4, 8}, small ? 2 : 3);
  c += "[workload]\nfamily = moe\nname = moe\nmodel = " +
       base(1) + "\nexperts = " + join(experts) +
       "\ntop_k = " + join(top_k) + "\n\n";

  // Prefill: distinct sequence lengths from 128 to 16k, aligned and not.
  std::vector<std::int64_t> seqs;
  const std::size_t nseq = small ? 2 : 40;
  while (seqs.size() < nseq) {
    const double v = std::exp(std::log(128.0) + r.uniform() * std::log(128.0));
    const std::int64_t s = r.uniform() < 0.5
                               ? static_cast<std::int64_t>(v) / 128 * 128
                               : static_cast<std::int64_t>(v);
    if (std::find(seqs.begin(), seqs.end(), s) == seqs.end()) seqs.push_back(s);
  }
  std::sort(seqs.begin(), seqs.end());
  c += "[workload]\nfamily = prefill\nname = prefill\nmodel = " +
       base(2) + "\nseq_lens = " + join(seqs) + "\n";
  return c;
}

Mix Mix::advise(const AdvisePool& pool) {
  // 70% advise, 28% joint search, 2% inline sweeps; uniform within each.
  Mix m;
  const std::size_t n = pool.entries.size();
  const double n_adv = static_cast<double>(pool.search_first);
  const double n_search = static_cast<double>(pool.sweep_first - pool.search_first);
  const double n_sweep = static_cast<double>(n - pool.sweep_first);
  m.cdf.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += i < pool.search_first  ? 0.70 / n_adv
           : i < pool.sweep_first ? 0.28 / n_search
                                  : 0.02 / n_sweep;
    m.cdf[i] = sum;
  }
  for (double& v : m.cdf) v /= sum;
  return m;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double seconds, const Mix& mix) {
  Rng r(derive(seed, 6));
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += r.exponential() / rate;
    if (t >= seconds) break;
    Arrival a;
    a.t = t;
    const double u = r.uniform();
    a.entry = static_cast<std::uint32_t>(
        std::lower_bound(mix.cdf.begin(), mix.cdf.end(), u) - mix.cdf.begin());
    if (a.entry >= mix.cdf.size()) a.entry = static_cast<std::uint32_t>(mix.cdf.size() - 1);
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench
