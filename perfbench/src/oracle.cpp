#include "oracle.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "gemmsim/estimate_cache.hpp"
#include "obs/req_scope.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {
constexpr std::string_view kIdKey = "\"id\":\"";
}  // namespace

Prepared prepare(const RequestSpec& spec) {
  Prepared p;
  p.op = spec.op;
  p.request = request_line(spec, 0);
  p.request_id_off = request_id_offset(spec);
  const std::string id(kIdWidth, '0');
  const codesign::serve::Request req = codesign::serve::parse_request(
      std::string_view(p.request).substr(0, p.request.size() - 1));
  // A server always has its shared estimate cache, and the search banner
  // says so ("cached"), like `codesign search --cache`; the oracle runs
  // with one too.
  static const auto cache = std::make_shared<codesign::gemm::EstimateCache>();
  codesign::serve::OpContext context;
  context.cache = cache;
  codesign::obs::RequestScopeCounters counters;
  codesign::serve::OpResult r;
  {
    const codesign::obs::RequestScope::Bind bind(&counters);
    r = codesign::serve::execute_op(req, context);
  }
  p.points = std::max<std::uint64_t>(1, counters.search_candidates);
  p.expected = codesign::serve::ok_response(id, r.code, r.payload,
                                            r.attribution);
  p.expected.pop_back();  // compared without the framing newline
  const std::size_t at = p.expected.find(std::string(kIdKey) + id + "\"");
  if (at == std::string::npos) {
    throw std::runtime_error("oracle: no id in the expected envelope");
  }
  p.expected_id_off = at + kIdKey.size();
  return p;
}

std::string_view response_id(std::string_view line) {
  const std::size_t at = line.substr(0, 64).find(kIdKey);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + kIdKey.size();
  if (line.size() < from + kIdWidth) return {};
  return line.substr(from, kIdWidth);
}

Verdict check_response(std::string_view line, const Prepared& p,
                       std::string_view id) {
  if (line.starts_with("{\"status\":\"overloaded\"")) return Verdict::kRefused;
  if (line.starts_with("{\"status\":\"error\"")) return Verdict::kError;
  const std::string& e = p.expected;
  const std::size_t off = p.expected_id_off;
  if (line.size() != e.size() || id.size() != kIdWidth) return Verdict::kWrong;
  const bool same =
      std::memcmp(line.data(), e.data(), off) == 0 &&
      std::memcmp(line.data() + off, id.data(), kIdWidth) == 0 &&
      std::memcmp(line.data() + off + kIdWidth, e.data() + off + kIdWidth,
                  e.size() - off - kIdWidth) == 0;
  return same ? Verdict::kOk : Verdict::kWrong;
}

}  // namespace perfbench
