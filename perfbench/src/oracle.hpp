// oracle.hpp — the expected bytes of every serve response.
//
// The serve ≡ CLI contract: a served payload is byte-identical to what the
// one-shot path prints for the same request. The oracle runs each request
// through serve::execute_op in this process (no server) and wraps the result in the same envelope the server writes, with a
// placeholder id; check_response() then compares a received line byte for
// byte with the id spliced in.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gen.hpp"

namespace perfbench {

/// A request line and its expected response, both with a placeholder id.
struct Prepared {
  Op op = Op::kAdvise;
  std::string request;        ///< request_line(spec, 0)
  std::size_t request_id_off = 0;
  std::string expected;       ///< the ok envelope, id "0000000000"
  std::size_t expected_id_off = 0;
  /// Design points the request evaluates: 1 for an advise, the
  /// evaluated candidates or variants for a search or a sweep.
  std::uint64_t points = 1;
};

/// Run `spec` through the one-shot path and build its Prepared record.
/// Throws whatever execute_op throws (a workload must not fail).
Prepared prepare(const RequestSpec& spec);

enum class Verdict { kOk, kWrong, kRefused, kError };

/// Classify one response line (without its '\n') for request `p` sent
/// with the kIdWidth id digits `id`.
Verdict check_response(std::string_view line, const Prepared& p,
                       std::string_view id);

/// The id digits of a response line, or empty when it carries none.
std::string_view response_id(std::string_view line);

}  // namespace perfbench
