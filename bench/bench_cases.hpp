// bench_cases.hpp — the roster of bench source registration hooks.
//
// Every bench_*.cpp defines one CODESIGN_BENCH(id) hook; bench_cases.cpp
// lists them all once and register_all() calls each exactly once. The
// roster is explicit (no static-initializer registration) so the figure
// and case sets are deterministic, link-order independent, and survive
// static-library dead-stripping. Adding a bench = one CODESIGN_BENCH hook
// there plus one line in the roster.
#pragma once

#include "bench_common.hpp"

namespace codesign::bench {

/// Populate `roster` with every figure and timing case of every bench
/// source. Throws codesign::Error on a duplicate figure or case name
/// (i.e. a roster bug).
void register_all(Roster& roster);

}  // namespace codesign::bench
