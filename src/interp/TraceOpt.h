//===--- TraceOpt.h - Trace-local optimizer ---------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-local optimizer over CompiledTrace (interp/TraceTier.h). The
/// compiler already elides every probe — probe state lives symbolically
/// and counter bumps are a precomputed side table — so what is left to
/// attack is the per-pass guard sweep. optimizeTrace computes one pass
/// budget per entry guard (GuardBudget) from the collapsed PassEffects,
/// letting the executor run a batch of K passes with a single guard sweep
/// and one scaled effect application instead of K of each.
///
/// The optimizer changes neither the step vector nor accounting, so a
/// deopt restores exactly the state the compiled trace itself tracks and
/// DynCounts stay bit-identical to the untraced engine. RunConfig::
/// EnableTraceOpt (--no-trace-opt) turns it off for the A/B lane.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_INTERP_TRACEOPT_H
#define OLPP_INTERP_TRACEOPT_H

#include "interp/TraceTier.h"

#include <string>

namespace olpp {

/// Computes \p T's guard pass budgets. Safe on any compiled trace.
/// \p FaultDropGuard is a fuzz-only planted bug: it also
/// deletes the last branch guard of the body, and the differential trace
/// oracle must catch the resulting divergence (fuzz/Fuzzer.h
/// FaultKind::DropTraceGuard).
void optimizeTrace(CompiledTrace &T, bool FaultDropGuard = false);

/// Deterministic text dump of a compiled trace body (goldens + debugging).
std::string dumpTrace(const CompiledTrace &T);

} // namespace olpp

#endif // OLPP_INTERP_TRACEOPT_H
