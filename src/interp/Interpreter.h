//===--- Interpreter.h - OLPP IR interpreter --------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic interpreter for the OLPP IR. It executes probes against a
/// ProfileRuntime, streams control flow into a TraceSink, and keeps the
/// dynamic-cost counters (interp/CostModel.h) used to reproduce the paper's
/// overhead experiments. Runtime faults (division by zero, array bounds,
/// call-depth and fuel exhaustion) abort the run with a diagnostic instead
/// of raising exceptions.
///
/// Two engines execute the same semantics:
///   - Fast (default): a pre-decoded flat execution form (interp/ExecPlan.h)
///     driven by a tight single-switch dispatch loop over contiguous code,
///     register and loop-slot arrays.
///   - Reference: the original tree-walking loop over BasicBlock pointers,
///     kept as the differential-testing oracle (`olpp ... --engine=reference`).
/// Both produce bit-identical DynCounts, counter stores, traces and
/// diagnostics; tests/interp/EngineDiffTest.cpp enforces this across the
/// whole workload suite.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_INTERP_INTERPRETER_H
#define OLPP_INTERP_INTERPRETER_H

#include "interp/TraceTier.h"
#include "ir/Module.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace olpp {

class ProfileRuntime;
class TraceSink;
struct ExecPlan;

/// Which execution engine runs the program.
enum class EngineKind : uint8_t {
  Fast,      ///< pre-decoded flat execution form (the default)
  Reference, ///< original pointer-chasing loop; the differential oracle
};

/// Parses "fast" / "reference"; returns false on anything else.
bool parseEngineKind(const std::string &Name, EngineKind &Out);
const char *engineKindName(EngineKind E);

/// Limits and inputs of one run.
struct RunConfig {
  /// Maximum executed instructions (probes included) before the run is
  /// aborted as a suspected non-terminating program.
  uint64_t MaxSteps = 500'000'000;
  uint32_t MaxCallDepth = 4096;
  EngineKind Engine = EngineKind::Fast;

  /// Hot-path tracing tier (fast engine only; see interp/TraceTier.h).
  /// Traces never change observable results — counters, DynCounts, traces
  /// and diagnostics stay bit-exact — so the tier defaults on. It disables
  /// itself automatically when a TraceSink is attached (the recorder needs
  /// the sink slot) or when no ProfileRuntime is present (no hotness
  /// signal without OL path completions).
  bool EnableTraces = true;
  /// OL path-id completions of one path before recording triggers
  /// (0 = record on the first completion).
  uint32_t TraceThreshold = 32;

  /// Trace-local optimizer: guard pass budgets (interp/TraceOpt.h).
  /// EnableTraceOpt off means compiled traces check every guard on every
  /// pass (the honest A/B baseline for --no-trace-opt).
  bool EnableTraceOpt = true;
  /// Fuzz-only planted optimizer bug (FaultKind::DropTraceGuard).
  bool TraceOptDropGuardFault = false;
};

/// Dynamic counters of one run.
struct DynCounts {
  uint64_t BaseCost = 0;  ///< cost units of ordinary instructions
  uint64_t ProbeCost = 0; ///< cost units of probe micro-ops
  uint64_t Steps = 0;     ///< executed instructions (probes included)
  uint64_t Blocks = 0;    ///< basic block entries
  uint64_t Calls = 0;     ///< executed call instructions

  /// Instrumentation overhead in percent of one instrumented run: probe
  /// cost over base cost. Equal, bit for bit, to overheadPercentOver the
  /// uninstrumented run, whose base cost is this run's (the jumps of
  /// edge-split blocks are probe cost).
  double overheadPercent() const {
    if (BaseCost == 0)
      return 0.0;
    return 100.0 * static_cast<double>(ProbeCost) /
           static_cast<double>(BaseCost);
  }
  /// Instrumentation overhead in percent relative to \p Baseline (the same
  /// program executed uninstrumented).
  double overheadPercentOver(const DynCounts &Baseline) const {
    if (Baseline.BaseCost == 0)
      return 0.0;
    return 100.0 * static_cast<double>(totalCost() - Baseline.BaseCost) /
           static_cast<double>(Baseline.BaseCost);
  }
  uint64_t totalCost() const { return BaseCost + ProbeCost; }

  bool operator==(const DynCounts &O) const {
    return BaseCost == O.BaseCost && ProbeCost == O.ProbeCost &&
           Steps == O.Steps && Blocks == O.Blocks && Calls == O.Calls;
  }
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  int64_t ReturnValue = 0;
  DynCounts Counts;
  /// Tracing-tier activity of this run (all zero for the reference engine
  /// or when the tier is disabled).
  TraceTierStats Trace;
};

/// Executes functions of one module. The module must stay alive for the
/// interpreter's lifetime and must not be mutated after the first fast-engine
/// run (the pre-decoded plan is built once and cached). Global state persists
/// across run() calls; use resetGlobals() between independent runs.
class Interpreter {
public:
  /// \p Prof may be null (probes become free no-ops); \p Trace may be null.
  Interpreter(const Module &M, ProfileRuntime *Prof = nullptr,
              TraceSink *Trace = nullptr);
  ~Interpreter();

  /// Runs \p Entry with \p Args (must match the arity).
  RunResult run(const Function &Entry, const std::vector<int64_t> &Args,
                const RunConfig &Config = RunConfig());

  /// Zeroes all global scalars and arrays.
  void resetGlobals();

private:
  RunResult runReference(const Function &Entry,
                         const std::vector<int64_t> &Args,
                         const RunConfig &Config);
  RunResult runFast(const Function &Entry, const std::vector<int64_t> &Args,
                    const RunConfig &Config);
  const ExecPlan &ensurePlan();

  const Module &M;
  ProfileRuntime *Prof;
  TraceSink *Trace;
  std::vector<std::vector<int64_t>> Globals; // one vector per global
  /// The pre-decoded plan, fetched lazily from the process-wide
  /// ExecPlanCache; shared (immutably) with every other interpreter of a
  /// content-identical module.
  std::shared_ptr<const ExecPlan> Plan;
};

} // namespace olpp

#endif // OLPP_INTERP_INTERPRETER_H
