//===--- Pipeline.h - End-to-end profiling pipeline -------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call workflow behind `olpp profile` and `olpp estimate` and used
/// by the benches, examples and integration tests: given a module (or
/// MiniC source) and instrumentation options, instrument a clone and run
/// it once -> raw profiles, return value, base and probe cost. That one
/// run also gives the overhead: the jumps of edge-split blocks are charged
/// as probe cost (interp/CostModel.h), so its base cost is the pristine
/// program's.
///
/// Ground truth is opt-in (PipelineConfig::CollectGroundTruth). Only then
/// does the pristine module run as well, with a control-flow trace that is
/// replayed into GroundTruth; the two runs see identical inputs, so the
/// trace describes exactly the execution the profile summarizes, and the
/// pipeline checks that both return the same value at the same base cost.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_DRIVER_PIPELINE_H
#define OLPP_DRIVER_PIPELINE_H

#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"
#include "support/Diagnostic.h"
#include "wpp/GroundTruth.h"

#include <memory>
#include <string>
#include <vector>

namespace olpp {

struct PipelineConfig {
  InstrumentOptions Instr;
  std::string EntryName = "main";
  std::vector<int64_t> Args;
  RunConfig Run;
  /// Also run the pristine module with a control-flow trace and replay it
  /// into PipelineResult::GT (and BaseCounts). Off by default: the trace
  /// costs a second run, its replay and memory proportional to the run's
  /// length, and only callers that compare bounds against the real counts
  /// need it.
  bool CollectGroundTruth = false;
  /// Run the lint passes over the base module and the instrumentation
  /// invariant checker over the instrumented one; findings land in
  /// PipelineResult::Lint. Lint errors always abort the pipeline.
  bool Lint = false;
  /// Treat lint warnings as fatal too.
  bool LintWerror = false;
};

struct PipelineResult {
  std::unique_ptr<Module> BaseModule;  ///< pristine copy (traced for GT)
  std::unique_ptr<Module> InstrModule; ///< instrumented copy that profiled
  ModuleInstrumentation MI;
  std::unique_ptr<ProfileRuntime> Prof;
  GroundTruth GT;         ///< empty unless CollectGroundTruth
  DynCounts BaseCounts;   ///< pristine run; zero unless CollectGroundTruth
  DynCounts InstrCounts;  ///< the instrumented run
  int64_t ReturnValue = 0;
  std::vector<std::string> Errors;
  /// Lint and instr-check findings (only populated with Config.Lint).
  std::vector<Diagnostic> Lint;

  bool ok() const { return Errors.empty(); }
  /// Instrumentation overhead in percent (the paper's Table 9 metric),
  /// from the instrumented run alone.
  double overheadPercent() const { return InstrCounts.overheadPercent(); }
};

/// Runs the pipeline on a clone of \p M.
PipelineResult runPipeline(const Module &M, const PipelineConfig &Config);

/// Compiles \p Source first; compile diagnostics land in Errors.
PipelineResult runPipelineOnSource(std::string_view Source,
                                   const PipelineConfig &Config);

} // namespace olpp

#endif // OLPP_DRIVER_PIPELINE_H
