//===--- Pipeline.cpp - End-to-end profiling pipeline ------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/Lint.h"
#include "frontend/Compiler.h"
#include "ir/Verifier.h"
#include "profile/InstrCheck.h"

using namespace olpp;

namespace {

/// Decides whether R.Lint blocks the pipeline (errors always do, warnings
/// only under --lint-werror) and records one summary error; the individual
/// findings stay in R.Lint for the caller to render.
bool lintFindingsFatal(PipelineResult &R, bool Werror) {
  size_t Fatal = 0;
  for (const Diagnostic &D : R.Lint)
    if (D.Sev == Severity::Error || (Werror && D.Sev == Severity::Warning))
      ++Fatal;
  if (Fatal)
    R.Errors.push_back("lint reported " + std::to_string(Fatal) +
                       " blocking finding(s)");
  return Fatal != 0;
}

} // namespace

PipelineResult olpp::runPipeline(const Module &M,
                                 const PipelineConfig &Config) {
  PipelineResult R;
  R.BaseModule = M.clone();
  R.InstrModule = M.clone();

  const Function *Entry = R.BaseModule->findFunction(Config.EntryName);
  if (!Entry) {
    R.Errors.push_back("entry function '" + Config.EntryName + "' not found");
    return R;
  }

  if (Config.Lint) {
    R.Lint = lintModule(*R.BaseModule);
    if (lintFindingsFatal(R, Config.LintWerror))
      return R;
  }

  // 1. Ground truth only: the pristine module runs with a trace sink, and
  //    the trace is replayed into GroundTruth below.
  VectorTrace Trace;
  int64_t BaseReturn = 0;
  if (Config.CollectGroundTruth) {
    Interpreter I(*R.BaseModule, nullptr, &Trace);
    RunResult Run = I.run(*Entry, Config.Args, Config.Run);
    if (!Run.Ok) {
      R.Errors.push_back("baseline run failed: " + Run.Error);
      return R;
    }
    R.BaseCounts = Run.Counts;
    BaseReturn = Run.ReturnValue;
  }

  // 2. Instrument the clone and run it on the same inputs.
  R.MI = instrumentModule(*R.InstrModule, Config.Instr);
  if (!R.MI.ok()) {
    R.Errors = R.MI.Errors;
    return R;
  }
  std::vector<Diagnostic> VerifyDiags = verifyModuleDiags(*R.InstrModule);
  if (!VerifyDiags.empty()) {
    for (const Diagnostic &D : VerifyDiags)
      R.Errors.push_back("instrumented module is malformed: " +
                         verifierLegacyText(D));
    return R;
  }

  if (Config.Lint) {
    size_t Before = R.Lint.size();
    std::vector<Diagnostic> Check =
        checkInstrumentation(*R.InstrModule, R.MI);
    R.Lint.insert(R.Lint.end(), Check.begin(), Check.end());
    if (R.Lint.size() != Before && lintFindingsFatal(R, Config.LintWerror))
      return R;
  }

  R.Prof = std::make_unique<ProfileRuntime>(R.InstrModule->numFunctions());
  // Declare each function's path-id space so its counters can use the
  // dense store (ids are numbered on the function's path graph).
  for (uint32_t F = 0; F < R.InstrModule->numFunctions(); ++F)
    if (R.MI.Funcs[F].PG)
      R.Prof->configurePathStore(F, R.MI.Funcs[F].PG->numPaths());
  {
    const Function *InstrEntry =
        R.InstrModule->findFunction(Config.EntryName);
    Interpreter I(*R.InstrModule, R.Prof.get(), nullptr);
    RunResult Run = I.run(*InstrEntry, Config.Args, Config.Run);
    if (!Run.Ok) {
      R.Errors.push_back("instrumented run failed: " + Run.Error);
      return R;
    }
    R.InstrCounts = Run.Counts;
    R.ReturnValue = Run.ReturnValue;
    if (Config.CollectGroundTruth && Run.ReturnValue != BaseReturn) {
      R.Errors.push_back(
          "instrumented run returned a different value; probes are not "
          "transparent");
      return R;
    }
    if (Config.CollectGroundTruth &&
        Run.Counts.BaseCost != R.BaseCounts.BaseCost) {
      R.Errors.push_back(
          "instrumented run charged a different base cost; instrumentation "
          "is not all probe cost");
      return R;
    }
  }

  // 3. Ground truth from the trace.
  if (Config.CollectGroundTruth) {
    GroundTruthOptions GTO;
    GTO.CallBreaking = R.MI.Opts.CallBreaking;
    R.GT = GroundTruth::compute(*R.BaseModule, Trace.Events, GTO,
                                R.MI.CallSites);
  }
  return R;
}

PipelineResult olpp::runPipelineOnSource(std::string_view Source,
                                         const PipelineConfig &Config) {
  CompileResult C = compileMiniC(Source);
  if (!C.ok()) {
    PipelineResult R;
    for (const Diag &D : C.Diags)
      R.Errors.push_back(D.str());
    return R;
  }
  return runPipeline(*C.M, Config);
}
