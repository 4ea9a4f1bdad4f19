//===--- inline_advisor.cpp - call-site specialization from Type I/II profiles ---===//
//
// Part of the OLPP project, under the MIT License.
//
// The paper's interprocedural motivation (e.g. interprocedural conditional
// branch elimination): optimizations want to know which caller path leads
// to which callee path. This example collects Type I overlapping profiles
// and reports, per call site, how concentrated the caller-path x
// callee-path distribution is — a concentrated site is a good candidate
// for inlining + path specialization.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace olpp;

int main(int Argc, char **Argv) {
  const char *Name = Argc > 1 ? Argv[1] : "vortex";
  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name);
    return 1;
  }

  PipelineConfig Config;
  Config.Instr.Interproc = true;
  Config.Instr.InterprocDegree = 3;
  Config.Args = W->PrecisionArgs;
  Config.CollectGroundTruth = true; // the real Type I pair counts
  PipelineResult R = runPipelineOnSource(W->Source, Config);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Errors[0].c_str());
    return 1;
  }

  std::printf("inline advisor on workload '%s' (Type I overlap degree 3)\n\n",
              Name);

  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
  TableWriter T({"Call Site", "Caller -> Callee", "Calls", "Pairs",
                 "Exactly Known", "Dominant Pair", "Advice"});
  for (const CallSiteInfo &CS : R.MI.CallSites) {
    EstimateMetrics M = Est.estimateCallSiteTypeI(CS.CsId, &R.GT);
    if (M.Real == 0)
      continue;

    // Dominant pair share from the ground truth (what a production tool
    // would take from the OL profile itself once bounds are exact).
    uint64_t Best = 0;
    for (const auto &[Callee, Pairs] : R.GT.CallSites[CS.CsId].TypeIPairs)
      for (const auto &[K, C] : Pairs)
        Best = std::max(Best, C);
    double Share = 100.0 * static_cast<double>(Best) /
                   static_cast<double>(M.Real);
    double ExactShare = M.Pairs == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(M.ExactPairs) /
                                  static_cast<double>(M.Pairs);
    const char *Advice = Share > 70.0 && M.Real > 500
                             ? "inline + specialize"
                             : (Share > 40.0 ? "consider" : "leave");
    T.addRow({"cs" + std::to_string(CS.CsId),
              R.InstrModule->function(CS.Func)->Name + " -> " +
                  R.InstrModule->function(CS.Callee)->Name,
              formatInt(static_cast<int64_t>(M.Real)),
              std::to_string(M.Pairs), formatFixed(ExactShare, 0) + " %",
              formatFixed(Share, 0) + " %", Advice});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("\n(a dominant caller-path ! callee-path pair means the callee"
              "\n body can be specialized for the path that feeds it)\n");
  return 0;
}
