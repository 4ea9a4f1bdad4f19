//===--- degree_tuning.cpp - choosing the degree of overlap ----------------------===//
//
// Part of the OLPP project, under the MIT License.
//
// The paper's central trade-off, as a tool: sweep the overlap degree on a
// workload and print precision (definite/potential error, exactly-known
// paths) against instrumentation overhead, so a user can pick the k that
// buys enough precision for their optimization. The paper's answer — about
// a third of the maximum — falls out of this table.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace olpp;

int main(int Argc, char **Argv) {
  const char *Name = Argc > 1 ? Argv[1] : "gcc";
  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'; available:", Name);
    for (const Workload &Each : allWorkloads())
      std::fprintf(stderr, " %s", Each.Name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  CompileResult CR = compileMiniC(W->Source);
  if (!CR.ok()) {
    std::fprintf(stderr, "%s", CR.diagText().c_str());
    return 1;
  }
  DegreeLimits Lim = computeDegreeLimits(*CR.M, /*CallBreaking=*/true);
  uint32_t Max = std::max(Lim.MaxLoopDegree, Lim.MaxInterprocDegree);

  std::printf("degree tuning for '%s' (max useful degree %u)\n\n", Name, Max);
  TableWriter T({"Overlap k", "Definite Err", "Potential Err",
                 "Exactly Known", "Overhead"});

  for (int K = -1; K <= static_cast<int>(Max); ++K) {
    PipelineConfig Config;
    if (K < 0) {
      Config.Instr.CallBreaking = true;
    } else {
      Config.Instr.LoopOverlap = true;
      Config.Instr.LoopDegree = static_cast<uint32_t>(K);
      Config.Instr.Interproc = true;
      Config.Instr.InterprocDegree = static_cast<uint32_t>(K);
    }
    Config.Args = W->PrecisionArgs;
    Config.CollectGroundTruth = true; // the Real flow the bounds bracket
    PipelineResult R = runPipeline(*CR.M, Config);
    if (!R.ok()) {
      std::fprintf(stderr, "error: %s\n", R.Errors[0].c_str());
      return 1;
    }
    ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
    EstimateMetrics M = Est.estimateAll(&R.GT);
    double ExactShare = M.Pairs == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(M.ExactPairs) /
                                  static_cast<double>(M.Pairs);
    T.addRow({K < 0 ? "BL" : std::to_string(K),
              formatSignedPercent(M.definiteErrorPercent()),
              formatSignedPercent(M.potentialErrorPercent()),
              formatFixed(ExactShare, 1) + " %",
              formatFixed(R.overheadPercent(), 1) + " %"});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("\n(pick the first k where the error column is tight enough\n"
              " for your optimization; the overhead column is the price)\n");
  return 0;
}
