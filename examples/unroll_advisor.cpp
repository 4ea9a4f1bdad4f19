//===--- unroll_advisor.cpp - loop unrolling guided by overlap profiles ---------===//
//
// Part of the OLPP project, under the MIT License.
//
// The paper's motivating scenario for loop overlap profiles: when a
// scheduler unrolls a loop once (e.g. before trace scheduling), it needs
// frequencies of *two-iteration* paths to pick the trace. This example
// profiles a workload with overlapping paths, estimates every
// two-iteration path's frequency, and reports per loop whether one
// dominant i ! j pair covers enough flow to justify unrolling — something
// plain Ball-Larus bounds are too loose to decide.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace olpp;

static EstimateMetrics estimateAt(const Workload &W, int Degree,
                                  PipelineResult &ROut) {
  PipelineConfig Config;
  if (Degree >= 0) {
    Config.Instr.LoopOverlap = true;
    Config.Instr.LoopDegree = static_cast<uint32_t>(Degree);
  }
  Config.Args = W.PrecisionArgs;
  Config.CollectGroundTruth = true; // the Real flow the bounds bracket
  ROut = runPipelineOnSource(W.Source, Config);
  if (!ROut.ok()) {
    std::fprintf(stderr, "error: %s\n", ROut.Errors[0].c_str());
    std::exit(1);
  }
  ModuleEstimator Est(*ROut.InstrModule, ROut.MI, *ROut.Prof);
  return Est.estimateLoops(&ROut.GT);
}

int main(int Argc, char **Argv) {
  const char *Name = Argc > 1 ? Argv[1] : "twolf";
  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name);
    return 1;
  }

  std::printf("unroll advisor on workload '%s'\n\n", Name);

  // Step 1: how useful are plain BL profiles for the decision?
  PipelineResult RBl;
  EstimateMetrics Bl = estimateAt(*W, -1, RBl);
  std::printf("plain BL bounds on two-iteration flow: definite %s, "
              "potential %s (real %s)\n",
              formatInt(static_cast<int64_t>(Bl.Definite)).c_str(),
              formatInt(static_cast<int64_t>(Bl.Potential)).c_str(),
              formatInt(static_cast<int64_t>(Bl.Real)).c_str());

  // Step 2: overlapping profiles at a modest degree.
  PipelineResult ROl;
  EstimateMetrics Ol = estimateAt(*W, 2, ROl);
  std::printf("OL-2 bounds:                           definite %s, "
              "potential %s\n\n",
              formatInt(static_cast<int64_t>(Ol.Definite)).c_str(),
              formatInt(static_cast<int64_t>(Ol.Potential)).c_str());

  // Step 3: per-loop verdicts from the overlap run.
  ModuleEstimator Est(*ROl.InstrModule, ROl.MI, *ROl.Prof);
  TableWriter T({"Function", "Loop Header", "2-Iter Flow (definite)",
                 "Exact Pairs", "Verdict"});
  for (uint32_t F = 0; F < ROl.InstrModule->numFunctions(); ++F) {
    const auto &Meta = ROl.MI.Funcs[F];
    for (uint32_t L = 0; L < Meta.Loops->numLoops(); ++L) {
      EstimateMetrics M = Est.estimateLoop(F, L, &ROl.GT);
      if (M.Pairs == 0 || M.Real == 0)
        continue;
      double ExactShare = 100.0 * static_cast<double>(M.ExactPairs) /
                          static_cast<double>(M.Pairs);
      // Unroll when the dominant two-iteration behaviour is well resolved
      // and the loop is hot.
      const char *Verdict =
          M.Definite > 1000 && ExactShare > 60.0 ? "unroll" : "leave";
      T.addRow({ROl.InstrModule->function(F)->Name,
                "^" + std::to_string(Meta.Loops->loop(L).Header),
                formatInt(static_cast<int64_t>(M.Definite)),
                formatFixed(ExactShare, 0) + " %", Verdict});
    }
  }
  std::fputs(T.renderText().c_str(), stdout);
  return 0;
}
