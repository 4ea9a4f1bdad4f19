//===--- Bounds.cpp - Definite/potential bounds as estimate prints them ---===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bounds.h"

#include "Spans.h"

#include "analysis/Feasibility.h"
#include "analysis/Summary.h"
#include "ir/Module.h"

#include <memory>

using namespace olpp;

namespace perfbench {

BoundsResult solveBounds(const Module &InstrM, const ModuleInstrumentation &MI,
                         const ProfileRuntime &Prof, const GroundTruth *GT,
                         bool KeepRows) {
  ModuleSummaries Sums;
  std::unique_ptr<PathFeasibility> PF;
  {
    Tracer::Scope S("analysis.feasibility");
    Sums = computeSummaries(InstrM);
    PF = std::make_unique<PathFeasibility>(InstrM, &Sums);
  }
  Tracer::Scope S("estimate.solve");
  ModuleEstimator Est(InstrM, MI, Prof);
  Est.setFeasibility(PF.get());
  BoundsResult Out;
  auto Keep = [&](const char *Kind, std::string Where,
                  const EstimateMetrics &Met) {
    Out.Total.add(Met);
    if (KeepRows && Met.Pairs)
      Out.Rows.push_back({Kind, std::move(Where), Met});
  };
  for (uint32_t F = 0; F < InstrM.numFunctions(); ++F) {
    const FunctionInstrumentation &Meta = MI.Funcs[F];
    for (uint32_t L = 0; L < Meta.Loops->numLoops(); ++L)
      Keep("loop",
           InstrM.function(F)->Name + " ^" +
               std::to_string(Meta.Loops->loop(L).Header),
           Est.estimateLoop(F, L, GT));
  }
  for (const CallSiteInfo &CS : MI.CallSites) {
    std::string Where = InstrM.function(CS.Func)->Name + " -> " +
                        InstrM.function(CS.Callee)->Name;
    Keep("type I", Where, Est.estimateCallSiteTypeI(CS.CsId, GT));
    Keep("type II", Where, Est.estimateCallSiteTypeII(CS.CsId, GT));
  }
  return Out;
}

} // namespace perfbench
