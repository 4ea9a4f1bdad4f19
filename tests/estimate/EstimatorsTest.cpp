//===--- EstimatorsTest.cpp - estimator API tests -------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/Feasibility.h"
#include "analysis/Summary.h"
#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "workloads/Workloads.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;
using namespace olpp::testutil;

namespace {

// Two iteration paths chosen by a strictly alternating condition: the real
// two-iteration behaviour is A!B and B!A only, which loose BL bounds cannot
// see but degree-2 overlap pins exactly.
const char *Alternating = R"(
  fn main(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
      if (i % 2 == 0) { s = s + 1; }
      else { s = s + 100; }
    }
    return s;
  })";

PipelineResult run(const char *Src, InstrumentOptions O,
                   std::vector<int64_t> Args) {
  PipelineConfig C;
  C.Instr = O;
  C.Args = std::move(Args);
  C.CollectGroundTruth = true;
  PipelineResult R = runPipelineOnSource(Src, C);
  EXPECT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  return R;
}

} // namespace

TEST(Estimators, AlternatingLoopRealFlowIsCorrect) {
  InstrumentOptions O;
  PipelineResult R = run(Alternating, O, {20});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
  EstimateMetrics M = Est.estimateLoops(&R.GT);
  // 20 iterations; the for-loop returns to its header after each one
  // (including the last) -> 20 backedge crossings.
  EXPECT_EQ(M.Real, 20u);
  EXPECT_LE(M.Definite, 20u);
  EXPECT_GE(M.Potential, 20u);
  EXPECT_EQ(M.Problems, 1u);
}

TEST(Estimators, AlternationInvisibleToBLButExactAtDegreeTwo) {
  InstrumentOptions Bl;
  PipelineResult RBl = run(Alternating, Bl, {40});
  ModuleEstimator EstBl(*RBl.InstrModule, RBl.MI, *RBl.Prof);
  EstimateMetrics MBl = EstBl.estimateLoops(&RBl.GT);
  // BL knows each iteration class runs ~20 times but cannot tell A!B+B!A
  // from A!A+B!B, so some pairs stay inexact.
  EXPECT_LT(MBl.ExactPairs, MBl.Pairs);
  EXPECT_LT(MBl.Definite, MBl.Real);
  EXPECT_GT(MBl.Potential, MBl.Real);

  InstrumentOptions Ol;
  Ol.LoopOverlap = true;
  Ol.LoopDegree = 2;
  PipelineResult ROl = run(Alternating, Ol, {40});
  ModuleEstimator EstOl(*ROl.InstrModule, ROl.MI, *ROl.Prof);
  EstimateMetrics MOl = EstOl.estimateLoops(&ROl.GT);
  EXPECT_EQ(MOl.Definite, MOl.Real);
  EXPECT_EQ(MOl.Potential, MOl.Real);
  EXPECT_EQ(MOl.ExactPairs, MOl.Pairs);
}

TEST(Estimators, SkewedCallSiteTypeIBounds) {
  // 90% of calls take one caller path; Type I overlap resolves which
  // callee path each caller path feeds.
  const char *Src = R"(
    fn sign(x) { if (x < 0) { return -1; } if (x > 0) { return 1; }
                 return 0; }
    fn main(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        if (i % 10 == 0) { s = s + sign(-i); }
        else { s = s + sign(i); }
      }
      return s;
    })";
  InstrumentOptions O;
  O.Interproc = true;
  O.InterprocDegree = 2;
  PipelineResult R = run(Src, O, {50});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
  EstimateMetrics M1 = Est.estimateTypeI(&R.GT);
  EXPECT_EQ(M1.Real, 50u); // one Type I instance per call
  EXPECT_FALSE(M1.SoundnessViolated);
  EXPECT_GE(M1.ExactPairs * 2, M1.Pairs)
      << "degree-2 prefixes should pin most caller!callee pairs";
}

TEST(Estimators, TypeIIRowsComeFromTuples) {
  const char *Src = R"(
    fn pick(x) { if (x & 1) { return 1; } return 2; }
    fn main(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        var v = pick(i);
        if (v == 1) { s = s + 10; } else { s = s - 1; }
      }
      return s;
    })";
  InstrumentOptions O;
  O.Interproc = true;
  O.InterprocDegree = 3;
  PipelineResult R = run(Src, O, {30});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
  EstimateMetrics M2 = Est.estimateTypeII(&R.GT);
  EXPECT_EQ(M2.Real, 30u); // one Type II instance per return
  EXPECT_FALSE(M2.SoundnessViolated);
  // The callee's path (odd/even) determines the continuation branch, and
  // degree 3 sees far enough to prove it.
  EXPECT_EQ(M2.Definite, M2.Real);
  EXPECT_EQ(M2.Potential, M2.Real);
}

TEST(Estimators, NoFlowMeansNoProblems) {
  InstrumentOptions O;
  O.Interproc = true;
  PipelineResult R = run("fn main() { return 3; }", O, {});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
  EstimateMetrics M = Est.estimateAll(&R.GT);
  EXPECT_EQ(M.Problems, 0u);
  EXPECT_EQ(M.Pairs, 0u);
  EXPECT_EQ(M.Real, 0u);
}

TEST(Estimators, FeasibilityFactsTightenLoopBounds) {
  // The branch arm is monotone in i: once an iteration takes the i >= 5
  // side, no later iteration can take the i < 5 side again. BL row/column
  // totals cannot see that, but the walker proves the B!A pair
  // contradictory across the backedge and pins its cell to zero.
  const char *Src = R"(
    fn main(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        if (i < 5) { s = s + 1; } else { s = s + 100; }
      }
      return s;
    })";
  InstrumentOptions O;
  PipelineResult R = run(Src, O, {12});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);

  EstimateMetrics Without = Est.estimateLoops(&R.GT);
  EXPECT_EQ(Without.InfeasiblePairs, 0u);
  EXPECT_FALSE(Without.SoundnessViolated);

  ModuleSummaries Sums = computeSummaries(*R.InstrModule);
  PathFeasibility PF(*R.InstrModule, &Sums);
  Est.setFeasibility(&PF);
  EstimateMetrics With = Est.estimateLoops(&R.GT);

  EXPECT_GT(With.InfeasiblePairs, 0u);
  EXPECT_GT(With.FeasibilityQueries, 0u);
  // Facts only ever add constraints to a monotone solver: the bound
  // interval shrinks or stays, never widens — and stays sound.
  EXPECT_EQ(With.Pairs, Without.Pairs);
  EXPECT_GE(With.Definite, Without.Definite);
  EXPECT_LE(With.Potential, Without.Potential);
  EXPECT_LT(With.Potential, Without.Potential)
      << "pinning B!A to zero must strictly tighten the upper bounds";
  EXPECT_FALSE(With.SoundnessViolated);
}

TEST(Estimators, FeasibilityFactsPruneCallPairs) {
  // Site one always passes 3, site two always passes 50; the callee's
  // observed paths include both arms, so each site's pair table contains
  // combinations the argument range refutes.
  const char *Src = R"(
    fn step(x) { if (x > 10) { return 2; } return 1; }
    fn main(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        s = s + step(3);
        s = s + step(50);
      }
      return s;
    })";
  InstrumentOptions O;
  O.CallBreaking = true;
  PipelineResult R = run(Src, O, {8});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);

  EstimateMetrics Without = Est.estimateTypeI(&R.GT);
  ModuleSummaries Sums = computeSummaries(*R.InstrModule);
  PathFeasibility PF(*R.InstrModule, &Sums);
  Est.setFeasibility(&PF);
  EstimateMetrics With = Est.estimateTypeI(&R.GT);

  EXPECT_GT(With.InfeasiblePairs, 0u);
  EXPECT_EQ(With.Pairs, Without.Pairs);
  EXPECT_GE(With.Definite, Without.Definite);
  EXPECT_LE(With.Potential, Without.Potential);
  EXPECT_FALSE(With.SoundnessViolated);
}

TEST(Estimators, FeasibilityFactsPruneReturnPairs) {
  // The callee's return value (7 or 0) decides the continuation branch;
  // both callee paths and both continuations are observed, but the cross
  // pairings contradict the walked return range.
  const char *Src = R"(
    fn pick(x) { if (x > 10) { return 7; } return 0; }
    fn main(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        var v = pick(i);
        if (v > 3) { s = s + 10; } else { s = s + 1; }
      }
      return s;
    })";
  InstrumentOptions O;
  O.CallBreaking = true;
  PipelineResult R = run(Src, O, {20});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);

  EstimateMetrics Without = Est.estimateTypeII(&R.GT);
  ModuleSummaries Sums = computeSummaries(*R.InstrModule);
  PathFeasibility PF(*R.InstrModule, &Sums);
  Est.setFeasibility(&PF);
  EstimateMetrics With = Est.estimateTypeII(&R.GT);

  EXPECT_GT(With.InfeasiblePairs, 0u);
  EXPECT_EQ(With.Pairs, Without.Pairs);
  EXPECT_GE(With.Definite, Without.Definite);
  EXPECT_LE(With.Potential, Without.Potential);
  EXPECT_LT(With.Potential, Without.Potential);
  EXPECT_FALSE(With.SoundnessViolated);
}

TEST(Estimators, PerProblemMetricsSumToTotals) {
  const Workload *W = findWorkload("mcf");
  ASSERT_NE(W, nullptr);
  InstrumentOptions O;
  O.LoopOverlap = true;
  O.LoopDegree = 1;
  O.Interproc = true;
  O.InterprocDegree = 1;
  PipelineResult R = run(W->Source.c_str(), O, {1, 3});
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);

  EstimateMetrics Loops = Est.estimateLoops(&R.GT);
  EstimateMetrics Sum;
  for (uint32_t F = 0; F < R.InstrModule->numFunctions(); ++F)
    for (uint32_t L = 0; L < R.MI.Funcs[F].Loops->numLoops(); ++L)
      Sum.add(Est.estimateLoop(F, L, &R.GT));
  EXPECT_EQ(Sum.Real, Loops.Real);
  EXPECT_EQ(Sum.Definite, Loops.Definite);
  EXPECT_EQ(Sum.Potential, Loops.Potential);
  EXPECT_EQ(Sum.Pairs, Loops.Pairs);

  EstimateMetrics T1 = Est.estimateTypeI(&R.GT);
  EstimateMetrics SumT1;
  for (const CallSiteInfo &CS : R.MI.CallSites)
    SumT1.add(Est.estimateCallSiteTypeI(CS.CsId, &R.GT));
  EXPECT_EQ(SumT1.Real, T1.Real);
  EXPECT_EQ(SumT1.Pairs, T1.Pairs);
}
