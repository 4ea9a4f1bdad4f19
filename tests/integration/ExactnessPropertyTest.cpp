//===--- ExactnessPropertyTest.cpp - randomized system-level properties -------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The master property suite: for seeded random programs,
//   (a) instrumentation exactness — raw counters equal the counters
//       recomputed by definition from the control-flow trace,
//   (b) estimator soundness — every interesting path's real frequency lies
//       within the derived bounds,
//   (c) monotonicity — bounds only tighten as the overlap degree grows,
//   (d) exactness at saturation — with the degree at its maximum, loop
//       bounds collapse onto the real frequencies.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "workloads/Generator.h"
#include "wpp/ExpectedCounters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

using namespace olpp;

namespace {

struct Case {
  uint64_t Seed;
  bool AllowCalls;
};

// Without this gtest prints the raw bytes of Case, padding included, into
// every test name ctest registers, so the names would vary by build.
void PrintTo(const Case &C, std::ostream *OS) {
  *OS << "seed " << C.Seed << (C.AllowCalls ? ", calls" : ", no calls");
}

class ExactnessProperty : public ::testing::TestWithParam<Case> {};

PipelineConfig makeConfig(const InstrumentOptions &O, int64_t A, int64_t B) {
  PipelineConfig C;
  C.Instr = O;
  C.Args = {A, B};
  C.Run.MaxSteps = 20'000'000;
  return C;
}

void checkCountersMatch(const PipelineResult &R, const std::string &What) {
  ExpectedCounters EC = computeExpectedCounters(R.MI, R.GT);
  for (uint32_t F = 0; F < R.Prof->PathCounts.size(); ++F)
    ASSERT_EQ(R.Prof->PathCounts[F], EC.PathCounts[F])
        << What << ": path counters differ in function " << F;
  ASSERT_EQ(R.Prof->TypeICounts, EC.TypeICounts) << What;
  ASSERT_EQ(R.Prof->TypeIICounts, EC.TypeIICounts) << What;
}

} // namespace

TEST_P(ExactnessProperty, CountersAndBounds) {
  Case C = GetParam();
  GeneratorOptions GO;
  GO.Seed = C.Seed;
  GO.AllowCalls = C.AllowCalls;
  GO.NumFunctions = C.AllowCalls ? 3 : 0;
  GO.MaxLoopIters = 5;
  GO.MaxStmtsPerBlock = 4;
  std::string Source = generateProgram(GO);

  CompileResult CR = compileMiniC(Source);
  ASSERT_TRUE(CR.ok()) << "seed " << C.Seed << "\n"
                       << CR.diagText() << Source;

  // Nested bounded loops combined with call fan-out can still multiply into
  // billions of finite steps; such seeds prove nothing about profiling, so
  // skip them rather than masking them with a huge fuel budget.
  {
    PipelineConfig Probe = makeConfig(InstrumentOptions(), 5, 9);
    Probe.CollectGroundTruth = false;
    PipelineResult R = runPipeline(*CR.M, Probe);
    if (!R.ok() && R.Errors[0].find("fuel exhausted") != std::string::npos)
      GTEST_SKIP() << "seed " << C.Seed << " exceeds the step budget";
    ASSERT_TRUE(R.ok()) << "seed " << C.Seed << ": " << R.Errors[0];
  }

  // Plain BL.
  {
    InstrumentOptions O;
    PipelineResult R = runPipeline(*CR.M, makeConfig(O, 5, 9));
    ASSERT_TRUE(R.ok()) << "seed " << C.Seed << ": " << R.Errors[0];
    checkCountersMatch(R, "plain BL seed " + std::to_string(C.Seed));
    ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
    EstimateMetrics Met = Est.estimateLoops(&R.GT);
    EXPECT_FALSE(Met.SoundnessViolated) << "seed " << C.Seed;
    EXPECT_LE(Met.Definite, Met.Real);
    EXPECT_GE(Met.Potential, Met.Real);
  }

  // Loop overlap at increasing degrees: exactness + monotone tightening.
  // The final sweep point saturates every loop's maximum degree, where the
  // bounds must collapse onto the real frequencies.
  DegreeLimits Lim = computeDegreeLimits(*CR.M, /*CallBreaking=*/false);
  uint32_t KMax = std::min(Lim.MaxLoopDegree, 48u);
  uint64_t PrevDefinite = 0;
  uint64_t PrevPotential = UINT64_MAX;
  uint32_t PrevK = 0;
  bool First = true;
  for (uint32_t K : {0u, 1u, 2u, 4u, 8u, KMax}) {
    if (!First && K < PrevK)
      continue; // KMax may be small; keep the sweep non-decreasing
    PrevK = K;
    InstrumentOptions O;
    O.LoopOverlap = true;
    O.LoopDegree = K;
    PipelineResult R = runPipeline(*CR.M, makeConfig(O, 5, 9));
    ASSERT_TRUE(R.ok()) << "seed " << C.Seed << " k=" << K << ": "
                        << R.Errors[0];
    checkCountersMatch(R, "overlap k=" + std::to_string(K) + " seed " +
                              std::to_string(C.Seed));
    ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
    EstimateMetrics Met = Est.estimateLoops(&R.GT);
    EXPECT_FALSE(Met.SoundnessViolated) << "seed " << C.Seed << " k=" << K;
    EXPECT_LE(Met.Definite, Met.Real) << "k=" << K;
    EXPECT_GE(Met.Potential, Met.Real) << "k=" << K;
    if (!First) {
      EXPECT_GE(Met.Definite, PrevDefinite) << "k=" << K;
      EXPECT_LE(Met.Potential, PrevPotential) << "k=" << K;
    }
    First = false;
    PrevDefinite = Met.Definite;
    PrevPotential = Met.Potential;
    if (K >= KMax && Lim.MaxLoopDegree <= 48) {
      // Degree at (or beyond) every loop's maximum: bounds must be exact.
      EXPECT_EQ(Met.Definite, Met.Real) << "seed " << C.Seed;
      EXPECT_EQ(Met.Potential, Met.Real) << "seed " << C.Seed;
      EXPECT_EQ(Met.ExactPairs, Met.Pairs) << "seed " << C.Seed;
    }
  }

  // Chord vs naive increment placement must produce identical counters.
  {
    InstrumentOptions Chord;
    Chord.LoopOverlap = true;
    Chord.LoopDegree = 2;
    Chord.UseChords = true;
    InstrumentOptions Naive = Chord;
    Naive.UseChords = false;
    PipelineConfig CC = makeConfig(Chord, 5, 9);
    CC.CollectGroundTruth = false;
    PipelineResult A = runPipeline(*CR.M, CC);
    CC.Instr = Naive;
    PipelineResult B = runPipeline(*CR.M, CC);
    ASSERT_TRUE(A.ok() && B.ok()) << "seed " << C.Seed;
    for (uint32_t F = 0; F < A.Prof->PathCounts.size(); ++F)
      ASSERT_EQ(A.Prof->PathCounts[F], B.Prof->PathCounts[F])
          << "chord/naive disagree, seed " << C.Seed << " func " << F;
  }

  if (!C.AllowCalls)
    return;

  // Interprocedural: counters exact, estimates sound, improving with k.
  uint64_t PrevDef = 0;
  uint64_t PrevPot = UINT64_MAX;
  First = true;
  for (uint32_t K : {0u, 1u, 3u, 8u}) {
    InstrumentOptions O;
    O.Interproc = true;
    O.InterprocDegree = K;
    O.LoopOverlap = true;
    O.LoopDegree = K;
    PipelineResult R = runPipeline(*CR.M, makeConfig(O, 5, 9));
    ASSERT_TRUE(R.ok()) << "seed " << C.Seed << " ipk=" << K << ": "
                        << R.Errors[0];
    checkCountersMatch(R, "interproc k=" + std::to_string(K) + " seed " +
                              std::to_string(C.Seed));
    ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
    EstimateMetrics Met = Est.estimateAll(&R.GT);
    EXPECT_FALSE(Met.SoundnessViolated) << "seed " << C.Seed << " k=" << K;
    EXPECT_LE(Met.Definite, Met.Real);
    EXPECT_GE(Met.Potential, Met.Real);
    if (!First) {
      EXPECT_GE(Met.Definite, PrevDef) << "ipk=" << K;
      EXPECT_LE(Met.Potential, PrevPot) << "ipk=" << K;
    }
    First = false;
    PrevDef = Met.Definite;
    PrevPot = Met.Potential;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ExactnessProperty,
    ::testing::Values(Case{1, true}, Case{2, true}, Case{3, true},
                      Case{4, true}, Case{5, true}, Case{6, false},
                      Case{7, false}, Case{8, true}, Case{9, true},
                      Case{10, false}, Case{11, true}, Case{12, true},
                      Case{13, true}, Case{14, true}, Case{15, false},
                      Case{16, true}, Case{17, true}, Case{18, true},
                      Case{19, true}, Case{20, true}),
    [](const ::testing::TestParamInfo<Case> &Info) {
      return "seed" + std::to_string(Info.param.Seed) +
             (Info.param.AllowCalls ? "_calls" : "_nocalls");
    });
