//===--- InstrumentationTest.cpp - dynamic probe correctness ------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "ir/Verifier.h"
#include "wpp/ExpectedCounters.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;
using namespace olpp::testutil;

namespace {

const char *LoopProgram = R"(
  fn main(n) {
    var s = 0;
    var i = 0;
    while (i < n) {
      if (i % 3 == 0) { s = s + 2; }
      else { s = s - 1; }
      i = i + 1;
    }
    return s;
  })";

const char *CallProgram = R"(
  fn add(a, b) { if (a > b) { return a; } return a + b; }
  fn main(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
      s = add(s, i);
    }
    return s;
  })";

PipelineResult runCfg(const char *Src, InstrumentOptions Instr,
                      std::vector<int64_t> Args) {
  PipelineConfig C;
  C.Instr = Instr;
  C.Args = std::move(Args);
  C.CollectGroundTruth = true;
  PipelineResult R = runPipelineOnSource(Src, C);
  EXPECT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  return R;
}

uint64_t totalCounts(const PipelineResult &R) {
  uint64_t N = 0;
  for (const auto &M : R.Prof->PathCounts)
    for (const auto &[Id, C] : M)
      N += C;
  return N;
}

void expectCountersMatch(const PipelineResult &R) {
  ExpectedCounters EC = computeExpectedCounters(R.MI, R.GT);
  for (uint32_t F = 0; F < R.Prof->PathCounts.size(); ++F) {
    EXPECT_EQ(R.Prof->PathCounts[F], EC.PathCounts[F])
        << "path counters differ in function " << F;
  }
  EXPECT_EQ(R.Prof->TypeICounts, EC.TypeICounts);
  EXPECT_EQ(R.Prof->TypeIICounts, EC.TypeIICounts);
}

} // namespace

TEST(Instrumentation, PlainBLCountsMatchGroundTruth) {
  PipelineResult R = runCfg(LoopProgram, {}, {10});
  expectCountersMatch(R);
  EXPECT_EQ(totalCounts(R), R.GT.TotalPathInstances);
}

TEST(Instrumentation, PlainBLNaiveIncrements) {
  InstrumentOptions O;
  O.UseChords = false;
  PipelineResult R = runCfg(LoopProgram, O, {10});
  expectCountersMatch(R);
}

TEST(Instrumentation, ChordAndNaiveAgree) {
  InstrumentOptions Chord;
  InstrumentOptions Naive;
  Naive.UseChords = false;
  PipelineResult A = runCfg(LoopProgram, Chord, {23});
  PipelineResult B = runCfg(LoopProgram, Naive, {23});
  EXPECT_EQ(A.Prof->PathCounts[0], B.Prof->PathCounts[0]);
  // The chord placement must not cost more than naive placement.
  EXPECT_LE(A.InstrCounts.ProbeCost, B.InstrCounts.ProbeCost);
}

TEST(Instrumentation, LoopOverlapCountsMatchGroundTruth) {
  for (uint32_t K : {0u, 1u, 2u, 3u, 5u}) {
    InstrumentOptions O;
    O.LoopOverlap = true;
    O.LoopDegree = K;
    PipelineResult R = runCfg(LoopProgram, O, {17});
    expectCountersMatch(R);
    EXPECT_EQ(totalCounts(R), R.GT.TotalPathInstances) << "degree " << K;
  }
}

TEST(Instrumentation, CallBreakingCountsMatchGroundTruth) {
  InstrumentOptions O;
  O.CallBreaking = true;
  PipelineResult R = runCfg(CallProgram, O, {9});
  expectCountersMatch(R);
  EXPECT_EQ(totalCounts(R), R.GT.TotalPathInstances);
}

TEST(Instrumentation, InterprocCountsMatchGroundTruth) {
  for (uint32_t K : {0u, 1u, 2u, 4u}) {
    InstrumentOptions O;
    O.Interproc = true;
    O.InterprocDegree = K;
    PipelineResult R = runCfg(CallProgram, O, {9});
    expectCountersMatch(R);
    // One Type I tuple per call and one Type II tuple per return.
    uint64_t TypeITotal = 0, TypeIITotal = 0;
    for (const auto &[Key, C] : R.Prof->TypeICounts)
      TypeITotal += C;
    for (const auto &[Key, C] : R.Prof->TypeIICounts)
      TypeIITotal += C;
    EXPECT_EQ(TypeITotal, R.GT.TotalCalls) << "degree " << K;
    EXPECT_EQ(TypeIITotal, R.GT.TotalReturns) << "degree " << K;
  }
}

TEST(Instrumentation, EverythingCombined) {
  InstrumentOptions O;
  O.LoopOverlap = true;
  O.LoopDegree = 2;
  O.Interproc = true;
  O.InterprocDegree = 2;
  PipelineResult R = runCfg(CallProgram, O, {13});
  expectCountersMatch(R);
}

TEST(Instrumentation, RecursionIsHandled) {
  const char *Rec = R"(
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main(n) { return fib(n); })";
  InstrumentOptions O;
  O.Interproc = true;
  O.InterprocDegree = 3;
  O.LoopOverlap = true;
  O.LoopDegree = 1;
  PipelineResult R = runCfg(Rec, O, {9});
  expectCountersMatch(R);
}

TEST(Instrumentation, OverheadGrowsWithDegree) {
  double Prev = -1.0;
  for (uint32_t K : {0u, 2u, 5u}) {
    InstrumentOptions O;
    O.LoopOverlap = true;
    O.LoopDegree = K;
    PipelineResult R = runCfg(LoopProgram, O, {200});
    EXPECT_GT(R.overheadPercent(), 0.0);
    EXPECT_GE(R.overheadPercent(), Prev);
    Prev = R.overheadPercent();
  }
}

TEST(Instrumentation, InstrumentedModuleVerifies) {
  auto M = compileOrDie(CallProgram);
  InstrumentOptions O;
  O.LoopOverlap = true;
  O.LoopDegree = 2;
  O.Interproc = true;
  ModuleInstrumentation MI = instrumentModule(*M, O);
  ASSERT_TRUE(MI.ok());
  EXPECT_TRUE(verifyModule(*M).empty());
  // Probes were actually inserted.
  uint64_t Probes = 0;
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const Instruction &I : BB->Instrs)
        if (I.Op == Opcode::Probe)
          ++Probes;
  EXPECT_GE(Probes, 10u);
}

TEST(Instrumentation, DegreeLimitsArePlausible) {
  // CallProgram truncates at the call immediately, so with call breaking
  // the useful degrees collapse to 0.
  auto M = compileOrDie(CallProgram);
  // The loop body has no conditionals: the header is the only predicate,
  // and blocks follow it, so distinguishing full iterations needs k = 1.
  DegreeLimits Lim = computeDegreeLimits(*M, /*CallBreaking=*/true);
  EXPECT_EQ(Lim.MaxLoopDegree, 1u);
  DegreeLimits Free = computeDegreeLimits(*M, /*CallBreaking=*/false);
  EXPECT_EQ(Free.MaxLoopDegree, 1u);

  // A branchier program has real overlap depth in both dimensions.
  auto M2 = compileOrDie(R"(
    fn weigh(a, b) {
      var w = 0;
      if (a > b) { w = a; } else { w = b; }
      if (w % 2 == 0) { w = w + 1; }
      return w;
    }
    fn main(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { s = s + 1; }
        if (i % 3 == 0) { s = s + 2; }
        s = s + weigh(s, i);
      }
      return s;
    })");
  DegreeLimits L2 = computeDegreeLimits(*M2, /*CallBreaking=*/true);
  EXPECT_GE(L2.MaxLoopDegree, 2u);
  EXPECT_GE(L2.MaxInterprocDegree, 2u);
  EXPECT_LE(L2.MaxLoopDegree, 64u);
}
