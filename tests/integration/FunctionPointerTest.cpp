//===--- FunctionPointerTest.cpp - indirect call profiling --------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The paper motivates its four-tuple counter layout with function pointers:
// "the caller has no idea about who is the callee unless the callee
// explicitly tells the caller." These tests cover the whole stack for
// indirect call sites: frontend, interpreter, instrumentation exactness,
// and per-callee estimation.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "wpp/ExpectedCounters.h"

#include <gtest/gtest.h>

using namespace olpp;

namespace {

const char *DispatchProgram = R"(
  fn twice(x) { if (x > 100) { return x; } return x * 2; }
  fn square(x) { if (x < 0) { return 0; } return x * x; }
  fn negate(x) { return -x; }
  fn main(n) {
    var total = 0;
    for (var i = 0; i < n; i = i + 1) {
      var op = &twice;
      if (i % 3 == 1) { op = &square; }
      else if (i % 3 == 2) { op = &negate; }
      total = total + op(i);
    }
    return total;
  })";

int64_t expectDispatch(int64_t N) {
  int64_t Total = 0;
  for (int64_t I = 0; I < N; ++I) {
    if (I % 3 == 1)
      Total += I * I;
    else if (I % 3 == 2)
      Total += -I;
    else
      Total += I * 2;
  }
  return Total;
}

} // namespace

TEST(FunctionPointers, SemanticsMatchDirectEvaluation) {
  CompileResult CR = compileMiniC(DispatchProgram);
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Interpreter I(*CR.M);
  RunResult R = I.run(*CR.M->findFunction("main"), {20});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, expectDispatch(20));
}

TEST(FunctionPointers, AddressOfUnknownFunctionIsDiagnosed) {
  CompileResult CR = compileMiniC("fn main() { return &nothere; }");
  ASSERT_FALSE(CR.ok());
  EXPECT_NE(CR.diagText().find("does not name a function"),
            std::string::npos);
}

TEST(FunctionPointers, InvalidTargetTraps) {
  CompileResult CR = compileMiniC(
      "fn main(n) { var f = n; return f(1); } ");
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Interpreter I(*CR.M);
  RunResult R = I.run(*CR.M->findFunction("main"), {99});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid function id"), std::string::npos);
}

TEST(FunctionPointers, ArityMismatchTraps) {
  CompileResult CR = compileMiniC(R"(
    fn two(a, b) { return a + b; }
    fn main() { var f = &two; return f(1); })");
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Interpreter I(*CR.M);
  RunResult R = I.run(*CR.M->findFunction("main"), {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("expected 2"), std::string::npos);
}

TEST(FunctionPointers, InstrumentationExactWithIndirectCalls) {
  CompileResult CR = compileMiniC(DispatchProgram);
  ASSERT_TRUE(CR.ok());
  for (uint32_t K : {0u, 1u, 3u}) {
    PipelineConfig Config;
    Config.Instr.Interproc = true;
    Config.Instr.InterprocDegree = K;
    Config.Instr.LoopOverlap = true;
    Config.Instr.LoopDegree = K;
    Config.Args = {30};
    Config.CollectGroundTruth = true;
    PipelineResult R = runPipeline(*CR.M, Config);
    ASSERT_TRUE(R.ok()) << R.Errors[0];
    ExpectedCounters EC = computeExpectedCounters(R.MI, R.GT);
    for (uint32_t F = 0; F < R.Prof->PathCounts.size(); ++F)
      EXPECT_EQ(R.Prof->PathCounts[F], EC.PathCounts[F]) << "k=" << K;
    EXPECT_EQ(R.Prof->TypeICounts, EC.TypeICounts) << "k=" << K;
    EXPECT_EQ(R.Prof->TypeIICounts, EC.TypeIICounts) << "k=" << K;

    // The indirect site's tuples must name all three dynamic callees.
    uint32_t IndirectCs = UINT32_MAX;
    for (const CallSiteInfo &CS : R.MI.CallSites)
      if (CS.Callee == UINT32_MAX)
        IndirectCs = CS.CsId;
    ASSERT_NE(IndirectCs, UINT32_MAX);
    std::set<uint32_t> Callees;
    for (const auto &[Key, C] : R.Prof->TypeICounts)
      if (Key.CallSite == IndirectCs)
        Callees.insert(Key.Callee);
    EXPECT_EQ(Callees.size(), 3u) << "k=" << K;
  }
}

TEST(FunctionPointers, EstimationSoundAcrossCallees) {
  CompileResult CR = compileMiniC(DispatchProgram);
  ASSERT_TRUE(CR.ok());
  uint64_t PrevExact = 0;
  for (uint32_t K : {0u, 2u, 5u}) {
    PipelineConfig Config;
    Config.Instr.Interproc = true;
    Config.Instr.InterprocDegree = K;
    Config.Args = {30};
    Config.CollectGroundTruth = true;
    PipelineResult R = runPipeline(*CR.M, Config);
    ASSERT_TRUE(R.ok()) << R.Errors[0];
    ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
    EstimateMetrics M1 = Est.estimateTypeI(&R.GT);
    EstimateMetrics M2 = Est.estimateTypeII(&R.GT);
    EXPECT_FALSE(M1.SoundnessViolated) << "k=" << K;
    EXPECT_FALSE(M2.SoundnessViolated) << "k=" << K;
    EXPECT_LE(M1.Definite, M1.Real);
    EXPECT_GE(M1.Potential, M1.Real);
    EXPECT_GT(M1.Real, 0u);
    EXPECT_GE(M1.ExactPairs + M2.ExactPairs, PrevExact) << "k=" << K;
    PrevExact = M1.ExactPairs + M2.ExactPairs;
  }
}

TEST(FunctionPointers, BLOnlyIndirectSitesAreSkipped) {
  // Without the tuple profiles an indirect site cannot be attributed to
  // callees; the estimator must skip it rather than guess.
  CompileResult CR = compileMiniC(DispatchProgram);
  ASSERT_TRUE(CR.ok());
  PipelineConfig Config;
  Config.Instr.CallBreaking = true; // plain BL with call breaks
  Config.Args = {30};
  PipelineResult R = runPipeline(*CR.M, Config);
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);
  for (const CallSiteInfo &CS : R.MI.CallSites)
    if (CS.Callee == UINT32_MAX) {
      EstimateMetrics M1 = Est.estimateCallSiteTypeI(CS.CsId, nullptr);
      EXPECT_EQ(M1.Pairs, 0u);
      EstimateMetrics M2 = Est.estimateCallSiteTypeII(CS.CsId, nullptr);
      EXPECT_EQ(M2.Pairs, 0u);
    }
}
