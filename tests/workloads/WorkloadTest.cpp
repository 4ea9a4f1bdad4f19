//===--- WorkloadTest.cpp - benchmark suite health ------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "frontend/Compiler.h"
#include "workloads/Generator.h"
#include "workloads/Workloads.h"
#include "wpp/ExpectedCounters.h"

#include <gtest/gtest.h>

using namespace olpp;

TEST(Workloads, SuiteHasTenNamedBenchmarks) {
  const auto &Suite = allWorkloads();
  ASSERT_EQ(Suite.size(), 10u);
  const char *Names[] = {"li",     "go",  "perl",  "espresso", "vortex",
                         "parser", "mcf", "twolf", "gcc",      "ijpeg"};
  for (size_t I = 0; I < 10; ++I)
    EXPECT_EQ(Suite[I].Name, Names[I]);
  EXPECT_NE(findWorkload("mcf"), nullptr);
  EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(Workloads, AllCompileVerifyAndRunDeterministically) {
  for (const Workload &W : allWorkloads()) {
    CompileResult CR = compileMiniC(W.Source);
    ASSERT_TRUE(CR.ok()) << W.Name << ":\n" << CR.diagText();
    const Function *Main = CR.M->findFunction("main");
    ASSERT_NE(Main, nullptr) << W.Name;

    Interpreter I1(*CR.M);
    RunResult A = I1.run(*Main, W.PrecisionArgs);
    ASSERT_TRUE(A.Ok) << W.Name << ": " << A.Error;
    Interpreter I2(*CR.M);
    RunResult B = I2.run(*Main, W.PrecisionArgs);
    ASSERT_TRUE(B.Ok) << W.Name;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << W.Name;
    EXPECT_EQ(A.Counts.Steps, B.Counts.Steps) << W.Name;
    EXPECT_GT(A.Counts.Steps, 10'000u)
        << W.Name << " does too little work for profiling experiments";
  }
}

TEST(Workloads, SuiteSpansLoopVsCallCharacter) {
  double MinBackedgeShare = 1.0, MaxBackedgeShare = 0.0;
  for (const Workload &W : allWorkloads()) {
    CompileResult CR = compileMiniC(W.Source);
    ASSERT_TRUE(CR.ok());
    PipelineConfig C;
    C.Args = W.PrecisionArgs;
    C.CollectGroundTruth = true;
    PipelineResult R = runPipeline(*CR.M, C);
    ASSERT_TRUE(R.ok()) << W.Name;
    double Share = static_cast<double>(R.GT.TotalBackedgeCrossings) /
                   static_cast<double>(R.GT.TotalPathInstances);
    MinBackedgeShare = std::min(MinBackedgeShare, Share);
    MaxBackedgeShare = std::max(MaxBackedgeShare, Share);
  }
  // vortex-like call-dominated at one end, twolf-like loop-dominated at
  // the other (paper Table 1's spread).
  EXPECT_LT(MinBackedgeShare, 0.10);
  EXPECT_GT(MaxBackedgeShare, 0.70);
}

TEST(Workloads, CountersExactOnEveryBenchmark) {
  // The master exactness property over the real workloads (small inputs to
  // keep the traces fast), with full instrumentation.
  for (const Workload &W : allWorkloads()) {
    CompileResult CR = compileMiniC(W.Source);
    ASSERT_TRUE(CR.ok());
    PipelineConfig C;
    C.Instr.LoopOverlap = true;
    C.Instr.LoopDegree = 1;
    C.Instr.Interproc = true;
    C.Instr.InterprocDegree = 1;
    C.Args = {2, 7};
    C.CollectGroundTruth = true;
    PipelineResult R = runPipeline(*CR.M, C);
    ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Errors[0];
    ExpectedCounters EC = computeExpectedCounters(R.MI, R.GT);
    for (uint32_t F = 0; F < R.Prof->PathCounts.size(); ++F)
      ASSERT_EQ(R.Prof->PathCounts[F], EC.PathCounts[F]) << W.Name;
    ASSERT_EQ(R.Prof->TypeICounts, EC.TypeICounts) << W.Name;
    ASSERT_EQ(R.Prof->TypeIICounts, EC.TypeIICounts) << W.Name;
  }
}

TEST(Generator, DeterministicPerSeed) {
  GeneratorOptions A;
  A.Seed = 42;
  GeneratorOptions B;
  B.Seed = 42;
  EXPECT_EQ(generateProgram(A), generateProgram(B));
  B.Seed = 43;
  EXPECT_NE(generateProgram(A), generateProgram(B));
}

TEST(Generator, ManySeedsCompileAndTerminate) {
  for (uint64_t Seed = 100; Seed < 160; ++Seed) {
    GeneratorOptions GO;
    GO.Seed = Seed;
    GO.NumFunctions = 3;
    GO.MaxLoopIters = 4;
    GO.MaxStmtsPerBlock = 3;
    CompileResult CR = compileMiniC(generateProgram(GO));
    ASSERT_TRUE(CR.ok()) << "seed " << Seed << "\n" << CR.diagText();
    Interpreter I(*CR.M);
    RunConfig RC;
    RC.MaxSteps = 30'000'000;
    RunResult R = I.run(*CR.M->findFunction("main"), {3, 11}, RC);
    // Fuel exhaustion is tolerated (finite but huge nesting); any other
    // failure is a generator bug.
    if (!R.Ok)
      EXPECT_NE(R.Error.find("fuel"), std::string::npos)
          << "seed " << Seed << ": " << R.Error;
  }
}

TEST(Generator, RespectsCallToggle) {
  GeneratorOptions GO;
  GO.Seed = 9;
  GO.AllowCalls = false;
  std::string Source = generateProgram(GO);
  CompileResult CR = compileMiniC(Source);
  ASSERT_TRUE(CR.ok());
  for (const auto &F : CR.M->functions())
    for (const auto &BB : F->blocks())
      for (const Instruction &I : BB->Instrs)
        EXPECT_TRUE(I.Op != Opcode::Call && I.Op != Opcode::CallInd);
}
