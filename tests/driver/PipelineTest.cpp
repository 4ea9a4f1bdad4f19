//===--- PipelineTest.cpp - pipeline facade tests ------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;
using namespace olpp::testutil;

TEST(Pipeline, CompileErrorsPropagate) {
  PipelineResult R = runPipelineOnSource("fn main( { }", PipelineConfig());
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Errors.empty());
}

TEST(Pipeline, UnknownEntryReported) {
  PipelineConfig C;
  C.EntryName = "does_not_exist";
  PipelineResult R = runPipelineOnSource("fn main() { return 0; }", C);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("not found"), std::string::npos);
}

TEST(Pipeline, RuntimeErrorsPropagate) {
  PipelineConfig C;
  C.Args = {0};
  PipelineResult R =
      runPipelineOnSource("fn main(a) { return 1 / a; }", C);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("instrumented run failed: division by zero"),
            std::string::npos);
  // With ground truth the pristine run goes first and reports the fault.
  C.CollectGroundTruth = true;
  R = runPipelineOnSource("fn main(a) { return 1 / a; }", C);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("baseline run failed: division by zero"),
            std::string::npos);
}

TEST(Pipeline, FuelExhaustionPropagates) {
  PipelineConfig C;
  C.Run.MaxSteps = 100;
  PipelineResult R =
      runPipelineOnSource("fn main() { while (1) { } return 0; }", C);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("fuel"), std::string::npos);
}

TEST(Pipeline, SkippingGroundTruthStillProfiles) {
  PipelineConfig C; // ground truth is off by default
  C.Args = {10};
  PipelineResult R = runPipelineOnSource(
      "fn main(n) { var s = 0; for (var i = 0; i < n; i = i + 1) "
      "{ s = s + i; } return s; }",
      C);
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  EXPECT_EQ(R.ReturnValue, 45);
  uint64_t Total = 0;
  for (const auto &Map : R.Prof->PathCounts)
    for (const auto &[Id, Count] : Map)
      Total += Count;
  EXPECT_GT(Total, 0u);
  // No trace was replayed and the pristine module never ran, yet the one
  // instrumented run still prices its probes.
  EXPECT_EQ(R.GT.TotalPathInstances, 0u);
  EXPECT_EQ(R.BaseCounts, DynCounts());
  EXPECT_GT(R.overheadPercent(), 0.0);
}

TEST(Pipeline, BaselineAndInstrumentedAgree) {
  PipelineConfig C;
  C.CollectGroundTruth = true;
  C.Args = {23, 5};
  C.Instr.LoopOverlap = true;
  C.Instr.LoopDegree = 2;
  C.Instr.Interproc = true;
  C.Instr.InterprocDegree = 2;
  PipelineResult R = runPipelineOnSource(R"(
    fn helper(a, b) { if (a & 1) { return a + b; } return a - b; }
    fn main(n, m) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) { s = s + helper(i, m); }
      return s;
    })",
                                         C);
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  // The facade itself checks return-value and base-cost agreement; also
  // sanity-check the cost accounting directions.
  EXPECT_GT(R.InstrCounts.totalCost(), R.BaseCounts.totalCost());
  EXPECT_EQ(R.BaseCounts.ProbeCost, 0u);
  EXPECT_GT(R.InstrCounts.ProbeCost, 0u);
  EXPECT_EQ(R.InstrCounts.BaseCost, R.BaseCounts.BaseCost);
  EXPECT_GT(R.overheadPercent(), 0.0);
  EXPECT_EQ(R.overheadPercent(),
            R.InstrCounts.overheadPercentOver(R.BaseCounts));
}

TEST(Pipeline, ModulesAreIndependentCopies) {
  PipelineConfig C;
  PipelineResult R =
      runPipelineOnSource("fn main() { return 7; }", C);
  ASSERT_TRUE(R.ok());
  // The instrumented module carries probes; the baseline module must not.
  auto CountProbes = [](const Module &M) {
    uint64_t N = 0;
    for (const auto &F : M.functions())
      for (const auto &BB : F->blocks())
        for (const Instruction &I : BB->Instrs)
          N += I.Op == Opcode::Probe;
    return N;
  };
  EXPECT_EQ(CountProbes(*R.BaseModule), 0u);
  EXPECT_GT(CountProbes(*R.InstrModule), 0u);
}
