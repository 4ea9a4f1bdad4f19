//===--- BenchJsonTest.cpp - bench report schema tests --------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"

#include <gtest/gtest.h>

using namespace olpp;

namespace {

EngineBenchReport sampleEngineReport() {
  EngineBenchReport R;
  R.Jobs = 1;
  R.WallSeconds = 9.3;
  WorkloadBench W;
  W.Name = "li";
  W.Fast = {0.01, 1000, 100000.0};
  W.Reference = {0.02, 1000, 50000.0};
  W.Speedup = 2.0;
  W.SolverEvaluationsWorklist = 243;
  W.SolverEvaluationsSweep = 321;
  W.TracesRecorded = 3;
  W.TraceStepPercent = 41.5;
  W.DeoptRate = 0.02;
  R.Workloads.push_back(W);
  return R;
}

OptBenchReport sampleOptReport() {
  OptBenchReport R;
  R.Reps = 5;
  R.WallSeconds = 2.5;
  OptWorkloadBench W;
  W.Name = "mcf";
  W.InlinedSites = 8;
  W.Superblocks = 5;
  W.BaselineSteps = 2529837;
  W.OptimizedSteps = 2493164;
  W.BaselineCalls = 449133;
  W.OptimizedCalls = 184833;
  W.BaselineSeconds = 0.0424;
  W.OptimizedSeconds = 0.0371;
  W.Speedup = W.BaselineSeconds / W.OptimizedSeconds;
  W.Agree = true;
  R.Workloads.push_back(W);
  return R;
}

TEST(BenchJsonTest, EngineValidatorRejectsMissingTraceStats) {
  std::string Text = renderEngineBenchJson(sampleEngineReport());
  size_t At = Text.find("\"traces_recorded\"");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 17, "\"traces_recorder\"");
  std::string Error;
  EXPECT_FALSE(validateEngineBenchJson(Text, Error));
  EXPECT_NE(Error.find("traces_recorded"), std::string::npos) << Error;
}

TEST(BenchJsonTest, ProvenanceIsEmbeddedInEveryReport) {
  // Every schema leads with the same provenance pair, filled from the
  // build: hardware_threads and a non-empty git_rev.
  BenchProvenance P = benchProvenance();
  EXPECT_GE(P.HardwareThreads, 1u);
  EXPECT_FALSE(P.GitRev.empty());
  for (const std::string &Text :
       {renderEngineBenchJson(sampleEngineReport()),
        renderProfdataBenchJson({}), renderOptBenchJson(sampleOptReport())}) {
    EXPECT_NE(Text.find("\"hardware_threads\""), std::string::npos) << Text;
    EXPECT_NE(Text.find("\"git_rev\""), std::string::npos) << Text;
  }
}

TEST(BenchJsonTest, ValidatorRejectsMissingGitRev) {
  std::string Text = renderEngineBenchJson(sampleEngineReport());
  size_t At = Text.find("\"git_rev\"");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 9, "\"git_rv\"");
  std::string Error;
  EXPECT_FALSE(validateEngineBenchJson(Text, Error));
  EXPECT_NE(Error.find("git_rev"), std::string::npos) << Error;
}

TEST(BenchJsonTest, OptRenderRoundTripsThroughItsValidator) {
  std::string Text = renderOptBenchJson(sampleOptReport());
  std::string Error;
  EXPECT_TRUE(validateOptBenchJson(Text, Error)) << Error;
}

TEST(BenchJsonTest, OptValidatorRejectsDisagreement) {
  // agree=false means the optimizer changed observable behavior; no perf
  // number excuses that, so the report as a whole is invalid.
  OptBenchReport R = sampleOptReport();
  R.Workloads[0].Agree = false;
  std::string Error;
  EXPECT_FALSE(validateOptBenchJson(renderOptBenchJson(R), Error));
  EXPECT_NE(Error.find("agree"), std::string::npos) << Error;
}

TEST(BenchJsonTest, OptValidatorRejectsMissingAgree) {
  std::string Text = renderOptBenchJson(sampleOptReport());
  size_t At = Text.find("\"agree\"");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 7, "\"agred\"");
  std::string Error;
  EXPECT_FALSE(validateOptBenchJson(Text, Error));
  EXPECT_NE(Error.find("agree"), std::string::npos) << Error;
}

TEST(BenchJsonTest, OptValidatorRejectsZeroOptimizedSeconds) {
  // A zero denominator would render any speedup meaningless.
  OptBenchReport R = sampleOptReport();
  R.Workloads[0].OptimizedSeconds = 0.0;
  std::string Error;
  EXPECT_FALSE(validateOptBenchJson(renderOptBenchJson(R), Error));
  EXPECT_NE(Error.find("optimized_seconds"), std::string::npos) << Error;
}

TEST(BenchJsonTest, OptValidatorRejectsEmptyWorkloads) {
  OptBenchReport R = sampleOptReport();
  R.Workloads.clear();
  std::string Error;
  EXPECT_FALSE(validateOptBenchJson(renderOptBenchJson(R), Error));
  EXPECT_NE(Error.find("workloads"), std::string::npos) << Error;
}

TEST(BenchJsonTest, CrossSchemaValidationFails) {
  // An engine report is not an opt report and vice versa.
  std::string Error;
  EXPECT_FALSE(validateOptBenchJson(
      renderEngineBenchJson(sampleEngineReport()), Error));
  EXPECT_FALSE(validateEngineBenchJson(renderOptBenchJson(sampleOptReport()),
                                       Error));
}

} // namespace
