//===--- ProfdataSmokeTest.cpp - artifacts through the real pipeline ------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The persistent-artifact subsystem against real profiled runs: for a slice
// of the workload suite, run the full pipeline under full instrumentation,
// snapshot the runtime into an artifact, push it through serialize / checked
// read / bind / report, and require the decoded counters to drive the
// interval solver to exactly the bounds the live runtime produced. Then
// merge artifacts from different inputs of the same workload and check the
// totals are the counter sums.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "profdata/Merge.h"
#include "profdata/ProfData.h"
#include "profdata/Report.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace olpp;

namespace {

/// Loop-heavy, call-heavy, and mixed representatives; the whole suite runs
/// in the bench harness, three are enough for the smoke lane.
const char *SmokeWorkloads[] = {"li", "vortex", "twolf"};

PipelineConfig fullConfig(std::vector<int64_t> Args) {
  PipelineConfig C;
  C.Instr.LoopOverlap = true;
  C.Instr.LoopDegree = 2;
  C.Instr.Interproc = true;
  C.Instr.InterprocDegree = 2;
  C.Args = std::move(Args);
  C.CollectGroundTruth = true;
  return C;
}

ProfileArtifact artifactOf(const PipelineResult &R, const std::string &Name) {
  RunMeta Meta;
  Meta.Workload = Name;
  Meta.Instr = R.MI.Opts;
  Meta.Runs = 1;
  Meta.DynInstrCost = R.InstrCounts.Steps;
  Meta.TimestampUnix = 1700000000;
  return ProfileArtifact::fromRuntime(*R.BaseModule, R.MI, *R.Prof, Meta);
}

TEST(ProfdataSmoke, RoundTripPreservesSolverBounds) {
  for (const char *Name : SmokeWorkloads) {
    const Workload *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    CompileResult CR = compileMiniC(W->Source);
    ASSERT_TRUE(CR.ok()) << Name << ":\n" << CR.diagText();
    PipelineResult R = runPipeline(*CR.M, fullConfig(W->PrecisionArgs));
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Errors[0];

    ProfileArtifact Art = artifactOf(R, Name);
    EXPECT_GT(Art.numRecords(), 0u) << Name;
    EXPECT_GT(Art.totalPathCount(), 0u) << Name;

    // Serialize -> checked read must be lossless.
    std::string Bytes = serializeProfileArtifact(Art);
    ProfileArtifact Back;
    std::vector<Diagnostic> Diags;
    ASSERT_TRUE(readProfileArtifactBytes(Bytes, Back, Diags))
        << Name << ": "
        << (Diags.empty() ? "(no diagnostic)" : Diags[0].str());
    std::string FirstDiff;
    ASSERT_TRUE(artifactsEqual(Art, Back, &FirstDiff)) << Name << ": "
                                                       << FirstDiff;

    // The live runtime's bounds...
    ModuleEstimator Live(*R.InstrModule, R.MI, *R.Prof);
    EstimateMetrics ML = Live.estimateAll(&R.GT);
    EXPECT_FALSE(ML.SoundnessViolated) << Name;

    // ...must survive the decode: bind the decoded artifact back to a
    // pristine compile and re-run the solver over its counters.
    ArtifactBinding B;
    Diags.clear();
    ASSERT_TRUE(bindArtifactToModule(*R.BaseModule, Back, B, Diags))
        << Name << ": "
        << (Diags.empty() ? "(no diagnostic)" : Diags[0].str());
    ModuleEstimator Decoded(*B.InstrModule, B.MI, Back.Counters);
    EstimateMetrics MD = Decoded.estimateAll(&R.GT);
    EXPECT_EQ(MD.Definite, ML.Definite) << Name;
    EXPECT_EQ(MD.Potential, ML.Potential) << Name;
    EXPECT_EQ(MD.Real, ML.Real) << Name;
    EXPECT_EQ(MD.ExactPairs, ML.ExactPairs) << Name;

    // The reporting layer must render both forms without choking.
    ReportOptions RO;
    EXPECT_FALSE(renderArtifactReport(Back, &B, RO).empty()) << Name;
    RO.Json = true;
    EXPECT_FALSE(renderArtifactReport(Back, &B, RO).empty()) << Name;
    EXPECT_FALSE(renderArtifactJson(Back).empty()) << Name;
  }
}

TEST(ProfdataSmoke, MergeAcrossInputsSumsCounters) {
  const Workload *W = findWorkload("li");
  ASSERT_NE(W, nullptr);
  CompileResult CR = compileMiniC(W->Source);
  ASSERT_TRUE(CR.ok()) << CR.diagText();

  // The same program profiled on three different inputs.
  std::vector<std::vector<int64_t>> Inputs = {{2, 7}, {3, 5}, {5, 11}};
  std::vector<ProfileArtifact> Arts;
  uint64_t TotalFlow = 0;
  for (const auto &Args : Inputs) {
    PipelineResult R = runPipeline(*CR.M, fullConfig(Args));
    ASSERT_TRUE(R.ok()) << R.Errors[0];
    Arts.push_back(artifactOf(R, W->Name));
    TotalFlow += Arts.back().totalPathCount();
  }

  ProfileArtifact Acc = makeEmptyLike(Arts[0]);
  for (const ProfileArtifact &A : Arts) {
    std::vector<Diagnostic> Diags;
    ASSERT_TRUE(mergeArtifacts(Acc, A, Diags))
        << (Diags.empty() ? "(no diagnostic)" : Diags[0].str());
  }
  EXPECT_EQ(Acc.totalPathCount(), TotalFlow);
  EXPECT_EQ(Acc.Meta.Runs, static_cast<uint64_t>(Inputs.size()));

  // The merged artifact is still a well-formed .olpp file.
  std::string Bytes = serializeProfileArtifact(Acc);
  ProfileArtifact Back;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(readProfileArtifactBytes(Bytes, Back, Diags));
  std::string FirstDiff;
  EXPECT_TRUE(artifactsEqual(Acc, Back, &FirstDiff)) << FirstDiff;

  // And the diff report between two inputs renders in both modes.
  DiffOptions DO;
  EXPECT_FALSE(
      renderArtifactDiff(Arts[0], Arts[1], "a.olpp", "b.olpp", DO).empty());
  DO.Json = true;
  EXPECT_FALSE(
      renderArtifactDiff(Arts[0], Arts[1], "a.olpp", "b.olpp", DO).empty());
}

} // namespace
