//===--- ShardMergeTest.cpp - sharded counter determinism -----------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Determinism contract of the parallel collection pipeline: running a batch
// of instrumented reps across N private counter shards and tree-merging them
// must be bit-for-bit identical to running the same reps serially into one
// runtime — for every workload and every instrumentation mode (full overlap,
// Ball-Larus only, interprocedural only). The same fold done at the
// artifact level — each shard serialized as an .olpp artifact, the
// artifacts merged — must equal the artifact of the tree-merged runtime.
// Also pins the saturation semantics of the merge primitives: saturating
// addition is what makes the merge order-insensitive in the first place.
//
//===----------------------------------------------------------------------===//

#include "interp/ShardedProfile.h"

#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "profdata/Merge.h"
#include "profdata/ProfData.h"
#include "profile/Instrumenter.h"
#include "support/TaskPool.h"
#include "workloads/Workloads.h"

#include "../WorkloadParams.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

using namespace olpp;

namespace {

struct ModeSpec {
  const char *Name;
  InstrumentOptions Opts;
};

std::vector<ModeSpec> allModes() {
  InstrumentOptions Full;
  Full.LoopOverlap = true;
  Full.LoopDegree = 2;
  Full.Interproc = true;
  Full.InterprocDegree = 2;

  InstrumentOptions BL; // defaults: Ball-Larus only

  InstrumentOptions Inter;
  Inter.Interproc = true;
  Inter.InterprocDegree = 2;

  return {{"full", Full}, {"bl", BL}, {"interproc", Inter}};
}

/// Compiles and instruments \p W; fails the test on any error.
std::unique_ptr<Module> prepare(const Workload &W, const InstrumentOptions &O,
                                ModuleInstrumentation &MI) {
  CompileResult CR = compileMiniC(W.Source);
  EXPECT_TRUE(CR.ok()) << W.Name << ": " << CR.diagText();
  if (!CR.ok())
    return nullptr;
  std::unique_ptr<Module> M = std::move(CR.M);
  MI = instrumentModule(*M, O);
  EXPECT_TRUE(MI.ok()) << W.Name;
  if (!MI.ok())
    return nullptr;
  return M;
}

void configure(ProfileRuntime &P, const Module &M,
               const ModuleInstrumentation &MI) {
  for (uint32_t F = 0; F < M.numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
}

/// Args of rep \p Rep: the workload's precision args with the seed (second
/// parameter) perturbed per rep, so the reps take different paths and the
/// merge has real work to do.
std::vector<int64_t> repArgs(const Workload &W, const Function &Main,
                             unsigned Rep) {
  std::vector<int64_t> Args = W.PrecisionArgs;
  Args.resize(Main.NumParams, 0);
  if (Args.size() >= 2)
    Args[1] += Rep;
  return Args;
}

/// One rep executed into \p Prof with a fresh-globals interpreter state.
void runRep(Interpreter &I, const Function &Main, const Workload &W,
            unsigned Rep) {
  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  I.resetGlobals();
  RunResult R = I.run(Main, repArgs(W, Main, Rep), RC);
  ASSERT_TRUE(R.Ok) << W.Name << " rep " << Rep << ": " << R.Error;
}

void expectSameCounters(const ProfileRuntime &A, const ProfileRuntime &B,
                        const char *Workload, const char *Mode,
                        unsigned Shards) {
  ASSERT_EQ(A.PathCounts.size(), B.PathCounts.size());
  for (size_t F = 0; F < A.PathCounts.size(); ++F)
    EXPECT_TRUE(A.PathCounts[F] == B.PathCounts[F])
        << Workload << "/" << Mode << " shards=" << Shards
        << ": path counters of function " << F;
  EXPECT_TRUE(A.TypeICounts == B.TypeICounts)
      << Workload << "/" << Mode << " shards=" << Shards << ": Type I";
  EXPECT_TRUE(A.TypeIICounts == B.TypeIICounts)
      << Workload << "/" << Mode << " shards=" << Shards << ": Type II";
}

/// The core property: \p Reps reps over \p Shards shards, tree-merged (on a
/// real pool), equals the serial single-runtime fold, and folding the
/// shards' artifacts equals the artifact of the merged runtime.
void checkShardMerge(const Workload &W, const ModeSpec &Mode, unsigned Shards,
                     unsigned Reps) {
  ModuleInstrumentation MI;
  std::unique_ptr<Module> M = prepare(W, Mode.Opts, MI);
  ASSERT_NE(M, nullptr);
  const Function *Main = M->findFunction("main");
  ASSERT_NE(Main, nullptr) << W.Name;

  // Serial baseline: every rep in order into one runtime.
  ProfileRuntime Serial(M->numFunctions());
  configure(Serial, *M, MI);
  {
    Interpreter I(*M, &Serial);
    for (unsigned Rep = 0; Rep < Reps; ++Rep)
      runRep(I, *Main, W, Rep);
  }

  // Sharded: rep r belongs to shard r % Shards; each shard runs its reps
  // serially, the shards run concurrently, each writing only its own
  // counters (the parallelFor slot owns the shard).
  TaskPool Pool(Shards);
  ShardedProfile SP(M->numFunctions(), Shards);
  for (uint32_t F = 0; F < M->numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      SP.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  std::vector<uint64_t> ShardReps(Shards, 0);
  Pool.parallelFor(Shards, [&](size_t ShardIdx, unsigned) {
    Interpreter I(*M, &SP.shard(static_cast<unsigned>(ShardIdx)));
    for (unsigned Rep = static_cast<unsigned>(ShardIdx); Rep < Reps;
         Rep += Shards) {
      runRep(I, *Main, W, Rep);
      ++ShardReps[ShardIdx];
    }
  });

  // Serialize the shards now: merge() clears the shards it folds away.
  auto Artifact = [&](const ProfileRuntime &Prof, uint64_t Runs) {
    RunMeta Meta;
    Meta.Workload = W.Name;
    Meta.Runs = Runs;
    return ProfileArtifact::fromRuntime(*M, MI, Prof, Meta);
  };
  std::vector<ProfileArtifact> ShardArts;
  for (unsigned S = 0; S < Shards; ++S)
    ShardArts.push_back(Artifact(SP.shard(S), ShardReps[S]));

  ProfileRuntime &Merged = SP.merge(&Pool);
  expectSameCounters(Merged, Serial, W.Name.c_str(), Mode.Name, Shards);

  ProfileArtifact Folded = makeEmptyLike(ShardArts[0]);
  std::vector<Diagnostic> Diags;
  for (const ProfileArtifact &A : ShardArts)
    ASSERT_TRUE(mergeArtifacts(Folded, A, Diags))
        << W.Name << "/" << Mode.Name << ": " << Diags[0].Message;
  std::string FirstDiff;
  EXPECT_TRUE(artifactsEqual(Folded, Artifact(Merged, Reps), &FirstDiff))
      << W.Name << "/" << Mode.Name << " shards=" << Shards << ": "
      << FirstDiff;
}

class ShardMergeTest : public testing::TestWithParam<const Workload *> {};

// Whole-suite coverage at one representative shard count, in every
// instrumentation mode.
TEST_P(ShardMergeTest, ThreeShardsMatchSerialInEveryMode) {
  for (const ModeSpec &Mode : allModes())
    checkShardMerge(*GetParam(), Mode, /*Shards=*/3, /*Reps=*/5);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ShardMergeTest,
    testing::ValuesIn(testutil::allWorkloadPtrs()),
    [](const testing::TestParamInfo<const Workload *> &Info) {
      return Info.param->Name;
    });

// Shard-count independence: 1, 2, 4 and 7 shards (including counts that do
// not divide the rep count, and an odd count that makes the merge tree
// ragged) all produce the serial result on one workload in full mode.
TEST(ShardMerge, ShardCountDoesNotChangeTheResult) {
  const Workload *W = findWorkload("espresso");
  ASSERT_NE(W, nullptr);
  ModeSpec Full = allModes()[0];
  for (unsigned Shards : {1u, 2u, 4u, 7u})
    checkShardMerge(*W, Full, Shards, /*Reps=*/9);
}

// --- saturation semantics of the merge primitives -----------------------

TEST(ShardMerge, PathStoreMergeSaturatesInsteadOfWrapping) {
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  PathCounterStore A, B;
  A.configure(16);
  B.configure(16);
  A.add(5, Max - 1);
  B.add(5, 10);
  B.add(7, 3);
  A.mergeFrom(B);
  EXPECT_EQ(A.lookup(5), Max); // clamped, not wrapped to 8
  EXPECT_EQ(A.lookup(7), 3u);

  // Spill-map ids (outside the dense window) saturate identically.
  PathCounterStore C, D;
  C.add(1'000'000, Max);
  D.add(1'000'000, 1);
  C.mergeFrom(D);
  EXPECT_EQ(C.lookup(1'000'000), Max);
}

TEST(ShardMerge, PathStoreMergeOrderIsIrrelevantEvenWhenSaturating) {
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  auto MakeShards = [&] {
    std::vector<PathCounterStore> S(3);
    for (auto &X : S)
      X.configure(8);
    S[0].add(1, Max - 5);
    S[1].add(1, 4);
    S[2].add(1, 4); // total saturates
    S[0].add(2, 7);
    S[2].add(2, 11);
    return S;
  };
  // Left-to-right fold.
  auto A = MakeShards();
  A[0].mergeFrom(A[1]);
  A[0].mergeFrom(A[2]);
  // Tree order: (1 += 2), then (0 += 1).
  auto B = MakeShards();
  B[1].mergeFrom(B[2]);
  B[0].mergeFrom(B[1]);
  EXPECT_TRUE(A[0] == B[0]);
  EXPECT_EQ(A[0].lookup(1), Max);
  EXPECT_EQ(A[0].lookup(2), 18u);
}

TEST(ShardMerge, InterprocTableMergeSaturatesAndStaysPositive) {
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  InterprocKey K{1, 2, 3, 4};
  FlatInterprocTable A, B;
  A.bump(K, Max - 2);
  B.bump(K, 100);
  A.mergeFrom(B);
  EXPECT_EQ(A.lookup(K), Max); // a wrapped count would read as empty
  EXPECT_EQ(A.size(), 1u);
}

TEST(ShardMerge, TreeMergeOfSaturatingRuntimesEqualsSerialFold) {
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  const unsigned Shards = 4;
  auto Fill = [&](ProfileRuntime &P, unsigned I) {
    P.PathCounts[0].add(0, Max / 2);
    P.PathCounts[0].add(static_cast<int64_t>(I + 1), I + 1);
    P.TypeICounts.bump(InterprocKey{1, 0, 2, 3}, Max / 3 + I);
  };

  ShardedProfile SP(/*NumFunctions=*/1, Shards);
  ProfileRuntime Serial(1);
  for (unsigned I = 0; I < Shards; ++I) {
    Fill(SP.shard(I), I);
    ProfileRuntime Tmp(1);
    Fill(Tmp, I);
    Serial.mergeFrom(Tmp);
  }
  ProfileRuntime &Merged = SP.merge(); // serial tree (no pool): same result
  EXPECT_EQ(Merged.PathCounts[0].lookup(0), Max); // 4 * Max/2 clamps
  expectSameCounters(Merged, Serial, "synthetic", "saturate", Shards);
}

} // namespace
