//===--- EngineDiffTest.cpp - fast vs reference engine equivalence ------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Differential tests of the two execution engines: every embedded workload
// runs, fully instrumented, through the pre-decoded fast engine and the
// reference tree-walker, and every observable must match bit for bit —
// return value, DynCounts (steps, base cost, probe cost, blocks, calls),
// per-function path counters and the Type I / Type II interprocedural
// tables. This is the contract that lets the fast engine replace the
// reference everywhere: any specialization or fusion bug that perturbs a
// counter or a cost unit fails here.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"
#include "profile/Instrumenter.h"
#include "workloads/Workloads.h"

#include "../WorkloadParams.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace olpp;

namespace {

struct EngineObservation {
  RunResult Result;
  ProfileRuntime Prof;

  explicit EngineObservation(size_t NumFunctions) : Prof(NumFunctions) {}
};

/// Runs \p W instrumented at the given degrees under \p Engine with a fresh
/// interpreter and runtime, using \p Precision args (small runs) or overhead
/// args (the big loop-heavy runs the bench times).
std::unique_ptr<EngineObservation>
runWorkload(const Workload &W, EngineKind Engine, bool Precision,
            const InstrumentOptions &Opts) {
  CompileResult CR = compileMiniC(W.Source);
  EXPECT_TRUE(CR.ok()) << W.Name << ": " << CR.diagText();
  if (!CR.ok())
    return nullptr;
  std::unique_ptr<Module> M = std::move(CR.M);

  ModuleInstrumentation MI = instrumentModule(*M, Opts);
  EXPECT_TRUE(MI.ok()) << W.Name;
  if (!MI.ok())
    return nullptr;

  const Function *Main = M->findFunction("main");
  EXPECT_NE(Main, nullptr) << W.Name;
  if (!Main)
    return nullptr;
  std::vector<int64_t> Args = Precision ? W.PrecisionArgs : W.OverheadArgs;
  Args.resize(Main->NumParams, 0);

  auto Obs = std::make_unique<EngineObservation>(M->numFunctions());
  for (uint32_t F = 0; F < M->numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      Obs->Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());

  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  RC.Engine = Engine;
  Interpreter I(*M, &Obs->Prof);
  Obs->Result = I.run(*Main, Args, RC);
  EXPECT_TRUE(Obs->Result.Ok) << W.Name << ": " << Obs->Result.Error;
  return Obs;
}

void expectEquivalent(const Workload &W, bool Precision,
                      const InstrumentOptions &Opts) {
  // The two observations must come from independent compiles and runtimes;
  // nothing may be shared that could mask a divergence.
  auto Ref = runWorkload(W, EngineKind::Reference, Precision, Opts);
  auto Fast = runWorkload(W, EngineKind::Fast, Precision, Opts);
  ASSERT_NE(Ref, nullptr);
  ASSERT_NE(Fast, nullptr);

  EXPECT_EQ(Ref->Result.ReturnValue, Fast->Result.ReturnValue) << W.Name;
  EXPECT_EQ(Ref->Result.Counts.Steps, Fast->Result.Counts.Steps) << W.Name;
  EXPECT_EQ(Ref->Result.Counts.BaseCost, Fast->Result.Counts.BaseCost)
      << W.Name;
  EXPECT_EQ(Ref->Result.Counts.ProbeCost, Fast->Result.Counts.ProbeCost)
      << W.Name;
  EXPECT_EQ(Ref->Result.Counts.Blocks, Fast->Result.Counts.Blocks) << W.Name;
  EXPECT_EQ(Ref->Result.Counts.Calls, Fast->Result.Counts.Calls) << W.Name;

  ASSERT_EQ(Ref->Prof.PathCounts.size(), Fast->Prof.PathCounts.size());
  for (size_t F = 0; F < Ref->Prof.PathCounts.size(); ++F)
    EXPECT_TRUE(Ref->Prof.PathCounts[F] == Fast->Prof.PathCounts[F])
        << W.Name << ": path counters of function " << F;
  EXPECT_TRUE(Ref->Prof.TypeICounts == Fast->Prof.TypeICounts)
      << W.Name << ": Type I counters";
  EXPECT_TRUE(Ref->Prof.TypeIICounts == Fast->Prof.TypeIICounts)
      << W.Name << ": Type II counters";
}

InstrumentOptions fullOpts() {
  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  return Opts;
}

class EngineDiffTest : public testing::TestWithParam<const Workload *> {};

// Precision-sized runs of every workload: cheap enough to cover the whole
// suite, and they exercise every probe kind the instrumenter emits.
TEST_P(EngineDiffTest, PrecisionRunMatches) {
  expectEquivalent(*GetParam(), /*Precision=*/true, fullOpts());
}

// Ball-Larus-only instrumentation takes different probe shapes (no overlap
// or interprocedural micro-ops), so the specialized decodings differ too.
TEST_P(EngineDiffTest, BallLarusOnlyRunMatches) {
  InstrumentOptions Opts; // defaults: BL profile, no overlap extensions
  expectEquivalent(*GetParam(), /*Precision=*/true, Opts);
}

// Uninstrumented runs: probes absent, pure compute; the fused ALU
// superinstructions carry the whole load here.
TEST_P(EngineDiffTest, UninstrumentedRunMatches) {
  const Workload &W = *GetParam();
  CompileResult CR = compileMiniC(W.Source);
  ASSERT_TRUE(CR.ok()) << W.Name;
  std::unique_ptr<Module> M = std::move(CR.M);
  const Function *Main = M->findFunction("main");
  ASSERT_NE(Main, nullptr);
  std::vector<int64_t> Args = W.PrecisionArgs;
  Args.resize(Main->NumParams, 0);

  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  RunResult Res[2];
  for (int E = 0; E < 2; ++E) {
    Interpreter I(*M, nullptr);
    RC.Engine = E ? EngineKind::Fast : EngineKind::Reference;
    Res[E] = I.run(*Main, Args, RC);
    ASSERT_TRUE(Res[E].Ok) << W.Name << ": " << Res[E].Error;
  }
  EXPECT_EQ(Res[0].ReturnValue, Res[1].ReturnValue) << W.Name;
  EXPECT_TRUE(Res[0].Counts == Res[1].Counts) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineDiffTest,
    testing::ValuesIn(testutil::allWorkloadPtrs()),
    [](const testing::TestParamInfo<const Workload *> &Info) {
      return Info.param->Name;
    });

// The overhead-sized runs are the ones the bench actually times (tens of
// millions of steps through the hottest fusion paths); run the loop-heavy
// subset through both engines at full size.
TEST(EngineDiffOverhead, LoopHeavyWorkloadsMatchAtFullSize) {
  for (const Workload &W : allWorkloads())
    if (W.Name == "mcf" || W.Name == "twolf" || W.Name == "go")
      expectEquivalent(W, /*Precision=*/false, fullOpts());
}

// A run that dies mid-flight (fuel exhaustion) must fail identically in
// both engines: same error class, same counters at the point of death, and
// the profile runtime must stay usable for the next run.
TEST(EngineDiffAbort, FuelExhaustionMatches) {
  const Workload *W = nullptr;
  for (const Workload &X : allWorkloads())
    if (X.Name == "mcf")
      W = &X;
  ASSERT_NE(W, nullptr);

  CompileResult CR = compileMiniC(W->Source);
  ASSERT_TRUE(CR.ok());
  std::unique_ptr<Module> M = std::move(CR.M);
  InstrumentOptions Opts = fullOpts();
  ModuleInstrumentation MI = instrumentModule(*M, Opts);
  ASSERT_TRUE(MI.ok());
  const Function *Main = M->findFunction("main");
  ASSERT_NE(Main, nullptr);
  std::vector<int64_t> Args = W->OverheadArgs;
  Args.resize(Main->NumParams, 0);

  RunConfig RC;
  RC.MaxSteps = 100'000; // well below the workload's step count
  RunResult Res[2];
  DynCounts Counts[2];
  for (int E = 0; E < 2; ++E) {
    ProfileRuntime Prof(M->numFunctions());
    Interpreter I(*M, &Prof);
    RC.Engine = E ? EngineKind::Fast : EngineKind::Reference;
    Res[E] = I.run(*Main, Args, RC);
    EXPECT_FALSE(Res[E].Ok);
    Counts[E] = Res[E].Counts;
  }
  EXPECT_EQ(Res[0].Error, Res[1].Error);
  EXPECT_EQ(Counts[0].Steps, Counts[1].Steps);
  EXPECT_EQ(Counts[0].BaseCost, Counts[1].BaseCost);
  EXPECT_EQ(Counts[0].ProbeCost, Counts[1].ProbeCost);
}

// Sweep of *every* abort point: run a small program with calls in a loop
// under every step budget below its full length. Each budget must abort
// identically in both engines (error, dynamic counts, raw counters), and a
// runtime reused across two aborted runs must equal two fresh aborted
// runtimes merged — i.e. resetTransient fully recovers no matter where the
// abort landed, including the window between a call probe's shadow-stack
// push and the frame push (shrunk from the fuzzer's abort oracle).
TEST(EngineDiffAbort, EveryAbortPointIsConsistent) {
  const char *Source = R"(
    global acc;
    fn g(a, b) {
      acc = acc + a;
      return acc + b;
    }
    fn main(a, b) {
      var i = 0;
      while (i < 3) {
        i = i + 1;
        acc = g(i, a) + g(b, i);
      }
      return acc;
    }
  )";
  CompileResult CR = compileMiniC(Source);
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  std::unique_ptr<Module> M = std::move(CR.M);
  ModuleInstrumentation MI = instrumentModule(*M, fullOpts());
  ASSERT_TRUE(MI.ok());
  const Function *Main = M->findFunction("main");
  ASSERT_NE(Main, nullptr);
  const std::vector<int64_t> Args{5, 9};

  auto configure = [&](ProfileRuntime &P) {
    for (uint32_t F = 0; F < M->numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  };
  auto expectSameCounters = [&](const ProfileRuntime &A,
                                const ProfileRuntime &B, uint64_t Budget,
                                const char *What) {
    for (size_t F = 0; F < A.PathCounts.size(); ++F)
      ASSERT_TRUE(A.PathCounts[F] == B.PathCounts[F])
          << What << " at budget " << Budget << ", function " << F;
    ASSERT_TRUE(A.TypeICounts == B.TypeICounts)
        << What << " at budget " << Budget;
    ASSERT_TRUE(A.TypeIICounts == B.TypeIICounts)
        << What << " at budget " << Budget;
  };

  RunConfig RC;
  uint64_t FullSteps = 0;
  {
    ProfileRuntime P(M->numFunctions());
    configure(P);
    Interpreter I(*M, &P);
    RC.MaxSteps = 1'000'000;
    RunResult R = I.run(*Main, Args, RC);
    ASSERT_TRUE(R.Ok) << R.Error;
    FullSteps = R.Counts.Steps;
  }
  ASSERT_GT(FullSteps, 10u);

  bool SawDirtyTransient = false;
  for (uint64_t Budget = 1; Budget < FullSteps; ++Budget) {
    RC.MaxSteps = Budget;

    ProfileRuntime PRef(M->numFunctions()), PFast(M->numFunctions());
    configure(PRef);
    configure(PFast);
    RC.Engine = EngineKind::Reference;
    Interpreter IRef(*M, &PRef);
    RunResult RR = IRef.run(*Main, Args, RC);
    RC.Engine = EngineKind::Fast;
    Interpreter IFast(*M, &PFast);
    RunResult RF = IFast.run(*Main, Args, RC);

    ASSERT_FALSE(RR.Ok) << "budget " << Budget;
    ASSERT_FALSE(RF.Ok) << "budget " << Budget;
    ASSERT_EQ(RR.Error, RF.Error) << "budget " << Budget;
    ASSERT_TRUE(RR.Counts == RF.Counts) << "budget " << Budget;
    expectSameCounters(PRef, PFast, Budget, "reference vs fast");

    // The abort may strand hand-off state (shadow stack, pending return);
    // resetTransient must restore the between-runs invariant.
    SawDirtyTransient |= !PFast.transientClean();
    PFast.resetTransient();
    ASSERT_TRUE(PFast.transientClean()) << "budget " << Budget;

    // Reusing one runtime across two aborted runs must count exactly like
    // two independent aborted runs merged.
    ProfileRuntime PReuse(M->numFunctions());
    configure(PReuse);
    Interpreter IReuse(*M, &PReuse);
    IReuse.run(*Main, Args, RC);
    IReuse.resetGlobals();
    IReuse.run(*Main, Args, RC);
    ProfileRuntime Expected(M->numFunctions());
    configure(Expected);
    Expected.mergeFrom(PFast);
    Expected.mergeFrom(PFast);
    expectSameCounters(PReuse, Expected, Budget, "reused vs merged");
  }
  // The sweep passed through every instruction boundary, so it must have
  // hit at least one abort inside the probe/call hand-off window.
  EXPECT_TRUE(SawDirtyTransient);
}

} // namespace
