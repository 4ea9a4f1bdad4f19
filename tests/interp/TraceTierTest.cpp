//===--- TraceTierTest.cpp - hot-path tracing tier ------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The tracing tier's contract is invisibility: with traces enabled the fast
// engine must produce bit-identical observables (return value, DynCounts,
// path counters, Type I/II tables, error strings) to the reference engine,
// while actually recording and executing traces. These tests force the tier
// through every life-cycle edge: recording, multi-pass execution, guard-exit
// deopt at every divergence iteration, abort at every fuel budget crossing
// trace passes, callee-mismatch guards on indirect calls, stale-arm hygiene
// between batch runs, and concurrent installation on a shared plan.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"
#include "profile/Instrumenter.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

using namespace olpp;

namespace {

InstrumentOptions fullOpts() {
  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  return Opts;
}

struct Program {
  std::unique_ptr<Module> M;
  const Function *Main = nullptr;
  ModuleInstrumentation MI;
};

Program compileInstrumented(const char *Source) {
  Program P;
  CompileResult CR = compileMiniC(Source);
  EXPECT_TRUE(CR.ok()) << CR.diagText();
  if (!CR.ok())
    return P;
  P.M = std::move(CR.M);
  P.MI = instrumentModule(*P.M, fullOpts());
  EXPECT_TRUE(P.MI.ok());
  P.Main = P.M->findFunction("main");
  EXPECT_NE(P.Main, nullptr);
  return P;
}

void configure(const Program &P, ProfileRuntime &Prof) {
  for (uint32_t F = 0; F < P.M->numFunctions(); ++F)
    if (P.MI.Funcs[F].PG)
      Prof.configurePathStore(F, P.MI.Funcs[F].PG->numPaths());
}

void expectSameCounters(const ProfileRuntime &A, const ProfileRuntime &B,
                        const std::string &What) {
  ASSERT_EQ(A.PathCounts.size(), B.PathCounts.size()) << What;
  for (size_t F = 0; F < A.PathCounts.size(); ++F)
    EXPECT_TRUE(A.PathCounts[F] == B.PathCounts[F])
        << What << ": path counters of function " << F;
  EXPECT_TRUE(A.TypeICounts == B.TypeICounts) << What << ": Type I";
  EXPECT_TRUE(A.TypeIICounts == B.TypeIICounts) << What << ": Type II";
}

// A loop-heavy program with calls inside the hot loop, so a recorded trace
// spans procedure boundaries (IPCall/IPEnter/IPRet/IPArmII all inside).
const char *HotLoopSource = R"(
  global acc;
  fn leaf(a, b) {
    if (a > b) { return a - b; }
    return b - a;
  }
  fn main(n) {
    var i = 0;
    while (i < n) {
      acc = acc + leaf(i, acc & 255);
      i = i + 1;
    }
    return acc;
  }
)";

// The hot loop takes a different branch on exactly one iteration (== d),
// so a trace recorded from the steady state must guard-exit there.
const char *DivergenceSource = R"(
  global acc;
  fn main(n, d) {
    var i = 0;
    while (i < n) {
      if (i == d) {
        acc = acc * 3 + 1;
      } else {
        acc = acc + i;
      }
      i = i + 1;
    }
    return acc;
  }
)";

// The hot loop calls through a function value that changes callee on
// iteration d: the trace's callee guard must deopt exactly there.
const char *CalleeSwitchSource = R"(
  global acc;
  fn even(x) { return x + x; }
  fn odd(x) { return x * 3; }
  fn main(n, d) {
    var i = 0;
    while (i < n) {
      var f = &even;
      if (i == d) { f = &odd; }
      acc = acc + f(i);
      i = i + 1;
    }
    return acc;
  }
)";

struct Observation {
  RunResult Res;
  ProfileRuntime Prof;
  explicit Observation(size_t NumFuncs) : Prof(NumFuncs) {}
};

std::unique_ptr<Observation> runOnce(const Program &P,
                                     const std::vector<int64_t> &Args,
                                     const RunConfig &RC) {
  auto Obs = std::make_unique<Observation>(P.M->numFunctions());
  configure(P, Obs->Prof);
  Interpreter I(*P.M, &Obs->Prof);
  Obs->Res = I.run(*P.Main, Args, RC);
  return Obs;
}

RunConfig tracedConfig(uint32_t Threshold = 1) {
  RunConfig RC;
  RC.Engine = EngineKind::Fast;
  RC.EnableTraces = true;
  RC.TraceThreshold = Threshold;
  return RC;
}

RunConfig referenceConfig() {
  RunConfig RC;
  RC.Engine = EngineKind::Reference;
  return RC;
}

TEST(TraceTierTest, HotLoopRecordsAndStaysBitExact) {
  Program P = compileInstrumented(HotLoopSource);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{400};

  auto Ref = runOnce(P, Args, referenceConfig());
  auto Fast = runOnce(P, Args, tracedConfig(/*Threshold=*/4));
  ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
  ASSERT_TRUE(Fast->Res.Ok) << Fast->Res.Error;

  // The tier must actually engage: at least one trace recorded and at
  // least one full pass executed inside it.
  EXPECT_GE(Fast->Res.Trace.Recorded, 1u);
  EXPECT_GE(Fast->Res.Trace.Enters, 1u);
  EXPECT_GE(Fast->Res.Trace.Passes, 1u);
  EXPECT_GT(Fast->Res.Trace.TraceSteps, 0u);

  EXPECT_EQ(Ref->Res.ReturnValue, Fast->Res.ReturnValue);
  EXPECT_TRUE(Ref->Res.Counts == Fast->Res.Counts);
  expectSameCounters(Ref->Prof, Fast->Prof, "hot loop");

  // Reference runs and trace-disabled runs report no tier activity.
  EXPECT_EQ(Ref->Res.Trace.Recorded, 0u);
  RunConfig Off = tracedConfig(1);
  Off.EnableTraces = false;
  auto NoTrace = runOnce(P, Args, Off);
  ASSERT_TRUE(NoTrace->Res.Ok);
  EXPECT_EQ(NoTrace->Res.Trace.Recorded, 0u);
  EXPECT_EQ(NoTrace->Res.Trace.Enters, 0u);
  EXPECT_TRUE(Ref->Res.Counts == NoTrace->Res.Counts);
}

// Guard exits at every possible divergence iteration: the steady-state
// trace is recorded early, then iteration d takes the other branch. Every
// d must deopt cleanly with reference-identical observables.
TEST(TraceTierTest, BranchDivergenceDeoptsAtEveryIteration) {
  Program P = compileInstrumented(DivergenceSource);
  ASSERT_NE(P.Main, nullptr);
  const int64_t N = 60;

  uint64_t TotalDeopts = 0;
  for (int64_t D = 0; D < N; ++D) {
    const std::vector<int64_t> Args{N, D};
    auto Ref = runOnce(P, Args, referenceConfig());
    auto Fast = runOnce(P, Args, tracedConfig());
    ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
    ASSERT_TRUE(Fast->Res.Ok) << "d=" << D << ": " << Fast->Res.Error;
    EXPECT_EQ(Ref->Res.ReturnValue, Fast->Res.ReturnValue) << "d=" << D;
    EXPECT_TRUE(Ref->Res.Counts == Fast->Res.Counts) << "d=" << D;
    expectSameCounters(Ref->Prof, Fast->Prof,
                       "divergence d=" + std::to_string(D));
    TotalDeopts += Fast->Res.Trace.Deopts;
  }
  // Late divergences run inside an installed trace and must guard-exit.
  EXPECT_GT(TotalDeopts, 0u);
}

// Callee-mismatch guard: an indirect call whose target flips on iteration
// d must deopt out of the trace, for every d.
TEST(TraceTierTest, CalleeMismatchDeoptsAtEveryIteration) {
  Program P = compileInstrumented(CalleeSwitchSource);
  ASSERT_NE(P.Main, nullptr);
  const int64_t N = 40;

  uint64_t TotalDeopts = 0;
  for (int64_t D = 0; D < N; ++D) {
    const std::vector<int64_t> Args{N, D};
    auto Ref = runOnce(P, Args, referenceConfig());
    auto Fast = runOnce(P, Args, tracedConfig());
    ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
    ASSERT_TRUE(Fast->Res.Ok) << "d=" << D << ": " << Fast->Res.Error;
    EXPECT_EQ(Ref->Res.ReturnValue, Fast->Res.ReturnValue) << "d=" << D;
    EXPECT_TRUE(Ref->Res.Counts == Fast->Res.Counts) << "d=" << D;
    expectSameCounters(Ref->Prof, Fast->Prof,
                       "callee switch d=" + std::to_string(D));
    TotalDeopts += Fast->Res.Trace.Deopts;
  }
  EXPECT_GT(TotalDeopts, 0u);
}

// Abort at every fuel budget: with a threshold of 1 traces install almost
// immediately, so budgets land before, inside and after trace passes. The
// aborted run must match the reference abort bit for bit (same error, same
// counts, same counters), and resetTransient must restore the between-runs
// invariant — mirroring the PR 2 stale-shadow-stack sweep.
TEST(TraceTierTest, AbortAtEveryBudgetMatchesReference) {
  Program P = compileInstrumented(HotLoopSource);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{25};

  RunConfig Full = tracedConfig();
  Full.MaxSteps = 1'000'000;
  auto FullRun = runOnce(P, Args, Full);
  ASSERT_TRUE(FullRun->Res.Ok) << FullRun->Res.Error;
  ASSERT_GE(FullRun->Res.Trace.Recorded, 1u);
  const uint64_t FullSteps = FullRun->Res.Counts.Steps;
  ASSERT_GT(FullSteps, 10u);

  for (uint64_t Budget = 1; Budget < FullSteps; ++Budget) {
    RunConfig RRef = referenceConfig();
    RRef.MaxSteps = Budget;
    RunConfig RFast = tracedConfig();
    RFast.MaxSteps = Budget;

    auto Ref = runOnce(P, Args, RRef);
    auto Fast = runOnce(P, Args, RFast);
    ASSERT_FALSE(Ref->Res.Ok) << "budget " << Budget;
    ASSERT_FALSE(Fast->Res.Ok) << "budget " << Budget;
    ASSERT_EQ(Ref->Res.Error, Fast->Res.Error) << "budget " << Budget;
    ASSERT_TRUE(Ref->Res.Counts == Fast->Res.Counts) << "budget " << Budget;
    expectSameCounters(Ref->Prof, Fast->Prof,
                       "abort budget " + std::to_string(Budget));

    // Whatever the abort stranded, resetTransient recovers it.
    Fast->Prof.resetTransient();
    ASSERT_TRUE(Fast->Prof.transientClean()) << "budget " << Budget;
  }
}

// A hot-path arm (Tier.PendingRecord) left behind by an aborted run is
// transient hand-off state exactly like a stale shadow stack: it must make
// transientClean() false, resetTransient() must clear it, and a reused
// runtime must count exactly like a fresh one because Interpreter::run
// resets transients up front.
TEST(TraceTierTest, StaleArmDoesNotLeakBetweenBatchRuns) {
  Program P = compileInstrumented(HotLoopSource);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{50};

  ProfileRuntime Stale(P.M->numFunctions());
  configure(P, Stale);
  ASSERT_TRUE(Stale.transientClean());
  Stale.Tier.PendingRecord = 0; // simulate an abort between arm and record
  ASSERT_FALSE(Stale.transientClean());
  Stale.resetTransient();
  ASSERT_TRUE(Stale.transientClean());

  // Reused across a stale arm: identical counters to a fresh runtime.
  Stale.Tier.PendingRecord = 0;
  Interpreter IStale(*P.M, &Stale);
  RunResult RS = IStale.run(*P.Main, Args, tracedConfig());
  ASSERT_TRUE(RS.Ok) << RS.Error;
  // A successful run may leave a pending return (main's own IPRet) but
  // never a live recording arm; resetTransient clears the rest.
  ASSERT_LT(Stale.Tier.PendingRecord, 0);
  Stale.resetTransient();
  ASSERT_TRUE(Stale.transientClean());

  auto Fresh = runOnce(P, Args, tracedConfig());
  ASSERT_TRUE(Fresh->Res.Ok);
  EXPECT_EQ(RS.ReturnValue, Fresh->Res.ReturnValue);
  EXPECT_TRUE(RS.Counts == Fresh->Res.Counts);
  expectSameCounters(Stale, Fresh->Prof, "stale arm reuse");

  // clear() wipes the persistent hotness table and blacklist too.
  Stale.Tier.blacklistAnchor(0, 7);
  Stale.clear();
  EXPECT_TRUE(Stale.Tier.Hot.empty());
  EXPECT_TRUE(Stale.Tier.Blacklist.empty());
  EXPECT_TRUE(Stale.transientClean());
}

// Regression: trace-state bleed through the plan cache. Plans are shared
// process-wide by content fingerprint, so traces recorded under one
// --trace-threshold used to survive into later runs of an identical-content
// module with different trace settings. Trace state is now segregated per
// (plan, threshold): a run with tracing disabled must see zero tier
// activity and bit-identical counters even right after a traced run of the
// same content, and a run with a never-reached threshold must not enter
// (or step through) traces recorded at threshold 1.
TEST(TraceTierTest, NoTracesRunAfterTracedRunSeesNoTraceState) {
  // A source unique to this test: the shared plan cache is process-wide,
  // so reusing HotLoopSource would inherit trace state (including retired
  // traces) from earlier tests and make the assertions order-dependent.
  const char *Src = R"(
    global acc;
    fn main(n) {
      var i = 0;
      while (i < n) {
        acc = acc + i * 2 + 1;
        i = i + 1;
      }
      return acc;
    }
  )";
  Program P = compileInstrumented(Src);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{200};

  // Record traces on the shared plan.
  auto Traced = runOnce(P, Args, tracedConfig(/*Threshold=*/1));
  ASSERT_TRUE(Traced->Res.Ok) << Traced->Res.Error;
  ASSERT_GE(Traced->Res.Trace.Recorded, 1u);

  // Same source, fresh compile: identical content, same shared plan.
  Program P2 = compileInstrumented(Src);
  ASSERT_NE(P2.Main, nullptr);
  RunConfig Off = tracedConfig(1);
  Off.EnableTraces = false;
  auto NoTrace = runOnce(P2, Args, Off);
  ASSERT_TRUE(NoTrace->Res.Ok) << NoTrace->Res.Error;
  EXPECT_EQ(NoTrace->Res.Trace.Recorded, 0u);
  EXPECT_EQ(NoTrace->Res.Trace.Enters, 0u);
  EXPECT_EQ(NoTrace->Res.Trace.TraceSteps, 0u);

  auto Ref = runOnce(P2, Args, referenceConfig());
  ASSERT_TRUE(Ref->Res.Ok);
  EXPECT_EQ(Ref->Res.ReturnValue, NoTrace->Res.ReturnValue);
  EXPECT_TRUE(Ref->Res.Counts == NoTrace->Res.Counts);
  expectSameCounters(Ref->Prof, NoTrace->Prof, "no-traces after traced");
}

TEST(TraceTierTest, DifferentThresholdsNeverShareRecordedTraces) {
  // Unique source, for the same order-independence reason as above.
  const char *Src = R"(
    global acc;
    fn main(n) {
      var i = 0;
      while (i < n) {
        acc = acc + (i ^ 3);
        i = i + 1;
      }
      return acc;
    }
  )";
  Program P = compileInstrumented(Src);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{200};

  auto Hot = runOnce(P, Args, tracedConfig(/*Threshold=*/1));
  ASSERT_TRUE(Hot->Res.Ok) << Hot->Res.Error;
  ASSERT_GE(Hot->Res.Trace.Recorded, 1u);

  // Identical content, but a threshold this short run never reaches: were
  // trace state shared across settings, the lookup at the loop backedge
  // would enter the threshold-1 traces installed above.
  Program P2 = compileInstrumented(Src);
  ASSERT_NE(P2.Main, nullptr);
  auto Cold = runOnce(P2, Args, tracedConfig(/*Threshold=*/1'000'000));
  ASSERT_TRUE(Cold->Res.Ok) << Cold->Res.Error;
  EXPECT_EQ(Cold->Res.Trace.Recorded, 0u);
  EXPECT_EQ(Cold->Res.Trace.Enters, 0u);
  EXPECT_EQ(Cold->Res.Trace.TraceSteps, 0u);

  auto Ref = runOnce(P2, Args, referenceConfig());
  ASSERT_TRUE(Ref->Res.Ok);
  EXPECT_TRUE(Ref->Res.Counts == Cold->Res.Counts);
  expectSameCounters(Ref->Prof, Cold->Prof, "cold threshold after hot");
}

// The artifact-driven warmup skip: seeding the hotness table with persisted
// heat arms recording on the first live completion, where an unseeded
// runtime with the same threshold would still be counting.
TEST(TraceTierTest, SeededHotnessArmsWithoutWarmup) {
  ProfileRuntime Prof(1);
  Prof.Tier.seed(0, 42, 100);
  EXPECT_LT(Prof.Tier.PendingRecord, 0);
  Prof.Tier.noteHot(0, 42, /*Threshold=*/50);
  EXPECT_EQ(Prof.Tier.PendingRecord, 0);

  // Unseeded: the same single completion is far below threshold.
  ProfileRuntime Fresh(1);
  Fresh.Tier.noteHot(0, 42, /*Threshold=*/50);
  EXPECT_LT(Fresh.Tier.PendingRecord, 0);

  // Seeding is idempotent and keeps the larger count.
  Prof.Tier.reset();
  Prof.Tier.seed(0, 7, 10);
  Prof.Tier.seed(0, 7, 3);
  Prof.Tier.noteHot(0, 7, /*Threshold=*/11);
  EXPECT_EQ(Prof.Tier.PendingRecord, 0);
}

// A loop that diverges every 8th iteration. With degree-2 overlap a trace
// pass covers two iterations, so an alternating branch would be a *stable*
// pattern; period 8 is aperiodic at pass granularity and hits the same
// side exit every 4th pass — the canonical bridge shape.
const char *BridgeSource = R"(
  global acc;
  fn main(n) {
    var i = 0;
    while (i < n) {
      if ((i & 7) == 5) {
        acc = acc + i * 2;
      } else {
        acc = acc + 1;
      }
      i = i + 1;
    }
    return acc;
  }
)";

RunConfig bridgedConfig(uint32_t LinkThreshold) {
  RunConfig RC = tracedConfig(/*Threshold=*/1);
  RC.TraceLinkThreshold = LinkThreshold;
  return RC;
}

// Side-exit linking end to end: the hot exit records a bridge, the bridge
// is stitched onto the parent, and later passes chase it back to the
// anchor — all bit-exact against the reference.
TEST(TraceTierTest, HotSideExitLinksBridgeAndStaysBitExact) {
  Program P = compileInstrumented(BridgeSource);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{400};

  auto Ref = runOnce(P, Args, referenceConfig());
  auto Fast = runOnce(P, Args, bridgedConfig(/*LinkThreshold=*/1));
  ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
  ASSERT_TRUE(Fast->Res.Ok) << Fast->Res.Error;

  EXPECT_GE(Fast->Res.Trace.Recorded, 1u);
  EXPECT_GE(Fast->Res.Trace.Bridges, 1u);
  EXPECT_GE(Fast->Res.Trace.BridgeEnters, 1u);

  EXPECT_EQ(Ref->Res.ReturnValue, Fast->Res.ReturnValue);
  EXPECT_TRUE(Ref->Res.Counts == Fast->Res.Counts);
  expectSameCounters(Ref->Prof, Fast->Prof, "bridged run");
}

// --trace-link-threshold 0 disables linking outright: the same workload
// must never compile a bridge or continue into one.
TEST(TraceTierTest, LinkThresholdZeroNeverBridges) {
  // Unique text so the shared plan cache keeps this test order-independent.
  const char *Src = R"(
    global acc;
    fn main(n) {
      var i = 0;
      while (i < n) {
        if ((i & 7) == 6) {
          acc = acc + 7;
        } else {
          acc = acc + i;
        }
        i = i + 1;
      }
      return acc;
    }
  )";
  Program P = compileInstrumented(Src);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{400};

  auto Ref = runOnce(P, Args, referenceConfig());
  auto Fast = runOnce(P, Args, bridgedConfig(/*LinkThreshold=*/0));
  ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
  ASSERT_TRUE(Fast->Res.Ok) << Fast->Res.Error;
  EXPECT_GE(Fast->Res.Trace.Recorded, 1u);
  EXPECT_EQ(Fast->Res.Trace.Bridges, 0u);
  EXPECT_EQ(Fast->Res.Trace.BridgeEnters, 0u);
  EXPECT_EQ(Ref->Res.ReturnValue, Fast->Res.ReturnValue);
  EXPECT_TRUE(Ref->Res.Counts == Fast->Res.Counts);
  expectSameCounters(Ref->Prof, Fast->Prof, "link threshold 0");
}

// Abort at every fuel budget with bridges linked at threshold 1: budgets
// land before, inside and after bridge segments (including mid-bridge
// recording), and every aborted state must equal the reference abort.
TEST(TraceTierTest, AbortAtEveryBudgetMatchesReferenceWithBridges) {
  // Unique text (same period-8 shape) for plan-cache hygiene.
  const char *Src = R"(
    global acc;
    fn main(n) {
      var i = 0;
      while (i < n) {
        if ((i & 7) == 3) {
          acc = acc + i * 3;
        } else {
          acc = acc + 2;
        }
        i = i + 1;
      }
      return acc;
    }
  )";
  Program P = compileInstrumented(Src);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{24};

  RunConfig Full = bridgedConfig(/*LinkThreshold=*/1);
  Full.MaxSteps = 1'000'000;
  auto FullRun = runOnce(P, Args, Full);
  ASSERT_TRUE(FullRun->Res.Ok) << FullRun->Res.Error;
  ASSERT_GE(FullRun->Res.Trace.Bridges, 1u);
  const uint64_t FullSteps = FullRun->Res.Counts.Steps;
  ASSERT_GT(FullSteps, 10u);

  for (uint64_t Budget = 1; Budget < FullSteps; ++Budget) {
    RunConfig RRef = referenceConfig();
    RRef.MaxSteps = Budget;
    RunConfig RFast = bridgedConfig(/*LinkThreshold=*/1);
    RFast.MaxSteps = Budget;

    auto Ref = runOnce(P, Args, RRef);
    auto Fast = runOnce(P, Args, RFast);
    ASSERT_FALSE(Ref->Res.Ok) << "budget " << Budget;
    ASSERT_FALSE(Fast->Res.Ok) << "budget " << Budget;
    ASSERT_EQ(Ref->Res.Error, Fast->Res.Error) << "budget " << Budget;
    ASSERT_TRUE(Ref->Res.Counts == Fast->Res.Counts) << "budget " << Budget;
    expectSameCounters(Ref->Prof, Fast->Prof,
                       "bridge abort budget " + std::to_string(Budget));
    Fast->Prof.resetTransient();
    ASSERT_TRUE(Fast->Prof.transientClean()) << "budget " << Budget;
  }
}

// --trace-threshold 0 means record on the first completed backedge: the
// very first loop iteration arms, and the run still matches the reference.
TEST(TraceTierTest, ThresholdZeroRecordsOnFirstCompletion) {
  // Unique text for plan-cache hygiene.
  const char *Src = R"(
    global acc;
    fn main(n) {
      var i = 0;
      while (i < n) {
        acc = acc + (i | 5);
        i = i + 1;
      }
      return acc;
    }
  )";
  Program P = compileInstrumented(Src);
  ASSERT_NE(P.Main, nullptr);

  // Two iterations: arm on the first backedge, record on the second.
  auto Tiny = runOnce(P, {3}, tracedConfig(/*Threshold=*/0));
  ASSERT_TRUE(Tiny->Res.Ok) << Tiny->Res.Error;
  EXPECT_GE(Tiny->Res.Trace.Recorded, 1u);

  auto Ref = runOnce(P, {120}, referenceConfig());
  auto Fast = runOnce(P, {120}, tracedConfig(/*Threshold=*/0));
  ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
  ASSERT_TRUE(Fast->Res.Ok) << Fast->Res.Error;
  EXPECT_GE(Fast->Res.Trace.Enters, 1u);
  EXPECT_EQ(Ref->Res.ReturnValue, Fast->Res.ReturnValue);
  EXPECT_TRUE(Ref->Res.Counts == Fast->Res.Counts);
  expectSameCounters(Ref->Prof, Fast->Prof, "threshold 0");
}

// Concurrent trace installation: many interpreters over one module share
// one ExecPlan (and thus one PlanTraceCache). All of them racing to record
// and install traces for the same anchors must stay data-race-free (the
// tsan lane runs this under ThreadSanitizer) and bit-exact per thread.
TEST(TraceTierConcurrencyTest, ParallelInstallOnSharedPlan) {
  Program P = compileInstrumented(HotLoopSource);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{300};

  auto Ref = runOnce(P, Args, referenceConfig());
  ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;

  constexpr int NumThreads = 4;
  std::vector<std::unique_ptr<Observation>> Obs(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] { Obs[T] = runOnce(P, Args, tracedConfig()); });
  for (auto &Th : Threads)
    Th.join();

  for (int T = 0; T < NumThreads; ++T) {
    ASSERT_TRUE(Obs[T]->Res.Ok) << "thread " << T << ": " << Obs[T]->Res.Error;
    EXPECT_EQ(Ref->Res.ReturnValue, Obs[T]->Res.ReturnValue) << "thread " << T;
    EXPECT_TRUE(Ref->Res.Counts == Obs[T]->Res.Counts) << "thread " << T;
    expectSameCounters(Ref->Prof, Obs[T]->Prof,
                       "thread " + std::to_string(T));
  }
}

} // namespace
