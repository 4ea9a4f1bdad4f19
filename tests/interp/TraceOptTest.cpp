//===--- TraceOptTest.cpp - trace optimizer goldens + properties ----------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The trace optimizer (TraceOpt.cpp) computes guard pass budgets for a
// CompiledTrace, so the executor sweeps the entry guards once per batch
// of passes instead of once per pass. Its contract is the same
// invisibility the tier itself promises — bit-identical observables
// against both the reference engine and the unoptimized fast engine.
//
// Two layers of evidence here:
//  - Golden dumps: the exact pre/post optimizer trace bodies of three
//    canonical workloads (constant-heavy, branchy, cross-procedure),
//    pinned as full-text goldens so any optimizer change is a visible diff.
//  - Property tests: randomized inputs and a fuel-budget sweep comparing
//    reference vs optimized vs unoptimized runs — deopt and abort states
//    inside a budgeted batch of passes must be bit-exact.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "interp/ExecPlan.h"
#include "interp/Interpreter.h"
#include "interp/PlanCache.h"
#include "interp/ProfileRuntime.h"
#include "interp/TraceOpt.h"
#include "interp/TraceTier.h"
#include "profile/Instrumenter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
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

/// Fast config that records on the first hot backedge, with the optimizer
/// toggled.
RunConfig optConfig(bool Opt) {
  RunConfig RC;
  RC.Engine = EngineKind::Fast;
  RC.EnableTraces = true;
  RC.TraceThreshold = 1;
  RC.EnableTraceOpt = Opt;
  return RC;
}

RunConfig referenceConfig() {
  RunConfig RC;
  RC.Engine = EngineKind::Reference;
  return RC;
}

/// Dumps the single trace the settings-keyed cache of \p P holds after a
/// run under optConfig(Opt). Plans are shared process-wide, but trace
/// caches are keyed by the full TraceSettings tuple, so the two toggles
/// never see each other's traces.
std::string dumpSingleTrace(const Program &P, bool Opt) {
  auto Plan = ExecPlanCache::global().get(*P.M);
  if (!Plan || !Plan->Traces)
    return "<no plan>";
  const TraceSettings S{1, Opt, false};
  PlanTraceCache *TC = Plan->Traces->forSettings(S);
  std::vector<const CompiledTrace *> All = TC->all();
  if (All.size() != 1)
    return "<trace count " + std::to_string(All.size()) + ">";
  return dumpTrace(*All.front());
}

//===----------------------------------------------------------------------===//
// Golden workloads
//===----------------------------------------------------------------------===//

// Constant-heavy loop body: every temporary is a compile-time constant.
// The step vector is left as compiled; only the guard budgets change.
const char *FoldSource = R"(
  global acc;
  fn main(n) {
    var i = 0;
    while (i < n) {
      var t = 3;
      var u = t * 2 + 1;
      acc = acc + u + i;
      i = i + 1;
    }
    return acc;
  }
)";

// A branch guard whose condition always holds: the optimizer keeps it
// (the step vector is never rewritten) and still budgets the entry guards.
const char *GuardSource = R"(
  global acc;
  fn main(n) {
    var i = 0;
    while (i < n) {
      if ((i & 7) < 8) {
        acc = acc + i;
      }
      i = i + 1;
    }
    return acc;
  }
)";

// Cross-procedure trace: the loop calls leaf(), so the trace carries a
// callee frame, interprocedural guards and a Ret — the budgets must cover
// the interprocedural entry guards too.
const char *CallSource = R"(
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

const char *FoldPreGolden =
    R"(trace func=0 anchor=4@1 multipass=1 basesteps=20 budgeted=0
guards: 5
  [0] LoopActive slot=0 v=1
  [1] ActiveI slot=0 v=0
  [2] LoopRo slot=0 v=0
  [3] R slot=0 v=0
  [4] LoopOlLt slot=0 v=2
steps: 16
  [0] cmplt r5 r1 r0  @f0:5 b1 base=1
  [1] guardtrue r5  @f0:6 b1 base=2
  [2] const r6 3  @f0:7 b2 base=3
  [3] const r2 3  @f0:8 b2 base=4
  [4] const r7 2  @f0:9 b2 base=5
  [5] const r8 6  @f0:10 b2 base=6
  [6] const r9 1  @f0:11 b2 base=7
  [7] const r10 7  @f0:12 b2 base=8
  [8] const r3 7  @f0:13 b2 base=9
  [9] loadg r11 g0  @f0:14 b2 base=10
  [10] addimm r12 r11 7  @f0:15 b2 base=11
  [11] add r13 r12 r1  @f0:16 b2 base=12
  [12] storeg g0 r13  @f0:17 b2 base=13
  [13] const r14 1  @f0:18 b2 base=14
  [14] addimm r15 r1 1  @f0:19 b2 base=15
  [15] move r1 r15  @f0:20 b2 base=16
effects: 6
  [0] AddLoopOl d=0 slot=0 base=0 v=1
  [1] SetLoopActive d=0 slot=0 base=18 v=0
  [2] SetLoopRo d=0 slot=0 base=18 v=0
  [3] SetLoopOl d=0 slot=0 base=18 v=0
  [4] SetLoopActive d=0 slot=0 base=18 v=1
  [5] SetR d=0 slot=0 base=18 v=0
passeffects: 4
  [0] SetR d=0 slot=0 v=0
  [1] SetLoopRo d=0 slot=0 v=0
  [2] SetLoopOl d=0 slot=0 v=0
  [3] SetLoopActive d=0 slot=0 v=1
bumps: 1
  [0] table=0 func=0 base=18 id=3
)";

const char *FoldPostGolden =
    R"(trace func=0 anchor=4@1 multipass=1 basesteps=20 budgeted=1
guards: 5
  [0] LoopActive slot=0 v=1 budget=inf
  [1] ActiveI slot=0 v=0 budget=inf
  [2] LoopRo slot=0 v=0 budget=inf
  [3] R slot=0 v=0 budget=inf
  [4] LoopOlLt slot=0 v=2 budget=inf
steps: 16
  [0] cmplt r5 r1 r0  @f0:5 b1 base=1
  [1] guardtrue r5  @f0:6 b1 base=2
  [2] const r6 3  @f0:7 b2 base=3
  [3] const r2 3  @f0:8 b2 base=4
  [4] const r7 2  @f0:9 b2 base=5
  [5] const r8 6  @f0:10 b2 base=6
  [6] const r9 1  @f0:11 b2 base=7
  [7] const r10 7  @f0:12 b2 base=8
  [8] const r3 7  @f0:13 b2 base=9
  [9] loadg r11 g0  @f0:14 b2 base=10
  [10] addimm r12 r11 7  @f0:15 b2 base=11
  [11] add r13 r12 r1  @f0:16 b2 base=12
  [12] storeg g0 r13  @f0:17 b2 base=13
  [13] const r14 1  @f0:18 b2 base=14
  [14] addimm r15 r1 1  @f0:19 b2 base=15
  [15] move r1 r15  @f0:20 b2 base=16
effects: 6
  [0] AddLoopOl d=0 slot=0 base=0 v=1
  [1] SetLoopActive d=0 slot=0 base=18 v=0
  [2] SetLoopRo d=0 slot=0 base=18 v=0
  [3] SetLoopOl d=0 slot=0 base=18 v=0
  [4] SetLoopActive d=0 slot=0 base=18 v=1
  [5] SetR d=0 slot=0 base=18 v=0
passeffects: 4
  [0] SetR d=0 slot=0 v=0
  [1] SetLoopRo d=0 slot=0 v=0
  [2] SetLoopOl d=0 slot=0 v=0
  [3] SetLoopActive d=0 slot=0 v=1
bumps: 1
  [0] table=0 func=0 base=18 id=3
)";

const char *GuardPreGolden =
    R"(trace func=0 anchor=4@1 multipass=1 basesteps=20 budgeted=0
guards: 5
  [0] LoopActive slot=0 v=1
  [1] ActiveI slot=0 v=0
  [2] LoopRo slot=0 v=-3
  [3] R slot=0 v=0
  [4] LoopOlLt slot=0 v=1
steps: 13
  [0] cmplt r3 r1 r0  @f0:5 b1 base=1
  [1] guardtrue r3  @f0:6 b1 base=2
  [2] const r4 7  @f0:8 b2 base=4
  [3] andimm r5 r1 7  @f0:9 b2 base=5
  [4] const r6 8  @f0:10 b2 base=6
  [5] cmpltimm r7 r5 8  @f0:11 b2 base=7
  [6] guardtrue r7  @f0:12 b2 base=8
  [7] loadg r8 g0  @f0:19 b5 base=9
  [8] add r9 r8 r1  @f0:20 b5 base=10
  [9] storeg g0 r9  @f0:21 b5 base=11
  [10] const r10 1  @f0:24 b6 base=14
  [11] addimm r11 r1 1  @f0:25 b6 base=15
  [12] move r1 r11  @f0:26 b6 base=16
effects: 9
  [0] AddLoopOl d=0 slot=0 base=0 v=1
  [1] AddLoopOl d=0 slot=0 base=3 v=1
  [2] AddR d=0 slot=0 base=12 v=-3
  [3] AddLoopRo d=0 slot=0 base=12 v=-1
  [4] SetLoopActive d=0 slot=0 base=18 v=0
  [5] SetLoopRo d=0 slot=0 base=18 v=-3
  [6] SetLoopOl d=0 slot=0 base=18 v=0
  [7] SetLoopActive d=0 slot=0 base=18 v=1
  [8] SetR d=0 slot=0 base=18 v=0
passeffects: 4
  [0] SetR d=0 slot=0 v=0
  [1] SetLoopRo d=0 slot=0 v=-3
  [2] SetLoopOl d=0 slot=0 v=0
  [3] SetLoopActive d=0 slot=0 v=1
bumps: 1
  [0] table=0 func=0 base=18 id=7
)";

const char *GuardPostGolden =
    R"(trace func=0 anchor=4@1 multipass=1 basesteps=20 budgeted=1
guards: 5
  [0] LoopActive slot=0 v=1 budget=inf
  [1] ActiveI slot=0 v=0 budget=inf
  [2] LoopRo slot=0 v=-3 budget=inf
  [3] R slot=0 v=0 budget=inf
  [4] LoopOlLt slot=0 v=1 budget=inf
steps: 13
  [0] cmplt r3 r1 r0  @f0:5 b1 base=1
  [1] guardtrue r3  @f0:6 b1 base=2
  [2] const r4 7  @f0:8 b2 base=4
  [3] andimm r5 r1 7  @f0:9 b2 base=5
  [4] const r6 8  @f0:10 b2 base=6
  [5] cmpltimm r7 r5 8  @f0:11 b2 base=7
  [6] guardtrue r7  @f0:12 b2 base=8
  [7] loadg r8 g0  @f0:19 b5 base=9
  [8] add r9 r8 r1  @f0:20 b5 base=10
  [9] storeg g0 r9  @f0:21 b5 base=11
  [10] const r10 1  @f0:24 b6 base=14
  [11] addimm r11 r1 1  @f0:25 b6 base=15
  [12] move r1 r11  @f0:26 b6 base=16
effects: 9
  [0] AddLoopOl d=0 slot=0 base=0 v=1
  [1] AddLoopOl d=0 slot=0 base=3 v=1
  [2] AddR d=0 slot=0 base=12 v=-3
  [3] AddLoopRo d=0 slot=0 base=12 v=-1
  [4] SetLoopActive d=0 slot=0 base=18 v=0
  [5] SetLoopRo d=0 slot=0 base=18 v=-3
  [6] SetLoopOl d=0 slot=0 base=18 v=0
  [7] SetLoopActive d=0 slot=0 base=18 v=1
  [8] SetR d=0 slot=0 base=18 v=0
passeffects: 4
  [0] SetR d=0 slot=0 v=0
  [1] SetLoopRo d=0 slot=0 v=-3
  [2] SetLoopOl d=0 slot=0 v=0
  [3] SetLoopActive d=0 slot=0 v=1
bumps: 1
  [0] table=0 func=0 base=18 id=7
)";

const char *CallPreGolden =
    R"(trace func=1 anchor=15@3 multipass=1 basesteps=25 budgeted=0
guards: 7
  [0] ActiveII slot=0 v=1
  [1] CallSiteII slot=0 v=0
  [2] CalleeII slot=0 v=0
  [3] CalleePathII slot=0 v=0
  [4] RoII slot=0 v=0
  [5] R slot=0 v=0
  [6] ActiveI slot=0 v=0
steps: 16
  [0] cmplt r3 r1 r0  @f1:5 b1 base=3
  [1] guardtrue r3  @f1:6 b1 base=4
  [2] loadg r4 g0  @f1:7 b2 base=5
  [3] loadg r5 g0  @f1:8 b2 base=6
  [4] const r6 255  @f1:9 b2 base=7
  [5] andimm r7 r5 255  @f1:10 b2 base=8
  [6] call r8 f0 ( r1 r7 )  @f1:12 b2 base=10
  [7] cmpgt r2 r0 r1  @f0:1 b0 base=12
  [8] guardtrue r2  @f0:2 b0 base=13
  [9] sub r3 r0 r1  @f0:3 b1 base=14
  [10] ret r3  @f0:5 b1 base=16
  [11] add r9 r4 r8  @f1:21 b5 base=19
  [12] storeg g0 r9  @f1:22 b5 base=20
  [13] const r10 1  @f1:23 b5 base=21
  [14] addimm r11 r1 1  @f1:24 b5 base=22
  [15] move r1 r11  @f1:25 b5 base=23
effects: 27
  [0] SetActiveII d=0 slot=0 base=0 v=0
  [1] SetLoopRo d=0 slot=0 base=0 v=0
  [2] SetLoopOl d=0 slot=0 base=0 v=0
  [3] SetLoopActive d=0 slot=0 base=0 v=1
  [4] SetR d=0 slot=0 base=0 v=0
  [5] SetLoopOl d=0 slot=0 base=2 v=1
  [6] SetLoopActive d=0 slot=0 base=9 v=0
  [7] ShadowPush d=0 slot=0 base=9 v=2
  [8] SetR d=1 slot=0 base=11 v=0
  [9] SetRI d=1 slot=0 base=11 v=0
  [10] SetOlI d=1 slot=0 base=11 v=0
  [11] SetCallSiteI d=1 slot=0 base=11 v=0
  [12] SetCallerPre d=1 slot=0 base=11 v=2
  [13] SetActiveI d=1 slot=0 base=11 v=1
  [14] SetHaveCaller d=1 slot=0 base=11 v=1
  [15] SetOlI d=1 slot=0 base=11 v=1
  [16] SetActiveI d=1 slot=0 base=15 v=0
  [17] PendingSet d=0 slot=0 base=15 v=0
  [18] ShadowPop d=0 slot=0 base=15 v=0
  [19] SetR d=0 slot=0 base=17 v=0
  [20] SetActiveII d=0 slot=0 base=17 v=1
  [21] SetCalleeII d=0 slot=0 base=17 v=0
  [22] SetCalleePathII d=0 slot=0 base=17 v=0
  [23] SetCallSiteII d=0 slot=0 base=17 v=0
  [24] SetRoII d=0 slot=0 base=17 v=0
  [25] SetOlII d=0 slot=0 base=17 v=0
  [26] PendingClear d=0 slot=0 base=17 v=0
passeffects: 11
  [0] SetR d=0 slot=0 v=0
  [1] SetRoII d=0 slot=0 v=0
  [2] SetOlII d=0 slot=0 v=0
  [3] SetCalleePathII d=0 slot=0 v=0
  [4] SetActiveII d=0 slot=0 v=1
  [5] SetCallSiteII d=0 slot=0 v=0
  [6] SetCalleeII d=0 slot=0 v=0
  [7] SetLoopRo d=0 slot=0 v=0
  [8] SetLoopOl d=0 slot=0 v=1
  [9] SetLoopActive d=0 slot=0 v=0
  [10] PendingClear d=0 slot=0 v=0
bumps: 5
  [0] table=2 func=0 base=0 id=0
  [1] table=0 func=1 base=9 id=4
  [2] table=0 func=1 base=9 id=2
  [3] table=1 func=0 base=15 id=0
  [4] table=0 func=0 base=15 id=0
)";

const char *CallPostGolden =
    R"(trace func=1 anchor=15@3 multipass=1 basesteps=25 budgeted=1
guards: 7
  [0] ActiveII slot=0 v=1 budget=inf
  [1] CallSiteII slot=0 v=0 budget=inf
  [2] CalleeII slot=0 v=0 budget=inf
  [3] CalleePathII slot=0 v=0 budget=inf
  [4] RoII slot=0 v=0 budget=inf
  [5] R slot=0 v=0 budget=inf
  [6] ActiveI slot=0 v=0 budget=inf
steps: 16
  [0] cmplt r3 r1 r0  @f1:5 b1 base=3
  [1] guardtrue r3  @f1:6 b1 base=4
  [2] loadg r4 g0  @f1:7 b2 base=5
  [3] loadg r5 g0  @f1:8 b2 base=6
  [4] const r6 255  @f1:9 b2 base=7
  [5] andimm r7 r5 255  @f1:10 b2 base=8
  [6] call r8 f0 ( r1 r7 )  @f1:12 b2 base=10
  [7] cmpgt r2 r0 r1  @f0:1 b0 base=12
  [8] guardtrue r2  @f0:2 b0 base=13
  [9] sub r3 r0 r1  @f0:3 b1 base=14
  [10] ret r3  @f0:5 b1 base=16
  [11] add r9 r4 r8  @f1:21 b5 base=19
  [12] storeg g0 r9  @f1:22 b5 base=20
  [13] const r10 1  @f1:23 b5 base=21
  [14] addimm r11 r1 1  @f1:24 b5 base=22
  [15] move r1 r11  @f1:25 b5 base=23
effects: 27
  [0] SetActiveII d=0 slot=0 base=0 v=0
  [1] SetLoopRo d=0 slot=0 base=0 v=0
  [2] SetLoopOl d=0 slot=0 base=0 v=0
  [3] SetLoopActive d=0 slot=0 base=0 v=1
  [4] SetR d=0 slot=0 base=0 v=0
  [5] SetLoopOl d=0 slot=0 base=2 v=1
  [6] SetLoopActive d=0 slot=0 base=9 v=0
  [7] ShadowPush d=0 slot=0 base=9 v=2
  [8] SetR d=1 slot=0 base=11 v=0
  [9] SetRI d=1 slot=0 base=11 v=0
  [10] SetOlI d=1 slot=0 base=11 v=0
  [11] SetCallSiteI d=1 slot=0 base=11 v=0
  [12] SetCallerPre d=1 slot=0 base=11 v=2
  [13] SetActiveI d=1 slot=0 base=11 v=1
  [14] SetHaveCaller d=1 slot=0 base=11 v=1
  [15] SetOlI d=1 slot=0 base=11 v=1
  [16] SetActiveI d=1 slot=0 base=15 v=0
  [17] PendingSet d=0 slot=0 base=15 v=0
  [18] ShadowPop d=0 slot=0 base=15 v=0
  [19] SetR d=0 slot=0 base=17 v=0
  [20] SetActiveII d=0 slot=0 base=17 v=1
  [21] SetCalleeII d=0 slot=0 base=17 v=0
  [22] SetCalleePathII d=0 slot=0 base=17 v=0
  [23] SetCallSiteII d=0 slot=0 base=17 v=0
  [24] SetRoII d=0 slot=0 base=17 v=0
  [25] SetOlII d=0 slot=0 base=17 v=0
  [26] PendingClear d=0 slot=0 base=17 v=0
passeffects: 11
  [0] SetR d=0 slot=0 v=0
  [1] SetRoII d=0 slot=0 v=0
  [2] SetOlII d=0 slot=0 v=0
  [3] SetCalleePathII d=0 slot=0 v=0
  [4] SetActiveII d=0 slot=0 v=1
  [5] SetCallSiteII d=0 slot=0 v=0
  [6] SetCalleeII d=0 slot=0 v=0
  [7] SetLoopRo d=0 slot=0 v=0
  [8] SetLoopOl d=0 slot=0 v=1
  [9] SetLoopActive d=0 slot=0 v=0
  [10] PendingClear d=0 slot=0 v=0
bumps: 5
  [0] table=2 func=0 base=0 id=0
  [1] table=0 func=1 base=9 id=4
  [2] table=0 func=1 base=9 id=2
  [3] table=1 func=0 base=15 id=0
  [4] table=0 func=0 base=15 id=0
)";

/// Runs one golden workload both ways, checks bit-exactness against the
/// reference, and pins the pre/post dump text.
void goldenCase(const char *Source, const char *PreGolden,
                const char *PostGolden, const char *What) {
  Program P = compileInstrumented(Source);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{40};

  auto Ref = runOnce(P, Args, referenceConfig());
  auto Pre = runOnce(P, Args, optConfig(false));
  auto Post = runOnce(P, Args, optConfig(true));
  ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
  ASSERT_TRUE(Pre->Res.Ok) << Pre->Res.Error;
  ASSERT_TRUE(Post->Res.Ok) << Post->Res.Error;

  EXPECT_EQ(Ref->Res.ReturnValue, Pre->Res.ReturnValue) << What;
  EXPECT_EQ(Ref->Res.ReturnValue, Post->Res.ReturnValue) << What;
  EXPECT_TRUE(Ref->Res.Counts == Pre->Res.Counts) << What;
  EXPECT_TRUE(Ref->Res.Counts == Post->Res.Counts) << What;
  expectSameCounters(Ref->Prof, Pre->Prof, std::string(What) + " pre");
  expectSameCounters(Ref->Prof, Post->Prof, std::string(What) + " post");

  EXPECT_EQ(PreGolden, dumpSingleTrace(P, false)) << What << " pre dump";
  EXPECT_EQ(PostGolden, dumpSingleTrace(P, true)) << What << " post dump";
}

TEST(TraceOptTest, GoldenFoldWorkload) {
  goldenCase(FoldSource, FoldPreGolden, FoldPostGolden, "fold");
}

TEST(TraceOptTest, GoldenGuardWorkload) {
  goldenCase(GuardSource, GuardPreGolden, GuardPostGolden, "guard");
}

TEST(TraceOptTest, GoldenCallWorkload) {
  goldenCase(CallSource, CallPreGolden, CallPostGolden, "call");
}

//===----------------------------------------------------------------------===//
// Property tests
//===----------------------------------------------------------------------===//

// Constant-heavy body *and* a data-dependent branch: the other branch reads
// the constants after a deopt out of a budgeted batch of passes, so the
// restored frame must hold exactly the values the base engine would.
const char *PropertySource = R"(
  global acc;
  fn main(n, d) {
    var i = 0;
    while (i < n) {
      var t = 5;
      var u = t * 4 + 2;
      var w = 9;
      if (i == d) {
        acc = acc * 3 + u + w;
      } else {
        acc = acc + i + u;
      }
      i = i + 1;
    }
    return acc;
  }
)";

/// xorshift-style deterministic input generator (no libc rand).
uint64_t nextRand(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

TEST(TraceOptTest, RandomizedInputsMatchReferenceAndUnoptimized) {
  Program P = compileInstrumented(PropertySource);
  ASSERT_NE(P.Main, nullptr);

  uint64_t Seed = 0x9e3779b97f4a7c15ull;
  bool SawDeopt = false;
  for (int Case = 0; Case < 48; ++Case) {
    const int64_t N = 2 + static_cast<int64_t>(nextRand(Seed) % 70);
    // Half the cases diverge mid-loop (deopt from the optimized body),
    // half never diverge (clean multi-pass exit).
    const int64_t D = static_cast<int64_t>(nextRand(Seed) % (2 * N)) - N / 2;
    const std::vector<int64_t> Args{N, D};

    auto Ref = runOnce(P, Args, referenceConfig());
    auto Opt = runOnce(P, Args, optConfig(true));
    auto NoOpt = runOnce(P, Args, optConfig(false));
    ASSERT_TRUE(Ref->Res.Ok) << Ref->Res.Error;
    ASSERT_TRUE(Opt->Res.Ok) << "case " << Case << ": " << Opt->Res.Error;
    ASSERT_TRUE(NoOpt->Res.Ok) << "case " << Case << ": " << NoOpt->Res.Error;

    const std::string What = "case " + std::to_string(Case) + " n=" +
                             std::to_string(N) + " d=" + std::to_string(D);
    EXPECT_EQ(Ref->Res.ReturnValue, Opt->Res.ReturnValue) << What;
    EXPECT_EQ(Ref->Res.ReturnValue, NoOpt->Res.ReturnValue) << What;
    EXPECT_TRUE(Ref->Res.Counts == Opt->Res.Counts) << What;
    EXPECT_TRUE(Ref->Res.Counts == NoOpt->Res.Counts) << What;
    expectSameCounters(Ref->Prof, Opt->Prof, What + " opt");
    expectSameCounters(Ref->Prof, NoOpt->Prof, What + " noopt");
    SawDeopt |= Opt->Res.Trace.Deopts > 0;
  }
  // The sweep must actually exercise the deopt-restore path.
  EXPECT_TRUE(SawDeopt);

  // The optimizer must have engaged: every installed trace carries guard
  // pass budgets. (The sweep's many divergence patterns can retire and
  // re-record, so scan every trace.)
  auto Plan = ExecPlanCache::global().get(*P.M);
  ASSERT_TRUE(Plan && Plan->Traces);
  PlanTraceCache *TC =
      Plan->Traces->forSettings(TraceSettings{1, true, false});
  ASSERT_FALSE(TC->all().empty());
  for (const CompiledTrace *T : TC->all())
    EXPECT_TRUE(T->Budgeted);
}

// Fuel-abort sweep over the property program: every budget lands the abort
// at a different trace step (and batch size), and each aborted state must
// be bit-exact.
TEST(TraceOptTest, AbortAtEveryBudgetBitExactUnderOptimizer) {
  Program P = compileInstrumented(PropertySource);
  ASSERT_NE(P.Main, nullptr);
  const std::vector<int64_t> Args{30, 17};

  // Threshold 2 keys a trace cache of its own: the randomized test above
  // already filled the threshold-1 cache of this (process-wide) plan, and
  // the full run must record its trace afresh.
  RunConfig Opt = optConfig(true);
  Opt.TraceThreshold = 2;
  RunConfig Full = Opt;
  Full.MaxSteps = 1'000'000;
  auto FullRun = runOnce(P, Args, Full);
  ASSERT_TRUE(FullRun->Res.Ok) << FullRun->Res.Error;
  ASSERT_GE(FullRun->Res.Trace.Recorded, 1u);
  const uint64_t FullSteps = FullRun->Res.Counts.Steps;
  ASSERT_GT(FullSteps, 10u);

  for (uint64_t Budget = 1; Budget < FullSteps; ++Budget) {
    RunConfig RRef = referenceConfig();
    RRef.MaxSteps = Budget;
    RunConfig ROpt = Opt;
    ROpt.MaxSteps = Budget;

    auto Ref = runOnce(P, Args, RRef);
    auto Opt = runOnce(P, Args, ROpt);
    ASSERT_FALSE(Ref->Res.Ok) << "budget " << Budget;
    ASSERT_FALSE(Opt->Res.Ok) << "budget " << Budget;
    ASSERT_EQ(Ref->Res.Error, Opt->Res.Error) << "budget " << Budget;
    ASSERT_TRUE(Ref->Res.Counts == Opt->Res.Counts) << "budget " << Budget;
    expectSameCounters(Ref->Prof, Opt->Prof,
                       "abort budget " + std::to_string(Budget));
  }
}

} // namespace
