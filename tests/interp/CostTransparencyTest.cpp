//===--- CostTransparencyTest.cpp - instrumentation is all probe cost ----------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Every cost unit the instrumenter adds is probe cost: an instrumented run
// charges exactly the base cost of the uninstrumented program, so one
// instrumented run prices its own overhead. Checked over every workload
// under plain Ball-Larus, overlapping loop and interprocedural
// instrumentation, on the fast engine with and without the tracing tier
// and on the reference engine. Edge-split blocks are where this can break:
// their jump exists only to host probes (cost::SplitJump).
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"
#include "profile/Instrumenter.h"
#include "workloads/Workloads.h"

#include "../WorkloadParams.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

using namespace olpp;

namespace {

enum class CostMode { BL, OLLoop, OLInterproc };

const char *modeName(CostMode M) {
  switch (M) {
  case CostMode::BL:
    return "BL";
  case CostMode::OLLoop:
    return "OLLoop";
  case CostMode::OLInterproc:
    return "OLInterproc";
  }
  return "?";
}

// Keeps the `# GetParam() = ...` suffix of the registered test names
// readable and stable.
void PrintTo(CostMode M, std::ostream *OS) { *OS << modeName(M); }

InstrumentOptions optionsFor(CostMode M) {
  InstrumentOptions O; // plain Ball-Larus
  if (M == CostMode::OLLoop) {
    O.LoopOverlap = true;
    O.LoopDegree = 2;
  } else if (M == CostMode::OLInterproc) {
    O.Interproc = true;
    O.InterprocDegree = 2;
  }
  return O;
}

class CostTransparencyTest
    : public testing::TestWithParam<std::tuple<const Workload *, CostMode>> {
};

TEST_P(CostTransparencyTest, InstrumentedBaseCostIsPristineBaseCost) {
  const auto [W, Mode] = GetParam();
  CompileResult CR = compileMiniC(W->Source);
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  const Function *Main = CR.M->findFunction("main");
  ASSERT_NE(Main, nullptr);
  std::vector<int64_t> Args = W->PrecisionArgs;
  Args.resize(Main->NumParams, 0);

  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  RunResult Pristine;
  {
    Interpreter I(*CR.M);
    Pristine = I.run(*Main, Args, RC);
  }
  ASSERT_TRUE(Pristine.Ok) << Pristine.Error;
  ASSERT_EQ(Pristine.Counts.ProbeCost, 0u);

  std::unique_ptr<Module> IM = CR.M->clone();
  ModuleInstrumentation MI = instrumentModule(*IM, optionsFor(Mode));
  ASSERT_TRUE(MI.ok());
  const Function *IMain = IM->findFunction("main");

  struct Way {
    const char *Name;
    EngineKind Engine;
    bool Traces;
  };
  for (const Way &How : {Way{"fast, traces on", EngineKind::Fast, true},
                         Way{"fast, traces off", EngineKind::Fast, false},
                         Way{"reference", EngineKind::Reference, false}}) {
    ProfileRuntime Prof(IM->numFunctions());
    for (uint32_t F = 0; F < IM->numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());
    RunConfig IRC = RC;
    IRC.Engine = How.Engine;
    IRC.EnableTraces = How.Traces;
    Interpreter I(*IM, &Prof);
    RunResult R = I.run(*IMain, Args, IRC);
    ASSERT_TRUE(R.Ok) << How.Name << ": " << R.Error;
    EXPECT_EQ(R.ReturnValue, Pristine.ReturnValue) << How.Name;
    EXPECT_EQ(R.Counts.BaseCost, Pristine.Counts.BaseCost) << How.Name;
    EXPECT_GT(R.Counts.ProbeCost, 0u) << How.Name;
    // One run's overhead is the two-run figure, bit for bit.
    EXPECT_EQ(R.Counts.overheadPercent(),
              R.Counts.overheadPercentOver(Pristine.Counts))
        << How.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CostTransparencyTest,
    testing::Combine(testing::ValuesIn(testutil::allWorkloadPtrs()),
                     testing::Values(CostMode::BL, CostMode::OLLoop,
                                     CostMode::OLInterproc)),
    [](const testing::TestParamInfo<std::tuple<const Workload *, CostMode>>
           &Info) {
      return std::get<0>(Info.param)->Name + "_" +
             modeName(std::get<1>(Info.param));
    });

} // namespace
