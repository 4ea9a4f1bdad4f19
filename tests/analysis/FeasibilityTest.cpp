//===--- FeasibilityTest.cpp - Branch-correlation walker tests ---------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/Feasibility.h"
#include "analysis/Summary.h"
#include "estimate/Estimators.h"
#include "interp/Interpreter.h"
#include "profile/InfeasiblePaths.h"
#include "profile/Instrumenter.h"
#include "workloads/Workloads.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;
using namespace olpp::testutil;

TEST(Feasibility, CorrelatedDiamond) {
  auto M = makeCorrelatedDiamondModule();
  const Function &F = *M->function(0);
  CfgView Cfg = CfgView::build(F);
  PathFeasibility PF(*M);

  // En->A->J->C needs p < 10 && p > 20: proven infeasible.
  EXPECT_TRUE(PF.infeasibleSequence(F, Cfg, {0, 1, 3, 4}, false));
  // The other three paths are realizable.
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {0, 1, 3, 5}, false));
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {0, 2, 3, 4}, false));
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {0, 2, 3, 5}, false));
}

TEST(Feasibility, UncorrelatedPathsStayFeasible) {
  // makePaperLoopModule branches on three independent params: every
  // acyclic sequence is feasible.
  auto M = makePaperLoopModule();
  const Function &F = *M->function(0);
  CfgView Cfg = CfgView::build(F);
  PathFeasibility PF(*M);
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {0, 1, 2, 6, 7}, false));
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {1, 3, 4, 6, 7}, false));
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {1, 3, 5, 6}, false));
}

TEST(Feasibility, StructuralSurprisesDegradeToFeasible) {
  auto M = makeCorrelatedDiamondModule();
  const Function &F = *M->function(0);
  CfgView Cfg = CfgView::build(F);
  PathFeasibility PF(*M);
  // Out-of-range block, non-adjacent blocks, empty sequence: all "feasible".
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {0, 99}, false));
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {0, 4}, false));
  EXPECT_FALSE(PF.infeasibleSequence(F, Cfg, {}, false));
  // Zero step budget: gives up, never claims infeasibility.
  PathFeasibility Tight(*M, nullptr, FeasibilityOptions{0});
  EXPECT_FALSE(Tight.infeasibleSequence(F, Cfg, {0, 1, 3, 4}, false));
}

TEST(Feasibility, CallPairBindsArgumentRanges) {
  // callee branches on its parameter; caller passes a constant that makes
  // the true arm impossible.
  auto M = compileOrDie("fn callee(x) {\n"
                        "  if (x > 100) { return 1; }\n"
                        "  return 0;\n"
                        "}\n"
                        "fn main(a, b) {\n"
                        "  var r = callee(5);\n"
                        "  return r;\n"
                        "}\n");
  ModuleSummaries S = computeSummaries(*M);
  PathFeasibility PF(*M, &S);
  const Function &Main = *M->findFunction("main");
  const Function &Callee = *M->findFunction("callee");
  CfgView MainCfg = CfgView::build(Main);
  CfgView CalleeCfg = CfgView::build(Callee);

  // The call sits in main's entry block ("a call ends its block").
  // Callee block 0 branches; find its true/false successors.
  ASSERT_EQ(CalleeCfg.succs(0).size(), 2u);
  uint32_t TrueArm = CalleeCfg.succs(0)[0];
  uint32_t FalseArm = CalleeCfg.succs(0)[1];

  EXPECT_TRUE(PF.infeasibleCallPair(Main, MainCfg, {0}, false, Callee,
                                    CalleeCfg, {0, TrueArm}));
  EXPECT_FALSE(PF.infeasibleCallPair(Main, MainCfg, {0}, false, Callee,
                                     CalleeCfg, {0, FalseArm}));
}

TEST(Feasibility, ReturnPairPropagatesReturnRange) {
  // callee returns 0 or 1; the caller's continuation branches r > 5,
  // which the walked return range contradicts.
  auto M = compileOrDie("fn callee(x) {\n"
                        "  if (x > 0) { return 1; }\n"
                        "  return 0;\n"
                        "}\n"
                        "fn main(a, b) {\n"
                        "  var r = callee(a);\n"
                        "  if (r > 5) { return 111; }\n"
                        "  return 0;\n"
                        "}\n");
  ModuleSummaries S = computeSummaries(*M);
  PathFeasibility PF(*M, &S);
  const Function &Main = *M->findFunction("main");
  const Function &Callee = *M->findFunction("callee");
  CfgView MainCfg = CfgView::build(Main);
  CfgView CalleeCfg = CfgView::build(Callee);

  // Find a callee path ending at a ret: block 0 -> true arm (ret 1).
  ASSERT_EQ(CalleeCfg.succs(0).size(), 2u);
  std::vector<uint32_t> CalleeRet1 = {0, CalleeCfg.succs(0)[0]};

  // Caller continuation: the call block re-entered after the call, then
  // the r>5 branch. Find the call block's successors.
  uint32_t CallBlock = 0;
  const std::vector<uint32_t> &Cont = MainCfg.succs(CallBlock);
  ASSERT_EQ(Cont.size(), 1u); // "a call ends its block": unconditional br
  uint32_t CondBlock = Cont[0];
  ASSERT_EQ(MainCfg.succs(CondBlock).size(), 2u);
  uint32_t Taken = MainCfg.succs(CondBlock)[0];
  uint32_t NotTaken = MainCfg.succs(CondBlock)[1];

  EXPECT_TRUE(PF.infeasibleReturnPair(Callee, CalleeCfg, CalleeRet1, false,
                                      Main, MainCfg,
                                      {CallBlock, CondBlock, Taken}));
  EXPECT_FALSE(PF.infeasibleReturnPair(Callee, CalleeCfg, CalleeRet1, false,
                                       Main, MainCfg,
                                       {CallBlock, CondBlock, NotTaken}));
}

TEST(Feasibility, GlobalsSurviveSummarizedCalls) {
  // g is set before a call that provably does not write it; the branch on
  // g after the call correlates with the store.
  auto M = compileOrDie("global g;\n"
                        "fn pure(x) { return x + 1; }\n"
                        "fn main(a, b) {\n"
                        "  g = 3;\n"
                        "  var r = pure(a);\n"
                        "  if (g == 3) { return 1; }\n"
                        "  return 0;\n"
                        "}\n");
  ModuleSummaries S = computeSummaries(*M);
  PathFeasibility PF(*M, &S);
  const Function &Main = *M->findFunction("main");
  CfgView Cfg = CfgView::build(Main);

  // Blocks: 0 = store g + call, 1 = branch block, then arms.
  const std::vector<uint32_t> &Cont = Cfg.succs(0);
  ASSERT_EQ(Cont.size(), 1u);
  uint32_t CondBlock = Cont[0];
  ASSERT_EQ(Cfg.succs(CondBlock).size(), 2u);
  uint32_t NotTaken = Cfg.succs(CondBlock)[1]; // g != 3 arm

  // g==3 after a pure call: the g!=3 arm is statically impossible.
  EXPECT_TRUE(
      PF.infeasibleSequence(Main, Cfg, {0, CondBlock, NotTaken}, false));

  // Without summaries the call havocs g and nothing is provable.
  PathFeasibility NoSums(*M);
  EXPECT_FALSE(
      NoSums.infeasibleSequence(Main, Cfg, {0, CondBlock, NotTaken}, false));
}

TEST(Feasibility, IjpegProvesSixteenIdsInfeasible) {
  // ijpeg is the suite's correlated-branch workload. Instrumented at loop
  // and interprocedural degree 2, branch correlation proves exactly 16 of
  // its acyclic path ids dead, and feeding the facts to the solver never
  // widens its bounds on a profiled run.
  const Workload *W = findWorkload("ijpeg");
  ASSERT_NE(W, nullptr);
  auto M = compileOrDie(W->Source);
  ASSERT_NE(M, nullptr);
  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  ModuleInstrumentation MI = instrumentModule(*M, Opts);
  ASSERT_TRUE(MI.ok());

  ModuleSummaries Sums = computeSummaries(*M);
  uint64_t InfeasibleIds = 0;
  for (uint32_t F = 0; F < M->numFunctions(); ++F) {
    const FunctionInstrumentation &FI = MI.Funcs[F];
    if (FI.PG && FI.Cfg)
      InfeasibleIds +=
          computeInfeasiblePaths(*M->function(F), *FI.Cfg, *FI.PG, &Sums)
              .InfeasibleIds;
  }
  EXPECT_EQ(InfeasibleIds, 16u);

  const Function *Main = M->findFunction("main");
  ASSERT_NE(Main, nullptr);
  ProfileRuntime Prof(M->numFunctions());
  for (uint32_t F = 0; F < M->numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  std::vector<int64_t> Args = W->PrecisionArgs;
  Args.resize(Main->NumParams, 0);
  Interpreter I(*M, &Prof);
  RunResult R = I.run(*Main, Args, RunConfig{});
  ASSERT_TRUE(R.Ok) << R.Error;

  ModuleEstimator Est(*M, MI, Prof);
  EstimateMetrics Without = Est.estimateAll();
  PathFeasibility PF(*M, &Sums);
  Est.setFeasibility(&PF);
  EstimateMetrics With = Est.estimateAll();
  EXPECT_GE(With.Definite, Without.Definite);
  EXPECT_LE(With.Potential, Without.Potential);
}
