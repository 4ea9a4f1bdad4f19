//===--- SolverWorklistTest.cpp - worklist vs sweep solver tests --------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Differential tests of the change-driven worklist interval solver against
// the whole-constraint-set sweep oracle it replaced: on randomized seeded
// constraint systems (feasible by construction, plus adversarial infeasible
// ones) both implementations must reach the identical fixpoint, and on
// sparse systems the worklist must do strictly less work — the convergence
// regression bound that keeps the optimization honest. The same agreement
// is then checked on the estimation systems of every embedded workload.
//
//===----------------------------------------------------------------------===//

#include "estimate/IntervalSolver.h"

#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "profile/Instrumenter.h"
#include "support/Rng.h"

#include "../WorkloadParams.h"

#include <gtest/gtest.h>

#include <vector>

using namespace olpp;

namespace {

void expectSameFixpoint(uint32_t NumCells,
                        const std::vector<SumConstraint> &Cs,
                        uint64_t Seed) {
  BoundsResult WL = solveBoundsWorklist(NumCells, Cs);
  BoundsResult SW = solveBoundsSweep(NumCells, Cs);
  ASSERT_EQ(WL.Lower.size(), SW.Lower.size()) << "seed " << Seed;
  EXPECT_EQ(WL.Lower, SW.Lower) << "seed " << Seed;
  EXPECT_EQ(WL.Upper, SW.Upper) << "seed " << Seed;
  EXPECT_EQ(WL.Converged, SW.Converged) << "seed " << Seed;
}

/// Builds a feasible random system: draws a hidden assignment for the
/// cells, then emits constraints whose values are consistent with it
/// (equalities sum the hidden values exactly; inequalities add slack).
std::vector<SumConstraint> feasibleSystem(Rng &R, uint32_t NumCells,
                                          uint32_t NumConstraints,
                                          std::vector<uint64_t> *HiddenOut) {
  std::vector<uint64_t> Hidden(NumCells);
  for (uint64_t &V : Hidden)
    V = R.nextBelow(50);
  if (HiddenOut)
    *HiddenOut = Hidden;

  std::vector<SumConstraint> Cs;
  for (uint32_t C = 0; C < NumConstraints; ++C) {
    SumConstraint S;
    uint32_t Arity = 1 + static_cast<uint32_t>(R.nextBelow(5));
    uint64_t Sum = 0;
    for (uint32_t A = 0; A < Arity; ++A) {
      uint32_t Cell = static_cast<uint32_t>(R.nextBelow(NumCells));
      S.Cells.push_back(Cell);
      Sum += Hidden[Cell]; // duplicates intentionally allowed
    }
    S.Equality = R.chance(7, 10);
    S.Value = S.Equality ? Sum : Sum + R.nextBelow(20);
    Cs.push_back(std::move(S));
  }
  return Cs;
}

TEST(SolverWorklist, MatchesSweepOnRandomFeasibleSystems) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed * 0x9E3779B97F4A7C15ULL);
    uint32_t NumCells = 2 + static_cast<uint32_t>(R.nextBelow(60));
    uint32_t NumConstraints = 1 + static_cast<uint32_t>(R.nextBelow(80));
    std::vector<uint64_t> Hidden;
    auto Cs = feasibleSystem(R, NumCells, NumConstraints, &Hidden);
    expectSameFixpoint(NumCells, Cs, Seed);

    // Soundness on feasible systems: the hidden assignment satisfies every
    // constraint, so the fixpoint bounds must bracket it.
    BoundsResult WL = solveBoundsWorklist(NumCells, Cs);
    ASSERT_TRUE(WL.Converged) << "seed " << Seed;
    for (uint32_t I = 0; I < NumCells; ++I) {
      EXPECT_LE(WL.Lower[I], Hidden[I]) << "seed " << Seed << " cell " << I;
      EXPECT_GE(WL.Upper[I], Hidden[I]) << "seed " << Seed << " cell " << I;
    }
  }
}

TEST(SolverWorklist, MatchesSweepOnRandomUnconstrainedSystems) {
  // Values drawn independently of any hidden assignment: most systems are
  // infeasible, bounds may cross — the two implementations must still land
  // on the same (possibly degenerate) fixpoint.
  for (uint64_t Seed = 100; Seed < 140; ++Seed) {
    Rng R(Seed);
    uint32_t NumCells = 1 + static_cast<uint32_t>(R.nextBelow(30));
    std::vector<SumConstraint> Cs;
    uint32_t NumConstraints = 1 + static_cast<uint32_t>(R.nextBelow(40));
    for (uint32_t C = 0; C < NumConstraints; ++C) {
      SumConstraint S;
      S.Value = R.nextBelow(100);
      S.Equality = R.chance(1, 2);
      uint32_t Arity = 1 + static_cast<uint32_t>(R.nextBelow(4));
      for (uint32_t A = 0; A < Arity; ++A)
        S.Cells.push_back(static_cast<uint32_t>(R.nextBelow(NumCells)));
      Cs.push_back(std::move(S));
    }
    expectSameFixpoint(NumCells, Cs, Seed);
  }
}

TEST(SolverWorklist, MatchesSweepOnEdgeCases) {
  // No constraints at all.
  expectSameFixpoint(4, {}, 0);
  // Empty-cell constraints.
  expectSameFixpoint(2, {{5, true, {}}, {0, false, {}}}, 0);
  // Zero-valued equality pins everything it touches.
  expectSameFixpoint(3, {{0, true, {0, 1, 2}}}, 0);
  // A cell repeated inside one constraint.
  expectSameFixpoint(2, {{6, true, {0, 0, 1}}}, 0);
  // Zero cells.
  BoundsResult WL = solveBoundsWorklist(0, {});
  EXPECT_TRUE(WL.Converged);
  EXPECT_TRUE(WL.Lower.empty());
}

TEST(SolverWorklist, SolveBoundsDispatchesPerThreadImpl) {
  std::vector<SumConstraint> Cs = {{5, true, {0, 1}}, {2, false, {0}}};
  EXPECT_EQ(threadSolverImpl(), SolverImpl::Worklist); // the default
  setThreadSolverImpl(SolverImpl::Sweep);
  BoundsResult Sweep = solveBounds(2, Cs);
  setThreadSolverImpl(SolverImpl::Worklist);
  BoundsResult Worklist = solveBounds(2, Cs);
  EXPECT_EQ(Sweep.Lower, Worklist.Lower);
  EXPECT_EQ(Sweep.Upper, Worklist.Upper);
  // The sweep's effort is always a whole-set multiple; the worklist only
  // pays for constraints whose cells changed.
  EXPECT_EQ(Sweep.Evaluations % Cs.size(), 0u);
}

/// A long chain x_i + x_{i+1} == 2i+1 (hidden solution x_i = i) pinned at
/// the TAIL, with the pin listed last. Information must propagate link by
/// link against the constraint order, so the in-place sweep resolves one
/// link per round (quadratic total work) while the worklist just follows
/// the frontier backwards (linear).
std::vector<SumConstraint> chainSystem(uint32_t Links) {
  std::vector<SumConstraint> Cs;
  for (uint32_t I = 0; I < Links; ++I)
    Cs.push_back({2 * I + 1, true, {I, I + 1}});
  Cs.push_back({Links, true, {Links}}); // pin the tail: x_Links == Links
  return Cs;
}

TEST(SolverWorklist, ConvergenceBoundOnSparseChains) {
  for (uint32_t Links : {32u, 128u, 384u}) {
    auto Cs = chainSystem(Links);
    uint32_t NumCells = Links + 1;
    uint32_t Budget = NumCells + 10; // sweep needs ~one round per link
    BoundsResult WL = solveBoundsWorklist(NumCells, Cs, Budget);
    BoundsResult SW = solveBoundsSweep(NumCells, Cs, Budget);
    ASSERT_TRUE(WL.Converged);
    ASSERT_TRUE(SW.Converged);
    EXPECT_EQ(WL.Lower, SW.Lower);
    EXPECT_EQ(WL.Upper, SW.Upper);

    // The regression bound. Each link needs only a bounded number of
    // re-evaluations as the frontier passes it, so the worklist is linear
    // in the chain length; the sweep is quadratic (every round touches
    // every constraint). Both solvers are deterministic, so these bounds
    // cannot flake — they only break if someone regresses the scheduling.
    EXPECT_LE(WL.Evaluations, 8u * (Links + 1)) << Links << " links";
    EXPECT_GE(SW.Evaluations,
              static_cast<uint64_t>(Links / 2) * (Links + 1))
        << Links << " links";
    EXPECT_LT(WL.Evaluations, SW.Evaluations / 4) << Links << " links";
  }
}

TEST(SolverWorklist, EffortScalesWithChangeNotSystemSize) {
  // A large system where a single pinned cell affects only one small
  // neighbourhood: the worklist's evaluations must stay near the incidence
  // size of that neighbourhood, not the system size.
  constexpr uint32_t Islands = 400;
  std::vector<SumConstraint> Cs;
  for (uint32_t I = 0; I < Islands; ++I) {
    // Island i: cells {2i, 2i+1} with sum 10 — independent of the rest.
    Cs.push_back({10, true, {2 * I, 2 * I + 1}});
  }
  Cs.push_back({3, true, {0}}); // pin one cell of island 0
  BoundsResult WL = solveBoundsWorklist(2 * Islands, Cs);
  BoundsResult SW = solveBoundsSweep(2 * Islands, Cs);
  ASSERT_TRUE(WL.Converged);
  EXPECT_EQ(WL.Lower, SW.Lower);
  EXPECT_EQ(WL.Upper, SW.Upper);
  // Every constraint must be evaluated at least once to seed the bounds,
  // but re-evaluations happen only around the pinned island; allow three
  // passes' worth of slack against the initial seeding.
  EXPECT_LE(WL.Evaluations, 3u * Cs.size());
  EXPECT_GE(SW.Evaluations, 2u * Cs.size()); // seeding round + quiet round
}

TEST(SolverWorklist, NonConvergenceFlagsAgreeUnderTinyBudget) {
  // A chain long enough that a budget of 2 iterations cannot finish the
  // propagation; both implementations must report non-convergence rather
  // than silently returning half-tightened bounds as converged.
  auto Cs = chainSystem(64);
  BoundsResult WL = solveBoundsWorklist(65, Cs, 2);
  BoundsResult SW = solveBoundsSweep(65, Cs, 2);
  EXPECT_FALSE(SW.Converged);
  EXPECT_EQ(WL.Converged, SW.Converged);
}

class SolverWorkloadTest : public testing::TestWithParam<const Workload *> {};

// The real estimation systems of one profiled run (K=2 loop overlap plus
// interprocedural, precision args) solve to the same bounds under both
// implementations.
TEST_P(SolverWorkloadTest, WorklistMatchesSweepOnProfiledRun) {
  const Workload &W = *GetParam();
  CompileResult CR = compileMiniC(W.Source);
  ASSERT_TRUE(CR.ok()) << W.Name << ": " << CR.diagText();
  Module &M = *CR.M;
  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  ModuleInstrumentation MI = instrumentModule(M, Opts);
  ASSERT_TRUE(MI.ok()) << W.Name;
  const Function *Main = M.findFunction("main");
  ASSERT_NE(Main, nullptr) << W.Name;

  ProfileRuntime Prof(M.numFunctions());
  for (uint32_t F = 0; F < M.numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  std::vector<int64_t> Args = W.PrecisionArgs;
  Args.resize(Main->NumParams, 0);
  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  Interpreter I(M, &Prof);
  RunResult R = I.run(*Main, Args, RC);
  ASSERT_TRUE(R.Ok) << W.Name << ": " << R.Error;

  ModuleEstimator Est(M, MI, Prof);
  EstimateMetrics WL = Est.estimateAll();
  setThreadSolverImpl(SolverImpl::Sweep);
  EstimateMetrics SW = Est.estimateAll();
  setThreadSolverImpl(SolverImpl::Worklist);
  EXPECT_GT(WL.Problems, 0u) << W.Name;
  EXPECT_EQ(WL.Definite, SW.Definite) << W.Name;
  EXPECT_EQ(WL.Potential, SW.Potential) << W.Name;
  EXPECT_EQ(WL.ExactPairs, SW.ExactPairs) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SolverWorkloadTest,
    testing::ValuesIn(testutil::allWorkloadPtrs()),
    [](const testing::TestParamInfo<const Workload *> &Info) {
      return Info.param->Name;
    });

} // namespace
