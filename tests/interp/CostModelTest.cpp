//===--- CostModelTest.cpp - dynamic cost accounting tests ---------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/CostModel.h"
#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;
using namespace olpp::testutil;

namespace {

/// Runs a function consisting of a single probe + ret and returns the
/// probe cost charged.
uint64_t probeCostOf(std::vector<ProbeOp> Ops, uint32_t NumLoopSlots = 1) {
  Module M;
  Function *F = M.addFunction("f", 0);
  F->NumLoopSlots = NumLoopSlots;
  BasicBlock *BB = F->addBlock("entry");
  Instruction P;
  P.Op = Opcode::Probe;
  auto Prog = std::make_shared<ProbeProgram>();
  Prog->Ops = std::move(Ops);
  P.ProbePayload = Prog;
  BB->Instrs.push_back(P);
  Instruction R;
  R.Op = Opcode::Ret;
  BB->Instrs.push_back(R);
  F->renumberBlocks();

  ProfileRuntime Prof(1);
  Interpreter I(M, &Prof);
  RunResult Res = I.run(*F, {});
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res.Counts.ProbeCost;
}

} // namespace

TEST(CostModel, RegisterOpsAreCheap) {
  EXPECT_EQ(probeCostOf({{ProbeOpKind::BLSet, 0, 5, 0}}), cost::RegOp);
  EXPECT_EQ(probeCostOf({{ProbeOpKind::BLAdd, 0, 5, 0}}), cost::RegOp);
}

TEST(CostModel, CounterBumpCostsMore) {
  uint64_t Count = probeCostOf({{ProbeOpKind::BLCount, 0, 0, 0}});
  EXPECT_EQ(Count, cost::CounterBump);
  EXPECT_GT(Count, cost::RegOp);
}

TEST(CostModel, InactiveRegionOpsPayOnlyTheTest) {
  // No OLArm ran, so the region is inactive.
  EXPECT_EQ(probeCostOf({{ProbeOpKind::OLAdd, 0, 5, 0}}),
            cost::InactiveTest);
  EXPECT_EQ(probeCostOf({{ProbeOpKind::OLPred, 0, 0, 3}}),
            cost::InactiveTest);
  EXPECT_EQ(probeCostOf({{ProbeOpKind::OLFlush, 0, 0, 0}}),
            cost::InactiveTest);
}

TEST(CostModel, ActiveRegionOpsPayTheWork) {
  // Arm then add: arm costs 2 register ops, the add pays test + op.
  uint64_t C = probeCostOf({{ProbeOpKind::OLArm, 0, 0, 0},
                            {ProbeOpKind::OLAdd, 0, 5, 0}});
  EXPECT_EQ(C, 2 * cost::RegOp + cost::InactiveTest + cost::RegOp);
}

TEST(CostModel, FlushChargesTheCounter) {
  uint64_t C = probeCostOf({{ProbeOpKind::OLArm, 0, 0, 0},
                            {ProbeOpKind::OLFlush, 0, 0, 0}});
  EXPECT_EQ(C, 2 * cost::RegOp + cost::InactiveTest + cost::CounterBump);
}

TEST(CostModel, TypeIIInactiveTestsFusePerProbe) {
  // Several call sites' ops share one probe; the inactive dispatch is
  // charged once.
  uint64_t One = probeCostOf({{ProbeOpKind::IPAddII, 3, 1, 0}});
  uint64_t Three = probeCostOf({{ProbeOpKind::IPAddII, 3, 1, 0},
                                {ProbeOpKind::IPAddII, 4, 1, 0},
                                {ProbeOpKind::IPAddII, 5, 1, 0}});
  EXPECT_EQ(One, cost::InactiveTest);
  EXPECT_EQ(Three, cost::InactiveTest);
}

TEST(CostModel, TupleBumpIsTheMostExpensive) {
  EXPECT_GT(cost::TupleBump, cost::CounterBump);
  EXPECT_GT(cost::CounterBump, cost::RegOp);
}

TEST(CostModel, ProbesAreFreeWithoutARuntime) {
  Module M;
  Function *F = M.addFunction("f", 0);
  BasicBlock *BB = F->addBlock("entry");
  Instruction P;
  P.Op = Opcode::Probe;
  auto Prog = std::make_shared<ProbeProgram>();
  Prog->Ops.push_back({ProbeOpKind::BLCount, 0, 0, 0});
  P.ProbePayload = Prog;
  BB->Instrs.push_back(P);
  Instruction R;
  R.Op = Opcode::Ret;
  BB->Instrs.push_back(R);
  F->renumberBlocks();
  Interpreter I(M, nullptr); // no ProfileRuntime attached
  RunResult Res = I.run(*F, {});
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Counts.ProbeCost, 0u);
}

// The jump of an edge-split block is instrumentation: both engines charge
// it as probe cost, with or without a runtime attached, whether the fast
// engine fuses it with the probe ahead of it or runs it on its own. A
// program's own jump stays base cost, fused behind a probe too.
TEST(CostModel, SplitJumpIsProbeCost) {
  Module M;
  Function *F = M.addFunction("f", 0);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Split = F->addBlock("entry.to.mid");
  BasicBlock *Mid = F->addBlock("mid");
  BasicBlock *Exit = F->addBlock("exit");
  Instruction P;
  P.Op = Opcode::Probe;
  auto Prog = std::make_shared<ProbeProgram>();
  Prog->Ops.push_back({ProbeOpKind::BLSet, 0, 5, 0});
  P.ProbePayload = Prog;
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.Target0 = Split; // a program jump behind a probe: base cost
  Entry->Instrs = {P, Br};
  Br.Target0 = Mid;
  Br.SplitJump = true; // an edge-split jump behind a probe
  Split->Instrs = {P, Br};
  Br.Target0 = Exit; // an edge-split jump on its own
  Mid->Instrs = {Br};
  Instruction R;
  R.Op = Opcode::Ret;
  Exit->Instrs = {R};
  F->renumberBlocks();

  for (EngineKind E : {EngineKind::Fast, EngineKind::Reference}) {
    RunConfig RC;
    RC.Engine = E;
    ProfileRuntime Prof(1);
    Interpreter With(M, &Prof);
    RunResult A = With.run(*F, {}, RC);
    ASSERT_TRUE(A.Ok) << A.Error;
    EXPECT_EQ(A.Counts.BaseCost, 2 * cost::Instr) << engineKindName(E);
    EXPECT_EQ(A.Counts.ProbeCost, 2 * cost::RegOp + 2 * cost::SplitJump)
        << engineKindName(E);
    Interpreter Without(M, nullptr);
    RunResult B = Without.run(*F, {}, RC);
    ASSERT_TRUE(B.Ok) << B.Error;
    EXPECT_EQ(B.Counts.BaseCost, 2 * cost::Instr) << engineKindName(E);
    EXPECT_EQ(B.Counts.ProbeCost, 2 * cost::SplitJump) << engineKindName(E);
  }
}
