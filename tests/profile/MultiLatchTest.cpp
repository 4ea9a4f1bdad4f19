//===--- MultiLatchTest.cpp - loops with several backedges ---------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// MiniC lowering always produces a single latch, but the IR (and hence any
// hand-built or future frontend input) permits several backedges to one
// header. The profiler arms an overlap path per backedge; these tests pin
// that behaviour down end to end.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "wpp/ExpectedCounters.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;

namespace {

/// main(n): i = 0; while (i < n) { if (i & 1) latchA else latchB; i++ }
/// — two distinct backedges into one header.
std::unique_ptr<Module> makeTwoLatchModule() {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 1);
  IRBuilder B(*F);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Header = F->addBlock("header");
  BasicBlock *Body = F->addBlock("body");
  BasicBlock *LatchA = F->addBlock("latchA");
  BasicBlock *LatchB = F->addBlock("latchB");
  BasicBlock *Exit = F->addBlock("exit");

  B.setBlock(Entry);
  Reg I = B.constInt(0);
  Reg One = B.constInt(1);
  Reg Acc = B.constInt(0);
  B.br(Header);

  B.setBlock(Header);
  Reg Cond = B.binop(Opcode::CmpLt, I, 0 /* param n */);
  B.condBr(Cond, Body, Exit);

  B.setBlock(Body);
  Reg Odd = B.binop(Opcode::And, I, One);
  B.condBr(Odd, LatchA, LatchB);

  B.setBlock(LatchA);
  B.binopInto(Acc, Opcode::Add, Acc, I);
  B.binopInto(I, Opcode::Add, I, One);
  B.br(Header); // backedge #1

  B.setBlock(LatchB);
  B.binopInto(Acc, Opcode::Sub, Acc, I);
  B.binopInto(I, Opcode::Add, I, One);
  B.br(Header); // backedge #2

  B.setBlock(Exit);
  B.ret(Acc);
  F->renumberBlocks();
  return M;
}

} // namespace

TEST(MultiLatch, LoopInfoMergesLatches) {
  auto M = makeTwoLatchModule();
  ASSERT_TRUE(verifyModule(*M).empty());
  const Function &F = *M->function(0);
  CfgView Cfg = CfgView::build(F);
  DomTree Dom = DomTree::compute(Cfg);
  LoopInfo LI = LoopInfo::compute(Cfg, Dom);
  ASSERT_EQ(LI.numLoops(), 1u);
  EXPECT_EQ(LI.loop(0).Latches.size(), 2u);
  EXPECT_FALSE(LI.isIrreducible());
}

TEST(MultiLatch, PathGraphHasOneArmPerBackedge) {
  auto M = makeTwoLatchModule();
  const Function &F = *M->function(0);
  CfgView Cfg = CfgView::build(F);
  DomTree Dom = DomTree::compute(Cfg);
  LoopInfo LI = LoopInfo::compute(Cfg, Dom);
  PathGraphOptions Opts;
  Opts.LoopOverlap = true;
  Opts.Degree = 1;
  std::string Error;
  auto PG = PathGraph::build(F, Cfg, LI, Opts, Error);
  ASSERT_NE(PG, nullptr) << Error;
  uint64_t Arms = 0;
  for (uint32_t E = 0; E < PG->numEdges(); ++E)
    Arms += PG->edge(E).Kind == PGEdgeKind::Arm;
  EXPECT_EQ(Arms, 2u);
  for (uint32_t Latch : LI.loop(0).Latches)
    EXPECT_NE(PG->armEdgeFor(0, Latch), UINT32_MAX);
}

TEST(MultiLatch, CountersExactAcrossDegrees) {
  auto M = makeTwoLatchModule();
  for (uint32_t K : {0u, 1u, 2u, 4u}) {
    PipelineConfig C;
    C.Instr.LoopOverlap = true;
    C.Instr.LoopDegree = K;
    C.Args = {13};
    C.CollectGroundTruth = true;
    PipelineResult R = runPipeline(*M, C);
    ASSERT_TRUE(R.ok()) << "k=" << K << ": " << R.Errors[0];
    ExpectedCounters EC = computeExpectedCounters(R.MI, R.GT);
    for (uint32_t FId = 0; FId < R.Prof->PathCounts.size(); ++FId)
      EXPECT_EQ(R.Prof->PathCounts[FId], EC.PathCounts[FId]) << "k=" << K;
    EXPECT_EQ(R.GT.TotalBackedgeCrossings, 13u);
  }
}

TEST(MultiLatch, ZeroIterationLoopIsFine) {
  auto M = makeTwoLatchModule();
  PipelineConfig C;
  C.Instr.LoopOverlap = true;
  C.Instr.LoopDegree = 2;
  C.Args = {0}; // loop never entered
  C.CollectGroundTruth = true;
  PipelineResult R = runPipeline(*M, C);
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  EXPECT_EQ(R.GT.TotalBackedgeCrossings, 0u);
  ExpectedCounters EC = computeExpectedCounters(R.MI, R.GT);
  EXPECT_EQ(R.Prof->PathCounts[0], EC.PathCounts[0]);
}

TEST(MultiLatch, InstrumentedProbeShapes) {
  // Structural golden check on the paper CFG: the backedge carries
  // flush+arm+restart; every loop predicate carries an OLPred.
  auto M = testutil::makePaperLoopModule();
  InstrumentOptions O;
  O.LoopOverlap = true;
  O.LoopDegree = 1;
  ModuleInstrumentation MI = instrumentModule(*M, O);
  ASSERT_TRUE(MI.ok());
  uint64_t Arms = 0, Flushes = 0, Preds = 0, Sets = 0, Counts = 0;
  for (const auto &BB : M->function(0)->blocks())
    for (const Instruction &I : BB->Instrs) {
      if (I.Op != Opcode::Probe)
        continue;
      for (const ProbeOp &P : I.ProbePayload->Ops)
        switch (P.Kind) {
        case ProbeOpKind::OLArm:
          ++Arms;
          break;
        case ProbeOpKind::OLFlush:
          ++Flushes;
          break;
        case ProbeOpKind::OLPred:
          ++Preds;
          break;
        case ProbeOpKind::BLSet:
          ++Sets;
          break;
        case ProbeOpKind::BLCount:
          ++Counts;
          break;
        default:
          break;
        }
    }
  EXPECT_EQ(Arms, 1u);   // one backedge
  EXPECT_GE(Flushes, 2u); // backedge + loop exit
  // P1, P2 and P3 are predicates, but only region members carry OLPred; at
  // k=1 the region is {P1, B1, P2, P3} with predicates P1, P2, P3.
  EXPECT_EQ(Preds, 3u);
  EXPECT_EQ(Sets, 2u);   // function entry + backedge restart
  EXPECT_EQ(Counts, 1u); // the Ex-bound count site
}
