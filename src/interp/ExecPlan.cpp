//===--- ExecPlan.cpp - Pre-decoded flat execution form -------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/ExecPlan.h"

#include "interp/TraceTier.h"

#include <algorithm>
#include <cassert>

using namespace olpp;

// Out-of-line so PlanTraceCache can stay an incomplete type in the header.
ExecPlan::ExecPlan() = default;
ExecPlan::~ExecPlan() = default;

ExecOp olpp::execBaseOp(ExecOp Op) {
  if (static_cast<unsigned>(Op) < kNumBaseOps)
    return Op;
  switch (Op) {
  case ExecOp::CmpEqBr:
    return ExecOp::CmpEq;
  case ExecOp::CmpNeBr:
    return ExecOp::CmpNe;
  case ExecOp::CmpLtBr:
    return ExecOp::CmpLt;
  case ExecOp::CmpLeBr:
    return ExecOp::CmpLe;
  case ExecOp::CmpGtBr:
    return ExecOp::CmpGt;
  case ExecOp::CmpGeBr:
    return ExecOp::CmpGe;
  case ExecOp::SplitBr:
    return ExecOp::Br;
  case ExecOp::ConstAnd:
  case ExecOp::ConstAdd:
  case ExecOp::ConstAndLoadArrMove:
  case ExecOp::ConstAndLoadArr:
  case ExecOp::ConstAddMove:
  case ExecOp::ConstAddMoveBr:
  case ExecOp::ConstCmpEqBr:
  case ExecOp::ConstPrFlushICountRetRet:
  case ExecOp::ConstAndLoadArrMoveCmpEqBr:
  case ExecOp::ConstAndLoadArrConstCmpEqBr:
  case ExecOp::ConstAndLoadArrMove2:
  case ExecOp::ConstCmpGeBr:
  case ExecOp::ConstAddMovePrFlushIIArmSetBr:
  case ExecOp::ConstAddMovePrFlushIFlushArmSetBr:
    return ExecOp::Const;
  case ExecOp::AndLoadArr:
  case ExecOp::AndCmpEqBr:
    return ExecOp::And;
  case ExecOp::LoadArrMove:
  case ExecOp::LoadArrCmpEqBr:
  case ExecOp::LoadArrConst:
  case ExecOp::LoadArrConstCmpEqConstCmpNeBr:
    return ExecOp::LoadArr;
  case ExecOp::AddMove:
    return ExecOp::Add;
  case ExecOp::MoveConst:
  case ExecOp::MoveBr:
    return ExecOp::Move;
  case ExecOp::CmpEqConstCmpNeBr:
    return ExecOp::CmpEq;
  case ExecOp::LoadGCmpLtBr:
    return ExecOp::LoadG;
  default:
    // Everything else is a probe specialization or probe-led compound;
    // its head ExecInstr is the original Probe record.
    return ExecOp::Probe;
  }
}

// The decoder turns an Opcode into an ExecOp by a cast; pin the mirror.
static_assert(static_cast<unsigned>(ExecOp::Const) ==
              static_cast<unsigned>(Opcode::Const));
static_assert(static_cast<unsigned>(ExecOp::CmpEq) ==
              static_cast<unsigned>(Opcode::CmpEq));
static_assert(static_cast<unsigned>(ExecOp::CmpGe) ==
              static_cast<unsigned>(Opcode::CmpGe));
static_assert(static_cast<unsigned>(ExecOp::Call) ==
              static_cast<unsigned>(Opcode::Call));
static_assert(static_cast<unsigned>(ExecOp::Probe) ==
              static_cast<unsigned>(Opcode::Probe));

/// True if \p PP is exactly the op-kind sequence \p Kinds.
static bool probeMatches(const ProbeProgram &PP,
                         std::initializer_list<ProbeOpKind> Kinds) {
  if (PP.Ops.size() != Kinds.size())
    return false;
  size_t K = 0;
  for (ProbeOpKind Kind : Kinds)
    if (PP.Ops[K++].Kind != Kind)
      return false;
  return true;
}

/// Specialized opcode for \p PP, or ExecOp::Probe if no pattern matches.
static ExecOp specializeProbe(const ProbeProgram &PP) {
  using K = ProbeOpKind;
  if (probeMatches(PP, {K::OLPred}))
    return ExecOp::PrOLPred;
  if (probeMatches(PP, {K::OLPred, K::IPPredI}))
    return ExecOp::PrOLPredPredI;
  if (probeMatches(PP, {K::OLPred, K::OLPred, K::IPPredI}))
    return ExecOp::PrOLPred2PredI;
  if (probeMatches(PP, {K::IPAddI}))
    return ExecOp::PrAddI;
  if (probeMatches(PP, {K::IPAddII}))
    return ExecOp::PrAddII;
  if (probeMatches(PP, {K::IPPredII}))
    return ExecOp::PrPredII;
  if (probeMatches(PP, {K::BLSet, K::IPEnter}))
    return ExecOp::PrEnter;
  if (probeMatches(PP, {K::BLSet, K::IPEnter, K::IPPredI}))
    return ExecOp::PrEnterPredI;
  if (probeMatches(PP, {K::IPFlushII, K::OLArm, K::BLSet}))
    return ExecOp::PrFlushIIArmSet;
  if (probeMatches(PP, {K::IPFlushI, K::BLCount, K::IPRet}))
    return ExecOp::PrFlushICountRet;
  if (probeMatches(PP, {K::BLCount, K::IPCall}))
    return ExecOp::PrCountCall;
  if (probeMatches(PP, {K::BLSet, K::IPArmII}))
    return ExecOp::PrSetArmII;
  if (probeMatches(PP, {K::IPPredI}))
    return ExecOp::PrPredI;
  if (probeMatches(PP, {K::OLPred, K::OLPred}))
    return ExecOp::PrOLPred2;
  if (probeMatches(PP, {K::IPFlushII, K::BLCount, K::IPCall}))
    return ExecOp::PrFlushIICountCall;
  if (probeMatches(PP, {K::IPFlushI, K::BLCount, K::IPCall}))
    return ExecOp::PrFlushICountCall;
  if (probeMatches(PP, {K::OLFlush, K::BLCount, K::IPCall}))
    return ExecOp::PrOLFlushCountCall;
  if (probeMatches(PP, {K::OLFlush, K::IPFlushI, K::BLCount, K::IPCall}))
    return ExecOp::PrOLFlushFlushICountCall;
  if (probeMatches(PP, {K::IPFlushII, K::BLCount, K::IPRet}))
    return ExecOp::PrFlushIICountRet;
  if (probeMatches(PP, {K::IPFlushI, K::OLFlush, K::OLArm, K::BLSet}))
    return ExecOp::PrFlushIFlushArmSet;
  if (probeMatches(PP, {K::BLAdd}))
    return ExecOp::PrBLAdd;
  if (probeMatches(PP, {K::BLAdd, K::OLAdd}))
    return ExecOp::PrBLAddOLAdd;
  return ExecOp::Probe;
}

/// Jump-fused variant of probe op \p A: with the program Br behind it, or
/// with the SplitBr of an edge-split block when \p Split. ExecOp::Probe if
/// none exists.
static ExecOp probeBrOf(ExecOp A, bool Split) {
  switch (A) {
  case ExecOp::PrOLPred:
    return Split ? ExecOp::PrOLPredSplitBr : ExecOp::PrOLPredBr;
  case ExecOp::PrAddI:
    return Split ? ExecOp::PrAddISplitBr : ExecOp::PrAddIBr;
  case ExecOp::PrAddII:
    return Split ? ExecOp::PrAddIISplitBr : ExecOp::PrAddIIBr;
  case ExecOp::PrSetArmII:
    return Split ? ExecOp::PrSetArmIISplitBr : ExecOp::PrSetArmIIBr;
  case ExecOp::PrFlushIIArmSet:
    return Split ? ExecOp::PrFlushIIArmSetSplitBr : ExecOp::PrFlushIIArmSetBr;
  case ExecOp::PrFlushIFlushArmSet:
    return Split ? ExecOp::PrFlushIFlushArmSetSplitBr
                 : ExecOp::PrFlushIFlushArmSetBr;
  case ExecOp::PrBLAdd:
    return Split ? ExecOp::PrBLAddSplitBr : ExecOp::PrBLAddBr;
  case ExecOp::PrBLAddOLAdd:
    return Split ? ExecOp::PrBLAddOLAddSplitBr : ExecOp::PrBLAddOLAddBr;
  case ExecOp::Probe:
    return Split ? ExecOp::PrProbeSplitBr : ExecOp::PrProbeBr;
  default:
    return ExecOp::Probe; // no fusion
  }
}

/// Call-fused variant of probe op \p A (the probe guarding a call site
/// fused with the Call behind it), or ExecOp::Probe if none exists.
static ExecOp probeCallOf(ExecOp A) {
  switch (A) {
  case ExecOp::PrCountCall:
    return ExecOp::PrCountCallCall;
  case ExecOp::PrFlushIICountCall:
    return ExecOp::PrFlushIICountCallCall;
  case ExecOp::PrFlushICountCall:
    return ExecOp::PrFlushICountCallCall;
  case ExecOp::PrOLFlushCountCall:
    return ExecOp::PrOLFlushCountCallCall;
  case ExecOp::PrOLFlushFlushICountCall:
    return ExecOp::PrOLFlushFlushICountCallCall;
  default:
    return ExecOp::Probe; // no fusion
  }
}

/// Ret-fused variant of probe op \p A, or ExecOp::Probe if none exists.
static ExecOp probeRetOf(ExecOp A) {
  switch (A) {
  case ExecOp::PrFlushICountRet:
    return ExecOp::PrFlushICountRetRet;
  case ExecOp::PrFlushIICountRet:
    return ExecOp::PrFlushIICountRetRet;
  default:
    return ExecOp::Probe; // no fusion
  }
}

/// A multi-instruction fusion pattern: \c Len consecutive decoded ops
/// matching \c Seq are rewritten into the single dispatch \c Fused. The
/// trailing constituents stay in place as operand records (the handler
/// reads Code[Pc+1..Pc+Len-1] directly), so patterns carry no operand
/// constraints — every constituent executes literally from its own slot.
struct FusePattern {
  uint8_t Len;
  ExecOp Seq[8];
  ExecOp Fused;
};

/// Longest-match-first table of the dynamically hottest block shapes of
/// instrumented loop code (probe-led whole blocks, compare-and-branch
/// tails, address-computation runs).
static const FusePattern kFusePatterns[] = {
    {8,
     {ExecOp::Const, ExecOp::And, ExecOp::LoadArr, ExecOp::Move, ExecOp::Const,
      ExecOp::And, ExecOp::LoadArr, ExecOp::Move},
     ExecOp::ConstAndLoadArrMove2},
    {6,
     {ExecOp::Const, ExecOp::And, ExecOp::LoadArr, ExecOp::Move, ExecOp::CmpEq,
      ExecOp::CondBr},
     ExecOp::ConstAndLoadArrMoveCmpEqBr},
    {6,
     {ExecOp::Const, ExecOp::And, ExecOp::LoadArr, ExecOp::Const,
      ExecOp::CmpEq, ExecOp::CondBr},
     ExecOp::ConstAndLoadArrConstCmpEqBr},
    {6,
     {ExecOp::LoadArr, ExecOp::Const, ExecOp::CmpEq, ExecOp::Const,
      ExecOp::CmpNe, ExecOp::Br},
     ExecOp::LoadArrConstCmpEqConstCmpNeBr},
    {5,
     {ExecOp::PrEnterPredI, ExecOp::Const, ExecOp::And, ExecOp::LoadArr,
      ExecOp::Move},
     ExecOp::PrEnterPredIConstAndLoadArrMove},
    {5,
     {ExecOp::Const, ExecOp::Add, ExecOp::Move, ExecOp::PrFlushIIArmSet,
      ExecOp::Br},
     ExecOp::ConstAddMovePrFlushIIArmSetBr},
    {5,
     {ExecOp::Const, ExecOp::Add, ExecOp::Move, ExecOp::PrFlushIFlushArmSet,
      ExecOp::Br},
     ExecOp::ConstAddMovePrFlushIFlushArmSetBr},
    {4,
     {ExecOp::PrOLPredPredI, ExecOp::LoadG, ExecOp::CmpLt, ExecOp::CondBr},
     ExecOp::PrOLPredPredILoadGCmpLtBr},
    {4,
     {ExecOp::PrOLPredPredI, ExecOp::Const, ExecOp::And, ExecOp::LoadArr},
     ExecOp::PrOLPredPredIConstAndLoadArr},
    {4,
     {ExecOp::PrOLPred2PredI, ExecOp::LoadG, ExecOp::CmpLt, ExecOp::CondBr},
     ExecOp::PrOLPred2PredILoadGCmpLtBr},
    {4,
     {ExecOp::PrEnterPredI, ExecOp::And, ExecOp::CmpEq, ExecOp::CondBr},
     ExecOp::PrEnterPredIAndCmpEqBr},
    {4,
     {ExecOp::Const, ExecOp::And, ExecOp::LoadArr, ExecOp::Move},
     ExecOp::ConstAndLoadArrMove},
    {4,
     {ExecOp::CmpEq, ExecOp::Const, ExecOp::CmpNe, ExecOp::Br},
     ExecOp::CmpEqConstCmpNeBr},
    {4,
     {ExecOp::Const, ExecOp::Add, ExecOp::Move, ExecOp::Br},
     ExecOp::ConstAddMoveBr},
    {3, {ExecOp::Const, ExecOp::Add, ExecOp::Move}, ExecOp::ConstAddMove},
    {3, {ExecOp::LoadG, ExecOp::CmpLt, ExecOp::CondBr}, ExecOp::LoadGCmpLtBr},
    {3, {ExecOp::Const, ExecOp::And, ExecOp::LoadArr}, ExecOp::ConstAndLoadArr},
    {3, {ExecOp::Const, ExecOp::CmpEq, ExecOp::CondBr}, ExecOp::ConstCmpEqBr},
    {3, {ExecOp::Const, ExecOp::CmpGe, ExecOp::CondBr}, ExecOp::ConstCmpGeBr},
    {3,
     {ExecOp::Const, ExecOp::PrFlushICountRet, ExecOp::Ret},
     ExecOp::ConstPrFlushICountRetRet},
    {3, {ExecOp::And, ExecOp::CmpEq, ExecOp::CondBr}, ExecOp::AndCmpEqBr},
    {3,
     {ExecOp::LoadArr, ExecOp::CmpEq, ExecOp::CondBr},
     ExecOp::LoadArrCmpEqBr},
    {3,
     {ExecOp::PrOLPred, ExecOp::CmpEq, ExecOp::CondBr},
     ExecOp::PrOLPredCmpEqBr},
    {2, {ExecOp::PrOLPredPredI, ExecOp::CondBr}, ExecOp::PrOLPredPredICondBr},
    {2, {ExecOp::PrOLPred, ExecOp::CondBr}, ExecOp::PrOLPredCondBr},
    {2, {ExecOp::PrPredII, ExecOp::CondBr}, ExecOp::PrPredIICondBr},
    {2, {ExecOp::LoadArr, ExecOp::Const}, ExecOp::LoadArrConst},
};

/// Fused opcode for the adjacent pair (\p A, \p B), or ExecOp::Probe (used
/// as a "no fusion" sentinel — a probe is never a fusion result here).
static ExecOp fuseOf(const ExecInstr &A, const ExecInstr &B) {
  if (A.Op >= ExecOp::CmpEq && A.Op <= ExecOp::CmpGe &&
      B.Op == ExecOp::CondBr && B.Src0 == A.Dst)
    return static_cast<ExecOp>(static_cast<unsigned>(ExecOp::CmpEqBr) +
                               (static_cast<unsigned>(A.Op) -
                                static_cast<unsigned>(ExecOp::CmpEq)));
  if (A.Op == ExecOp::Const && B.Op == ExecOp::And)
    return ExecOp::ConstAnd;
  if (A.Op == ExecOp::And && B.Op == ExecOp::LoadArr)
    return ExecOp::AndLoadArr;
  if (A.Op == ExecOp::LoadArr && B.Op == ExecOp::Move)
    return ExecOp::LoadArrMove;
  if (A.Op == ExecOp::Add && B.Op == ExecOp::Move)
    return ExecOp::AddMove;
  if (A.Op == ExecOp::Move && B.Op == ExecOp::Const)
    return ExecOp::MoveConst;
  if (A.Op == ExecOp::Const && B.Op == ExecOp::Add)
    return ExecOp::ConstAdd;
  if (A.Op == ExecOp::Move && B.Op == ExecOp::Br)
    return ExecOp::MoveBr;
  if ((B.Op == ExecOp::Br || B.Op == ExecOp::SplitBr) &&
      (A.Op == ExecOp::Probe || A.Op >= ExecOp::PrOLPred))
    return probeBrOf(A.Op, B.Op == ExecOp::SplitBr);
  if (B.Op == ExecOp::Call && A.Op >= ExecOp::PrOLPred)
    return probeCallOf(A.Op);
  if (B.Op == ExecOp::Ret && A.Op >= ExecOp::PrOLPred)
    return probeRetOf(A.Op);
  return ExecOp::Probe;
}

uint32_t FuncPlan::blockOfPc(uint32_t Pc) const {
  assert(!BlockPc.empty() && "empty function plan");
  auto It = std::upper_bound(BlockPc.begin(), BlockPc.end(), Pc);
  return static_cast<uint32_t>(It - BlockPc.begin()) - 1;
}

std::unique_ptr<ExecPlan> olpp::buildExecPlan(const Module &M) {
  auto Plan = std::make_unique<ExecPlan>();
  Plan->Funcs.resize(M.numFunctions());
  // Created eagerly so concurrent interpreters sharing the plan never race
  // on the pointer itself; the cache has its own internal synchronization.
  Plan->Traces = std::make_unique<PlanTraceCacheSet>(M.numFunctions());

  for (uint32_t FId = 0; FId < M.numFunctions(); ++FId) {
    const Function &F = *M.function(FId);
    FuncPlan &FP = Plan->Funcs[FId];
    FP.Name = F.Name;
    FP.NumRegs = F.NumRegs;
    FP.NumParams = F.NumParams;
    FP.NumLoopSlots = F.NumLoopSlots;

    // First pass: block id -> pc. Blocks are laid out in id order, so the
    // pc table is ascending (blockOfPc relies on this).
    FP.BlockPc.resize(F.numBlocks());
    uint32_t Pc = 0;
    for (uint32_t B = 0; B < F.numBlocks(); ++B) {
      assert(F.block(B)->Id == B && "stale block ids; renumberBlocks first");
      FP.BlockPc[B] = Pc;
      Pc += static_cast<uint32_t>(F.block(B)->Instrs.size());
    }
    FP.Code.reserve(Pc);

    // Second pass: decode.
    for (uint32_t B = 0; B < F.numBlocks(); ++B) {
      for (const Instruction &I : F.block(B)->Instrs) {
        ExecInstr E;
        E.Op = static_cast<ExecOp>(I.Op);
        E.Dst = I.Dst;
        E.Src0 = I.Src0;
        E.Src1 = I.Src1;
        E.Imm = I.Imm;
        E.GlobalId = I.GlobalId;
        E.CalleeId = I.CalleeId;
        if (I.Target0) {
          E.Target0Blk = I.Target0->Id;
          E.Target0Pc = FP.BlockPc[E.Target0Blk];
        }
        if (I.Target1) {
          E.Target1Blk = I.Target1->Id;
          E.Target1Pc = FP.BlockPc[E.Target1Blk];
        }
        if (!I.Args.empty()) {
          E.ArgsBegin = static_cast<uint32_t>(FP.ArgPool.size());
          E.ArgsCount = static_cast<uint32_t>(I.Args.size());
          FP.ArgPool.insert(FP.ArgPool.end(), I.Args.begin(), I.Args.end());
        }
        if (I.Op == Opcode::Br && I.SplitJump)
          E.Op = ExecOp::SplitBr;
        if (I.Op == Opcode::Probe && I.ProbePayload) {
          E.ArgsBegin = static_cast<uint32_t>(FP.ProbePool.size());
          E.ArgsCount = static_cast<uint32_t>(I.ProbePayload->Ops.size());
          FP.ProbePool.insert(FP.ProbePool.end(), I.ProbePayload->Ops.begin(),
                              I.ProbePayload->Ops.end());
          E.Op = specializeProbe(*I.ProbePayload);
        }
        FP.Code.push_back(E);
      }
    }

    // Fusion pass, greedy left-to-right within each block: rewrite hot
    // adjacent pairs (and one hot quad) into superinstructions. Fused
    // members never straddle a block boundary, so the shadowed trailing
    // slots are never jump targets (branches only target block starts) and
    // never call-return resume points (calls are not fusion heads).
    for (uint32_t B = 0; B < F.numBlocks(); ++B) {
      const uint32_t Begin = FP.BlockPc[B];
      const uint32_t End =
          Begin + static_cast<uint32_t>(F.block(B)->Instrs.size());
      uint32_t Pc2 = Begin;
      while (Pc2 < End) {
        const FusePattern *Hit = nullptr;
        for (const FusePattern &Pat : kFusePatterns) {
          if (Pc2 + Pat.Len > End)
            continue;
          bool Ok = true;
          for (unsigned K = 0; K < Pat.Len; ++K)
            if (FP.Code[Pc2 + K].Op != Pat.Seq[K]) {
              Ok = false;
              break;
            }
          if (Ok) {
            Hit = &Pat;
            break;
          }
        }
        if (Hit) {
          FP.Code[Pc2].Op = Hit->Fused;
          Pc2 += Hit->Len;
          continue;
        }
        if (Pc2 + 1 < End) {
          ExecInstr &A = FP.Code[Pc2];
          const ExecInstr &Nxt = FP.Code[Pc2 + 1];
          ExecOp Fused = fuseOf(A, Nxt);
          if (Fused != ExecOp::Probe) {
            A.Op = Fused;
            if (Fused >= ExecOp::CmpEqBr && Fused <= ExecOp::CmpGeBr) {
              A.Target0Pc = Nxt.Target0Pc;
              A.Target1Pc = Nxt.Target1Pc;
              A.Target0Blk = Nxt.Target0Blk;
              A.Target1Blk = Nxt.Target1Blk;
            }
            Pc2 += 2;
            continue;
          }
        }
        ++Pc2;
      }
    }
  }
  return Plan;
}
