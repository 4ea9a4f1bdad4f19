//===--- TraceTier.cpp - Hot-path trace compiler and executor -------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// See TraceTier.h for the architecture. Everything here is driven by one
// invariant: a compiled trace, run for N full passes plus a partial pass
// deopting before step K, must leave the engine in the bit-identical state
// the ordinary dispatch loop would have reached — registers, frames, probe
// state, every counter store, and all five DynCounts. The compiler
// therefore mirrors execProbe (Interpreter.cpp) op kind by op kind,
// including its exact cost charges, and the executor mirrors the dispatch
// loop's call/return and fault semantics.
//
//===----------------------------------------------------------------------===//

#include "interp/TraceTier.h"

#include "interp/CostModel.h"

#include <cassert>
#include <climits>
#include <cstdlib>

namespace olpp {

//===----------------------------------------------------------------------===//
// PlanTraceCache
//===----------------------------------------------------------------------===//

PlanTraceCache::PlanTraceCache(size_t NumFuncs) : Published(NumFuncs) {
  for (auto &P : Published)
    P.store(nullptr, std::memory_order_relaxed);
}

PlanTraceCache::~PlanTraceCache() = default;

bool PlanTraceCache::install(std::unique_ptr<CompiledTrace> T) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  std::atomic<const AnchorList *> &Slot = Published[T->FuncId];
  const AnchorList *Cur = Slot.load(std::memory_order_relaxed);
  if (Cur)
    for (const auto &E : Cur->Entries)
      if (E.first == T->AnchorPc)
        return false; // lost the race; the first install wins
  auto Next = std::make_unique<AnchorList>();
  if (Cur)
    Next->Entries = Cur->Entries;
  Next->Entries.emplace_back(T->AnchorPc, T.get());
  Owned.push_back(std::move(T));
  const AnchorList *NextRaw = Next.get();
  // The superseded list stays alive in Retired: a concurrent lock-free
  // reader may still hold it. A handful of tiny vectors per function over
  // the plan's lifetime.
  Retired.push_back(std::move(Next));
  Slot.store(NextRaw, std::memory_order_release);
  return true;
}

std::vector<const CompiledTrace *> PlanTraceCache::all() const {
  std::lock_guard<std::mutex> Lock(InstallMu);
  std::vector<const CompiledTrace *> Out;
  Out.reserve(Owned.size());
  for (const auto &T : Owned)
    Out.push_back(T.get());
  return Out;
}

//===----------------------------------------------------------------------===//
// Trace compiler
//===----------------------------------------------------------------------===//

namespace {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(-static_cast<uint64_t>(A));
}

/// Symbolic int: Known holds an absolute value; otherwise the component is
/// entry-relative and V is the accumulated delta.
struct SInt {
  bool Known = false;
  bool Dirty = false;
  int64_t V = 0;
};
struct SBool {
  bool Known = false;
  bool Dirty = false;
  bool B = false;
};
struct SU32 {
  bool Known = false;
  bool Dirty = false;
  uint32_t V = 0;
};

/// Symbolic loop overlap slot, plus the range-guard bookkeeping for its
/// monotone predicate counter.
struct SLoop {
  SBool Active;
  SInt Ro;
  SInt Ol;
  int64_t OlLtBound = INT64_MAX; ///< entry Ol must be < this (if < MAX)
  bool OlEqGuarded = false;      ///< an equality guard supersedes the range
};

/// One frame of the compile-time walk: the symbolic probe state plus the
/// constant-folding lattice over its registers.
struct CompFrame {
  uint32_t FuncId = 0;
  const FuncPlan *FP = nullptr;
  Reg RetDst = NoReg;
  uint32_t SavedPc = 0;    ///< caller resume pc (frames below the top)
  uint32_t SavedBlock = 0; ///< caller resume block

  SInt R, RI, OlI, CallerPre, RoII, OlII, CalleePathII;
  SBool ActiveI, HaveCaller, ActiveII;
  SU32 CallSiteI, CallSiteII, CalleeII;
  std::vector<SLoop> Loops;
  int64_t OlILtBound = INT64_MAX;
  bool OlIEqGuarded = false;
  int64_t OlIILtBound = INT64_MAX;
  bool OlIIEqGuarded = false;

  std::vector<char> KnownReg;
  std::vector<int64_t> KVal;
};

class TraceCompiler {
public:
  TraceCompiler(const ExecPlan &P, const TraceRecorder &Rec)
      : P(P), Rec(Rec), Snap(Rec.snapshot()) {}

  std::unique_ptr<CompiledTrace> run();

private:
  /// Base-step budget per trace; beyond this the pass is too long to be
  /// worth straight-lining (and Meta's u32 accounting prefixes stay tiny).
  static constexpr uint32_t MaxBaseSteps = 4096;

  const ExecPlan &P;
  const TraceRecorder &Rec;
  const TraceSnapshot &Snap;

  std::unique_ptr<CompiledTrace> Out;
  std::vector<CompFrame> Fs;
  size_t EvIdx = 0;
  uint32_t Pc = 0;
  uint32_t CurBlock = 0;
  bool Failed = false;

  uint32_t BaseIdx = 0;
  uint64_t CumSteps = 0, CumBase = 0, CumPCost = 0, CumBlocks = 0, CumCalls = 0;

  // Global symbolic state: shadow stack and pending return.
  std::vector<std::pair<uint32_t, int64_t>> InPush; ///< in-trace pushes
  uint32_t PopsBelow = 0;
  bool DepthGuarded = false;
  std::vector<char> ShadowIdxGuarded; ///< by index-from-entry-top
  SBool PValid;
  SU32 PCallee;
  SInt PPathId;
  bool PDirty = false;

  CompFrame &cur() { return Fs.back(); }
  uint16_t depth() const { return static_cast<uint16_t>(Fs.size() - 1); }
  bool atAnchor() const { return Fs.size() == 1; }

  void fail() { Failed = true; }

  void guard(GuardKind K, uint32_t Slot, int64_t V) {
    Out->Guards.push_back({K, Slot, V});
  }
  void eff(EffectKind K, uint16_t D, uint32_t Slot, int64_t V) {
    Out->Effects.push_back({K, D, Slot, BaseIdx, V});
  }
  void emitStep(const TraceStep &S) {
    Out->Meta.push_back({cur().FuncId, Pc, CurBlock, BaseIdx,
                         static_cast<uint32_t>(CumSteps),
                         static_cast<uint32_t>(CumBase),
                         static_cast<uint32_t>(CumPCost),
                         static_cast<uint32_t>(CumBlocks),
                         static_cast<uint32_t>(CumCalls)});
    Out->Steps.push_back(S);
  }
  TraceStep step(TOp Op, Reg Dst, Reg Src0, Reg Src1, uint32_t Aux,
                 int64_t Imm) {
    TraceStep S;
    S.Op = Op;
    S.Dst = Dst;
    S.Src0 = Src0;
    S.Src1 = Src1;
    S.Aux = Aux;
    S.Imm = Imm;
    return S;
  }

  // --- constant lattice ------------------------------------------------
  bool knownReg(Reg R) const {
    const CompFrame &F = Fs.back();
    return R < F.KnownReg.size() && F.KnownReg[R];
  }
  int64_t kval(Reg R) const { return Fs.back().KVal[R]; }
  void setK(Reg R, int64_t V) {
    CompFrame &F = cur();
    if (R < F.KnownReg.size()) {
      F.KnownReg[R] = 1;
      F.KVal[R] = V;
    }
  }
  void clearK(Reg R) {
    CompFrame &F = cur();
    if (R < F.KnownReg.size())
      F.KnownReg[R] = 0;
  }

  // --- symbolic consults (emit an entry guard on first exact use) ------
  int64_t consultInt(SInt &S, GuardKind GK, uint32_t Slot, int64_t SnapV,
                     bool Anchor) {
    if (!S.Known) {
      if (!Anchor) {
        fail(); // deeper frames are fully known by construction
        return 0;
      }
      guard(GK, Slot, SnapV);
      S.V = SnapV + S.V;
      S.Known = true;
    }
    return S.V;
  }
  bool consultBool(SBool &S, GuardKind GK, uint32_t Slot, bool SnapV,
                   bool Anchor) {
    if (!S.Known) {
      if (!Anchor) {
        fail();
        return false;
      }
      guard(GK, Slot, SnapV ? 1 : 0);
      S.B = SnapV;
      S.Known = true;
    }
    return S.B;
  }
  uint32_t consultU32(SU32 &S, GuardKind GK, uint32_t SnapV, bool Anchor) {
    if (!S.Known) {
      if (!Anchor) {
        fail();
        return 0;
      }
      guard(GK, 0, static_cast<int64_t>(SnapV));
      S.V = SnapV;
      S.Known = true;
    }
    return S.V;
  }

  // --- symbolic shadow stack ------------------------------------------
  void needDepthGuard() {
    if (!DepthGuarded) {
      guard(GuardKind::ShadowDepth, 0,
            static_cast<int64_t>(Snap.Shadow.size()));
      DepthGuarded = true;
    }
  }
  bool shadowTop(uint32_t &Site, int64_t &Pre) {
    if (!InPush.empty()) {
      Site = InPush.back().first;
      Pre = InPush.back().second;
      return true;
    }
    needDepthGuard();
    if (Snap.Shadow.size() <= PopsBelow)
      return false;
    uint32_t Idx = PopsBelow; // index from the entry stack's top
    const auto &E = Snap.Shadow[Snap.Shadow.size() - 1 - Idx];
    if (ShadowIdxGuarded.size() <= Idx)
      ShadowIdxGuarded.resize(Idx + 1, 0);
    if (!ShadowIdxGuarded[Idx]) {
      guard(GuardKind::ShadowSiteAt, Idx, static_cast<int64_t>(E.CallSite));
      guard(GuardKind::ShadowPreAt, Idx, E.CallerPre);
      ShadowIdxGuarded[Idx] = 1;
    }
    Site = E.CallSite;
    Pre = E.CallerPre;
    return true;
  }
  void shadowPush(uint32_t Site, int64_t Pre) {
    InPush.emplace_back(Site, Pre);
    eff(EffectKind::ShadowPush, 0, Site, Pre);
  }
  void shadowPop() {
    if (!InPush.empty()) {
      InPush.pop_back();
    } else {
      needDepthGuard();
      if (PopsBelow >= Snap.Shadow.size()) {
        fail();
        return;
      }
      ++PopsBelow;
    }
    eff(EffectKind::ShadowPop, 0, 0, 0);
  }

  // --- symbolic pending return ----------------------------------------
  bool pendingValid() {
    if (!PValid.Known) {
      guard(GuardKind::PendingValid, 0, Snap.Pending.Valid ? 1 : 0);
      PValid.Known = true;
      PValid.B = Snap.Pending.Valid;
    }
    return PValid.B;
  }
  uint32_t pendingCallee() {
    if (!PCallee.Known) {
      guard(GuardKind::PendingCallee, 0,
            static_cast<int64_t>(Snap.Pending.Callee));
      PCallee.Known = true;
      PCallee.V = Snap.Pending.Callee;
    }
    return PCallee.V;
  }
  int64_t pendingPathId() {
    if (!PPathId.Known) {
      guard(GuardKind::PendingPathId, 0, Snap.Pending.PathId);
      PPathId.Known = true;
      PPathId.V = Snap.Pending.PathId;
    }
    return PPathId.V;
  }

  // --- counter bumps ---------------------------------------------------
  void bumpPath(uint32_t FuncId, int64_t Id) {
    TraceBump B;
    B.Table = 0;
    B.FuncId = FuncId;
    B.BaseIdx = BaseIdx;
    B.Id = Id;
    Out->Bumps.push_back(B);
  }
  void bumpTuple(uint8_t Table, const InterprocKey &K) {
    TraceBump B;
    B.Table = Table;
    B.BaseIdx = BaseIdx;
    B.Key = K;
    Out->Bumps.push_back(B);
  }

  bool nextBlockEvent(uint32_t &Blk);
  void simProbe(const ExecInstr &E);
  void doDataOp(ExecOp B, const ExecInstr &E);
  void doBranch(const ExecInstr &E);
  void doCall(ExecOp B, const ExecInstr &E);
  void doRet(const ExecInstr &E);
  void pushFrame(uint32_t Callee, Reg RetDst, const ExecInstr &CallE);
  void finalize();
};

/// Consumes the next event, which must be a Block event of the current
/// function; returns its block id.
bool TraceCompiler::nextBlockEvent(uint32_t &Blk) {
  const auto &Events = Rec.events();
  if (EvIdx >= Events.size() ||
      Events[EvIdx].Kind != TraceEventKind::Block ||
      Events[EvIdx].Func != cur().FuncId) {
    fail();
    return false;
  }
  Blk = Events[EvIdx].Block;
  ++EvIdx;
  return true;
}

void TraceCompiler::doDataOp(ExecOp B, const ExecInstr &E) {
  const bool K0 = E.Src0 != NoReg && knownReg(E.Src0);
  const bool K1 = E.Src1 != NoReg && knownReg(E.Src1);
  const int64_t A = K0 ? kval(E.Src0) : 0;
  const int64_t Bv = K1 ? kval(E.Src1) : 0;

  auto outConst = [&](int64_t V) {
    setK(E.Dst, V);
    emitStep(step(TOp::Const, E.Dst, 0, 0, 0, V));
  };
  auto outOp = [&](TOp Op) {
    clearK(E.Dst);
    emitStep(step(Op, E.Dst, E.Src0, E.Src1, 0, 0));
  };
  auto outImm = [&](TOp Op, Reg Src, int64_t Imm) {
    clearK(E.Dst);
    emitStep(step(Op, E.Dst, Src, 0, 0, Imm));
  };

  switch (B) {
  case ExecOp::Const:
    outConst(E.Imm);
    break;
  case ExecOp::Move:
    if (K0)
      outConst(A);
    else
      outOp(TOp::Move);
    break;
  case ExecOp::Add:
    if (K0 && K1)
      outConst(wrapAdd(A, Bv));
    else if (K1)
      outImm(TOp::AddImm, E.Src0, Bv);
    else if (K0)
      outImm(TOp::AddImm, E.Src1, A);
    else
      outOp(TOp::Add);
    break;
  case ExecOp::Sub:
    if (K0 && K1)
      outConst(wrapSub(A, Bv));
    else if (K1)
      outImm(TOp::AddImm, E.Src0, wrapNeg(Bv));
    else
      outOp(TOp::Sub);
    break;
  case ExecOp::Mul:
    if (K0 && K1)
      outConst(wrapMul(A, Bv));
    else
      outOp(TOp::Mul);
    break;
  case ExecOp::Div:
    if (K0 && K1) {
      if (Bv == 0 || (A == INT64_MIN && Bv == -1)) {
        fail(); // the recorded pass would have faulted here
        return;
      }
      outConst(A / Bv);
    } else
      outOp(TOp::Div);
    break;
  case ExecOp::Mod:
    if (K0 && K1) {
      if (Bv == 0 || (A == INT64_MIN && Bv == -1)) {
        fail();
        return;
      }
      outConst(A % Bv);
    } else
      outOp(TOp::Mod);
    break;
  case ExecOp::And:
    if (K0 && K1)
      outConst(A & Bv);
    else if (K1)
      outImm(TOp::AndImm, E.Src0, Bv);
    else if (K0)
      outImm(TOp::AndImm, E.Src1, A);
    else
      outOp(TOp::And);
    break;
  case ExecOp::Or:
    if (K0 && K1)
      outConst(A | Bv);
    else
      outOp(TOp::Or);
    break;
  case ExecOp::Xor:
    if (K0 && K1)
      outConst(A ^ Bv);
    else
      outOp(TOp::Xor);
    break;
  case ExecOp::Shl:
    if (K0 && K1)
      outConst(static_cast<int64_t>(static_cast<uint64_t>(A)
                                    << (static_cast<uint64_t>(Bv) & 63)));
    else
      outOp(TOp::Shl);
    break;
  case ExecOp::Shr:
    if (K0 && K1)
      outConst(A >> (static_cast<uint64_t>(Bv) & 63));
    else
      outOp(TOp::Shr);
    break;
  case ExecOp::CmpEq:
    if (K0 && K1)
      outConst(A == Bv);
    else if (K1)
      outImm(TOp::CmpEqImm, E.Src0, Bv);
    else
      outOp(TOp::CmpEq);
    break;
  case ExecOp::CmpNe:
    if (K0 && K1)
      outConst(A != Bv);
    else if (K1)
      outImm(TOp::CmpNeImm, E.Src0, Bv);
    else
      outOp(TOp::CmpNe);
    break;
  case ExecOp::CmpLt:
    if (K0 && K1)
      outConst(A < Bv);
    else if (K1)
      outImm(TOp::CmpLtImm, E.Src0, Bv);
    else
      outOp(TOp::CmpLt);
    break;
  case ExecOp::CmpLe:
    if (K0 && K1)
      outConst(A <= Bv);
    else if (K1)
      outImm(TOp::CmpLeImm, E.Src0, Bv);
    else
      outOp(TOp::CmpLe);
    break;
  case ExecOp::CmpGt:
    if (K0 && K1)
      outConst(A > Bv);
    else if (K1)
      outImm(TOp::CmpGtImm, E.Src0, Bv);
    else
      outOp(TOp::CmpGt);
    break;
  case ExecOp::CmpGe:
    if (K0 && K1)
      outConst(A >= Bv);
    else if (K1)
      outImm(TOp::CmpGeImm, E.Src0, Bv);
    else
      outOp(TOp::CmpGe);
    break;
  case ExecOp::Neg:
    if (K0)
      outConst(wrapNeg(A));
    else
      outOp(TOp::Neg);
    break;
  case ExecOp::Not:
    if (K0)
      outConst(A == 0 ? 1 : 0);
    else
      outOp(TOp::Not);
    break;
  case ExecOp::LoadG:
    clearK(E.Dst);
    emitStep(step(TOp::LoadG, E.Dst, 0, 0, E.GlobalId, 0));
    break;
  case ExecOp::StoreG:
    emitStep(step(TOp::StoreG, 0, E.Src0, 0, E.GlobalId, 0));
    break;
  case ExecOp::LoadArr:
    clearK(E.Dst);
    emitStep(step(TOp::LoadArr, E.Dst, E.Src0, 0, E.GlobalId, 0));
    break;
  case ExecOp::StoreArr:
    emitStep(step(TOp::StoreArr, 0, E.Src0, E.Src1, E.GlobalId, 0));
    break;
  default:
    fail();
    return;
  }
  CumSteps += 1;
  CumBase += cost::Instr;
  ++BaseIdx;
  ++Pc;
}

void TraceCompiler::doBranch(const ExecInstr &E) {
  uint32_t Blk = 0;
  if (!nextBlockEvent(Blk))
    return;
  uint32_t TargetPc;
  if (E.Op == ExecOp::Br ||
      execBaseOp(E.Op) == ExecOp::Br) { // unconditional
    if (Blk != E.Target0Blk) {
      fail();
      return;
    }
    TargetPc = E.Target0Pc;
  } else {
    const bool SameTarget =
        E.Target0Pc == E.Target1Pc && E.Target0Blk == E.Target1Blk;
    bool Taken;
    if (Blk == E.Target0Blk)
      Taken = true;
    else if (Blk == E.Target1Blk)
      Taken = false;
    else {
      fail();
      return;
    }
    if (knownReg(E.Src0)) {
      // Trace-local constant condition: the direction is proven; the
      // branch ghosts entirely.
      if (!SameTarget && (kval(E.Src0) != 0) != Taken) {
        fail();
        return;
      }
    } else if (!SameTarget) {
      emitStep(step(Taken ? TOp::GuardTrue : TOp::GuardFalse, 0, E.Src0, 0,
                    0, 0));
    }
    TargetPc = Taken ? E.Target0Pc : E.Target1Pc;
  }
  CumSteps += 1;
  CumBase += cost::Instr;
  CumBlocks += 1;
  ++BaseIdx;
  Pc = TargetPc;
  CurBlock = Blk;
}

void TraceCompiler::pushFrame(uint32_t Callee, Reg RetDst,
                              const ExecInstr &CallE) {
  const FuncPlan &FP = P.Funcs[Callee];
  CompFrame F;
  F.FuncId = Callee;
  F.FP = &FP;
  F.RetDst = RetDst;
  // A pushed frame sees zeroed registers and disarmed loop slots (pooled
  // stacks grow by value-initialization), so everything starts Known.
  F.R.Known = true;
  F.RI.Known = true;
  F.OlI.Known = true;
  F.CallerPre.Known = true;
  F.RoII.Known = true;
  F.OlII.Known = true;
  F.CalleePathII.Known = true;
  F.ActiveI.Known = true;
  F.HaveCaller.Known = true;
  F.ActiveII.Known = true;
  F.CallSiteI.Known = true;
  F.CallSiteII.Known = true;
  F.CalleeII.Known = true;
  F.Loops.resize(FP.NumLoopSlots);
  for (SLoop &L : F.Loops) {
    L.Active.Known = true;
    L.Ro.Known = true;
    L.Ol.Known = true;
  }
  F.KnownReg.assign(FP.NumRegs, 1);
  F.KVal.assign(FP.NumRegs, 0);
  // Parameters take the caller's argument lattice.
  const CompFrame &Caller = cur();
  const Reg *Args = Caller.FP->ArgPool.data() + CallE.ArgsBegin;
  for (uint32_t A = 0; A < CallE.ArgsCount; ++A) {
    if (A < F.KnownReg.size()) {
      if (Args[A] < Caller.KnownReg.size() && Caller.KnownReg[Args[A]]) {
        F.KnownReg[A] = 1;
        F.KVal[A] = Caller.KVal[Args[A]];
      } else {
        F.KnownReg[A] = 0;
      }
    }
  }
  Fs.push_back(std::move(F));
}

void TraceCompiler::doCall(ExecOp B, const ExecInstr &E) {
  const auto &Events = Rec.events();
  if (EvIdx + 1 >= Events.size() ||
      Events[EvIdx].Kind != TraceEventKind::Enter ||
      Events[EvIdx + 1].Kind != TraceEventKind::Block ||
      Events[EvIdx + 1].Func != Events[EvIdx].Func ||
      Events[EvIdx + 1].Block != 0) {
    fail();
    return;
  }
  const uint32_t Callee = Events[EvIdx].Func;
  EvIdx += 2;
  if (Callee >= P.Funcs.size()) {
    fail();
    return;
  }
  if (B == ExecOp::Call) {
    if (E.CalleeId != Callee) {
      fail();
      return;
    }
  } else { // CallInd
    if (E.ArgsCount != P.Funcs[Callee].NumParams) {
      fail();
      return;
    }
    if (knownReg(E.Src0)) {
      if (kval(E.Src0) != static_cast<int64_t>(Callee)) {
        fail();
        return;
      }
    } else {
      // Deopt before the CallInd on a different target: the ordinary
      // engine re-reads the register and calls whoever it names. Shares
      // the base step's accounting prefix with the Call step behind it.
      emitStep(step(TOp::GuardCallee, 0, E.Src0, 0, Callee, 0));
    }
  }

  TraceStep S = step(TOp::Call, E.Dst, 0, 0, Callee, 0);
  S.ArgsCount = E.ArgsCount;
  S.Args = cur().FP->ArgPool.data() + E.ArgsBegin;
  emitStep(S);

  cur().SavedPc = Pc + 1;
  cur().SavedBlock = CurBlock;
  pushFrame(Callee, E.Dst, E);

  CumSteps += 1;
  CumBase += cost::Instr;
  CumCalls += 1;
  CumBlocks += 1; // PushFrame counts the callee's entry block
  ++BaseIdx;
  Pc = 0;
  CurBlock = 0;
}

void TraceCompiler::doRet(const ExecInstr &E) {
  const auto &Events = Rec.events();
  if (EvIdx >= Events.size() || Events[EvIdx].Kind != TraceEventKind::Exit ||
      Events[EvIdx].Func != cur().FuncId) {
    fail();
    return;
  }
  ++EvIdx;
  if (atAnchor()) {
    fail(); // the anchor frame returning is not a loop pass
    return;
  }
  const Reg ValueReg = E.Src0;
  const Reg RetDst = cur().RetDst;
  if (RetDst != NoReg && ValueReg == NoReg) {
    fail(); // the recorded run would have faulted ("void return value...")
    return;
  }
  const bool KV = ValueReg != NoReg && knownReg(ValueReg);
  const int64_t V = KV ? kval(ValueReg) : 0;

  TraceStep S = step(TOp::Ret, 0, ValueReg, 0, 0, 0);
  emitStep(S);
  CumSteps += 1;
  CumBase += cost::Instr;
  ++BaseIdx;

  Fs.pop_back();
  Pc = cur().SavedPc;
  CurBlock = cur().SavedBlock;
  if (RetDst != NoReg) {
    if (KV)
      setK(RetDst, V);
    else
      clearK(RetDst);
  }
}

void TraceCompiler::simProbe(const ExecInstr &E) {
  CompFrame &F = cur();
  const bool Anchor = atAnchor();
  const uint16_t D = depth();
  const ProbeOp *Ops = F.FP->ProbePool.data() + E.ArgsBegin;
  const uint32_t N = E.ArgsCount;
  bool ChargedIITest = false;

  auto snapLoop = [&](uint32_t S) -> const LoopRegs & {
    static const LoopRegs Zero{};
    return Anchor && S < Snap.Loops.size() ? Snap.Loops[S] : Zero;
  };

  for (uint32_t OpI = 0; OpI < N && !Failed; ++OpI) {
    const ProbeOp &Po = Ops[OpI];
    switch (Po.Kind) {
    case ProbeOpKind::BLSet:
      F.R = {true, true, Po.C0};
      eff(EffectKind::SetR, D, 0, Po.C0);
      CumPCost += cost::RegOp;
      break;
    case ProbeOpKind::BLAdd:
      F.R.V += Po.C0;
      F.R.Dirty = true;
      eff(F.R.Known ? EffectKind::SetR : EffectKind::AddR, D, 0,
          F.R.Known ? F.R.V : Po.C0);
      CumPCost += cost::RegOp;
      break;
    case ProbeOpKind::BLCount: {
      int64_t R = consultInt(F.R, GuardKind::R, 0, Snap.Fr.R, Anchor);
      if (Failed)
        return;
      bumpPath(F.FuncId, R + Po.C0);
      CumPCost += cost::CounterBump;
      break;
    }
    case ProbeOpKind::OLDisarm: {
      SLoop &L = F.Loops[Po.Slot];
      L.Active = {true, true, false};
      eff(EffectKind::SetLoopActive, D, Po.Slot, 0);
      CumPCost += cost::RegOp;
      break;
    }
    case ProbeOpKind::OLArm: {
      SLoop &L = F.Loops[Po.Slot];
      int64_t R = consultInt(F.R, GuardKind::R, 0, Snap.Fr.R, Anchor);
      if (Failed)
        return;
      L.Ro = {true, true, R + Po.C0};
      L.Ol = {true, true, 0};
      L.Active = {true, true, true};
      eff(EffectKind::SetLoopRo, D, Po.Slot, L.Ro.V);
      eff(EffectKind::SetLoopOl, D, Po.Slot, 0);
      eff(EffectKind::SetLoopActive, D, Po.Slot, 1);
      CumPCost += 2 * cost::RegOp;
      break;
    }
    case ProbeOpKind::OLAdd: {
      SLoop &L = F.Loops[Po.Slot];
      bool Act = consultBool(L.Active, GuardKind::LoopActive, Po.Slot,
                             snapLoop(Po.Slot).Active, Anchor);
      if (Failed)
        return;
      if (!Act) {
        CumPCost += cost::InactiveTest;
        break;
      }
      L.Ro.V += Po.C0;
      L.Ro.Dirty = true;
      eff(L.Ro.Known ? EffectKind::SetLoopRo : EffectKind::AddLoopRo, D,
          Po.Slot, L.Ro.Known ? L.Ro.V : Po.C0);
      CumPCost += cost::InactiveTest + cost::RegOp;
      break;
    }
    case ProbeOpKind::OLPred: {
      SLoop &L = F.Loops[Po.Slot];
      bool Act = consultBool(L.Active, GuardKind::LoopActive, Po.Slot,
                             snapLoop(Po.Slot).Active, Anchor);
      if (Failed)
        return;
      if (!Act) {
        CumPCost += cost::InactiveTest;
        break;
      }
      CumPCost += cost::InactiveTest + cost::RegOp;
      bool Fired;
      if (L.Ol.Known) {
        L.Ol.V += 1;
        L.Ol.Dirty = true;
        Fired = L.Ol.V == Po.C1;
        eff(EffectKind::SetLoopOl, D, Po.Slot, L.Ol.V);
      } else {
        const int64_t DeltaAfter = L.Ol.V + 1;
        const int64_t ConcreteAfter = snapLoop(Po.Slot).Ol + DeltaAfter;
        Fired = ConcreteAfter == Po.C1;
        if (Fired) {
          guard(GuardKind::LoopOlEq, Po.Slot, snapLoop(Po.Slot).Ol);
          L.Ol = {true, true, ConcreteAfter};
          L.OlEqGuarded = true;
          eff(EffectKind::SetLoopOl, D, Po.Slot, L.Ol.V);
        } else {
          if (ConcreteAfter > Po.C1) {
            fail(); // range guard can't express this shape
            return;
          }
          L.Ol.V = DeltaAfter;
          L.Ol.Dirty = true;
          const int64_t Bound = Po.C1 - DeltaAfter;
          if (Bound < L.OlLtBound)
            L.OlLtBound = Bound;
          eff(EffectKind::AddLoopOl, D, Po.Slot, 1);
        }
      }
      if (Fired) {
        int64_t Ro = consultInt(L.Ro, GuardKind::LoopRo, Po.Slot,
                                snapLoop(Po.Slot).Ro, Anchor);
        if (Failed)
          return;
        bumpPath(F.FuncId, Ro + Po.C0);
        L.Active = {true, true, false};
        eff(EffectKind::SetLoopActive, D, Po.Slot, 0);
        CumPCost += cost::CounterBump;
      }
      break;
    }
    case ProbeOpKind::OLFlush: {
      SLoop &L = F.Loops[Po.Slot];
      bool Act = consultBool(L.Active, GuardKind::LoopActive, Po.Slot,
                             snapLoop(Po.Slot).Active, Anchor);
      if (Failed)
        return;
      if (!Act) {
        CumPCost += cost::InactiveTest;
        break;
      }
      int64_t Ro = consultInt(L.Ro, GuardKind::LoopRo, Po.Slot,
                              snapLoop(Po.Slot).Ro, Anchor);
      if (Failed)
        return;
      bumpPath(F.FuncId, Ro + Po.C0);
      L.Active = {true, true, false};
      eff(EffectKind::SetLoopActive, D, Po.Slot, 0);
      CumPCost += cost::InactiveTest + cost::CounterBump;
      break;
    }
    case ProbeOpKind::IPCall: {
      int64_t R = consultInt(F.R, GuardKind::R, 0, Snap.Fr.R, Anchor);
      if (Failed)
        return;
      shadowPush(static_cast<uint32_t>(Po.C0), R + Po.C1);
      CumPCost += cost::StackOp + cost::RegOp;
      break;
    }
    case ProbeOpKind::IPEnter: {
      F.RI = {true, true, Po.C0};
      F.OlI = {true, true, 0};
      eff(EffectKind::SetRI, D, 0, Po.C0);
      eff(EffectKind::SetOlI, D, 0, 0);
      uint32_t Site = 0;
      int64_t Pre = 0;
      if (shadowTop(Site, Pre)) {
        F.CallSiteI = {true, true, Site};
        F.CallerPre = {true, true, Pre};
        F.ActiveI = {true, true, true};
        F.HaveCaller = {true, true, true};
        eff(EffectKind::SetCallSiteI, D, 0, static_cast<int64_t>(Site));
        eff(EffectKind::SetCallerPre, D, 0, Pre);
        eff(EffectKind::SetActiveI, D, 0, 1);
        eff(EffectKind::SetHaveCaller, D, 0, 1);
      } else {
        F.ActiveI = {true, true, false};
        F.HaveCaller = {true, true, false};
        eff(EffectKind::SetActiveI, D, 0, 0);
        eff(EffectKind::SetHaveCaller, D, 0, 0);
      }
      if (Failed)
        return;
      CumPCost += cost::StackOp + cost::RegOp;
      break;
    }
    case ProbeOpKind::IPAddI: {
      bool Act =
          consultBool(F.ActiveI, GuardKind::ActiveI, 0, Snap.Fr.ActiveI, Anchor);
      if (Failed)
        return;
      if (!Act) {
        CumPCost += cost::InactiveTest;
        break;
      }
      F.RI.V += Po.C0;
      F.RI.Dirty = true;
      eff(F.RI.Known ? EffectKind::SetRI : EffectKind::AddRI, D, 0,
          F.RI.Known ? F.RI.V : Po.C0);
      CumPCost += cost::InactiveTest + cost::RegOp;
      break;
    }
    case ProbeOpKind::IPPredI: {
      bool Act =
          consultBool(F.ActiveI, GuardKind::ActiveI, 0, Snap.Fr.ActiveI, Anchor);
      if (Failed)
        return;
      if (!Act) {
        CumPCost += cost::InactiveTest;
        break;
      }
      CumPCost += cost::InactiveTest + cost::RegOp;
      bool Fired;
      if (F.OlI.Known) {
        F.OlI.V += 1;
        F.OlI.Dirty = true;
        Fired = F.OlI.V == Po.C1;
        eff(EffectKind::SetOlI, D, 0, F.OlI.V);
      } else {
        const int64_t DeltaAfter = F.OlI.V + 1;
        const int64_t ConcreteAfter = Snap.Fr.OlI + DeltaAfter;
        Fired = ConcreteAfter == Po.C1;
        if (Fired) {
          guard(GuardKind::OlIEq, 0, Snap.Fr.OlI);
          F.OlI = {true, true, ConcreteAfter};
          F.OlIEqGuarded = true;
          eff(EffectKind::SetOlI, D, 0, F.OlI.V);
        } else {
          if (ConcreteAfter > Po.C1) {
            fail();
            return;
          }
          F.OlI.V = DeltaAfter;
          F.OlI.Dirty = true;
          const int64_t Bound = Po.C1 - DeltaAfter;
          if (Bound < F.OlILtBound)
            F.OlILtBound = Bound;
          eff(EffectKind::AddOlI, D, 0, 1);
        }
      }
      if (Fired) {
        InterprocKey K;
        K.Callee = F.FuncId;
        K.CallSite =
            consultU32(F.CallSiteI, GuardKind::CallSiteI, Snap.Fr.CallSiteI,
                       Anchor);
        K.Inner = consultInt(F.RI, GuardKind::RI, 0, Snap.Fr.RI, Anchor) +
                  Po.C0;
        K.Outer = consultInt(F.CallerPre, GuardKind::CallerPre, 0,
                             Snap.Fr.CallerPre, Anchor);
        if (Failed)
          return;
        bumpTuple(1, K);
        F.ActiveI = {true, true, false};
        eff(EffectKind::SetActiveI, D, 0, 0);
        CumPCost += cost::TupleBump;
      }
      break;
    }
    case ProbeOpKind::IPFlushI: {
      bool Act =
          consultBool(F.ActiveI, GuardKind::ActiveI, 0, Snap.Fr.ActiveI, Anchor);
      if (Failed)
        return;
      if (!Act) {
        CumPCost += cost::InactiveTest;
        break;
      }
      InterprocKey K;
      K.Callee = F.FuncId;
      K.CallSite = consultU32(F.CallSiteI, GuardKind::CallSiteI,
                              Snap.Fr.CallSiteI, Anchor);
      K.Inner =
          consultInt(F.RI, GuardKind::RI, 0, Snap.Fr.RI, Anchor) + Po.C0;
      K.Outer = consultInt(F.CallerPre, GuardKind::CallerPre, 0,
                           Snap.Fr.CallerPre, Anchor);
      if (Failed)
        return;
      bumpTuple(1, K);
      F.ActiveI = {true, true, false};
      eff(EffectKind::SetActiveI, D, 0, 0);
      CumPCost += cost::InactiveTest + cost::TupleBump;
      break;
    }
    case ProbeOpKind::IPRet: {
      int64_t R = consultInt(F.R, GuardKind::R, 0, Snap.Fr.R, Anchor);
      if (Failed)
        return;
      PValid = {true, true, true};
      PCallee = {true, true, F.FuncId};
      PPathId = {true, true, R + Po.C0};
      PDirty = true;
      eff(EffectKind::PendingSet, 0, F.FuncId, R + Po.C0);
      bool HC = consultBool(F.HaveCaller, GuardKind::HaveCaller, 0,
                            Snap.Fr.HaveCaller, Anchor);
      if (Failed)
        return;
      if (HC)
        shadowPop();
      if (Failed)
        return;
      CumPCost += cost::StackOp + cost::RegOp;
      break;
    }
    case ProbeOpKind::IPArmII: {
      bool PV = pendingValid();
      if (PV) {
        F.ActiveII = {true, true, true};
        F.CalleeII = {true, true, pendingCallee()};
        F.CalleePathII = {true, true, pendingPathId()};
        F.CallSiteII = {true, true, static_cast<uint32_t>(Po.C1)};
        F.RoII = {true, true, Po.C0};
        F.OlII = {true, true, 0};
        PValid = {true, true, false};
        PDirty = true;
        eff(EffectKind::SetActiveII, D, 0, 1);
        eff(EffectKind::SetCalleeII, D, 0,
            static_cast<int64_t>(F.CalleeII.V));
        eff(EffectKind::SetCalleePathII, D, 0, F.CalleePathII.V);
        eff(EffectKind::SetCallSiteII, D, 0,
            static_cast<int64_t>(F.CallSiteII.V));
        eff(EffectKind::SetRoII, D, 0, Po.C0);
        eff(EffectKind::SetOlII, D, 0, 0);
        eff(EffectKind::PendingClear, 0, 0, 0);
      } else {
        F.ActiveII = {true, true, false};
        eff(EffectKind::SetActiveII, D, 0, 0);
      }
      CumPCost += cost::StackOp + cost::RegOp;
      break;
    }
    case ProbeOpKind::IPAddII:
    case ProbeOpKind::IPPredII:
    case ProbeOpKind::IPFlushII: {
      bool Act = consultBool(F.ActiveII, GuardKind::ActiveII, 0,
                             Snap.Fr.ActiveII, Anchor);
      if (Failed)
        return;
      bool Gate = false;
      if (Act) {
        uint32_t CS = consultU32(F.CallSiteII, GuardKind::CallSiteII,
                                 Snap.Fr.CallSiteII, Anchor);
        if (Failed)
          return;
        Gate = CS == static_cast<uint32_t>(Po.Slot);
      }
      if (!Gate) {
        CumPCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      if (Po.Kind == ProbeOpKind::IPAddII) {
        F.RoII.V += Po.C0;
        F.RoII.Dirty = true;
        eff(F.RoII.Known ? EffectKind::SetRoII : EffectKind::AddRoII, D, 0,
            F.RoII.Known ? F.RoII.V : Po.C0);
        CumPCost += cost::InactiveTest + cost::RegOp;
        break;
      }
      auto flushII = [&]() {
        InterprocKey K;
        K.Callee = consultU32(F.CalleeII, GuardKind::CalleeII,
                              Snap.Fr.CalleeII, Anchor);
        K.CallSite = F.CallSiteII.V; // consulted above
        K.Inner = consultInt(F.CalleePathII, GuardKind::CalleePathII, 0,
                             Snap.Fr.CalleePathII, Anchor);
        K.Outer = consultInt(F.RoII, GuardKind::RoII, 0, Snap.Fr.RoII,
                             Anchor) +
                  Po.C0;
        if (Failed)
          return;
        bumpTuple(2, K);
        F.ActiveII = {true, true, false};
        eff(EffectKind::SetActiveII, D, 0, 0);
      };
      if (Po.Kind == ProbeOpKind::IPFlushII) {
        flushII();
        if (Failed)
          return;
        CumPCost += cost::InactiveTest + cost::TupleBump;
        break;
      }
      // IPPredII
      CumPCost += cost::InactiveTest + cost::RegOp;
      bool Fired;
      if (F.OlII.Known) {
        F.OlII.V += 1;
        F.OlII.Dirty = true;
        Fired = F.OlII.V == Po.C1;
        eff(EffectKind::SetOlII, D, 0, F.OlII.V);
      } else {
        const int64_t DeltaAfter = F.OlII.V + 1;
        const int64_t ConcreteAfter = Snap.Fr.OlII + DeltaAfter;
        Fired = ConcreteAfter == Po.C1;
        if (Fired) {
          guard(GuardKind::OlIIEq, 0, Snap.Fr.OlII);
          F.OlII = {true, true, ConcreteAfter};
          F.OlIIEqGuarded = true;
          eff(EffectKind::SetOlII, D, 0, F.OlII.V);
        } else {
          if (ConcreteAfter > Po.C1) {
            fail();
            return;
          }
          F.OlII.V = DeltaAfter;
          F.OlII.Dirty = true;
          const int64_t Bound = Po.C1 - DeltaAfter;
          if (Bound < F.OlIILtBound)
            F.OlIILtBound = Bound;
          eff(EffectKind::AddOlII, D, 0, 1);
        }
      }
      if (Fired) {
        flushII();
        if (Failed)
          return;
        CumPCost += cost::TupleBump;
      }
      break;
    }
    }
  }
  if (Failed)
    return;
  CumSteps += 1; // a probe instruction is one base step, probe cost only
  ++BaseIdx;
  ++Pc;
}

void TraceCompiler::finalize() {
  CompFrame &F = Fs.front();

  // Range guards for monotone predicate counters that were incremented but
  // never pinned by an equality guard. Sound because a live active counter
  // is in [0, C1) and only ever incremented by one.
  for (uint32_t S = 0; S < F.Loops.size(); ++S) {
    SLoop &L = F.Loops[S];
    if (L.OlLtBound != INT64_MAX && !L.OlEqGuarded) {
      if (Snap.Loops[S].Ol >= L.OlLtBound) {
        fail(); // the guard would reject even the recorded entry state
        return;
      }
      guard(GuardKind::LoopOlLt, S, L.OlLtBound);
    }
  }
  if (F.OlILtBound != INT64_MAX && !F.OlIEqGuarded) {
    if (Snap.Fr.OlI >= F.OlILtBound) {
      fail();
      return;
    }
    guard(GuardKind::OlILt, 0, F.OlILtBound);
  }
  if (F.OlIILtBound != INT64_MAX && !F.OlIIEqGuarded) {
    if (Snap.Fr.OlII >= F.OlIILtBound) {
      fail();
      return;
    }
    guard(GuardKind::OlIILt, 0, F.OlIILtBound);
  }

  // Collapsed per-pass net effects (anchor frame + globals only: every
  // in-trace callee frame is gone by the pass boundary).
  auto &PE = Out->PassEffects;
  auto passInt = [&](const SInt &S, EffectKind SetK, EffectKind AddK,
                     uint32_t Slot) {
    if (!S.Dirty)
      return;
    if (S.Known)
      PE.push_back({SetK, 0, Slot, 0, S.V});
    else if (S.V != 0)
      PE.push_back({AddK, 0, Slot, 0, S.V});
  };
  auto passBool = [&](const SBool &S, EffectKind SetK, uint32_t Slot) {
    if (S.Dirty)
      PE.push_back({SetK, 0, Slot, 0, S.B ? 1 : 0});
  };
  auto passU32 = [&](const SU32 &S, EffectKind SetK, uint32_t Slot) {
    if (S.Dirty)
      PE.push_back({SetK, 0, Slot, 0, static_cast<int64_t>(S.V)});
  };
  passInt(F.R, EffectKind::SetR, EffectKind::AddR, 0);
  passInt(F.RI, EffectKind::SetRI, EffectKind::AddRI, 0);
  passInt(F.OlI, EffectKind::SetOlI, EffectKind::AddOlI, 0);
  passInt(F.CallerPre, EffectKind::SetCallerPre, EffectKind::SetCallerPre, 0);
  passInt(F.RoII, EffectKind::SetRoII, EffectKind::AddRoII, 0);
  passInt(F.OlII, EffectKind::SetOlII, EffectKind::AddOlII, 0);
  passInt(F.CalleePathII, EffectKind::SetCalleePathII,
          EffectKind::SetCalleePathII, 0);
  passBool(F.ActiveI, EffectKind::SetActiveI, 0);
  passBool(F.HaveCaller, EffectKind::SetHaveCaller, 0);
  passBool(F.ActiveII, EffectKind::SetActiveII, 0);
  passU32(F.CallSiteI, EffectKind::SetCallSiteI, 0);
  passU32(F.CallSiteII, EffectKind::SetCallSiteII, 0);
  passU32(F.CalleeII, EffectKind::SetCalleeII, 0);
  for (uint32_t S = 0; S < F.Loops.size(); ++S) {
    passInt(F.Loops[S].Ro, EffectKind::SetLoopRo, EffectKind::AddLoopRo, S);
    passInt(F.Loops[S].Ol, EffectKind::SetLoopOl, EffectKind::AddLoopOl, S);
    passBool(F.Loops[S].Active, EffectKind::SetLoopActive, S);
  }
  for (uint32_t I = 0; I < PopsBelow; ++I)
    PE.push_back({EffectKind::ShadowPop, 0, 0, 0, 0});
  for (const auto &Push : InPush)
    PE.push_back({EffectKind::ShadowPush, 0, Push.first, 0, Push.second});
  if (PDirty) {
    if (PValid.B)
      PE.push_back({EffectKind::PendingSet, 0, PCallee.V, 0, PPathId.V});
    else
      PE.push_back({EffectKind::PendingClear, 0, 0, 0, 0});
  }

  Out->MultiPass = InPush.empty() && PopsBelow == 0;
  Out->PassSteps = CumSteps;
  Out->PassBase = CumBase;
  Out->PassPCost = CumPCost;
  Out->PassBlocks = CumBlocks;
  Out->PassCalls = CumCalls;
  Out->PassBaseSteps = BaseIdx;
}

std::unique_ptr<CompiledTrace> TraceCompiler::run() {
  if (Rec.events().empty())
    return nullptr;
  const uint32_t AnchorF = Rec.anchorFunc();
  const uint32_t AnchorPc = Rec.anchorPc();
  if (AnchorF >= P.Funcs.size())
    return nullptr;

  Out = std::make_unique<CompiledTrace>();
  Out->FuncId = AnchorF;
  Out->AnchorPc = AnchorPc;
  Out->AnchorBlock = Rec.anchorBlock();

  // The entry frame: everything entry-relative / unknown; the compiler
  // promotes components to known values (emitting guards) on demand.
  CompFrame F;
  F.FuncId = AnchorF;
  F.FP = &P.Funcs[AnchorF];
  F.Loops.resize(F.FP->NumLoopSlots);
  F.KnownReg.assign(F.FP->NumRegs, 0);
  F.KVal.assign(F.FP->NumRegs, 0);
  Fs.push_back(std::move(F));
  Pc = AnchorPc;
  CurBlock = Rec.anchorBlock();
  if (Snap.Loops.size() != Fs.front().Loops.size())
    return nullptr;

  while (!(EvIdx == Rec.events().size() && atAnchor() && Pc == AnchorPc &&
           BaseIdx > 0)) {
    if (Failed || BaseIdx >= MaxBaseSteps)
      return nullptr;
    const CompFrame &F2 = cur();
    if (Pc >= F2.FP->Code.size())
      return nullptr;
    const ExecInstr &E = F2.FP->Code[Pc];
    const ExecOp B = execBaseOp(E.Op);
    switch (B) {
    case ExecOp::Probe:
      simProbe(E);
      break;
    case ExecOp::Br:
    case ExecOp::CondBr:
      doBranch(E);
      break;
    case ExecOp::Call:
    case ExecOp::CallInd:
      doCall(B, E);
      break;
    case ExecOp::Ret:
      doRet(E);
      break;
    default:
      doDataOp(B, E);
      break;
    }
  }
  if (Failed)
    return nullptr;
  finalize();
  if (Failed)
    return nullptr;
  return std::move(Out);
}

} // namespace

std::unique_ptr<CompiledTrace> compileTrace(const ExecPlan &P,
                                            const TraceRecorder &Rec) {
  if (Rec.aborted() || Rec.depth() != 0)
    return nullptr;
  return TraceCompiler(P, Rec).run();
}

//===----------------------------------------------------------------------===//
// Trace executor
//===----------------------------------------------------------------------===//

namespace {

/// Evaluates \p T's entry guards against live state and returns how many
/// consecutive passes they are guaranteed to keep passing for, capped at
/// \p Cap (0 = a guard fails right now). Without optimizer budgets every
/// pass re-checks, so the grant is a single pass; with them (see
/// TraceOpt.h optimizeTrace) a whole batch runs on one sweep.
uint64_t guardPassBudget(const CompiledTrace &T, const TraceRunIO &IO,
                         size_t AnchorIdx, uint64_t Cap) {
  const FastFrame &Fr = IO.Frames[AnchorIdx];
  const LoopRegs *Loops = IO.LoopStack.data() + Fr.LoopBase;
  const ProfileRuntime &Prof = IO.Prof;
  const bool HasB = T.Budgeted;
  uint64_t Budget = (HasB && Cap) ? Cap : 1;
  if (T.Guards.empty())
    return Budget;
  for (size_t I = 0; I < T.Guards.size(); ++I) {
    const TraceGuard &G = T.Guards[I];
    int64_t Live = 0; ///< Lt-kind live counter value (budget math below)
    switch (G.Kind) {
    case GuardKind::R:
      if (Fr.R != G.V)
        return 0;
      break;
    case GuardKind::LoopActive:
      if (Loops[G.Slot].Active != (G.V != 0))
        return 0;
      break;
    case GuardKind::LoopRo:
      if (Loops[G.Slot].Ro != G.V)
        return 0;
      break;
    case GuardKind::LoopOlEq:
      if (Loops[G.Slot].Ol != G.V)
        return 0;
      break;
    case GuardKind::LoopOlLt:
      Live = Loops[G.Slot].Ol;
      if (Live >= G.V)
        return 0;
      break;
    case GuardKind::ActiveI:
      if (Fr.ActiveI != (G.V != 0))
        return 0;
      break;
    case GuardKind::HaveCaller:
      if (Fr.HaveCaller != (G.V != 0))
        return 0;
      break;
    case GuardKind::RI:
      if (Fr.RI != G.V)
        return 0;
      break;
    case GuardKind::OlIEq:
      if (Fr.OlI != G.V)
        return 0;
      break;
    case GuardKind::OlILt:
      Live = Fr.OlI;
      if (Live >= G.V)
        return 0;
      break;
    case GuardKind::CallerPre:
      if (Fr.CallerPre != G.V)
        return 0;
      break;
    case GuardKind::CallSiteI:
      if (Fr.CallSiteI != static_cast<uint32_t>(G.V))
        return 0;
      break;
    case GuardKind::ActiveII:
      if (Fr.ActiveII != (G.V != 0))
        return 0;
      break;
    case GuardKind::RoII:
      if (Fr.RoII != G.V)
        return 0;
      break;
    case GuardKind::OlIIEq:
      if (Fr.OlII != G.V)
        return 0;
      break;
    case GuardKind::OlIILt:
      Live = Fr.OlII;
      if (Live >= G.V)
        return 0;
      break;
    case GuardKind::CalleePathII:
      if (Fr.CalleePathII != G.V)
        return 0;
      break;
    case GuardKind::CallSiteII:
      if (Fr.CallSiteII != static_cast<uint32_t>(G.V))
        return 0;
      break;
    case GuardKind::CalleeII:
      if (Fr.CalleeII != static_cast<uint32_t>(G.V))
        return 0;
      break;
    case GuardKind::PendingValid:
      if (Prof.Pending.Valid != (G.V != 0))
        return 0;
      break;
    case GuardKind::PendingCallee:
      if (Prof.Pending.Callee != static_cast<uint32_t>(G.V))
        return 0;
      break;
    case GuardKind::PendingPathId:
      if (Prof.Pending.PathId != G.V)
        return 0;
      break;
    case GuardKind::ShadowDepth:
      if (Prof.ShadowStack.size() != static_cast<uint64_t>(G.V))
        return 0;
      break;
    case GuardKind::ShadowSiteAt: {
      const auto &SS = Prof.ShadowStack;
      if (SS.size() <= G.Slot ||
          SS[SS.size() - 1 - G.Slot].CallSite != static_cast<uint32_t>(G.V))
        return 0;
      break;
    }
    case GuardKind::ShadowPreAt: {
      const auto &SS = Prof.ShadowStack;
      if (SS.size() <= G.Slot || SS[SS.size() - 1 - G.Slot].CallerPre != G.V)
        return 0;
      break;
    }
    }
    if (!HasB || Budget == 1)
      continue;
    const GuardBudget &B = T.Budgets[I];
    if (B.M == GuardBudget::One) {
      Budget = 1;
    } else if (B.M == GuardBudget::DynLt) {
      // Live < G.V held above; the counter gains Delta (> 0) per pass, so
      // exactly ceil((V - Live) / Delta) passes stay under the bound.
      // Unsigned subtraction is exact for any int64 pair with Live < V.
      const uint64_t Q =
          static_cast<uint64_t>(G.V) - static_cast<uint64_t>(Live);
      const uint64_t D = static_cast<uint64_t>(B.Delta);
      const uint64_t K = Q / D + (Q % D != 0 ? 1 : 0);
      if (K < Budget)
        Budget = K;
    }
  }
  return Budget;
}

void applyEffect(const TraceEffect &E, TraceRunIO &IO, size_t AnchorIdx) {
  FastFrame &F = IO.Frames[AnchorIdx + E.Depth];
  switch (E.Kind) {
  case EffectKind::SetR:
    F.R = E.V;
    break;
  case EffectKind::AddR:
    F.R += E.V;
    break;
  case EffectKind::SetRI:
    F.RI = E.V;
    break;
  case EffectKind::AddRI:
    F.RI += E.V;
    break;
  case EffectKind::SetOlI:
    F.OlI = E.V;
    break;
  case EffectKind::AddOlI:
    F.OlI += E.V;
    break;
  case EffectKind::SetCallerPre:
    F.CallerPre = E.V;
    break;
  case EffectKind::SetCallSiteI:
    F.CallSiteI = static_cast<uint32_t>(E.V);
    break;
  case EffectKind::SetActiveI:
    F.ActiveI = E.V != 0;
    break;
  case EffectKind::SetHaveCaller:
    F.HaveCaller = E.V != 0;
    break;
  case EffectKind::SetRoII:
    F.RoII = E.V;
    break;
  case EffectKind::AddRoII:
    F.RoII += E.V;
    break;
  case EffectKind::SetOlII:
    F.OlII = E.V;
    break;
  case EffectKind::AddOlII:
    F.OlII += E.V;
    break;
  case EffectKind::SetCalleePathII:
    F.CalleePathII = E.V;
    break;
  case EffectKind::SetCallSiteII:
    F.CallSiteII = static_cast<uint32_t>(E.V);
    break;
  case EffectKind::SetCalleeII:
    F.CalleeII = static_cast<uint32_t>(E.V);
    break;
  case EffectKind::SetActiveII:
    F.ActiveII = E.V != 0;
    break;
  case EffectKind::SetLoopRo:
    IO.LoopStack[F.LoopBase + E.Slot].Ro = E.V;
    break;
  case EffectKind::AddLoopRo:
    IO.LoopStack[F.LoopBase + E.Slot].Ro += E.V;
    break;
  case EffectKind::SetLoopOl:
    IO.LoopStack[F.LoopBase + E.Slot].Ol = E.V;
    break;
  case EffectKind::AddLoopOl:
    IO.LoopStack[F.LoopBase + E.Slot].Ol += E.V;
    break;
  case EffectKind::SetLoopActive:
    IO.LoopStack[F.LoopBase + E.Slot].Active = E.V != 0;
    break;
  case EffectKind::ShadowPush:
    IO.Prof.ShadowStack.push_back({E.Slot, E.V});
    break;
  case EffectKind::ShadowPop:
    IO.Prof.ShadowStack.pop_back();
    break;
  case EffectKind::PendingSet:
    IO.Prof.Pending.Valid = true;
    IO.Prof.Pending.Callee = E.Slot;
    IO.Prof.Pending.PathId = E.V;
    break;
  case EffectKind::PendingClear:
    IO.Prof.Pending.Valid = false;
    break;
  }
}

/// Applies \p T's collapsed per-pass net effects for \p K completed passes
/// at once. Sound because PassEffects holds at most one entry per
/// component: Sets are idempotent across passes and Adds scale linearly;
/// shadow push/pop entries only occur on single-pass traces (K <= 1 by
/// construction there).
void applyPassEffectsScaled(const CompiledTrace &T, TraceRunIO &IO,
                            size_t AnchorIdx, uint64_t K) {
  if (K == 0)
    return;
  if (K == 1) {
    for (const TraceEffect &E : T.PassEffects)
      applyEffect(E, IO, AnchorIdx);
    return;
  }
  for (const TraceEffect &E : T.PassEffects) {
    switch (E.Kind) {
    case EffectKind::AddR:
    case EffectKind::AddRI:
    case EffectKind::AddOlI:
    case EffectKind::AddRoII:
    case EffectKind::AddOlII:
    case EffectKind::AddLoopRo:
    case EffectKind::AddLoopOl: {
      TraceEffect S = E;
      S.V = static_cast<int64_t>(static_cast<uint64_t>(E.V) * K);
      applyEffect(S, IO, AnchorIdx);
      break;
    }
    default:
      applyEffect(E, IO, AnchorIdx);
      break;
    }
  }
}

} // namespace

void runCompiledTrace(const CompiledTrace &T, TraceRunIO &IO) {
  ++IO.Stats.Enters;
  const size_t AnchorIdx = IO.Frames.size() - 1;
  // Completed passes this enter: the retirement heuristic's notion of
  // straight-line progress.
  uint64_t Progress = 0;
  // Base-step index at which the frame currently live at each in-trace
  // depth was created; gates positional effects to the right frame
  // instance on a mid-pass deopt.
  std::vector<uint32_t> DS;

  for (;;) {
    // Fuel precondition: the dispatch loop charges one fuel unit per base
    // step *before* executing it, so a pass may start only if every one of
    // its PassSteps fits under the limit. Accounting is flushed per batch,
    // so IO.Steps is current here.
    uint64_t MaxK = 0;
    if (IO.Steps + T.PassSteps <= IO.MaxSteps) {
      const uint64_t FuelK = (IO.MaxSteps - IO.Steps) / T.PassSteps;
      MaxK = guardPassBudget(T, IO, AnchorIdx, FuelK);
      if (MaxK > FuelK)
        MaxK = FuelK;
      if (MaxK && !T.MultiPass)
        MaxK = 1;
    }
    if (MaxK == 0) {
      if (Progress == 0)
        ++IO.Stats.EntryRejects;
      FastFrame &Top = IO.Frames[AnchorIdx];
      Top.Pc = T.AnchorPc;
      Top.Block = T.AnchorBlock;
      break;
    }

    uint64_t PassCount = 0;
    bool Deopt = false;
    size_t DeoptK = 0;
    while (PassCount < MaxK) {
    DS.assign(1, 0);
    int64_t *Regs = IO.RegStack.data() + IO.Frames[AnchorIdx].RegBase;

    // Direct-threaded like the main loop (Interpreter.cpp): every handler
    // ends by jumping through the table straight to the next step's
    // handler, so the indirect branch predictor learns one dispatch site
    // per handler instead of sharing a single mispredicting switch. Order
    // must match the TOp enum exactly. Handlers that can fail jump to
    // TrFail with SP still on the failing step (deopt-before semantics).
    static const void *const Handlers[] = {
        &&T_Const,     &&T_Move,     &&T_Add,      &&T_Sub,      &&T_Mul,
        &&T_Div,       &&T_Mod,      &&T_And,      &&T_Or,       &&T_Xor,
        &&T_Shl,       &&T_Shr,      &&T_CmpEq,    &&T_CmpNe,    &&T_CmpLt,
        &&T_CmpLe,     &&T_CmpGt,    &&T_CmpGe,    &&T_AddImm,   &&T_AndImm,
        &&T_CmpEqImm,  &&T_CmpNeImm, &&T_CmpLtImm, &&T_CmpLeImm, &&T_CmpGtImm,
        &&T_CmpGeImm,  &&T_Neg,      &&T_Not,      &&T_LoadG,    &&T_StoreG,
        &&T_LoadArr,   &&T_StoreArr, &&T_GuardTrue, &&T_GuardFalse,
        &&T_GuardCallee, &&T_Call,   &&T_Ret};
    const TraceStep *__restrict const S0 = T.Steps.data();
    const TraceStep *__restrict SP = S0;
    const TraceStep *const SEnd = S0 + T.Steps.size();
#define TR_DISPATCH()                                                          \
  do {                                                                         \
    if (SP == SEnd)                                                            \
      goto TrPassDone;                                                         \
    goto *Handlers[static_cast<size_t>(SP->Op)];                               \
  } while (0)

    TR_DISPATCH();
  T_Const: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = S.Imm;
  }
    TR_DISPATCH();
  T_Move: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0];
  }
    TR_DISPATCH();
  T_Add: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = wrapAdd(Regs[S.Src0], Regs[S.Src1]);
  }
    TR_DISPATCH();
  T_Sub: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = wrapSub(Regs[S.Src0], Regs[S.Src1]);
  }
    TR_DISPATCH();
  T_Mul: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = wrapMul(Regs[S.Src0], Regs[S.Src1]);
  }
    TR_DISPATCH();
  T_Div: {
    const TraceStep &S = *SP;
    const int64_t A = Regs[S.Src0], B = Regs[S.Src1];
    if (B == 0 || (A == INT64_MIN && B == -1))
      goto TrFail;
    Regs[S.Dst] = A / B;
    ++SP;
  }
    TR_DISPATCH();
  T_Mod: {
    const TraceStep &S = *SP;
    const int64_t A = Regs[S.Src0], B = Regs[S.Src1];
    if (B == 0 || (A == INT64_MIN && B == -1))
      goto TrFail;
    Regs[S.Dst] = A % B;
    ++SP;
  }
    TR_DISPATCH();
  T_And: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] & Regs[S.Src1];
  }
    TR_DISPATCH();
  T_Or: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] | Regs[S.Src1];
  }
    TR_DISPATCH();
  T_Xor: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] ^ Regs[S.Src1];
  }
    TR_DISPATCH();
  T_Shl: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = static_cast<int64_t>(
        static_cast<uint64_t>(Regs[S.Src0])
        << (static_cast<uint64_t>(Regs[S.Src1]) & 63));
  }
    TR_DISPATCH();
  T_Shr: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] >> (static_cast<uint64_t>(Regs[S.Src1]) & 63);
  }
    TR_DISPATCH();
  T_CmpEq: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] == Regs[S.Src1];
  }
    TR_DISPATCH();
  T_CmpNe: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] != Regs[S.Src1];
  }
    TR_DISPATCH();
  T_CmpLt: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] < Regs[S.Src1];
  }
    TR_DISPATCH();
  T_CmpLe: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] <= Regs[S.Src1];
  }
    TR_DISPATCH();
  T_CmpGt: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] > Regs[S.Src1];
  }
    TR_DISPATCH();
  T_CmpGe: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] >= Regs[S.Src1];
  }
    TR_DISPATCH();
  T_AddImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = wrapAdd(Regs[S.Src0], S.Imm);
  }
    TR_DISPATCH();
  T_AndImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] & S.Imm;
  }
    TR_DISPATCH();
  T_CmpEqImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] == S.Imm;
  }
    TR_DISPATCH();
  T_CmpNeImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] != S.Imm;
  }
    TR_DISPATCH();
  T_CmpLtImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] < S.Imm;
  }
    TR_DISPATCH();
  T_CmpLeImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] <= S.Imm;
  }
    TR_DISPATCH();
  T_CmpGtImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] > S.Imm;
  }
    TR_DISPATCH();
  T_CmpGeImm: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] >= S.Imm;
  }
    TR_DISPATCH();
  T_Neg: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = wrapNeg(Regs[S.Src0]);
  }
    TR_DISPATCH();
  T_Not: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = Regs[S.Src0] == 0 ? 1 : 0;
  }
    TR_DISPATCH();
  T_LoadG: {
    const TraceStep &S = *SP++;
    Regs[S.Dst] = IO.Globals[S.Aux].Data[0];
  }
    TR_DISPATCH();
  T_StoreG: {
    const TraceStep &S = *SP++;
    IO.Globals[S.Aux].Data[0] = Regs[S.Src0];
  }
    TR_DISPATCH();
  T_LoadArr: {
    const TraceStep &S = *SP;
    const int64_t Idx = Regs[S.Src0];
    const GlobalView Arr = IO.Globals[S.Aux];
    if (static_cast<uint64_t>(Idx) >= Arr.Size)
      goto TrFail;
    Regs[S.Dst] = Arr.Data[static_cast<size_t>(Idx)];
    ++SP;
  }
    TR_DISPATCH();
  T_StoreArr: {
    const TraceStep &S = *SP;
    const int64_t Idx = Regs[S.Src0];
    const GlobalView Arr = IO.Globals[S.Aux];
    if (static_cast<uint64_t>(Idx) >= Arr.Size)
      goto TrFail;
    Arr.Data[static_cast<size_t>(Idx)] = Regs[S.Src1];
    ++SP;
  }
    TR_DISPATCH();
  T_GuardTrue: {
    if (Regs[SP->Src0] == 0)
      goto TrFail;
    ++SP;
  }
    TR_DISPATCH();
  T_GuardFalse: {
    if (Regs[SP->Src0] != 0)
      goto TrFail;
    ++SP;
  }
    TR_DISPATCH();
  T_GuardCallee: {
    const TraceStep &S = *SP;
    if (Regs[S.Src0] != static_cast<int64_t>(S.Aux))
      goto TrFail;
    ++SP;
  }
    TR_DISPATCH();
  T_Call: {
    if (IO.Frames.size() >= IO.MaxCallDepth)
      goto TrFail;
    const TraceStep &S = *SP;
    const FuncPlan &FP = IO.Plan.Funcs[S.Aux];
    const TraceStepMeta &Mk = T.Meta[static_cast<size_t>(SP - S0)];
    FastFrame &Cur = IO.Frames.back();
    Cur.Pc = Mk.Pc + 1;
    Cur.Block = Mk.Block;
    FastFrame NF;
    NF.FuncId = S.Aux;
    NF.RetDst = S.Dst;
    NF.RegBase = static_cast<uint32_t>(IO.RegStack.size());
    NF.LoopBase = static_cast<uint32_t>(IO.LoopStack.size());
    const uint32_t CallerBase = Cur.RegBase;
    IO.RegStack.resize(NF.RegBase + FP.NumRegs);
    IO.LoopStack.resize(NF.LoopBase + FP.NumLoopSlots);
    for (uint32_t A = 0; A < S.ArgsCount; ++A)
      IO.RegStack[NF.RegBase + A] = IO.RegStack[CallerBase + S.Args[A]];
    IO.Frames.push_back(NF);
    DS.push_back(Mk.BaseIdx);
    Regs = IO.RegStack.data() + NF.RegBase;
    ++SP;
  }
    TR_DISPATCH();
  T_Ret: {
    const TraceStep &S = *SP++;
    const FastFrame F = IO.Frames.back();
    const int64_t Val = S.Src0 == NoReg ? 0 : Regs[S.Src0];
    IO.RegStack.resize(F.RegBase);
    IO.LoopStack.resize(F.LoopBase);
    IO.Frames.pop_back();
    DS.pop_back();
    Regs = IO.RegStack.data() + IO.Frames.back().RegBase;
    if (F.RetDst != NoReg)
      Regs[F.RetDst] = Val;
  }
    TR_DISPATCH();
#undef TR_DISPATCH

  TrFail:
    Deopt = true;
    DeoptK = static_cast<size_t>(SP - S0);
    break;

  TrPassDone:
    ++PassCount;
    }

    // Batch bookkeeping. Completed passes apply their net effects scaled
    // (deferred across the batch: steps never read probe state, so the
    // deferral is invisible), then the deopt path applies the partial
    // pass's positional effects — exact interpreter state before anything
    // else looks at it.
    uint32_t Threshold = 0;
    applyPassEffectsScaled(T, IO, AnchorIdx, PassCount);
    if (Deopt) {
      const TraceStepMeta &Mk = T.Meta[DeoptK];
      Threshold = Mk.BaseIdx;
      for (const TraceEffect &E : T.Effects) {
        if (E.BaseIdx >= Threshold)
          break;
        if (E.Depth >= DS.size())
          continue;
        if (E.Depth > 0 && E.BaseIdx < DS[E.Depth])
          continue;
        applyEffect(E, IO, AnchorIdx);
      }
      IO.Steps += PassCount * T.PassSteps + Mk.CumSteps;
      IO.Base += PassCount * T.PassBase + Mk.CumBase;
      IO.PCost += PassCount * T.PassPCost + Mk.CumPCost;
      IO.Blocks += PassCount * T.PassBlocks + Mk.CumBlocks;
      IO.Calls += PassCount * T.PassCalls + Mk.CumCalls;
      IO.Stats.TraceSteps += PassCount * T.PassSteps + Mk.CumSteps;
      FastFrame &Top = IO.Frames.back();
      Top.Pc = Mk.Pc;
      Top.Block = Mk.Block;
      ++IO.Stats.Deopts;
    } else {
      IO.Steps += PassCount * T.PassSteps;
      IO.Base += PassCount * T.PassBase;
      IO.PCost += PassCount * T.PassPCost;
      IO.Blocks += PassCount * T.PassBlocks;
      IO.Calls += PassCount * T.PassCalls;
      IO.Stats.TraceSteps += PassCount * T.PassSteps;
    }
    IO.Stats.Passes += PassCount;

    for (const TraceBump &B : T.Bumps) {
      const uint64_t N =
          PassCount + ((Deopt && B.BaseIdx < Threshold) ? 1 : 0);
      if (N == 0)
        continue;
      if (B.Table == 0)
        IO.Prof.PathCounts[B.FuncId].add(B.Id, N);
      else if (B.Table == 1)
        IO.Prof.TypeICounts.bump(B.Key, N);
      else
        IO.Prof.TypeIICounts.bump(B.Key, N);
    }

    Progress += PassCount;

    if (Deopt)
      break;
    if (!T.MultiPass) {
      FastFrame &Top = IO.Frames[AnchorIdx];
      Top.Pc = T.AnchorPc;
      Top.Block = T.AnchorBlock;
      break;
    }
    // Guards and fuel are re-checked at the top.
  }

  // Adaptive retirement (see CompiledTrace): once the lifetime average
  // drops under one completed pass per enter, the trace is churn — every
  // enter pays setup plus the deopt restore for no straight-line progress.
  // Blacklisting the anchor keeps this runtime from re-recording it.
  const uint64_t Enters =
      T.LifeEnters.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t Passes =
      T.LifePasses.fetch_add(Progress, std::memory_order_relaxed) + Progress;
  if (Enters >= CompiledTrace::RetireCheckEnters && Passes < Enters &&
      !T.Dead.exchange(true, std::memory_order_relaxed)) {
    IO.Prof.Tier.blacklistAnchor(T.FuncId, T.AnchorPc);
    ++IO.Stats.Retired;
  }
}

} // namespace olpp
