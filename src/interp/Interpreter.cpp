//===--- Interpreter.cpp - OLPP IR interpreter ---------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/CostModel.h"
#include "interp/ExecPlan.h"
#include "interp/PlanCache.h"
#include "interp/ProfileRuntime.h"
#include "interp/Trace.h"
#include "interp/TraceOpt.h"

#include <cassert>

using namespace olpp;

TraceSink::~TraceSink() = default;

bool olpp::parseEngineKind(const std::string &Name, EngineKind &Out) {
  if (Name == "fast") {
    Out = EngineKind::Fast;
    return true;
  }
  if (Name == "reference") {
    Out = EngineKind::Reference;
    return true;
  }
  return false;
}

const char *olpp::engineKindName(EngineKind E) {
  return E == EngineKind::Fast ? "fast" : "reference";
}

namespace {

// LoopRegs and FastFrame moved to interp/TraceTier.h: the trace executor
// shares the fast engine's frame layout.

/// One activation record of the reference engine.
struct Frame {
  const Function *F = nullptr;
  const BasicBlock *BB = nullptr;
  size_t Ip = 0;
  Reg RetDst = NoReg;
  std::vector<int64_t> Regs;

  // Ball-Larus path register.
  int64_t R = 0;
  // Loop overlap regions.
  std::vector<LoopRegs> Loops;
  // Type I (callee-prefix) region.
  bool ActiveI = false;
  bool HaveCaller = false;
  int64_t RI = 0, OlI = 0, CallerPre = 0;
  uint32_t CallSiteI = 0;
  // Type II (caller-continuation) region.
  bool ActiveII = false;
  int64_t RoII = 0, OlII = 0, CalleePathII = 0;
  uint32_t CallSiteII = 0, CalleeII = 0;
};

/// Executes one probe program against frame \p Fr. This is the oracle the
/// reference engine runs; the fast engine inlines an equivalent loop over
/// its pre-decoded op pool, and EngineDiffTest pins the two together.
template <class FrameT>
inline void execProbe(const ProbeProgram &PP, FrameT &Fr, LoopRegs *Loops,
                      uint32_t FuncId, ProfileRuntime &Prof,
                      PathCounterStore &Counts, DynCounts &C) {
  // Type II ops of every call site share one probe; real codegen would
  // dispatch on the active call-site id once, so the inactive test is
  // charged once per probe rather than once per op.
  bool ChargedIITest = false;
  for (const ProbeOp &P : PP.Ops) {
    switch (P.Kind) {
    case ProbeOpKind::BLSet:
      Fr.R = P.C0;
      C.ProbeCost += cost::RegOp;
      break;
    case ProbeOpKind::BLAdd:
      Fr.R += P.C0;
      C.ProbeCost += cost::RegOp;
      break;
    case ProbeOpKind::BLCount:
      Counts.bump(Fr.R + P.C0);
      C.ProbeCost += cost::CounterBump;
      break;
    case ProbeOpKind::OLDisarm:
      Loops[P.Slot].Active = false;
      C.ProbeCost += cost::RegOp;
      break;
    case ProbeOpKind::OLArm: {
      LoopRegs &L = Loops[P.Slot];
      L.Ro = Fr.R + P.C0;
      L.Ol = 0;
      L.Active = true;
      C.ProbeCost += 2 * cost::RegOp;
      break;
    }
    case ProbeOpKind::OLAdd: {
      LoopRegs &L = Loops[P.Slot];
      if (!L.Active) {
        C.ProbeCost += cost::InactiveTest;
        break;
      }
      L.Ro += P.C0;
      C.ProbeCost += cost::InactiveTest + cost::RegOp;
      break;
    }
    case ProbeOpKind::OLPred: {
      LoopRegs &L = Loops[P.Slot];
      if (!L.Active) {
        C.ProbeCost += cost::InactiveTest;
        break;
      }
      C.ProbeCost += cost::InactiveTest + cost::RegOp;
      if (++L.Ol == P.C1) {
        Counts.bump(L.Ro + P.C0);
        L.Active = false;
        C.ProbeCost += cost::CounterBump;
      }
      break;
    }
    case ProbeOpKind::OLFlush: {
      LoopRegs &L = Loops[P.Slot];
      if (!L.Active) {
        C.ProbeCost += cost::InactiveTest;
        break;
      }
      Counts.bump(L.Ro + P.C0);
      L.Active = false;
      C.ProbeCost += cost::InactiveTest + cost::CounterBump;
      break;
    }
    case ProbeOpKind::IPCall:
      Prof.ShadowStack.push_back(
          {static_cast<uint32_t>(P.C0), Fr.R + P.C1});
      C.ProbeCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPEnter:
      Fr.RI = P.C0;
      Fr.OlI = 0;
      if (!Prof.ShadowStack.empty()) {
        Fr.CallSiteI = Prof.ShadowStack.back().CallSite;
        Fr.CallerPre = Prof.ShadowStack.back().CallerPre;
        Fr.ActiveI = true;
        Fr.HaveCaller = true;
      } else {
        Fr.ActiveI = false;
        Fr.HaveCaller = false;
      }
      C.ProbeCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPAddI:
      if (!Fr.ActiveI) {
        C.ProbeCost += cost::InactiveTest;
        break;
      }
      Fr.RI += P.C0;
      C.ProbeCost += cost::InactiveTest + cost::RegOp;
      break;
    case ProbeOpKind::IPPredI:
      if (!Fr.ActiveI) {
        C.ProbeCost += cost::InactiveTest;
        break;
      }
      C.ProbeCost += cost::InactiveTest + cost::RegOp;
      if (++Fr.OlI == P.C1) {
        Prof.TypeICounts.bump(
            {FuncId, Fr.CallSiteI, Fr.RI + P.C0, Fr.CallerPre});
        Fr.ActiveI = false;
        C.ProbeCost += cost::TupleBump;
      }
      break;
    case ProbeOpKind::IPFlushI:
      if (!Fr.ActiveI) {
        C.ProbeCost += cost::InactiveTest;
        break;
      }
      Prof.TypeICounts.bump(
          {FuncId, Fr.CallSiteI, Fr.RI + P.C0, Fr.CallerPre});
      Fr.ActiveI = false;
      C.ProbeCost += cost::InactiveTest + cost::TupleBump;
      break;
    case ProbeOpKind::IPRet:
      Prof.Pending.Valid = true;
      Prof.Pending.Callee = FuncId;
      Prof.Pending.PathId = Fr.R + P.C0;
      if (Fr.HaveCaller) {
        assert(!Prof.ShadowStack.empty() && "shadow stack underflow");
        Prof.ShadowStack.pop_back();
      }
      C.ProbeCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPArmII:
      if (Prof.Pending.Valid) {
        Fr.ActiveII = true;
        Fr.CalleeII = Prof.Pending.Callee;
        Fr.CalleePathII = Prof.Pending.PathId;
        Fr.CallSiteII = static_cast<uint32_t>(P.C1);
        Fr.RoII = P.C0;
        Fr.OlII = 0;
        Prof.Pending.Valid = false;
      } else {
        Fr.ActiveII = false;
      }
      C.ProbeCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPAddII:
      // Ops of every call site's region share blocks; only the ops of
      // the site that armed this region may fire.
      if (!Fr.ActiveII || Fr.CallSiteII != static_cast<uint32_t>(P.Slot)) {
        C.ProbeCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      Fr.RoII += P.C0;
      C.ProbeCost += cost::InactiveTest + cost::RegOp;
      break;
    case ProbeOpKind::IPPredII:
      if (!Fr.ActiveII || Fr.CallSiteII != static_cast<uint32_t>(P.Slot)) {
        C.ProbeCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      C.ProbeCost += cost::InactiveTest + cost::RegOp;
      if (++Fr.OlII == P.C1) {
        Prof.TypeIICounts.bump(
            {Fr.CalleeII, Fr.CallSiteII, Fr.CalleePathII, Fr.RoII + P.C0});
        Fr.ActiveII = false;
        C.ProbeCost += cost::TupleBump;
      }
      break;
    case ProbeOpKind::IPFlushII:
      if (!Fr.ActiveII || Fr.CallSiteII != static_cast<uint32_t>(P.Slot)) {
        C.ProbeCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      Prof.TypeIICounts.bump(
          {Fr.CalleeII, Fr.CallSiteII, Fr.CalleePathII, Fr.RoII + P.C0});
      Fr.ActiveII = false;
      C.ProbeCost += cost::InactiveTest + cost::TupleBump;
      break;
    }
  }
}

std::string arityError(const Function &Entry, size_t Got) {
  return "entry function '" + Entry.Name + "' expects " +
         std::to_string(Entry.NumParams) + " arguments, got " +
         std::to_string(Got);
}

} // namespace

Interpreter::Interpreter(const Module &M, ProfileRuntime *Prof,
                         TraceSink *Trace)
    : M(M), Prof(Prof), Trace(Trace) {
  Globals.resize(M.globals().size());
  for (size_t G = 0; G < Globals.size(); ++G)
    Globals[G].assign(M.globals()[G].Size, 0);
}

Interpreter::~Interpreter() = default;

void Interpreter::resetGlobals() {
  for (size_t G = 0; G < Globals.size(); ++G)
    Globals[G].assign(M.globals()[G].Size, 0);
}

const ExecPlan &Interpreter::ensurePlan() {
  if (!Plan)
    Plan = ExecPlanCache::global().get(M);
  return *Plan;
}

RunResult Interpreter::run(const Function &Entry,
                           const std::vector<int64_t> &Args,
                           const RunConfig &Config) {
  return Config.Engine == EngineKind::Reference
             ? runReference(Entry, Args, Config)
             : runFast(Entry, Args, Config);
}

//===----------------------------------------------------------------------===//
// Fast engine: pre-decoded flat execution form
//===----------------------------------------------------------------------===//

RunResult Interpreter::runFast(const Function &Entry,
                               const std::vector<int64_t> &Args,
                               const RunConfig &Config) {
  const ExecPlan &P = ensurePlan();
  assert(M.function(Entry.Id) == &Entry && "entry is not a function of M");

  RunResult Res;
  if (Args.size() != Entry.NumParams) {
    Res.Error = arityError(Entry, Args.size());
    return Res;
  }
  if (Prof)
    Prof->resetTransient();

  std::vector<FastFrame> Frames;
  std::vector<int64_t> RegStack;   // all live frame registers, contiguous
  std::vector<LoopRegs> LoopStack; // all live loop slots, contiguous
  DynCounts &C = Res.Counts;
  // Every hot counter lives in a local so stores through Regs/Loops/Counts
  // cannot force the compiler to spill and reload them each step; every
  // return path flushes them back into C. Trace is likewise hoisted out of
  // the member so the per-branch null test reads a register, not `this`.
  uint64_t Steps = 0, Base = 0, PCostSum = 0, Blocks = 0, Calls = 0;
  const uint64_t MaxSteps = Config.MaxSteps;
  // Tr is reassigned while a trace recording is live (the recorder borrows
  // the sink slot), so it is deliberately non-const here.
  TraceSink *Tr = Trace;

  // Hot-path tracing tier (interp/TraceTier.h). Enabled only when profiling
  // is on and no external sink is attached: the recorder needs the sink
  // slot, and without a runtime there is no hotness signal.
  TraceRecorder Rec;
  TraceTierStats TStats;
  const uint32_t TraceThreshold = Config.TraceThreshold;
  // The cache is resolved once per run, keyed by the full trace settings:
  // traces recorded under a different threshold or optimizer configuration
  // (or with tracing disabled) live in sibling caches of the shared plan
  // and stay invisible to this run.
  const TraceSettings TSettings{TraceThreshold, Config.EnableTraceOpt,
                                Config.TraceOptDropGuardFault};
  PlanTraceCache *const TC =
      (Config.EnableTraces && Prof && !Trace && P.Traces != nullptr)
          ? P.Traces->forSettings(TSettings)
          : nullptr;
  const bool TraceCk = TC != nullptr;

  // Growth value-initializes new elements, so a pushed frame always sees
  // zeroed registers and disarmed loop slots, exactly like the reference
  // engine's per-frame vectors.
  auto PushFrame = [&](uint32_t FuncId, Reg RetDst) {
    const FuncPlan &FP = P.Funcs[FuncId];
    FastFrame Fr;
    Fr.FuncId = FuncId;
    Fr.RegBase = static_cast<uint32_t>(RegStack.size());
    Fr.LoopBase = static_cast<uint32_t>(LoopStack.size());
    Fr.RetDst = RetDst;
    RegStack.resize(RegStack.size() + FP.NumRegs);
    LoopStack.resize(LoopStack.size() + FP.NumLoopSlots);
    Frames.push_back(Fr);
    if (Tr) {
      Tr->onEnter(FuncId);
      Tr->onBlock(FuncId, 0); // the entry block has id 0
    }
    ++Blocks;
  };

  PushFrame(Entry.Id, NoReg);
  for (size_t A = 0; A < Args.size(); ++A)
    RegStack[A] = Args[A];

  auto Fail = [&](const std::string &Msg) {
    C.Steps = Steps;
    C.BaseCost = Base;
    C.ProbeCost += PCostSum;
    C.Blocks += Blocks;
    C.Calls += Calls;
    const FastFrame &Fr = Frames.back();
    Res.Ok = false;
    Res.Error = Msg + " (in '" + P.Funcs[Fr.FuncId].Name + "', block ^" +
                std::to_string(Fr.Block) + ")";
    Res.Trace = TStats;
    return Res;
  };

  // The loop below is direct-threaded: every handler ends by jumping
  // through JT straight to the next instruction's handler, so the indirect
  // branch predictor learns one dispatch site per handler instead of
  // sharing a single switch. Uses GNU labels-as-values (gcc and clang;
  // the build already assumes a GNU-style driver).
  FastFrame *Fr = nullptr;
  const ExecInstr *__restrict Code = nullptr;
  const ProbeOp *__restrict ProbeOps = nullptr;
  const Reg *__restrict ArgPool = nullptr;
  int64_t *__restrict Regs = nullptr;
  LoopRegs *__restrict Loops = nullptr;
  // Flat {data,size} views of the globals. Global sizes are fixed for the
  // module's lifetime and the vectors never reallocate during a run, so
  // hoisting the vector<> indirection out of the per-step array and scalar
  // handlers is safe and shortens their load chains by one level.
  using GView = GlobalView; // shared with the trace executor
  std::vector<GView> GViewStore(Globals.size());
  for (size_t G = 0; G < Globals.size(); ++G)
    GViewStore[G] = {Globals[G].data(), Globals[G].size()};
  const GView *__restrict GlobalsP = GViewStore.data();
  PathCounterStore *Counts = nullptr;
  const ExecInstr *I = nullptr;
  uint32_t FuncId = 0, Pc = 0, Block = 0, CalleeId = 0;

  static const void *const JT[kNumExecOps] = {
      &&L_Const,   &&L_Move,    &&L_Add,     &&L_Sub,      &&L_Mul,
      &&L_Div,     &&L_Mod,     &&L_And,     &&L_Or,       &&L_Xor,
      &&L_Shl,     &&L_Shr,     &&L_CmpEq,   &&L_CmpNe,    &&L_CmpLt,
      &&L_CmpLe,   &&L_CmpGt,   &&L_CmpGe,   &&L_Neg,      &&L_Not,
      &&L_LoadG,   &&L_StoreG,  &&L_LoadArr, &&L_StoreArr, &&L_Call,
      &&L_CallInd, &&L_Ret,     &&L_Br,      &&L_CondBr,   &&L_Probe,
      &&L_CmpEqBr, &&L_CmpNeBr, &&L_CmpLtBr, &&L_CmpLeBr,  &&L_CmpGtBr,
      &&L_CmpGeBr,
      &&L_ConstAnd,     &&L_AndLoadArr,      &&L_LoadArrMove,
      &&L_AddMove,      &&L_MoveConst,       &&L_ConstAdd,
      &&L_MoveBr,       &&L_ConstAndLoadArrMove,
      &&L_ConstAndLoadArr, &&L_ConstAddMove,  &&L_ConstAddMoveBr,
      &&L_CmpEqConstCmpNeBr, &&L_LoadGCmpLtBr, &&L_ConstCmpEqBr,
      &&L_AndCmpEqBr,   &&L_LoadArrCmpEqBr,  &&L_LoadArrConst,
      &&L_ConstAndLoadArrMoveCmpEqBr,
      &&L_PrOLPred,        &&L_PrOLPredPredI,  &&L_PrOLPred2PredI,
      &&L_PrAddI,          &&L_PrAddII,        &&L_PrPredII,
      &&L_PrEnter,         &&L_PrEnterPredI,   &&L_PrFlushIIArmSet,
      &&L_PrFlushICountRet, &&L_PrCountCall,   &&L_PrSetArmII,
      &&L_PrOLPredBr,      &&L_PrAddIBr,       &&L_PrAddIIBr,
      &&L_PrSetArmIIBr,    &&L_PrFlushIIArmSetBr, &&L_PrProbeBr,
      &&L_PrOLPredPredILoadGCmpLtBr, &&L_PrOLPred2PredILoadGCmpLtBr,
      &&L_PrEnterPredIAndCmpEqBr,    &&L_PrOLPredCmpEqBr,
      &&L_PrOLPredPredICondBr,       &&L_PrOLPredCondBr,
      &&L_PrPredIICondBr,
      &&L_PrPredI,             &&L_PrOLPred2,
      &&L_PrFlushIICountCall,  &&L_PrFlushICountCall,
      &&L_PrOLFlushCountCall,  &&L_PrOLFlushFlushICountCall,
      &&L_PrFlushIICountRet,   &&L_PrFlushIFlushArmSet,
      &&L_PrBLAdd,             &&L_PrBLAddOLAdd,
      &&L_PrFlushIFlushArmSetBr, &&L_PrBLAddBr, &&L_PrBLAddOLAddBr,
      &&L_PrCountCallCall,        &&L_PrFlushIICountCallCall,
      &&L_PrFlushICountCallCall,  &&L_PrOLFlushCountCallCall,
      &&L_PrOLFlushFlushICountCallCall,
      &&L_PrFlushICountRetRet,    &&L_PrFlushIICountRetRet,
      &&L_ConstPrFlushICountRetRet,
      &&L_ConstAndLoadArrConstCmpEqBr, &&L_LoadArrConstCmpEqConstCmpNeBr,
      &&L_ConstAndLoadArrMove2,        &&L_ConstCmpGeBr,
      &&L_PrOLPredPredIConstAndLoadArr,
      &&L_PrEnterPredIConstAndLoadArrMove,
      &&L_ConstAddMovePrFlushIIArmSetBr,
      &&L_ConstAddMovePrFlushIFlushArmSetBr,
  };

#define OLPP_FUEL()                                                            \
  do {                                                                         \
    if (++Steps > MaxSteps) {                                                  \
      Fr->Block = Block;                                                       \
      return Fail("fuel exhausted after " + std::to_string(MaxSteps) +         \
                  " steps");                                                   \
    }                                                                          \
  } while (0)
#define OLPP_DISPATCH()                                                        \
  do {                                                                         \
    OLPP_FUEL();                                                               \
    I = Code + Pc;                                                             \
    goto *JT[static_cast<unsigned>(I->Op)];                                    \
  } while (0)
#define OLPP_NEXT()                                                            \
  do {                                                                         \
    ++Pc;                                                                      \
    OLPP_DISPATCH();                                                           \
  } while (0)

  // One-step bodies shared by the plain handlers and the fused
  // superinstructions (which execute several of them per dispatch). Each
  // body is the exact step it names, including its cost accounting; J is
  // the ExecInstr holding the step's operands.
#define OLPP_CONST_BODY(J)                                                     \
  Regs[(J)->Dst] = (J)->Imm;                                                   \
  Base += cost::Instr;
#define OLPP_MOVE_BODY(J)                                                      \
  Regs[(J)->Dst] = Regs[(J)->Src0];                                            \
  Base += cost::Instr;
#define OLPP_ADD_BODY(J)                                                       \
  Regs[(J)->Dst] =                                                             \
      static_cast<int64_t>(static_cast<uint64_t>(Regs[(J)->Src0]) +            \
                           static_cast<uint64_t>(Regs[(J)->Src1]));            \
  Base += cost::Instr;
#define OLPP_AND_BODY(J)                                                       \
  Regs[(J)->Dst] = Regs[(J)->Src0] & Regs[(J)->Src1];                          \
  Base += cost::Instr;
#define OLPP_LOADARR_BODY(J)                                                   \
  {                                                                            \
    int64_t Idx = Regs[(J)->Src0];                                             \
    const GView Arr = GlobalsP[(J)->GlobalId];                                 \
    if (static_cast<uint64_t>(Idx) >= Arr.Size) {                              \
      Fr->Block = Block;                                                       \
      return Fail("array index " + std::to_string(Idx) +                       \
                  " out of bounds for '" + M.globals()[(J)->GlobalId].Name +   \
                  "' of size " + std::to_string(Arr.Size));                    \
    }                                                                          \
    Regs[(J)->Dst] = Arr.Data[static_cast<size_t>(Idx)];                       \
    Base += cost::Instr;                                                       \
  }
#define OLPP_BR_BODY(J)                                                        \
  Base += cost::Instr;                                                         \
  Pc = (J)->Target0Pc;                                                         \
  Block = (J)->Target0Blk;                                                     \
  ++Blocks;                                                                    \
  if (Tr)                                                                      \
    Tr->onBlock(FuncId, Block);                                                \
  if (TraceCk && Pc <= static_cast<uint32_t>((J) - Code))                      \
    goto TraceCheck;
#define OLPP_LOADG_BODY(J)                                                     \
  Regs[(J)->Dst] = GlobalsP[(J)->GlobalId].Data[0];                            \
  Base += cost::Instr;
#define OLPP_CMP_BODY(J, OPR)                                                  \
  Regs[(J)->Dst] = Regs[(J)->Src0] OPR Regs[(J)->Src1];                        \
  Base += cost::Instr;
#define OLPP_CONDBR_BODY(J)                                                    \
  Base += cost::Instr;                                                         \
  {                                                                            \
    bool Taken = Regs[(J)->Src0] != 0;                                         \
    Pc = Taken ? (J)->Target0Pc : (J)->Target1Pc;                              \
    Block = Taken ? (J)->Target0Blk : (J)->Target1Blk;                         \
  }                                                                            \
  ++Blocks;                                                                    \
  if (Tr)                                                                      \
    Tr->onBlock(FuncId, Block);                                                \
  if (TraceCk && Pc <= static_cast<uint32_t>((J) - Code))                      \
    goto TraceCheck;

  // Specialized probe micro-op bodies (see execProbe for the reference
  // semantics each one mirrors, op kind by op kind). All accumulate into a
  // local PCost the handler flushes to PCostSum. Ops run in probe order, so
  // reads/writes of Fr->R and the Type I/II state interleave exactly as in
  // the generic loop.
#define OLPP_PB_OLPRED(OpsP, Idx)                                              \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    LoopRegs &L = Loops[Po.Slot];                                              \
    if (!L.Active) {                                                           \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      PCost += cost::InactiveTest + cost::RegOp;                               \
      if (++L.Ol == Po.C1) {                                                   \
        Counts->bump(L.Ro + Po.C0);                                            \
        L.Active = false;                                                      \
        PCost += cost::CounterBump;                                            \
        if (TraceCk)                                                           \
          Prof->Tier.noteHot(FuncId, L.Ro + Po.C0, TraceThreshold);            \
      }                                                                        \
    }                                                                          \
  }
#define OLPP_PB_PREDI(OpsP, Idx)                                               \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (!Fr->ActiveI) {                                                        \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      PCost += cost::InactiveTest + cost::RegOp;                               \
      if (++Fr->OlI == Po.C1) {                                                \
        Prof->TypeICounts.bump(                                                \
            {FuncId, Fr->CallSiteI, Fr->RI + Po.C0, Fr->CallerPre});           \
        Fr->ActiveI = false;                                                   \
        PCost += cost::TupleBump;                                              \
      }                                                                        \
    }                                                                          \
  }
#define OLPP_PB_FLUSHI(OpsP, Idx)                                              \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (!Fr->ActiveI) {                                                        \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      Prof->TypeICounts.bump(                                                  \
          {FuncId, Fr->CallSiteI, Fr->RI + Po.C0, Fr->CallerPre});             \
      Fr->ActiveI = false;                                                     \
      PCost += cost::InactiveTest + cost::TupleBump;                           \
    }                                                                          \
  }
#define OLPP_PB_ADDI(OpsP, Idx)                                                \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (!Fr->ActiveI) {                                                        \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      Fr->RI += Po.C0;                                                         \
      PCost += cost::InactiveTest + cost::RegOp;                               \
    }                                                                          \
  }
  // The *_FIRST Type II bodies assume they are the probe's only Type II op
  // (true for every specialized shape), so the shared inactive test is
  // always charged.
#define OLPP_PB_ADDII_FIRST(OpsP, Idx)                                         \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (!Fr->ActiveII ||                                                       \
        Fr->CallSiteII != static_cast<uint32_t>(Po.Slot)) {                    \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      Fr->RoII += Po.C0;                                                       \
      PCost += cost::InactiveTest + cost::RegOp;                               \
    }                                                                          \
  }
#define OLPP_PB_PREDII_FIRST(OpsP, Idx)                                        \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (!Fr->ActiveII ||                                                       \
        Fr->CallSiteII != static_cast<uint32_t>(Po.Slot)) {                    \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      PCost += cost::InactiveTest + cost::RegOp;                               \
      if (++Fr->OlII == Po.C1) {                                               \
        Prof->TypeIICounts.bump({Fr->CalleeII, Fr->CallSiteII,                 \
                                 Fr->CalleePathII, Fr->RoII + Po.C0});         \
        Fr->ActiveII = false;                                                  \
        PCost += cost::TupleBump;                                              \
      }                                                                        \
    }                                                                          \
  }
#define OLPP_PB_FLUSHII_FIRST(OpsP, Idx)                                       \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (!Fr->ActiveII ||                                                       \
        Fr->CallSiteII != static_cast<uint32_t>(Po.Slot)) {                    \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      Prof->TypeIICounts.bump({Fr->CalleeII, Fr->CallSiteII,                   \
                               Fr->CalleePathII, Fr->RoII + Po.C0});           \
      Fr->ActiveII = false;                                                    \
      PCost += cost::InactiveTest + cost::TupleBump;                           \
    }                                                                          \
  }
#define OLPP_PB_BLSET(OpsP, Idx)                                               \
  Fr->R = (OpsP)[Idx].C0;                                                      \
  PCost += cost::RegOp;
#define OLPP_PB_BLCOUNT(OpsP, Idx)                                             \
  Counts->bump(Fr->R + (OpsP)[Idx].C0);                                        \
  PCost += cost::CounterBump;
#define OLPP_PB_OLARM(OpsP, Idx)                                               \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    LoopRegs &L = Loops[Po.Slot];                                              \
    L.Ro = Fr->R + Po.C0;                                                      \
    L.Ol = 0;                                                                  \
    L.Active = true;                                                           \
    PCost += 2 * cost::RegOp;                                                  \
  }
#define OLPP_PB_IPENTER(OpsP, Idx)                                             \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    Fr->RI = Po.C0;                                                            \
    Fr->OlI = 0;                                                               \
    if (!Prof->ShadowStack.empty()) {                                          \
      Fr->CallSiteI = Prof->ShadowStack.back().CallSite;                       \
      Fr->CallerPre = Prof->ShadowStack.back().CallerPre;                      \
      Fr->ActiveI = true;                                                      \
      Fr->HaveCaller = true;                                                   \
    } else {                                                                   \
      Fr->ActiveI = false;                                                     \
      Fr->HaveCaller = false;                                                  \
    }                                                                          \
    PCost += cost::StackOp + cost::RegOp;                                      \
  }
#define OLPP_PB_IPRET(OpsP, Idx)                                               \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    Prof->Pending.Valid = true;                                                \
    Prof->Pending.Callee = FuncId;                                             \
    Prof->Pending.PathId = Fr->R + Po.C0;                                      \
    if (Fr->HaveCaller) {                                                      \
      assert(!Prof->ShadowStack.empty() && "shadow stack underflow");          \
      Prof->ShadowStack.pop_back();                                            \
    }                                                                          \
    PCost += cost::StackOp + cost::RegOp;                                      \
  }
#define OLPP_PB_IPCALL(OpsP, Idx)                                              \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    Prof->ShadowStack.push_back(                                               \
        {static_cast<uint32_t>(Po.C0), Fr->R + Po.C1});                        \
    PCost += cost::StackOp + cost::RegOp;                                      \
  }
#define OLPP_PB_ARMII(OpsP, Idx)                                               \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    if (Prof->Pending.Valid) {                                                 \
      Fr->ActiveII = true;                                                     \
      Fr->CalleeII = Prof->Pending.Callee;                                     \
      Fr->CalleePathII = Prof->Pending.PathId;                                 \
      Fr->CallSiteII = static_cast<uint32_t>(Po.C1);                           \
      Fr->RoII = Po.C0;                                                        \
      Fr->OlII = 0;                                                            \
      Prof->Pending.Valid = false;                                             \
    } else {                                                                   \
      Fr->ActiveII = false;                                                    \
    }                                                                          \
    PCost += cost::StackOp + cost::RegOp;                                      \
  }
#define OLPP_PB_OLFLUSH(OpsP, Idx)                                             \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    LoopRegs &L = Loops[Po.Slot];                                              \
    if (!L.Active) {                                                           \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      Counts->bump(L.Ro + Po.C0);                                              \
      L.Active = false;                                                        \
      PCost += cost::InactiveTest + cost::CounterBump;                         \
      if (TraceCk)                                                             \
        Prof->Tier.noteHot(FuncId, L.Ro + Po.C0, TraceThreshold);              \
    }                                                                          \
  }
#define OLPP_PB_BLADD(OpsP, Idx)                                               \
  Fr->R += (OpsP)[Idx].C0;                                                     \
  PCost += cost::RegOp;
#define OLPP_PB_OLADD(OpsP, Idx)                                               \
  {                                                                            \
    const ProbeOp &Po = (OpsP)[Idx];                                           \
    LoopRegs &L = Loops[Po.Slot];                                              \
    if (!L.Active) {                                                           \
      PCost += cost::InactiveTest;                                             \
    } else {                                                                   \
      L.Ro += Po.C0;                                                           \
      PCost += cost::InactiveTest + cost::RegOp;                               \
    }                                                                          \
  }

ReloadFrame:
  // (Re)load the cached view of the top frame. Everything a step touches
  // from here on is a plain array access.
  Fr = &Frames.back();
  FuncId = Fr->FuncId;
  {
    const FuncPlan &FP = P.Funcs[FuncId];
    Code = FP.Code.data();
    ProbeOps = FP.ProbePool.data();
    ArgPool = FP.ArgPool.data();
  }
  Regs = RegStack.data() + Fr->RegBase;
  Loops = LoopStack.data() + Fr->LoopBase;
  Counts = Prof ? &Prof->PathCounts[FuncId] : nullptr;
  Pc = Fr->Pc;
  Block = Fr->Block;
  OLPP_DISPATCH();

L_Const:
  OLPP_CONST_BODY(I)
  OLPP_NEXT();
L_Move:
  OLPP_MOVE_BODY(I)
  OLPP_NEXT();
L_Add:
  OLPP_ADD_BODY(I)
  OLPP_NEXT();
L_Sub:
  Regs[I->Dst] = static_cast<int64_t>(static_cast<uint64_t>(Regs[I->Src0]) -
                                      static_cast<uint64_t>(Regs[I->Src1]));
  Base += cost::Instr;
  OLPP_NEXT();
L_Mul:
  Regs[I->Dst] = static_cast<int64_t>(static_cast<uint64_t>(Regs[I->Src0]) *
                                      static_cast<uint64_t>(Regs[I->Src1]));
  Base += cost::Instr;
  OLPP_NEXT();
L_Div: {
  int64_t A = Regs[I->Src0], B = Regs[I->Src1];
  if (B == 0) {
    Fr->Block = Block;
    return Fail("division by zero");
  }
  if (A == INT64_MIN && B == -1) {
    Fr->Block = Block;
    return Fail("signed division overflow");
  }
  Regs[I->Dst] = A / B;
  Base += cost::Instr;
  OLPP_NEXT();
}
L_Mod: {
  int64_t A = Regs[I->Src0], B = Regs[I->Src1];
  if (B == 0) {
    Fr->Block = Block;
    return Fail("modulo by zero");
  }
  if (A == INT64_MIN && B == -1) {
    Fr->Block = Block;
    return Fail("signed modulo overflow");
  }
  Regs[I->Dst] = A % B;
  Base += cost::Instr;
  OLPP_NEXT();
}
L_And:
  OLPP_AND_BODY(I)
  OLPP_NEXT();
L_Or:
  Regs[I->Dst] = Regs[I->Src0] | Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_Xor:
  Regs[I->Dst] = Regs[I->Src0] ^ Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_Shl:
  Regs[I->Dst] = static_cast<int64_t>(
      static_cast<uint64_t>(Regs[I->Src0])
      << (static_cast<uint64_t>(Regs[I->Src1]) & 63));
  Base += cost::Instr;
  OLPP_NEXT();
L_Shr:
  Regs[I->Dst] = Regs[I->Src0] >> (static_cast<uint64_t>(Regs[I->Src1]) & 63);
  Base += cost::Instr;
  OLPP_NEXT();
L_CmpEq:
  Regs[I->Dst] = Regs[I->Src0] == Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_CmpNe:
  Regs[I->Dst] = Regs[I->Src0] != Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_CmpLt:
  Regs[I->Dst] = Regs[I->Src0] < Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_CmpLe:
  Regs[I->Dst] = Regs[I->Src0] <= Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_CmpGt:
  Regs[I->Dst] = Regs[I->Src0] > Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_CmpGe:
  Regs[I->Dst] = Regs[I->Src0] >= Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
L_Neg:
  Regs[I->Dst] = -static_cast<int64_t>(static_cast<uint64_t>(Regs[I->Src0]));
  Base += cost::Instr;
  OLPP_NEXT();
L_Not:
  Regs[I->Dst] = Regs[I->Src0] == 0 ? 1 : 0;
  Base += cost::Instr;
  OLPP_NEXT();
L_LoadG:
  Regs[I->Dst] = GlobalsP[I->GlobalId].Data[0];
  Base += cost::Instr;
  OLPP_NEXT();
L_StoreG:
  GlobalsP[I->GlobalId].Data[0] = Regs[I->Src0];
  Base += cost::Instr;
  OLPP_NEXT();
L_LoadArr:
  OLPP_LOADARR_BODY(I)
  OLPP_NEXT();
L_StoreArr: {
  int64_t Idx = Regs[I->Src0];
  const GView Arr = GlobalsP[I->GlobalId];
  if (static_cast<uint64_t>(Idx) >= Arr.Size) {
    Fr->Block = Block;
    return Fail("array index " + std::to_string(Idx) + " out of bounds for '" +
                M.globals()[I->GlobalId].Name + "' of size " +
                std::to_string(Arr.Size));
  }
  Arr.Data[static_cast<size_t>(Idx)] = Regs[I->Src1];
  Base += cost::Instr;
  OLPP_NEXT();
}
L_CallInd: {
  int64_t Target = Regs[I->Src0];
  if (Target < 0 || static_cast<uint64_t>(Target) >= M.numFunctions()) {
    Fr->Block = Block;
    return Fail("indirect call to invalid function id " +
                std::to_string(Target));
  }
  CalleeId = static_cast<uint32_t>(Target);
  if (I->ArgsCount != P.Funcs[CalleeId].NumParams) {
    Fr->Block = Block;
    return Fail("indirect call to '" + P.Funcs[CalleeId].Name + "' with " +
                std::to_string(I->ArgsCount) + " args, expected " +
                std::to_string(P.Funcs[CalleeId].NumParams));
  }
  goto CallCommon;
}
L_Call:
  CalleeId = I->CalleeId;
CallCommon : {
  if (Frames.size() >= Config.MaxCallDepth) {
    Fr->Block = Block;
    return Fail("call depth limit of " + std::to_string(Config.MaxCallDepth) +
                " exceeded");
  }
  Base += cost::Instr;
  ++Calls;
  // Resume past the call on return; the callee's frame lands directly
  // after ours in the pooled stacks, so argument registers are copied
  // by index (resize may reallocate, indices stay valid).
  Fr->Pc = Pc + 1;
  Fr->Block = Block;
  const uint32_t CallerRegBase = Fr->RegBase;
  const Reg *ArgRegs = ArgPool + I->ArgsBegin;
  const uint32_t NumArgs = I->ArgsCount;
  PushFrame(CalleeId, I->Dst); // invalidates Fr/Regs/Loops
  const uint32_t CalleeRegBase = Frames.back().RegBase;
  for (uint32_t A = 0; A < NumArgs; ++A)
    RegStack[CalleeRegBase + A] = RegStack[CallerRegBase + ArgRegs[A]];
  goto ReloadFrame;
}
L_Ret: {
  Base += cost::Instr;
  int64_t Value = I->Src0 == NoReg ? 0 : Regs[I->Src0];
  bool IsVoid = I->Src0 == NoReg;
  if (Tr)
    Tr->onExit(FuncId);
  Reg Dst = Fr->RetDst;
  RegStack.resize(Fr->RegBase);
  LoopStack.resize(Fr->LoopBase);
  Frames.pop_back();
  if (Frames.empty()) {
    C.Steps = Steps;
    C.BaseCost = Base;
    C.ProbeCost += PCostSum;
    C.Blocks += Blocks;
    C.Calls += Calls;
    Res.Ok = true;
    Res.ReturnValue = Value;
    Res.Trace = TStats;
    // A hot-path arm that never reached a backedge must not leak into the
    // next batch run (mirrors the stale shadow-stack rule).
    if (Prof)
      Prof->Tier.PendingRecord = -1;
    return Res;
  }
  if (Dst != NoReg) {
    if (IsVoid)
      return Fail("void return value used by the caller");
    RegStack[Frames.back().RegBase + Dst] = Value;
  }
  goto ReloadFrame;
}
L_Br:
  OLPP_BR_BODY(I)
  OLPP_DISPATCH();
L_CondBr: {
  Base += cost::Instr;
  bool Taken = Regs[I->Src0] != 0;
  Pc = Taken ? I->Target0Pc : I->Target1Pc;
  Block = Taken ? I->Target0Blk : I->Target1Blk;
  ++Blocks;
  if (Tr)
    Tr->onBlock(FuncId, Block);
  if (TraceCk && Pc <= static_cast<uint32_t>(I - Code))
    goto TraceCheck;
  OLPP_DISPATCH();
}

  // Fused compare-and-branch: exactly the compare step followed by the
  // branch step, including the branch's own fuel check, with a single
  // dispatch for the pair.
#define OLPP_CMPBR(LABEL, OPR)                                                 \
  LABEL : {                                                                    \
    bool Taken = Regs[I->Src0] OPR Regs[I->Src1];                              \
    Regs[I->Dst] = Taken;                                                      \
    Base += cost::Instr;                                                       \
    OLPP_FUEL();                                                               \
    Base += cost::Instr;                                                       \
    Pc = Taken ? I->Target0Pc : I->Target1Pc;                                  \
    Block = Taken ? I->Target0Blk : I->Target1Blk;                             \
    ++Blocks;                                                                  \
    if (Tr)                                                                    \
      Tr->onBlock(FuncId, Block);                                              \
    if (TraceCk && Pc <= static_cast<uint32_t>(I - Code))                      \
      goto TraceCheck;                                                         \
    OLPP_DISPATCH();                                                           \
  }

  OLPP_CMPBR(L_CmpEqBr, ==)
  OLPP_CMPBR(L_CmpNeBr, !=)
  OLPP_CMPBR(L_CmpLtBr, <)
  OLPP_CMPBR(L_CmpLeBr, <=)
  OLPP_CMPBR(L_CmpGtBr, >)
  OLPP_CMPBR(L_CmpGeBr, >=)
#undef OLPP_CMPBR

  // Fused straight-line pairs/quads: each constituent keeps its exact
  // per-step accounting (the dispatch that entered the handler did the
  // first step's fuel check; OLPP_FUEL covers each later one).
L_ConstAnd:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_AndLoadArr:
  OLPP_AND_BODY(I)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_LoadArrMove:
  OLPP_LOADARR_BODY(I)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_AddMove:
  OLPP_ADD_BODY(I)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_MoveConst:
  OLPP_MOVE_BODY(I)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_ConstAdd:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_ADD_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_MoveBr:
  OLPP_MOVE_BODY(I)
  OLPP_FUEL();
  OLPP_BR_BODY(I + 1)
  OLPP_DISPATCH();
L_ConstAndLoadArrMove:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 2)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 3)
  Pc += 4;
  OLPP_DISPATCH();
L_ConstAndLoadArr:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 2)
  Pc += 3;
  OLPP_DISPATCH();
L_ConstAddMove:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_ADD_BODY(I + 1)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 2)
  Pc += 3;
  OLPP_DISPATCH();
L_ConstAddMoveBr:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_ADD_BODY(I + 1)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 2)
  OLPP_FUEL();
  OLPP_BR_BODY(I + 3)
  OLPP_DISPATCH();
L_CmpEqConstCmpNeBr:
  OLPP_CMP_BODY(I, ==)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 1)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 2, !=)
  OLPP_FUEL();
  OLPP_BR_BODY(I + 3)
  OLPP_DISPATCH();
L_LoadGCmpLtBr:
  OLPP_LOADG_BODY(I)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 1, <)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 2)
  OLPP_DISPATCH();
L_ConstCmpEqBr:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 1, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 2)
  OLPP_DISPATCH();
L_AndCmpEqBr:
  OLPP_AND_BODY(I)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 1, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 2)
  OLPP_DISPATCH();
L_LoadArrCmpEqBr:
  OLPP_LOADARR_BODY(I)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 1, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 2)
  OLPP_DISPATCH();
L_LoadArrConst:
  OLPP_LOADARR_BODY(I)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 1)
  Pc += 2;
  OLPP_DISPATCH();
L_ConstAndLoadArrMoveCmpEqBr:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 2)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 3)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 4, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 5)
  OLPP_DISPATCH();

  // Specialized probes. Without a profile runtime a probe is a free no-op
  // step, exactly like the generic handler. OLPP_PR opens a handler with
  // the runtime guard and the op-pool window.
#define OLPP_PR                                                                \
  if (!Counts) {                                                               \
    OLPP_NEXT();                                                               \
  }                                                                            \
  const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;                          \
  uint64_t PCost = 0;
#define OLPP_PR_END                                                            \
  PCostSum += PCost;                                                           \
  OLPP_NEXT();

L_PrOLPred: {
  OLPP_PR
  OLPP_PB_OLPRED(Ops, 0)
  OLPP_PR_END
}
L_PrOLPredPredI: {
  OLPP_PR
  OLPP_PB_OLPRED(Ops, 0)
  OLPP_PB_PREDI(Ops, 1)
  OLPP_PR_END
}
L_PrOLPred2PredI: {
  OLPP_PR
  OLPP_PB_OLPRED(Ops, 0)
  OLPP_PB_OLPRED(Ops, 1)
  OLPP_PB_PREDI(Ops, 2)
  OLPP_PR_END
}
L_PrAddI: {
  OLPP_PR
  OLPP_PB_ADDI(Ops, 0)
  OLPP_PR_END
}
L_PrAddII: {
  OLPP_PR
  OLPP_PB_ADDII_FIRST(Ops, 0)
  OLPP_PR_END
}
L_PrPredII: {
  OLPP_PR
  OLPP_PB_PREDII_FIRST(Ops, 0)
  OLPP_PR_END
}
L_PrEnter: {
  OLPP_PR
  OLPP_PB_BLSET(Ops, 0)
  OLPP_PB_IPENTER(Ops, 1)
  OLPP_PR_END
}
L_PrEnterPredI: {
  OLPP_PR
  OLPP_PB_BLSET(Ops, 0)
  OLPP_PB_IPENTER(Ops, 1)
  OLPP_PB_PREDI(Ops, 2)
  OLPP_PR_END
}
L_PrFlushIIArmSet: {
  // OLArm reads Fr->R before BLSet overwrites it — probe order matters.
  OLPP_PR
  OLPP_PB_FLUSHII_FIRST(Ops, 0)
  OLPP_PB_OLARM(Ops, 1)
  OLPP_PB_BLSET(Ops, 2)
  OLPP_PR_END
}
L_PrFlushICountRet: {
  OLPP_PR
  OLPP_PB_FLUSHI(Ops, 0)
  OLPP_PB_BLCOUNT(Ops, 1)
  OLPP_PB_IPRET(Ops, 2)
  OLPP_PR_END
}
L_PrCountCall: {
  OLPP_PR
  OLPP_PB_BLCOUNT(Ops, 0)
  OLPP_PB_IPCALL(Ops, 1)
  OLPP_PR_END
}
L_PrSetArmII: {
  OLPP_PR
  OLPP_PB_BLSET(Ops, 0)
  OLPP_PB_ARMII(Ops, 1)
  OLPP_PR_END
}

  // Probe + trailing unconditional Br (the shape of every split-edge probe
  // block): the probe body, a fuel check for the branch step, the branch.
#define OLPP_PRBR_END                                                          \
  PCostSum += PCost;                                                           \
  }                                                                            \
  OLPP_FUEL();                                                                 \
  OLPP_BR_BODY(I + 1)                                                          \
  OLPP_DISPATCH();

L_PrOLPredBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    OLPP_PRBR_END
}
L_PrAddIBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_ADDI(Ops, 0)
    OLPP_PRBR_END
}
L_PrAddIIBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_ADDII_FIRST(Ops, 0)
    OLPP_PRBR_END
}
L_PrSetArmIIBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_BLSET(Ops, 0)
    OLPP_PB_ARMII(Ops, 1)
    OLPP_PRBR_END
}
L_PrFlushIIArmSetBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHII_FIRST(Ops, 0)
    OLPP_PB_OLARM(Ops, 1)
    OLPP_PB_BLSET(Ops, 2)
    OLPP_PRBR_END
}
L_PrProbeBr: {
  if (Counts)
    goto GenericProbe;
  OLPP_FUEL();
  OLPP_BR_BODY(I + 1)
  OLPP_DISPATCH();
}

  // Probe-led whole-block compounds: the probe step, then the block's
  // short straight-line body and terminator, one fuel check per
  // constituent step, all in a single dispatch.
L_PrOLPredPredILoadGCmpLtBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    OLPP_PB_PREDI(Ops, 1)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_LOADG_BODY(I + 1)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 2, <)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 3)
  OLPP_DISPATCH();
}
L_PrOLPred2PredILoadGCmpLtBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    OLPP_PB_OLPRED(Ops, 1)
    OLPP_PB_PREDI(Ops, 2)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_LOADG_BODY(I + 1)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 2, <)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 3)
  OLPP_DISPATCH();
}
L_PrEnterPredIAndCmpEqBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_BLSET(Ops, 0)
    OLPP_PB_IPENTER(Ops, 1)
    OLPP_PB_PREDI(Ops, 2)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 2, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 3)
  OLPP_DISPATCH();
}
L_PrOLPredCmpEqBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 1, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 2)
  OLPP_DISPATCH();
}
L_PrOLPredPredICondBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    OLPP_PB_PREDI(Ops, 1)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 1)
  OLPP_DISPATCH();
}
L_PrOLPredCondBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 1)
  OLPP_DISPATCH();
}
L_PrPredIICondBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_PREDII_FIRST(Ops, 0)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 1)
  OLPP_DISPATCH();
}

L_PrPredI: {
  OLPP_PR
  OLPP_PB_PREDI(Ops, 0)
  OLPP_PR_END
}
L_PrOLPred2: {
  OLPP_PR
  OLPP_PB_OLPRED(Ops, 0)
  OLPP_PB_OLPRED(Ops, 1)
  OLPP_PR_END
}
L_PrFlushIICountCall: {
  OLPP_PR
  OLPP_PB_FLUSHII_FIRST(Ops, 0)
  OLPP_PB_BLCOUNT(Ops, 1)
  OLPP_PB_IPCALL(Ops, 2)
  OLPP_PR_END
}
L_PrFlushICountCall: {
  OLPP_PR
  OLPP_PB_FLUSHI(Ops, 0)
  OLPP_PB_BLCOUNT(Ops, 1)
  OLPP_PB_IPCALL(Ops, 2)
  OLPP_PR_END
}
L_PrOLFlushCountCall: {
  OLPP_PR
  OLPP_PB_OLFLUSH(Ops, 0)
  OLPP_PB_BLCOUNT(Ops, 1)
  OLPP_PB_IPCALL(Ops, 2)
  OLPP_PR_END
}
L_PrOLFlushFlushICountCall: {
  OLPP_PR
  OLPP_PB_OLFLUSH(Ops, 0)
  OLPP_PB_FLUSHI(Ops, 1)
  OLPP_PB_BLCOUNT(Ops, 2)
  OLPP_PB_IPCALL(Ops, 3)
  OLPP_PR_END
}
L_PrFlushIICountRet: {
  OLPP_PR
  OLPP_PB_FLUSHII_FIRST(Ops, 0)
  OLPP_PB_BLCOUNT(Ops, 1)
  OLPP_PB_IPRET(Ops, 2)
  OLPP_PR_END
}
L_PrFlushIFlushArmSet: {
  OLPP_PR
  OLPP_PB_FLUSHI(Ops, 0)
  OLPP_PB_OLFLUSH(Ops, 1)
  OLPP_PB_OLARM(Ops, 2)
  OLPP_PB_BLSET(Ops, 3)
  OLPP_PR_END
}
L_PrBLAdd: {
  OLPP_PR
  OLPP_PB_BLADD(Ops, 0)
  OLPP_PR_END
}
L_PrBLAddOLAdd: {
  OLPP_PR
  OLPP_PB_BLADD(Ops, 0)
  OLPP_PB_OLADD(Ops, 1)
  OLPP_PR_END
}
L_PrFlushIFlushArmSetBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHI(Ops, 0)
    OLPP_PB_OLFLUSH(Ops, 1)
    OLPP_PB_OLARM(Ops, 2)
    OLPP_PB_BLSET(Ops, 3)
    OLPP_PRBR_END
}
L_PrBLAddBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_BLADD(Ops, 0)
    OLPP_PRBR_END
}
L_PrBLAddOLAddBr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_BLADD(Ops, 0)
    OLPP_PB_OLADD(Ops, 1)
    OLPP_PRBR_END
}

  // Probe + Call / probe + Ret fusions: the probe step, then the plain
  // Call/Ret step via its ordinary handler body (I is advanced onto the
  // call or return instruction first, so the handler reads the right slot).
#define OLPP_PR_CALL_END                                                       \
    PCostSum += PCost;                                                         \
  }                                                                            \
  OLPP_FUEL();                                                                 \
  ++Pc;                                                                        \
  I = Code + Pc;                                                               \
  goto L_Call;
#define OLPP_PR_RET_END                                                        \
    PCostSum += PCost;                                                         \
  }                                                                            \
  OLPP_FUEL();                                                                 \
  ++Pc;                                                                        \
  I = Code + Pc;                                                               \
  goto L_Ret;

L_PrCountCallCall: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_BLCOUNT(Ops, 0)
    OLPP_PB_IPCALL(Ops, 1)
    OLPP_PR_CALL_END
}
L_PrFlushIICountCallCall: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHII_FIRST(Ops, 0)
    OLPP_PB_BLCOUNT(Ops, 1)
    OLPP_PB_IPCALL(Ops, 2)
    OLPP_PR_CALL_END
}
L_PrFlushICountCallCall: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHI(Ops, 0)
    OLPP_PB_BLCOUNT(Ops, 1)
    OLPP_PB_IPCALL(Ops, 2)
    OLPP_PR_CALL_END
}
L_PrOLFlushCountCallCall: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLFLUSH(Ops, 0)
    OLPP_PB_BLCOUNT(Ops, 1)
    OLPP_PB_IPCALL(Ops, 2)
    OLPP_PR_CALL_END
}
L_PrOLFlushFlushICountCallCall: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLFLUSH(Ops, 0)
    OLPP_PB_FLUSHI(Ops, 1)
    OLPP_PB_BLCOUNT(Ops, 2)
    OLPP_PB_IPCALL(Ops, 3)
    OLPP_PR_CALL_END
}
L_PrFlushICountRetRet: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHI(Ops, 0)
    OLPP_PB_BLCOUNT(Ops, 1)
    OLPP_PB_IPRET(Ops, 2)
    OLPP_PR_RET_END
}
L_PrFlushIICountRetRet: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHII_FIRST(Ops, 0)
    OLPP_PB_BLCOUNT(Ops, 1)
    OLPP_PB_IPRET(Ops, 2)
    OLPP_PR_RET_END
}
L_ConstPrFlushICountRetRet: {
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + (I + 1)->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHI(Ops, 0)
    OLPP_PB_BLCOUNT(Ops, 1)
    OLPP_PB_IPRET(Ops, 2)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  Pc += 2;
  I = Code + Pc;
  goto L_Ret;
}

L_ConstAndLoadArrConstCmpEqBr:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 2)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 3)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 4, ==)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 5)
  OLPP_DISPATCH();
L_LoadArrConstCmpEqConstCmpNeBr:
  OLPP_LOADARR_BODY(I)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 1)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 2, ==)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 3)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 4, !=)
  OLPP_FUEL();
  OLPP_BR_BODY(I + 5)
  OLPP_DISPATCH();
L_ConstAndLoadArrMove2:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 1)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 2)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 3)
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 4)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 5)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 6)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 7)
  Pc += 8;
  OLPP_DISPATCH();
L_ConstCmpGeBr:
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_CMP_BODY(I + 1, >=)
  OLPP_FUEL();
  OLPP_CONDBR_BODY(I + 2)
  OLPP_DISPATCH();
L_PrOLPredPredIConstAndLoadArr: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_OLPRED(Ops, 0)
    OLPP_PB_PREDI(Ops, 1)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 1)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 2)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 3)
  Pc += 4;
  OLPP_DISPATCH();
}
L_PrEnterPredIConstAndLoadArrMove: {
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_BLSET(Ops, 0)
    OLPP_PB_IPENTER(Ops, 1)
    OLPP_PB_PREDI(Ops, 2)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_CONST_BODY(I + 1)
  OLPP_FUEL();
  OLPP_AND_BODY(I + 2)
  OLPP_FUEL();
  OLPP_LOADARR_BODY(I + 3)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 4)
  Pc += 5;
  OLPP_DISPATCH();
}
L_ConstAddMovePrFlushIIArmSetBr: {
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_ADD_BODY(I + 1)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 2)
  OLPP_FUEL();
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + (I + 3)->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHII_FIRST(Ops, 0)
    OLPP_PB_OLARM(Ops, 1)
    OLPP_PB_BLSET(Ops, 2)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_BR_BODY(I + 4)
  OLPP_DISPATCH();
}
L_ConstAddMovePrFlushIFlushArmSetBr: {
  OLPP_CONST_BODY(I)
  OLPP_FUEL();
  OLPP_ADD_BODY(I + 1)
  OLPP_FUEL();
  OLPP_MOVE_BODY(I + 2)
  OLPP_FUEL();
  if (Counts) {
    const ProbeOp *const Ops = ProbeOps + (I + 3)->ArgsBegin;
    uint64_t PCost = 0;
    OLPP_PB_FLUSHI(Ops, 0)
    OLPP_PB_OLFLUSH(Ops, 1)
    OLPP_PB_OLARM(Ops, 2)
    OLPP_PB_BLSET(Ops, 3)
    PCostSum += PCost;
  }
  OLPP_FUEL();
  OLPP_BR_BODY(I + 4)
  OLPP_DISPATCH();
}

L_Probe: {
  if (!Counts) {
    OLPP_NEXT();
  }
GenericProbe:
  // Generic probe execution over the pre-decoded op pool (patterns the
  // decoder does not specialize). EngineDiffTest holds this and every
  // specialized handler bit-identical to the shared execProbe the
  // reference engine runs.
  const ProbeOp *const Ops = ProbeOps + I->ArgsBegin;
  const uint32_t NumOps = I->ArgsCount;
  uint64_t PCost = 0;
  int64_t R = Fr->R;
  // See execProbe: the shared inactive test of a Type II probe is charged
  // once per probe, not once per op.
  bool ChargedIITest = false;
  for (uint32_t Oi = 0; Oi < NumOps; ++Oi) {
    const ProbeOp &Po = Ops[Oi];
    switch (Po.Kind) {
    case ProbeOpKind::BLSet:
      R = Po.C0;
      PCost += cost::RegOp;
      break;
    case ProbeOpKind::BLAdd:
      R += Po.C0;
      PCost += cost::RegOp;
      break;
    case ProbeOpKind::BLCount:
      Counts->bump(R + Po.C0);
      PCost += cost::CounterBump;
      break;
    case ProbeOpKind::OLDisarm:
      Loops[Po.Slot].Active = false;
      PCost += cost::RegOp;
      break;
    case ProbeOpKind::OLArm: {
      LoopRegs &L = Loops[Po.Slot];
      L.Ro = R + Po.C0;
      L.Ol = 0;
      L.Active = true;
      PCost += 2 * cost::RegOp;
      break;
    }
    case ProbeOpKind::OLAdd: {
      LoopRegs &L = Loops[Po.Slot];
      if (!L.Active) {
        PCost += cost::InactiveTest;
        break;
      }
      L.Ro += Po.C0;
      PCost += cost::InactiveTest + cost::RegOp;
      break;
    }
    case ProbeOpKind::OLPred: {
      LoopRegs &L = Loops[Po.Slot];
      if (!L.Active) {
        PCost += cost::InactiveTest;
        break;
      }
      PCost += cost::InactiveTest + cost::RegOp;
      if (++L.Ol == Po.C1) {
        Counts->bump(L.Ro + Po.C0);
        L.Active = false;
        PCost += cost::CounterBump;
        if (TraceCk)
          Prof->Tier.noteHot(FuncId, L.Ro + Po.C0, TraceThreshold);
      }
      break;
    }
    case ProbeOpKind::OLFlush: {
      LoopRegs &L = Loops[Po.Slot];
      if (!L.Active) {
        PCost += cost::InactiveTest;
        break;
      }
      Counts->bump(L.Ro + Po.C0);
      L.Active = false;
      PCost += cost::InactiveTest + cost::CounterBump;
      if (TraceCk)
        Prof->Tier.noteHot(FuncId, L.Ro + Po.C0, TraceThreshold);
      break;
    }
    case ProbeOpKind::IPCall:
      Prof->ShadowStack.push_back({static_cast<uint32_t>(Po.C0), R + Po.C1});
      PCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPEnter:
      Fr->RI = Po.C0;
      Fr->OlI = 0;
      if (!Prof->ShadowStack.empty()) {
        Fr->CallSiteI = Prof->ShadowStack.back().CallSite;
        Fr->CallerPre = Prof->ShadowStack.back().CallerPre;
        Fr->ActiveI = true;
        Fr->HaveCaller = true;
      } else {
        Fr->ActiveI = false;
        Fr->HaveCaller = false;
      }
      PCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPAddI:
      if (!Fr->ActiveI) {
        PCost += cost::InactiveTest;
        break;
      }
      Fr->RI += Po.C0;
      PCost += cost::InactiveTest + cost::RegOp;
      break;
    case ProbeOpKind::IPPredI:
      if (!Fr->ActiveI) {
        PCost += cost::InactiveTest;
        break;
      }
      PCost += cost::InactiveTest + cost::RegOp;
      if (++Fr->OlI == Po.C1) {
        Prof->TypeICounts.bump(
            {FuncId, Fr->CallSiteI, Fr->RI + Po.C0, Fr->CallerPre});
        Fr->ActiveI = false;
        PCost += cost::TupleBump;
      }
      break;
    case ProbeOpKind::IPFlushI:
      if (!Fr->ActiveI) {
        PCost += cost::InactiveTest;
        break;
      }
      Prof->TypeICounts.bump(
          {FuncId, Fr->CallSiteI, Fr->RI + Po.C0, Fr->CallerPre});
      Fr->ActiveI = false;
      PCost += cost::InactiveTest + cost::TupleBump;
      break;
    case ProbeOpKind::IPRet:
      Prof->Pending.Valid = true;
      Prof->Pending.Callee = FuncId;
      Prof->Pending.PathId = R + Po.C0;
      if (Fr->HaveCaller) {
        assert(!Prof->ShadowStack.empty() && "shadow stack underflow");
        Prof->ShadowStack.pop_back();
      }
      PCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPArmII:
      if (Prof->Pending.Valid) {
        Fr->ActiveII = true;
        Fr->CalleeII = Prof->Pending.Callee;
        Fr->CalleePathII = Prof->Pending.PathId;
        Fr->CallSiteII = static_cast<uint32_t>(Po.C1);
        Fr->RoII = Po.C0;
        Fr->OlII = 0;
        Prof->Pending.Valid = false;
      } else {
        Fr->ActiveII = false;
      }
      PCost += cost::StackOp + cost::RegOp;
      break;
    case ProbeOpKind::IPAddII:
      if (!Fr->ActiveII || Fr->CallSiteII != static_cast<uint32_t>(Po.Slot)) {
        PCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      Fr->RoII += Po.C0;
      PCost += cost::InactiveTest + cost::RegOp;
      break;
    case ProbeOpKind::IPPredII:
      if (!Fr->ActiveII || Fr->CallSiteII != static_cast<uint32_t>(Po.Slot)) {
        PCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      PCost += cost::InactiveTest + cost::RegOp;
      if (++Fr->OlII == Po.C1) {
        Prof->TypeIICounts.bump(
            {Fr->CalleeII, Fr->CallSiteII, Fr->CalleePathII, Fr->RoII + Po.C0});
        Fr->ActiveII = false;
        PCost += cost::TupleBump;
      }
      break;
    case ProbeOpKind::IPFlushII:
      if (!Fr->ActiveII || Fr->CallSiteII != static_cast<uint32_t>(Po.Slot)) {
        PCost += ChargedIITest ? 0 : cost::InactiveTest;
        ChargedIITest = true;
        break;
      }
      Prof->TypeIICounts.bump(
          {Fr->CalleeII, Fr->CallSiteII, Fr->CalleePathII, Fr->RoII + Po.C0});
      Fr->ActiveII = false;
      PCost += cost::InactiveTest + cost::TupleBump;
      break;
    }
  }
  Fr->R = R;
  PCostSum += PCost;
  if (I->Op == ExecOp::PrProbeBr) {
    OLPP_FUEL();
    OLPP_BR_BODY(I + 1)
    OLPP_DISPATCH();
  }
  OLPP_NEXT();
}

// Cold tail of every taken backward branch when the tracing tier is on
// (TraceCk). Drives the recorder life cycle and trace dispatch; Pc/Block
// already hold the branch target here. Reached only via goto, after the
// branch's own accounting and sink notification ran, so falling back into
// OLPP_DISPATCH resumes the ordinary loop with no observable difference.
TraceCheck: {
  if (Rec.recording()) {
    if (Rec.aborted()) {
      // The recording hit a non-traceable event (sink overflow, anchor-frame
      // exit). Never try this anchor again.
      Tr = nullptr;
      Prof->Tier.blacklistAnchor(Rec.anchorFunc(), Rec.anchorPc());
      Rec.clear();
      ++TStats.Aborted;
    } else if (FuncId == Rec.anchorFunc() && Pc == Rec.anchorPc() &&
               Rec.depth() == 0) {
      // Back at the anchor with balanced calls: one complete pass recorded.
      Tr = nullptr;
      auto T = compileTrace(P, Rec);
      Rec.clear();
      if (T && TSettings.Optimize)
        optimizeTrace(*T, TSettings.FaultDropGuard);
      if (T && TC->install(std::move(T))) {
        ++TStats.Recorded;
      } else {
        Prof->Tier.blacklistAnchor(FuncId, Pc);
        ++TStats.Aborted;
      }
      goto TraceLookup; // enter the fresh trace immediately
    }
    OLPP_DISPATCH(); // still recording: stay in the ordinary loop
  }
TraceLookup:
  if (const CompiledTrace *CT = TC->lookup(FuncId, Pc)) {
    Fr->Pc = Pc;
    Fr->Block = Block;
    TraceRunIO IO{Frames,   RegStack, LoopStack,
                  GlobalsP, *Prof,    P,
                  MaxSteps, Config.MaxCallDepth,
                  Steps,    Base,     PCostSum,
                  Blocks,   Calls,    TStats};
    runCompiledTrace(*CT, IO);
    goto ReloadFrame; // frame/pc/block restored by the executor
  }
  if (Prof->Tier.PendingRecord == static_cast<int64_t>(FuncId)) {
    if (Prof->Tier.anchorBlacklisted(FuncId, Pc) ||
        TC->occupied(FuncId, Pc)) {
      // This anchor failed before, or already holds a (possibly retired)
      // trace; stop paying for its hotness counting.
      Prof->Tier.Hot[Prof->Tier.PendingSlot].Disabled = true;
      Prof->Tier.PendingRecord = -1;
    } else {
      Prof->Tier.PendingRecord = -1;
      Rec.begin(FuncId, Pc, Block, *Fr, Loops, P.Funcs[FuncId].NumLoopSlots,
                *Prof);
      Tr = &Rec;
    }
  }
  OLPP_DISPATCH();
}
#undef OLPP_PRBR_END
#undef OLPP_PR_CALL_END
#undef OLPP_PR_RET_END
#undef OLPP_PR_END
#undef OLPP_PR
#undef OLPP_PB_OLADD
#undef OLPP_PB_BLADD
#undef OLPP_PB_OLFLUSH
#undef OLPP_PB_ARMII
#undef OLPP_PB_IPCALL
#undef OLPP_PB_IPRET
#undef OLPP_PB_IPENTER
#undef OLPP_PB_OLARM
#undef OLPP_PB_BLCOUNT
#undef OLPP_PB_BLSET
#undef OLPP_PB_FLUSHII_FIRST
#undef OLPP_PB_PREDII_FIRST
#undef OLPP_PB_ADDII_FIRST
#undef OLPP_PB_ADDI
#undef OLPP_PB_FLUSHI
#undef OLPP_PB_PREDI
#undef OLPP_PB_OLPRED
#undef OLPP_CONDBR_BODY
#undef OLPP_CMP_BODY
#undef OLPP_LOADG_BODY
#undef OLPP_BR_BODY
#undef OLPP_LOADARR_BODY
#undef OLPP_AND_BODY
#undef OLPP_ADD_BODY
#undef OLPP_MOVE_BODY
#undef OLPP_CONST_BODY
#undef OLPP_NEXT
#undef OLPP_DISPATCH
#undef OLPP_FUEL
}


//===----------------------------------------------------------------------===//
// Reference engine: the original tree-walking loop (differential oracle)
//===----------------------------------------------------------------------===//

RunResult Interpreter::runReference(const Function &Entry,
                                    const std::vector<int64_t> &Args,
                                    const RunConfig &Config) {
  RunResult Res;
  if (Args.size() != Entry.NumParams) {
    Res.Error = arityError(Entry, Args.size());
    return Res;
  }
  if (Prof)
    Prof->resetTransient();

  std::vector<Frame> Stack;
  auto PushFrame = [&](const Function &F, Reg RetDst) {
    Stack.emplace_back();
    Frame &Fr = Stack.back();
    Fr.F = &F;
    Fr.BB = F.entry();
    Fr.RetDst = RetDst;
    Fr.Regs.assign(F.NumRegs, 0);
    Fr.Loops.resize(F.NumLoopSlots);
    if (Trace) {
      Trace->onEnter(F.Id);
      Trace->onBlock(F.Id, Fr.BB->Id);
    }
    ++Res.Counts.Blocks;
  };

  PushFrame(Entry, NoReg);
  for (size_t A = 0; A < Args.size(); ++A)
    Stack.back().Regs[A] = Args[A];

  DynCounts &C = Res.Counts;
  auto Fail = [&](const std::string &Msg) {
    Res.Ok = false;
    Res.Error = Msg + " (in '" + Stack.back().F->Name + "', block ^" +
                std::to_string(Stack.back().BB->Id) + ")";
    return Res;
  };

  while (true) {
    Frame &Fr = Stack.back();
    assert(Fr.Ip < Fr.BB->Instrs.size() && "fell off the end of a block");
    const Instruction &I = Fr.BB->Instrs[Fr.Ip];

    if (++C.Steps > Config.MaxSteps)
      return Fail("fuel exhausted after " + std::to_string(Config.MaxSteps) +
                  " steps");

    // Helper for transferring control within the current frame.
    auto Goto = [&](BasicBlock *Target) {
      Fr.BB = Target;
      Fr.Ip = 0;
      ++C.Blocks;
      if (Trace)
        Trace->onBlock(Fr.F->Id, Target->Id);
    };

    switch (I.Op) {
    case Opcode::Const:
      Fr.Regs[I.Dst] = I.Imm;
      C.BaseCost += cost::Instr;
      break;
    case Opcode::Move:
      Fr.Regs[I.Dst] = Fr.Regs[I.Src0];
      C.BaseCost += cost::Instr;
      break;
    case Opcode::Neg:
      Fr.Regs[I.Dst] = -static_cast<int64_t>(
          static_cast<uint64_t>(Fr.Regs[I.Src0]));
      C.BaseCost += cost::Instr;
      break;
    case Opcode::Not:
      Fr.Regs[I.Dst] = Fr.Regs[I.Src0] == 0 ? 1 : 0;
      C.BaseCost += cost::Instr;
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe: {
      int64_t A = Fr.Regs[I.Src0], B = Fr.Regs[I.Src1];
      uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
      int64_t Out = 0;
      switch (I.Op) {
      case Opcode::Add:
        Out = static_cast<int64_t>(UA + UB);
        break;
      case Opcode::Sub:
        Out = static_cast<int64_t>(UA - UB);
        break;
      case Opcode::Mul:
        Out = static_cast<int64_t>(UA * UB);
        break;
      case Opcode::Div:
        if (B == 0)
          return Fail("division by zero");
        if (A == INT64_MIN && B == -1)
          return Fail("signed division overflow");
        Out = A / B;
        break;
      case Opcode::Mod:
        if (B == 0)
          return Fail("modulo by zero");
        if (A == INT64_MIN && B == -1)
          return Fail("signed modulo overflow");
        Out = A % B;
        break;
      case Opcode::And:
        Out = A & B;
        break;
      case Opcode::Or:
        Out = A | B;
        break;
      case Opcode::Xor:
        Out = A ^ B;
        break;
      case Opcode::Shl:
        Out = static_cast<int64_t>(UA << (UB & 63));
        break;
      case Opcode::Shr:
        Out = A >> (UB & 63);
        break;
      case Opcode::CmpEq:
        Out = A == B;
        break;
      case Opcode::CmpNe:
        Out = A != B;
        break;
      case Opcode::CmpLt:
        Out = A < B;
        break;
      case Opcode::CmpLe:
        Out = A <= B;
        break;
      case Opcode::CmpGt:
        Out = A > B;
        break;
      case Opcode::CmpGe:
        Out = A >= B;
        break;
      default:
        assert(false && "unexpected binary opcode");
      }
      Fr.Regs[I.Dst] = Out;
      C.BaseCost += cost::Instr;
      break;
    }
    case Opcode::LoadG:
      Fr.Regs[I.Dst] = Globals[I.GlobalId][0];
      C.BaseCost += cost::Instr;
      break;
    case Opcode::StoreG:
      Globals[I.GlobalId][0] = Fr.Regs[I.Src0];
      C.BaseCost += cost::Instr;
      break;
    case Opcode::LoadArr: {
      int64_t Idx = Fr.Regs[I.Src0];
      const auto &Arr = Globals[I.GlobalId];
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= Arr.size())
        return Fail("array index " + std::to_string(Idx) +
                    " out of bounds for '" + M.globals()[I.GlobalId].Name +
                    "' of size " + std::to_string(Arr.size()));
      Fr.Regs[I.Dst] = Arr[static_cast<size_t>(Idx)];
      C.BaseCost += cost::Instr;
      break;
    }
    case Opcode::StoreArr: {
      int64_t Idx = Fr.Regs[I.Src0];
      auto &Arr = Globals[I.GlobalId];
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= Arr.size())
        return Fail("array index " + std::to_string(Idx) +
                    " out of bounds for '" + M.globals()[I.GlobalId].Name +
                    "' of size " + std::to_string(Arr.size()));
      Arr[static_cast<size_t>(Idx)] = Fr.Regs[I.Src1];
      C.BaseCost += cost::Instr;
      break;
    }
    case Opcode::CallInd:
    case Opcode::Call: {
      uint32_t CalleeId = I.CalleeId;
      if (I.Op == Opcode::CallInd) {
        int64_t Target = Fr.Regs[I.Src0];
        if (Target < 0 ||
            static_cast<uint64_t>(Target) >= M.numFunctions())
          return Fail("indirect call to invalid function id " +
                      std::to_string(Target));
        CalleeId = static_cast<uint32_t>(Target);
        if (I.Args.size() != M.function(CalleeId)->NumParams)
          return Fail("indirect call to '" + M.function(CalleeId)->Name +
                      "' with " + std::to_string(I.Args.size()) +
                      " args, expected " +
                      std::to_string(M.function(CalleeId)->NumParams));
      }
      if (Stack.size() >= Config.MaxCallDepth)
        return Fail("call depth limit of " +
                    std::to_string(Config.MaxCallDepth) + " exceeded");
      C.BaseCost += cost::Instr;
      ++C.Calls;
      const Function &Callee = *M.function(CalleeId);
      std::vector<int64_t> CallArgs(I.Args.size());
      for (size_t A = 0; A < I.Args.size(); ++A)
        CallArgs[A] = Fr.Regs[I.Args[A]];
      ++Fr.Ip; // resume past the call on return
      PushFrame(Callee, I.Dst);
      // NB: `Fr` is invalidated by the push.
      Frame &NewFr = Stack.back();
      for (size_t A = 0; A < CallArgs.size(); ++A)
        NewFr.Regs[A] = CallArgs[A];
      continue;
    }
    case Opcode::Ret: {
      C.BaseCost += cost::Instr;
      int64_t Value = I.Src0 == NoReg ? 0 : Fr.Regs[I.Src0];
      bool IsVoid = I.Src0 == NoReg;
      if (Trace)
        Trace->onExit(Fr.F->Id);
      Reg Dst = Fr.RetDst;
      Stack.pop_back();
      if (Stack.empty()) {
        Res.Ok = true;
        Res.ReturnValue = Value;
        return Res;
      }
      if (Dst != NoReg) {
        if (IsVoid)
          return Fail("void return value used by the caller");
        Stack.back().Regs[Dst] = Value;
      }
      continue;
    }
    case Opcode::Br:
      C.BaseCost += cost::Instr;
      Goto(I.Target0);
      continue;
    case Opcode::CondBr:
      C.BaseCost += cost::Instr;
      Goto(Fr.Regs[I.Src0] != 0 ? I.Target0 : I.Target1);
      continue;
    case Opcode::Probe: {
      if (!Prof)
        break; // probes are inert without a runtime attached
      execProbe(*I.ProbePayload, Fr, Fr.Loops.data(), Fr.F->Id, *Prof,
                Prof->PathCounts[Fr.F->Id], C);
      break;
    }
    }
    ++Fr.Ip;
  }
}
