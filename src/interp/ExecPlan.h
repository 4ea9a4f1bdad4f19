//===--- ExecPlan.h - Pre-decoded flat execution form -----------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast engine's execution form: every function is decoded once into a
/// flat array of ExecInstrs whose operand, branch-target and callee
/// references are dense indices. The dispatch loop then runs over one
/// contiguous array per function with a single switch per step — no
/// BasicBlock pointer chasing, no shared_ptr dereference per probe, no
/// per-call argument vectors (call argument registers live in a pooled
/// array).
///
/// The plan is a pure read-only view: it borrows the Module (which must
/// outlive it) and never mutates it. Blocks keep their ids so trace events
/// and error messages are identical to the reference engine's.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_INTERP_EXECPLAN_H
#define OLPP_INTERP_EXECPLAN_H

#include "ir/Module.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace olpp {

/// The fast engine's opcode space: a strict superset of the IR's Opcode.
/// The first kNumBaseOps values mirror Opcode bit-for-bit (the decoder
/// static_asserts this), so a plain instruction decodes by a cast. The
/// tail holds fused superinstructions the decoder synthesizes — currently
/// compare-and-branch pairs, the hottest dispatch edge in loop code.
enum class ExecOp : uint8_t {
  Const,
  Move,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  Neg,
  Not,
  LoadG,
  StoreG,
  LoadArr,
  StoreArr,
  Call,
  CallInd,
  Ret,
  Br,
  CondBr,
  Probe,
  // Fused Cmp* + CondBr. Dst/Src0/Src1 come from the compare (the compare
  // result is still written to Dst), the targets from the branch. The
  // branch's own ExecInstr stays in place after the pair — nothing jumps
  // to it (branch targets are always block starts), it only documents the
  // original shape.
  CmpEqBr,
  CmpNeBr,
  CmpLtBr,
  CmpLeBr,
  CmpGtBr,
  CmpGeBr,
  // A Br with Instruction::SplitJump set: the jump of an edge-split block,
  // charged as probe cost (interp/CostModel.h). Resolved at decode time so
  // no Br handler tests the flag.
  SplitBr,
  // Fused straight-line runs. The handler executes every constituent with
  // its exact per-step fuel and cost accounting but with a single dispatch;
  // the trailing constituents' ExecInstrs stay in place as operand records
  // (the handler reads Code[Pc+1], Code[Pc+2], ... directly). Pairs/quads
  // are chosen from the dynamically hottest adjacencies of instrumented
  // loop code.
  ConstAnd,
  AndLoadArr,
  LoadArrMove,
  AddMove,
  MoveConst,
  ConstAdd,
  MoveBr,
  ConstAndLoadArrMove,
  ConstAndLoadArr,
  ConstAddMove,
  ConstAddMoveBr,
  CmpEqConstCmpNeBr,
  LoadGCmpLtBr,
  ConstCmpEqBr,
  AndCmpEqBr,
  LoadArrCmpEqBr,
  LoadArrConst,
  ConstAndLoadArrMoveCmpEqBr,
  // Probe-pattern specializations: the instrumenter emits a small set of
  // canonical probe shapes (predicate-node probes, backedge flush/arm/set
  // sequences, function entries, call-site and return sequences); decoding
  // them to dedicated opcodes replaces the per-op interpretation loop with
  // straight-line code. The ...Br variants additionally fuse a trailing
  // program Br, and their ...SplitBr twins (at the end of the enum) the
  // SplitBr of an edge-split block — the shape of every split-edge probe
  // block.
  PrOLPred,           ///< [OLPred]
  PrOLPredPredI,      ///< [OLPred, IPPredI]
  PrOLPred2PredI,     ///< [OLPred, OLPred, IPPredI]
  PrAddI,             ///< [IPAddI]
  PrAddII,            ///< [IPAddII]
  PrPredII,           ///< [IPPredII]
  PrEnter,            ///< [BLSet, IPEnter]
  PrEnterPredI,       ///< [BLSet, IPEnter, IPPredI]
  PrFlushIIArmSet,    ///< [IPFlushII, OLArm, BLSet]
  PrFlushICountRet,   ///< [IPFlushI, BLCount, IPRet]
  PrCountCall,        ///< [BLCount, IPCall]
  PrSetArmII,         ///< [BLSet, IPArmII]
  PrOLPredBr,         ///< [OLPred] + Br
  PrAddIBr,           ///< [IPAddI] + Br
  PrAddIIBr,          ///< [IPAddII] + Br
  PrSetArmIIBr,       ///< [BLSet, IPArmII] + Br
  PrFlushIIArmSetBr,  ///< [IPFlushII, OLArm, BLSet] + Br
  PrProbeBr,          ///< any other probe shape + Br
  // Probe-led whole-block compounds: a specialized probe at the block
  // head fused with the short straight-line body and terminator behind
  // it — the complete shape of the hottest instrumented loop blocks.
  PrOLPredPredILoadGCmpLtBr,  ///< [OLPred, IPPredI] + LoadG, CmpLt, CondBr
  PrOLPred2PredILoadGCmpLtBr, ///< [OLPred, OLPred, IPPredI] + LoadG, CmpLt, CondBr
  PrEnterPredIAndCmpEqBr,     ///< [BLSet, IPEnter, IPPredI] + And, CmpEq, CondBr
  PrOLPredCmpEqBr,            ///< [OLPred] + CmpEq, CondBr
  PrOLPredPredICondBr,        ///< [OLPred, IPPredI] + CondBr
  PrOLPredCondBr,             ///< [OLPred] + CondBr
  PrPredIICondBr,             ///< [IPPredII] + CondBr
  // Second-generation specializations, from profiling the whole workload
  // suite: the remaining hot probe shapes (backedge flush chains, call-site
  // and return sequences of instrumented calls) and their Br variants.
  PrPredI,                  ///< [IPPredI]
  PrOLPred2,                ///< [OLPred, OLPred]
  PrFlushIICountCall,       ///< [IPFlushII, BLCount, IPCall]
  PrFlushICountCall,        ///< [IPFlushI, BLCount, IPCall]
  PrOLFlushCountCall,       ///< [OLFlush, BLCount, IPCall]
  PrOLFlushFlushICountCall, ///< [OLFlush, IPFlushI, BLCount, IPCall]
  PrFlushIICountRet,        ///< [IPFlushII, BLCount, IPRet]
  PrFlushIFlushArmSet,      ///< [IPFlushI, OLFlush, OLArm, BLSet]
  PrBLAdd,                  ///< [BLAdd]
  PrBLAddOLAdd,             ///< [BLAdd, OLAdd]
  PrFlushIFlushArmSetBr,    ///< [IPFlushI, OLFlush, OLArm, BLSet] + Br
  PrBLAddBr,                ///< [BLAdd] + Br
  PrBLAddOLAddBr,           ///< [BLAdd, OLAdd] + Br
  // Probe + Call and probe + Ret fusions: the probe step and the call or
  // return instruction behind it share one dispatch (the handler runs the
  // probe, then jumps into the plain Call/Ret handler body).
  PrCountCallCall,              ///< [BLCount, IPCall] + Call
  PrFlushIICountCallCall,       ///< [IPFlushII, BLCount, IPCall] + Call
  PrFlushICountCallCall,        ///< [IPFlushI, BLCount, IPCall] + Call
  PrOLFlushCountCallCall,       ///< [OLFlush, BLCount, IPCall] + Call
  PrOLFlushFlushICountCallCall, ///< [OLFlush, IPFlushI, BLCount, IPCall] + Call
  PrFlushICountRetRet,          ///< [IPFlushI, BLCount, IPRet] + Ret
  PrFlushIICountRetRet,         ///< [IPFlushII, BLCount, IPRet] + Ret
  ConstPrFlushICountRetRet,     ///< Const + [IPFlushI, BLCount, IPRet] + Ret
  // Remaining hot straight-line runs and probe-led block heads.
  ConstAndLoadArrConstCmpEqBr,   ///< Const, And, LoadArr, Const + CmpEq/CondBr
  LoadArrConstCmpEqConstCmpNeBr, ///< LoadArr, Const, CmpEq, Const, CmpNe + Br
  ConstAndLoadArrMove2,          ///< two ConstAndLoadArrMove runs back to back
  ConstCmpGeBr,                  ///< Const + CmpGe/CondBr
  PrOLPredPredIConstAndLoadArr,    ///< [OLPred, IPPredI] + Const, And, LoadArr
  PrEnterPredIConstAndLoadArrMove, ///< [BLSet, IPEnter, IPPredI] + CALA, Move
  ConstAddMovePrFlushIIArmSetBr,   ///< CAM + [IPFlushII, OLArm, BLSet] + Br
  ConstAddMovePrFlushIFlushArmSetBr, ///< CAM + PrFlushIFlushArmSet + Br
  // The probe + Br fusions again, with the SplitBr of an edge-split block
  // in place of a program Br: the same handlers, except that the jump's
  // cost unit is probe cost.
  PrOLPredSplitBr,
  PrAddISplitBr,
  PrAddIISplitBr,
  PrSetArmIISplitBr,
  PrFlushIIArmSetSplitBr,
  PrProbeSplitBr,
  PrFlushIFlushArmSetSplitBr,
  PrBLAddSplitBr,
  PrBLAddOLAddSplitBr,
};

inline constexpr unsigned kNumBaseOps = static_cast<unsigned>(ExecOp::Probe) + 1;
inline constexpr unsigned kNumExecOps =
    static_cast<unsigned>(ExecOp::PrBLAddOLAddSplitBr) + 1;

/// One pre-decoded instruction. Branch targets are program counters into
/// the owning FuncPlan::Code plus the target's block id (for trace events
/// and block counting). ArgsBegin/ArgsCount window into ArgPool for calls
/// and into ProbePool for ExecOp::Probe (probe programs are flattened at
/// decode time too — no shared_ptr or ops-vector chase per probe).
struct ExecInstr {
  ExecOp Op;
  Reg Dst = NoReg;
  Reg Src0 = NoReg;
  Reg Src1 = NoReg;
  int64_t Imm = 0;
  uint32_t GlobalId = 0;
  uint32_t CalleeId = 0;
  uint32_t Target0Pc = 0, Target1Pc = 0;
  uint32_t Target0Blk = 0, Target1Blk = 0;
  uint32_t ArgsBegin = 0, ArgsCount = 0;
};

/// One function, flattened: blocks concatenated in id order.
struct FuncPlan {
  /// Function name, for error messages. Plans hold no pointers back into
  /// the module they were decoded from: a plan is a pure value, so one
  /// immutable plan can outlive its module and be shared by every module
  /// with identical content (interp/PlanCache.h).
  std::string Name;
  std::vector<ExecInstr> Code;
  /// Block id -> pc of the block's first instruction (ascending).
  std::vector<uint32_t> BlockPc;
  /// Pooled call-argument registers referenced by ExecInstr::ArgsBegin.
  std::vector<Reg> ArgPool;
  /// Pooled probe micro-ops referenced by Probe instructions' ArgsBegin.
  std::vector<ProbeOp> ProbePool;
  uint32_t NumRegs = 0;
  uint32_t NumParams = 0;
  uint32_t NumLoopSlots = 0;

  /// Id of the block containing \p Pc (error reporting only; O(log n)).
  uint32_t blockOfPc(uint32_t Pc) const;
};

class PlanTraceCacheSet;

/// The whole module, pre-decoded. Self-contained: safe to share (read-only)
/// across threads and across identical-content modules. The decoded code is
/// immutable; Traces (the hot-path tracing tier's compiled traces, see
/// interp/TraceTier.h) is the one concurrently-growing part, and its own
/// synchronization makes sharing the plan across interpreters safe. Traces
/// are segregated per trace-settings inside the set, so runs with different
/// thresholds (or tracing disabled) never observe each other's traces even
/// though they share the plan.
struct ExecPlan {
  ExecPlan();
  ~ExecPlan();
  ExecPlan(ExecPlan &&) = default;
  ExecPlan &operator=(ExecPlan &&) = default;

  std::vector<FuncPlan> Funcs;
  std::unique_ptr<PlanTraceCacheSet> Traces;
};

/// Decodes \p M. The module must be fully built (verified, instrumented if
/// it ever will be) and must not change while the plan is in use.
std::unique_ptr<ExecPlan> buildExecPlan(const Module &M);

/// The first constituent base op of \p Op: fused superinstructions and
/// specialized probes map to the base op of their first step, base ops map
/// to themselves. A sequential pc walk dispatching on execBaseOp sees the
/// exact base-step sequence the dispatch loop executes, because fusion
/// rewrites only head opcodes and every trailing constituent keeps its
/// original ExecInstr in place.
ExecOp execBaseOp(ExecOp Op);

} // namespace olpp

#endif // OLPP_INTERP_EXECPLAN_H
