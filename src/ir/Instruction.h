//===--- Instruction.h - OLPP IR instruction set ----------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OLPP IR is a conventional three-address, register-based CFG IR:
/// every value is a 64-bit integer, registers are per-activation frame
/// slots, globals are module-level scalars or fixed-size arrays. There is
/// deliberately no SSA form: the profiling algorithms only care about the
/// shape of the CFG, and a mutable register IR keeps the interpreter and
/// the frontend lowering simple.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_IR_INSTRUCTION_H
#define OLPP_IR_INSTRUCTION_H

#include "ir/Probe.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace olpp {

class BasicBlock;

/// A frame register index.
using Reg = uint32_t;

/// Sentinel for "no register" (void call results, void returns).
inline constexpr Reg NoReg = std::numeric_limits<Reg>::max();

/// Instruction opcodes. Binary operators read Src0/Src1 and write Dst.
enum class Opcode : uint8_t {
  Const, ///< Dst = Imm
  Move,  ///< Dst = Src0
  Add,   ///< Dst = Src0 + Src1 (wrapping)
  Sub,
  Mul,
  Div, ///< traps on divide by zero / INT64_MIN / -1
  Mod, ///< traps like Div
  And,
  Or,
  Xor,
  Shl, ///< shift amount masked to [0, 63]
  Shr, ///< arithmetic shift, amount masked to [0, 63]
  CmpEq, ///< Dst = (Src0 == Src1) ? 1 : 0
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  Neg,      ///< Dst = -Src0 (wrapping)
  Not,      ///< Dst = (Src0 == 0) ? 1 : 0
  LoadG,    ///< Dst = globals[GlobalId]
  StoreG,   ///< globals[GlobalId] = Src0
  LoadArr,  ///< Dst = arrays[GlobalId][Src0]; traps on out-of-bounds
  StoreArr, ///< arrays[GlobalId][Src0] = Src1; traps on out-of-bounds
  Call,     ///< Dst(optional) = call CalleeId(Args...)
  CallInd,  ///< Dst(optional) = call through function id in Src0(Args...);
            ///< traps on an invalid id or an arity mismatch
  Ret,      ///< return Src0 (NoReg for void); terminator
  Br,       ///< branch to Target0; terminator
  CondBr,   ///< Src0 != 0 ? Target0 : Target1; terminator
  Probe,    ///< profiling probe; executes ProbePayload
};

/// Returns true if \p Op ends a basic block.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Ret || Op == Opcode::Br || Op == Opcode::CondBr;
}

/// A single IR instruction. Which fields are meaningful depends on the
/// opcode; see the Opcode documentation.
struct Instruction {
  Opcode Op;
  Reg Dst = NoReg;
  Reg Src0 = NoReg;
  Reg Src1 = NoReg;
  int64_t Imm = 0;
  uint32_t GlobalId = 0;
  uint32_t CalleeId = 0;
  std::vector<Reg> Args;
  BasicBlock *Target0 = nullptr;
  BasicBlock *Target1 = nullptr;
  /// Shared so that cloning a module is cheap; probe programs are immutable
  /// once attached.
  std::shared_ptr<const ProbeProgram> ProbePayload;
  /// Set on the Br of an edge-split block: the jump exists only to host
  /// edge probes, so the engines charge it as probe cost, not base cost
  /// (interp/CostModel.h).
  bool SplitJump = false;
};

} // namespace olpp

#endif // OLPP_IR_INSTRUCTION_H
