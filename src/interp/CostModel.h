//===--- CostModel.h - Dynamic cost accounting ------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper reports instrumentation overhead as the slowdown of the
/// instrumented binary. Our substrate is an interpreter, so we reproduce the
/// measurement as a dynamic-cost model: every ordinary IR instruction costs
/// one unit, and each executed probe micro-op is charged what its machine
/// code equivalent would roughly cost. Overhead% = probe units / base units,
/// where probe units include the jumps of edge-split blocks (SplitJump).
///
/// The absolute constants are knobs; the *relationships* are what matter for
/// reproducing the paper's curves:
///   - counter bumps (hash-table increment) cost more than register updates,
///   - interprocedural 4-tuple bumps cost more than flat counter bumps,
///   - an inactive conditional probe still pays its test (this is why
///     overhead grows with the degree of overlap even on iterations that
///     never flush).
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_INTERP_COSTMODEL_H
#define OLPP_INTERP_COSTMODEL_H

#include <cstdint>

namespace olpp {
namespace cost {

/// Every ordinary (non-probe) IR instruction.
inline constexpr uint64_t Instr = 1;

/// Unconditional register update (r = c, r += c, arm component).
inline constexpr uint64_t RegOp = 1;

/// The test of a conditional probe op that found its region inactive.
inline constexpr uint64_t InactiveTest = 1;

/// Flat hash-table counter increment (count[id]++).
inline constexpr uint64_t CounterBump = 4;

/// Four-tuple interprocedural counter increment.
inline constexpr uint64_t TupleBump = 6;

/// Shadow-stack push/pop or pending-return hand-off.
inline constexpr uint64_t StackOp = 2;

/// The jump of an edge-split block (Instruction::SplitJump). The block
/// exists only to host edge probes, so its jump is instrumentation: it
/// costs what an ordinary instruction costs, but as probe cost. An
/// instrumented run's base cost then equals the uninstrumented run's, and
/// one instrumented run gives overhead% on its own.
inline constexpr uint64_t SplitJump = Instr;

} // namespace cost
} // namespace olpp

#endif // OLPP_INTERP_COSTMODEL_H
