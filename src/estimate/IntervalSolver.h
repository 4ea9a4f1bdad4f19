//===--- IntervalSolver.h - Iterative bound propagation ---------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's estimation engine (eqs. 4-8 and 10-18), generalized: given
/// non-negative integer unknowns and a set of sum constraints over subsets
/// of them — equalities (an overlapping-path frequency is *exactly* the sum
/// of the interesting paths sharing its prefix) and upper bounds (a callee
/// path's global frequency caps any one call site's share) — iterate
///
///     U[x] <- min(U[x], V - sum of L over the other cells)
///     L[x] <- max(L[x], V - sum of U over the other cells)   (equalities)
///
/// until the bounds stabilize. The sum of lower bounds is the paper's
/// *definite flow*, the sum of upper bounds its *potential flow*.
///
/// Both tightening rules are monotone (U only shrinks, L only grows) and
/// clamped to [0, sentinel], so the system has a unique greatest/least
/// fixpoint independent of evaluation order. solveBounds exploits that with
/// a worklist over cell -> constraint incidence lists: a constraint is only
/// re-evaluated when one of its cells actually changed, instead of sweeping
/// the whole constraint set until a quiet round. solveBoundsSweep keeps the
/// original whole-set sweep as the oracle the worklist is differentially
/// tested against (tests/estimate/SolverWorklistTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_ESTIMATE_INTERVALSOLVER_H
#define OLPP_ESTIMATE_INTERVALSOLVER_H

#include <cstdint>
#include <vector>

namespace olpp {

struct SumConstraint {
  uint64_t Value = 0;
  /// True: sum over Cells == Value. False: sum over Cells <= Value.
  bool Equality = true;
  std::vector<uint32_t> Cells;
};

struct BoundsResult {
  std::vector<uint64_t> Lower;
  std::vector<uint64_t> Upper;
  /// Sweep solver: full passes over the constraint set. Worklist solver:
  /// quiescence checks (0 or 1); Evaluations is the meaningful effort
  /// metric there.
  uint32_t Iterations = 0;
  /// Single-constraint (re)evaluations performed. For the sweep this is
  /// Iterations * Constraints.size(); for the worklist it is the number of
  /// worklist pops, typically far smaller on sparse systems.
  uint64_t Evaluations = 0;
  bool Converged = false;

  uint64_t sumLower() const;
  uint64_t sumUpper() const;
  /// Number of cells whose bounds coincide (precisely estimated paths).
  uint64_t exactCount() const;
};

/// Solves for \p NumCells unknowns. Every cell should appear in at least
/// one constraint with a finite value or its upper bound stays at the
/// "unknown" sentinel (UINT64_MAX / 4). Dispatches to the worklist solver
/// unless the calling thread selected the sweep (setThreadSolverImpl).
///
/// \p MaxIterations bounds the effort at MaxIterations * Constraints.size()
/// constraint evaluations — the same budget the sweep solver has — so the
/// two solvers flag non-convergence under comparable limits.
BoundsResult solveBounds(uint32_t NumCells,
                         const std::vector<SumConstraint> &Constraints,
                         uint32_t MaxIterations = 100);

/// The change-driven worklist solver (the default implementation).
BoundsResult solveBoundsWorklist(uint32_t NumCells,
                                 const std::vector<SumConstraint> &Constraints,
                                 uint32_t MaxIterations = 100);

/// The original solver: whole-constraint-set sweeps until a quiet round.
/// Reaches the same fixpoint as the worklist; kept as the differential
/// oracle and for benchmarking the worklist's advantage.
BoundsResult solveBoundsSweep(uint32_t NumCells,
                              const std::vector<SumConstraint> &Constraints,
                              uint32_t MaxIterations = 100);

/// Which implementation solveBounds forwards to on the calling thread.
/// Thread-local so a parallel bench can steer one worker's estimation stack
/// onto the sweep oracle without racing the others.
enum class SolverImpl : uint8_t { Worklist, Sweep };
void setThreadSolverImpl(SolverImpl Impl);
SolverImpl threadSolverImpl();

} // namespace olpp

#endif // OLPP_ESTIMATE_INTERVALSOLVER_H
