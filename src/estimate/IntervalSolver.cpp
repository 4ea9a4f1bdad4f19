//===--- IntervalSolver.cpp - Iterative bound propagation -------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "estimate/IntervalSolver.h"

#include <cassert>
#include <cstddef>

using namespace olpp;

static constexpr uint64_t UnknownUpper = UINT64_MAX / 4;

uint64_t BoundsResult::sumLower() const {
  uint64_t S = 0;
  for (uint64_t V : Lower)
    S += V;
  return S;
}

uint64_t BoundsResult::sumUpper() const {
  uint64_t S = 0;
  for (uint64_t V : Upper)
    S += V;
  return S;
}

uint64_t BoundsResult::exactCount() const {
  uint64_t N = 0;
  for (std::size_t I = 0; I < Lower.size(); ++I)
    if (Lower[I] == Upper[I])
      ++N;
  return N;
}

namespace {

/// Evaluates one constraint, tightening bounds in place. Appends every cell
/// whose bound changed to \p ChangedCells (may contain duplicates). Shared
/// by the sweep and the worklist so the tightening rules cannot diverge.
void evalConstraint(const SumConstraint &C, std::vector<uint64_t> &Lower,
                    std::vector<uint64_t> &Upper,
                    std::vector<uint32_t> *ChangedCells) {
  // 128-bit accumulators: Upper starts at a huge sentinel.
  __int128 SumL = 0, SumU = 0;
  for (uint32_t Cell : C.Cells) {
    SumL += Lower[Cell];
    SumU += Upper[Cell];
  }
  for (uint32_t Cell : C.Cells) {
    bool CellChanged = false;
    __int128 OthersL = SumL - Lower[Cell];
    __int128 NewU = static_cast<__int128>(C.Value) - OthersL;
    uint64_t NewUpper =
        NewU <= 0 ? 0
                  : (NewU > static_cast<__int128>(UnknownUpper)
                         ? UnknownUpper
                         : static_cast<uint64_t>(NewU));
    if (NewUpper < Upper[Cell]) {
      SumU -= Upper[Cell] - NewUpper;
      Upper[Cell] = NewUpper;
      CellChanged = true;
    }
    if (C.Equality) {
      __int128 OthersU = SumU - Upper[Cell];
      __int128 NewL = static_cast<__int128>(C.Value) - OthersU;
      uint64_t NewLower = NewL <= 0 ? 0 : static_cast<uint64_t>(NewL);
      if (NewLower > Lower[Cell]) {
        SumL += NewLower - Lower[Cell];
        Lower[Cell] = NewLower;
        CellChanged = true;
      }
    }
    if (CellChanged && ChangedCells)
      ChangedCells->push_back(Cell);
  }
}

} // namespace

BoundsResult
olpp::solveBoundsSweep(uint32_t NumCells,
                       const std::vector<SumConstraint> &Constraints,
                       uint32_t MaxIterations) {
  BoundsResult R;
  R.Lower.assign(NumCells, 0);
  R.Upper.assign(NumCells, UnknownUpper);

  for ([[maybe_unused]] const SumConstraint &C : Constraints)
    for ([[maybe_unused]] uint32_t Cell : C.Cells)
      assert(Cell < NumCells && "constraint cell out of range");

  std::vector<uint32_t> Changed;
  for (uint32_t Iter = 0; Iter < MaxIterations; ++Iter) {
    Changed.clear();
    for (const SumConstraint &C : Constraints) {
      evalConstraint(C, R.Lower, R.Upper, &Changed);
      ++R.Evaluations;
    }
    R.Iterations = Iter + 1;
    if (Changed.empty()) {
      R.Converged = true;
      break;
    }
  }
  return R;
}

static thread_local SolverImpl ThreadImpl = SolverImpl::Worklist;

void olpp::setThreadSolverImpl(SolverImpl Impl) { ThreadImpl = Impl; }

SolverImpl olpp::threadSolverImpl() { return ThreadImpl; }

BoundsResult olpp::solveBounds(uint32_t NumCells,
                               const std::vector<SumConstraint> &Constraints,
                               uint32_t MaxIterations) {
  if (ThreadImpl == SolverImpl::Sweep)
    return solveBoundsSweep(NumCells, Constraints, MaxIterations);
  return solveBoundsWorklist(NumCells, Constraints, MaxIterations);
}

BoundsResult
olpp::solveBoundsWorklist(uint32_t NumCells,
                          const std::vector<SumConstraint> &Constraints,
                          uint32_t MaxIterations) {
  BoundsResult R;
  R.Lower.assign(NumCells, 0);
  R.Upper.assign(NumCells, UnknownUpper);

  for ([[maybe_unused]] const SumConstraint &C : Constraints)
    for ([[maybe_unused]] uint32_t Cell : C.Cells)
      assert(Cell < NumCells && "constraint cell out of range");

  const uint32_t NumConstraints = static_cast<uint32_t>(Constraints.size());
  if (NumConstraints == 0) {
    R.Converged = true;
    return R;
  }

  // Cell -> incident constraints, CSR form.
  std::vector<uint32_t> IncStart(NumCells + 1, 0);
  for (const SumConstraint &C : Constraints)
    for (uint32_t Cell : C.Cells)
      ++IncStart[Cell + 1];
  for (uint32_t Cell = 0; Cell < NumCells; ++Cell)
    IncStart[Cell + 1] += IncStart[Cell];
  std::vector<uint32_t> Inc(IncStart[NumCells]);
  {
    std::vector<uint32_t> Fill(IncStart.begin(), IncStart.end() - 1);
    for (uint32_t CI = 0; CI < NumConstraints; ++CI)
      for (uint32_t Cell : Constraints[CI].Cells)
        Inc[Fill[Cell]++] = CI;
  }

  // FIFO worklist of constraint indices; InQueue dedupes. Seeding in input
  // order makes the first pass identical to the sweep's first pass.
  std::vector<uint32_t> Queue(NumConstraints);
  std::vector<uint8_t> InQueue(NumConstraints, 1);
  for (uint32_t CI = 0; CI < NumConstraints; ++CI)
    Queue[CI] = CI;
  size_t Head = 0;

  // Same effort budget as MaxIterations full sweeps.
  const uint64_t Budget =
      static_cast<uint64_t>(MaxIterations) * NumConstraints;

  std::vector<uint32_t> Changed;
  while (Head < Queue.size()) {
    if (R.Evaluations >= Budget)
      return R; // budget exhausted with work pending: not converged
    uint32_t CI = Queue[Head++];
    InQueue[CI] = 0;
    // Reclaim the drained prefix now and then so the queue's footprint
    // stays O(constraints) instead of O(evaluations).
    if (Head > 1024 && Head * 2 > Queue.size()) {
      Queue.erase(Queue.begin(), Queue.begin() + static_cast<long>(Head));
      Head = 0;
    }

    Changed.clear();
    evalConstraint(Constraints[CI], R.Lower, R.Upper, &Changed);
    ++R.Evaluations;

    for (uint32_t Cell : Changed)
      for (uint32_t I = IncStart[Cell]; I < IncStart[Cell + 1]; ++I) {
        uint32_t Dep = Inc[I];
        if (!InQueue[Dep]) {
          InQueue[Dep] = 1;
          Queue.push_back(Dep);
        }
      }
  }
  R.Converged = true;
  // One "round" of residual bookkeeping so callers that print Iterations
  // see a sane small number; Evaluations is the real effort metric.
  R.Iterations = 1;
  return R;
}
