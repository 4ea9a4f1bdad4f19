//===--- Bounds.h - Bounds as `olpp estimate` prints them ------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The row enumeration of `olpp estimate --profile --feasibility`, called
/// through the public estimate and analysis interfaces: per-loop rows, then
/// Type I and Type II rows per call site, with statically infeasible pairs
/// pinned to zero. The feasibility set-up and the solve are each wrapped in
/// a span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BOUNDS_H
#define PERFBENCH_BOUNDS_H

#include "estimate/Estimators.h"

#include <string>
#include <vector>

namespace perfbench {

struct BoundsRow {
  std::string Kind, Where;
  olpp::EstimateMetrics Met;
};

struct BoundsResult {
  std::vector<BoundsRow> Rows; ///< only rows with a pair universe
  olpp::EstimateMetrics Total; ///< over every loop and call site
  uint64_t slack() const { return Total.Potential - Total.Definite; }
};

BoundsResult solveBounds(const olpp::Module &InstrM,
                         const olpp::ModuleInstrumentation &MI,
                         const olpp::ProfileRuntime &Prof,
                         const olpp::GroundTruth *GT, bool KeepRows);

} // namespace perfbench

#endif // PERFBENCH_BOUNDS_H
