//===--- WorkloadParams.h - Workload-parameterized test helpers -*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value parameters for suites instantiated over every embedded workload.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_TESTS_WORKLOADPARAMS_H
#define OLPP_TESTS_WORKLOADPARAMS_H

#include "workloads/Workloads.h"

#include <ostream>
#include <vector>

namespace olpp {

/// gtest prints a pointer parameter as its address, and that text lands in
/// the `# GetParam() = ...` suffix of every test name gtest_discover_tests
/// registers, so the names would change from one build to the next. Print
/// the workload name instead (found by argument-dependent lookup).
inline void PrintTo(const Workload *W, std::ostream *OS) { *OS << W->Name; }

namespace testutil {

/// One pointer per embedded workload, in the suite's table order.
inline std::vector<const Workload *> allWorkloadPtrs() {
  std::vector<const Workload *> Out;
  for (const Workload &W : allWorkloads())
    Out.push_back(&W);
  return Out;
}

} // namespace testutil
} // namespace olpp

#endif // OLPP_TESTS_WORKLOADPARAMS_H
