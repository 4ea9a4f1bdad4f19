//===--- Harness.h - Workload entry points and the layer table --*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Common.h"
#include "Spans.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer figures of a traced run. Every name of the table is printed;
/// a layer the workload never calls reads 0.
class Layers {
public:
  Layers();
  void set(const std::string &Name, double Value);
  /// Time metrics "<span>_s" from span self times: \p PerUnit holds the
  /// summed self time of each span name, divided here by \p Units.
  void setTimes(const std::map<std::string, double> &PerUnit, double Units);
  void emit(Result &R) const;

private:
  std::vector<std::pair<std::string, std::string>> Order; // name, unit
  std::map<std::string, double> Values;
};

Result runProfileWorkload(const Options &O,
                          const std::vector<std::string> &Programs);
Result runBatchWorkload(const Options &O);
Result runFleetWorkload(const Options &O);

/// Plants a wrong value into each output check and reports whether every
/// one of them fails. Returns the process exit code.
int checkTheChecks(const Options &O);

/// Per-program traces off/on A/B at the long inputs, as a table.
int reportTraceAB(const Options &O);

/// Writes the run's spans next to its other outputs.
void dumpSpans(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
