//===--- Main.cpp - perfbench entry point ---------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload W --seed N --seconds S --trace 0|1 --olpp PATH
///           --work DIR
/// perfbench --check-the-checks --olpp PATH --work DIR
/// perfbench --report trace-ab --seed N --olpp PATH --work DIR
///
/// Runs one workload and prints, as its last stdout line, one JSON object
/// with `correct`, `attempted`, `failed` and the metrics: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. A failed
/// output check prints its reason on stderr and `"correct": false`. run.py
/// builds this binary and passes --olpp and --work.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace perfbench {

Layers::Layers() {
  Order = {
      {"frontend.compile_s", "s"},
      {"profile.instrument_s", "s"},
      {"profile.probe_cost_pct", "%"},
      {"analysis.feasibility_s", "s"},
      {"analysis.infeasible_pairs", "count"},
      {"interp.base_traced_s", "s"},
      {"interp.trace_events", "count"},
      {"wpp.ground_truth_s", "s"},
      {"interp.instr_run_s", "s"},
      {"interp.instr_steps", "count"},
      {"interp.instr_steps_per_s", "1/s"},
      {"interp.notrace_run_s", "s"},
      {"interp.trace_speedup", "x"},
      {"interp.trace.step_share", "ratio"},
      {"interp.trace.deopts_per_enter", "ratio"},
      {"interp.trace.recorded", "count"},
      {"interp.trace.bridges", "count"},
      {"interp.trace.retired", "count"},
      {"interp.plan_cache.hits", "count"},
      {"interp.plan_cache.misses", "count"},
      {"batch.collect_s", "s"},
      {"batch.merge_s", "s"},
      {"batch.worker_busy_max_s", "s"},
      {"batch.worker_busy_mean_s", "s"},
      {"batch.imbalance", "x"},
      {"estimate.solve_s", "s"},
      {"estimate.solver_evaluations", "count"},
      {"estimate.exact_pairs", "count"},
      {"profdata.write_s", "s"},
      {"profdata.read_s", "s"},
      {"profdata.bind_s", "s"},
      {"profdata.merge_s", "s"},
      {"serve.upload_s", "s"},
      {"serve.validate_s", "s"},
      {"serve.fold_s", "s"},
      {"serve.snapshot_s", "s"},
      {"serve.framing_us", "us"},
      {"serve.acked", "count"},
      {"serve.rejected", "count"},
      {"trace.overhead_s", "s"},
      {"trace.uncovered_share", "ratio"},
  };
  for (const auto &[Name, Unit] : Order)
    Values[Name] = 0;
}

void Layers::set(const std::string &Name, double Value) {
  if (!Values.count(Name)) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                 Name.c_str());
    std::abort();
  }
  Values[Name] = Value;
}

void Layers::setTimes(const std::map<std::string, double> &PerUnit,
                      double Units) {
  for (const auto &[Span, V] : PerUnit)
    if (Values.count(Span + "_s"))
      Values[Span + "_s"] = V / Units;
}

void Layers::emit(Result &R) const {
  for (const auto &[Name, Unit] : Order)
    R.add(Name, Values.at(Name), Unit);
}

void dumpSpans(const Options &O) {
  std::string Path = O.WorkDir + "/spans-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".jsonl";
  if (!Tracer::get().writeJsonl(Path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  else
    std::fprintf(stderr, "perfbench: spans written to %s\n", Path.c_str());
}

} // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --olpp PATH --work DIR\n"
               "       perfbench --check-the-checks --olpp PATH --work DIR\n"
               "       perfbench --report trace-ab --seed N --olpp PATH "
               "--work DIR\n"
               "options: --jobs N (profile-batch workers, default nproc)\n"
               "workloads: profile-loops profile-calls profile-batch "
               "fleet-ingest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool CheckChecks = false;
  std::string Report;
  O.Nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Next().c_str());
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--olpp")
      O.Olpp = Next();
    else if (A == "--work")
      O.WorkDir = Next();
    else if (A == "--jobs")
      O.Jobs = unsigned(std::atoi(Next().c_str()));
    else if (A == "--check-the-checks")
      CheckChecks = true;
    else if (A == "--report")
      Report = Next();
    else
      return usage();
  }
  if (O.Olpp.empty() || O.WorkDir.empty() || O.Seconds <= 0)
    return usage();
  if (CheckChecks)
    return checkTheChecks(O);
  if (Report == "trace-ab")
    return reportTraceAB(O);
  if (!Report.empty())
    return usage();

  Tracer::get().enable(O.Trace);
  Result R;
  if (O.Workload == "profile-loops")
    R = runProfileWorkload(O, loopPrograms());
  else if (O.Workload == "profile-calls")
    R = runProfileWorkload(O, callPrograms());
  else if (O.Workload == "profile-batch")
    R = runBatchWorkload(O);
  else if (O.Workload == "fleet-ingest")
    R = runFleetWorkload(O);
  else
    return usage();
  if (O.Trace)
    dumpSpans(O);
  for (const Metric &M : R.Metrics)
    std::fprintf(stderr, "  %-32s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::printf("%s\n", R.json().c_str());
  std::fflush(stdout);
  return 0;
}
