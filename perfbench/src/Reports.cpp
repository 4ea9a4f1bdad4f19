//===--- Reports.cpp - Reference figures for the benchmark README ---------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `run.py --report trace-ab`: per program of the suite, at its long input,
/// the instrumented run with the tracing tier off and on, interleaved in
/// one process (ABAB...), with the share of steps the tier retired.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interp/Interpreter.h"

#include <cstdio>

using namespace olpp;

namespace perfbench {

int reportTraceAB(const Options &O) {
  constexpr int Reps = 5;
  std::printf("%-9s %3s %12s %9s %9s %10s %10s\n", "program", "k", "steps",
              "off_s", "on_s", "off/on", "step_share");
  for (const Workload &W : allWorkloads()) {
    std::string Err;
    std::unique_ptr<Module> M = compile(W.Source, Err);
    if (!M) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), Err.c_str());
      return 1;
    }
    const uint32_t K = chosenDegree(*M);
    ModuleInstrumentation MI = instrumentModule(*M, instrOptions(K));
    const std::vector<int64_t> Args =
        argsFor(W.OverheadArgs, programSeed(O.Seed, tagOf(W.Name)));
    std::vector<double> On, Off;
    RunResult Last;
    for (int I = 0; I < 2 * Reps; ++I) {
      const bool Traces = I % 2 == (I / 2) % 2;
      ProfileRuntime P(M->numFunctions());
      for (uint32_t F = 0; F < M->numFunctions(); ++F)
        if (MI.Funcs[F].PG)
          P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
      RunConfig RC;
      RC.EnableTraces = Traces;
      Interpreter Interp(*M, &P);
      const double T0 = nowS();
      RunResult R = Interp.run(*M->findFunction("main"), Args, RC);
      (Traces ? On : Off).push_back(nowS() - T0);
      if (Traces)
        Last = R;
    }
    std::printf("%-9s %3u %12llu %9.4f %9.4f %10.3f %10.3f\n",
                W.Name.c_str(), K,
                static_cast<unsigned long long>(Last.Counts.Steps),
                median(Off), median(On), median(Off) / median(On),
                double(Last.Trace.TraceSteps) / double(Last.Counts.Steps));
  }
  return 0;
}

} // namespace perfbench
