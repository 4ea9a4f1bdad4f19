//===--- perf_engine.cpp - fast vs reference engine benchmark -------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the fast (pre-decoded) engine against the reference engine over the
/// instrumented workload suite and writes the BENCH_engine.json report (the
/// committed perf-trajectory file at the repo root is generated by this
/// binary). Methodology, tuned for a noisy single-core box:
///
///   - engines are interleaved rep by rep (reference, fast, reference, ...)
///     so clock drift hits both sides equally,
///   - each engine keeps one Interpreter (the pre-decoded plan is built once,
///     outside timing) and every timed run starts from zeroed globals and a
///     cleared ProfileRuntime, so all reps execute the identical instruction
///     stream,
///   - the reported wall time is the best of N reps (default 5), the usual
///     estimator for "how fast can this code go" under scheduler noise.
///
/// The harness also cross-checks observation equivalence (DynCounts, result,
/// path and interprocedural counters) on every workload and measures the
/// interval solver's worklist-vs-sweep effort on the real estimation systems.
///
/// The fast lane runs with the tracing tier on (the production default), so
/// the report carries its per-workload activity: traces recorded across the
/// whole measurement, the share of executed steps spent inside compiled
/// traces on the final timed run, and deopts per trace entry.
///
/// Besides the reference lane, a third fast lane runs with the trace-local
/// optimizer off (--no-trace-opt semantics), so every report carries the
/// guard-pass-budget optimizer's A/B speedup per workload.
///
/// Usage: perf_engine [workload ...] [--reps N] [--out FILE] [--quick]
///                    [--no-traces] [--no-trace-opt] [--floor FILE]
///
/// --quick is the CI smoke mode: one rep over the small PrecisionArgs
/// inputs — enough to exercise the whole harness and produce a
/// schema-valid report in seconds, useless as a performance number. In
/// quick mode the harness also enforces the regression floor: if a
/// committed report is readable (--floor FILE, default BENCH_engine.json),
/// the fresh geomean must not fall below the committed geomean minus 20%
/// (a collapse detector — quick mode's single rep is too noisy for less).
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "estimate/Estimators.h"
#include "estimate/IntervalSolver.h"
#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"
#include "profile/Instrumenter.h"
#include "BenchJson.h"
#include "support/TableWriter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace olpp;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One engine's half of the interleaved measurement: a persistent
/// ProfileRuntime + Interpreter pair whose state is scrubbed before every
/// timed run.
struct EngineLane {
  EngineKind Kind;
  bool TraceOpt; ///< run the trace-local optimizer in this lane
  ProfileRuntime Prof;
  Interpreter Interp;
  RunResult Last;
  double BestSeconds = 1e100;
  /// Traces recorded across every run of this lane. Compiled
  /// traces live in the plan's shared PlanTraceCache, so recording happens
  /// once (typically during warm-up) and the timed reps re-enter the
  /// installed traces.
  uint64_t TracesRecordedTotal = 0;

  EngineLane(EngineKind Kind, bool TraceOpt, const Module &M,
             const ModuleInstrumentation &MI)
      : Kind(Kind), TraceOpt(TraceOpt), Prof(M.numFunctions()),
        Interp(M, &Prof) {
    for (uint32_t F = 0; F < M.numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  }

  bool timedRun(const Function &Main, const std::vector<int64_t> &Args,
                const RunConfig &Base, bool Timed) {
    Prof.clear();
    Interp.resetGlobals();
    RunConfig RC = Base;
    RC.Engine = Kind;
    RC.EnableTraceOpt = TraceOpt;
    auto T0 = std::chrono::steady_clock::now();
    Last = Interp.run(Main, Args, RC);
    double S = secondsSince(T0);
    if (Timed && S < BestSeconds)
      BestSeconds = S;
    TracesRecordedTotal += Last.Trace.Recorded;
    return Last.Ok;
  }
};

bool benchWorkload(const Workload &W, unsigned Reps, bool Quick,
                   bool NoTraces, bool NoTraceOpt, WorkloadBench &Row) {
  CompileResult CR = compileMiniC(W.Source);
  if (!CR.ok()) {
    std::fprintf(stderr, "error: %s: compile failed:\n%s", W.Name.c_str(),
                 CR.diagText().c_str());
    return false;
  }
  std::unique_ptr<Module> M = std::move(CR.M);

  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  ModuleInstrumentation MI = instrumentModule(*M, Opts);
  if (!MI.ok()) {
    std::fprintf(stderr, "error: %s: instrumentation failed: %s\n",
                 W.Name.c_str(), MI.Errors[0].c_str());
    return false;
  }

  const Function *Main = M->findFunction("main");
  if (!Main) {
    std::fprintf(stderr, "error: %s: no 'main'\n", W.Name.c_str());
    return false;
  }
  std::vector<int64_t> Args = Quick ? W.PrecisionArgs : W.OverheadArgs;
  Args.resize(Main->NumParams, 0);

  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  RC.EnableTraces = !NoTraces;

  EngineLane Ref(EngineKind::Reference, false, *M, MI);
  EngineLane Fast(EngineKind::Fast, !NoTraceOpt, *M, MI);
  // The A/B lane: the fast engine with the trace-local optimizer off
  // (compiled traces run verbatim). Meaningless without traces, and
  // redundant when the main lane already runs unoptimized.
  const bool WantAB = !NoTraces && !NoTraceOpt;
  std::unique_ptr<EngineLane> NoOpt;
  if (WantAB)
    NoOpt = std::make_unique<EngineLane>(EngineKind::Fast, false, *M, MI);

  // Warm every lane (plan build, allocator, icache), untimed.
  if (!Ref.timedRun(*Main, Args, RC, false) ||
      !Fast.timedRun(*Main, Args, RC, false)) {
    std::fprintf(stderr, "error: %s: warm-up run failed: %s\n",
                 W.Name.c_str(),
                 (Ref.Last.Ok ? Fast.Last : Ref.Last).Error.c_str());
    return false;
  }
  if (NoOpt && !NoOpt->timedRun(*Main, Args, RC, false)) {
    std::fprintf(stderr, "error: %s: no-opt warm-up run failed: %s\n",
                 W.Name.c_str(), NoOpt->Last.Error.c_str());
    return false;
  }

  // Observation equivalence on the warm runs: every lane must agree on the
  // result, every DynCounts field and every counter store.
  auto Agrees = [&](const EngineLane &L, const char *LaneName) {
    if (!(Ref.Last.Counts == L.Last.Counts) ||
        Ref.Last.ReturnValue != L.Last.ReturnValue) {
      std::fprintf(stderr,
                   "error: %s: %s lane disagrees on DynCounts/result\n",
                   W.Name.c_str(), LaneName);
      return false;
    }
    for (uint32_t F = 0; F < M->numFunctions(); ++F)
      if (Ref.Prof.PathCounts[F] != L.Prof.PathCounts[F]) {
        std::fprintf(stderr,
                     "error: %s: %s lane disagrees on path counters of %s\n",
                     W.Name.c_str(), LaneName, M->function(F)->Name.c_str());
        return false;
      }
    if (Ref.Prof.TypeICounts != L.Prof.TypeICounts ||
        Ref.Prof.TypeIICounts != L.Prof.TypeIICounts) {
      std::fprintf(
          stderr,
          "error: %s: %s lane disagrees on interprocedural counters\n",
          W.Name.c_str(), LaneName);
      return false;
    }
    return true;
  };
  if (!Agrees(Fast, "fast") || (NoOpt && !Agrees(*NoOpt, "no-opt")))
    return false;

  for (unsigned K = 0; K < Reps; ++K) {
    if (!Ref.timedRun(*Main, Args, RC, true) ||
        !Fast.timedRun(*Main, Args, RC, true) ||
        (NoOpt && !NoOpt->timedRun(*Main, Args, RC, true))) {
      std::fprintf(stderr, "error: %s: timed run failed\n", W.Name.c_str());
      return false;
    }
  }

  auto Fill = [](EngineLane &L, EngineSample &S) {
    S.WallSeconds = L.BestSeconds;
    S.Steps = L.Last.Counts.Steps;
    S.StepsPerSec = S.WallSeconds > 0
                        ? static_cast<double>(S.Steps) / S.WallSeconds
                        : 0.0;
  };
  Fill(Ref, Row.Reference);
  Fill(Fast, Row.Fast);
  Row.Speedup = Row.Fast.StepsPerSec > 0 && Row.Reference.StepsPerSec > 0
                    ? Row.Fast.StepsPerSec / Row.Reference.StepsPerSec
                    : 0.0;

  // Tracing-tier activity: recording is a one-time cost paid during warm-up
  // (traces persist in the plan cache), so the steady-state numbers come
  // from the final timed run of the fast lane.
  const TraceTierStats &TT = Fast.Last.Trace;
  Row.TracesRecorded = Fast.TracesRecordedTotal;
  Row.TraceStepPercent =
      Fast.Last.Counts.Steps > 0
          ? 100.0 * static_cast<double>(TT.TraceSteps) /
                static_cast<double>(Fast.Last.Counts.Steps)
          : 0.0;
  Row.DeoptRate = TT.Enters > 0 ? static_cast<double>(TT.Deopts) /
                                      static_cast<double>(TT.Enters)
                                : 0.0;
  Row.EntryRejectRate = TT.Enters > 0
                            ? static_cast<double>(TT.EntryRejects) /
                                  static_cast<double>(TT.Enters)
                            : 0.0;
  if (NoOpt) {
    double NoOptPerSec =
        NoOpt->BestSeconds > 0
            ? static_cast<double>(NoOpt->Last.Counts.Steps) /
                  NoOpt->BestSeconds
            : 0.0;
    Row.TraceOptSpeedup =
        NoOptPerSec > 0 ? Row.Fast.StepsPerSec / NoOptPerSec : 0.0;
  }

  // Solver effort on this workload's real estimation systems: the
  // change-driven worklist against the whole-set sweep oracle.
  ModuleEstimator Est(*M, MI, Fast.Prof);
  auto Effort = [&](SolverImpl Impl) {
    setThreadSolverImpl(Impl);
    EstimateMetrics Met = Est.estimateLoops(nullptr);
    if (MI.Opts.CallBreaking) {
      Met.add(Est.estimateTypeI(nullptr));
      Met.add(Est.estimateTypeII(nullptr));
    }
    setThreadSolverImpl(SolverImpl::Worklist);
    return Met;
  };
  EstimateMetrics Worklist = Effort(SolverImpl::Worklist);
  EstimateMetrics Sweep = Effort(SolverImpl::Sweep);
  if (Worklist.Definite != Sweep.Definite ||
      Worklist.Potential != Sweep.Potential ||
      Worklist.ExactPairs != Sweep.ExactPairs) {
    std::fprintf(stderr, "error: %s: solver implementations disagree\n",
                 W.Name.c_str());
    return false;
  }
  Row.SolverEvaluationsWorklist = Worklist.SolverEvaluations;
  Row.SolverEvaluationsSweep = Sweep.SolverEvaluations;
  Row.SolverConverged = Worklist.SolverConverged && Sweep.SolverConverged;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 5;
  bool Quick = false;
  bool NoTraces = false;
  bool NoTraceOpt = false;
  std::string Out = "BENCH_engine.json";
  std::string Floor = "BENCH_engine.json";
  std::vector<std::string> Names;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--reps") == 0 && I + 1 < Argc) {
      Reps = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      Out = Argv[++I];
    } else if (std::strcmp(Argv[I], "--quick") == 0) {
      Quick = true;
      Reps = 1;
    } else if (std::strcmp(Argv[I], "--no-traces") == 0) {
      NoTraces = true;
    } else if (std::strcmp(Argv[I], "--no-trace-opt") == 0) {
      NoTraceOpt = true;
    } else if (std::strcmp(Argv[I], "--floor") == 0 && I + 1 < Argc) {
      Floor = Argv[++I];
    } else {
      Names.emplace_back(Argv[I]);
    }
  }
  if (Reps == 0)
    Reps = 1;

  EngineBenchReport Report;
  Report.Jobs = 1; // interleaved single-thread measurement by design
  auto T0 = std::chrono::steady_clock::now();

  for (const Workload &W : allWorkloads()) {
    if (!Names.empty() &&
        std::find(Names.begin(), Names.end(), W.Name) == Names.end())
      continue;
    WorkloadBench Row;
    Row.Name = W.Name;
    std::printf("%-9s ...", W.Name.c_str());
    std::fflush(stdout);
    if (!benchWorkload(W, Reps, Quick, NoTraces, NoTraceOpt, Row))
      return 1;
    std::printf("\r%-9s ref %.3gM steps/s, fast %.3gM steps/s, %.2fx\n",
                Row.Name.c_str(), Row.Reference.StepsPerSec / 1e6,
                Row.Fast.StepsPerSec / 1e6, Row.Speedup);
    Report.Workloads.push_back(std::move(Row));
  }
  if (Report.Workloads.empty()) {
    std::fprintf(stderr, "error: no workload matched\n");
    return 1;
  }
  Report.WallSeconds = secondsSince(T0);

  TableWriter T({"Workload", "Ref steps/s", "Fast steps/s", "Speedup",
                 "Traces", "Trace steps", "Deopt rate",
                 "Entry rej", "Opt A/B",
                 "Solver evals (worklist/sweep)"});
  for (const WorkloadBench &W : Report.Workloads) {
    char RefS[32], FastS[32], Sp[32], TrPct[32], De[32], Er[32], Ab[32];
    std::snprintf(RefS, sizeof(RefS), "%.3g", W.Reference.StepsPerSec);
    std::snprintf(FastS, sizeof(FastS), "%.3g", W.Fast.StepsPerSec);
    std::snprintf(Sp, sizeof(Sp), "%.2fx", W.Speedup);
    std::snprintf(TrPct, sizeof(TrPct), "%.1f%%", W.TraceStepPercent);
    std::snprintf(De, sizeof(De), "%.4f", W.DeoptRate);
    std::snprintf(Er, sizeof(Er), "%.4f", W.EntryRejectRate);
    std::snprintf(Ab, sizeof(Ab), "%.2fx", W.TraceOptSpeedup);
    T.addRow({W.Name, RefS, FastS, Sp, std::to_string(W.TracesRecorded),
              TrPct, De, Er, Ab,
              std::to_string(W.SolverEvaluationsWorklist) + "/" +
                  std::to_string(W.SolverEvaluationsSweep)});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("geomean speedup %.2fx over %u rep(s), wall %.1fs\n",
              Report.geomeanSpeedup(), Reps, Report.WallSeconds);

  std::string Error;
  std::string Rendered = renderEngineBenchJson(Report);
  if (!validateEngineBenchJson(Rendered, Error)) {
    std::fprintf(stderr, "internal error: report is invalid: %s\n",
                 Error.c_str());
    return 1;
  }
  if (!writeEngineBenchJson(Out, Report, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", Out.c_str());

  // Quick-mode regression floor: compare against the committed report's
  // geomean. The committed number is interleaved best-of-5 on the full
  // inputs; quick mode is one rep on the small PrecisionArgs, which on a
  // loaded 1-thread box swings ±10% run to run — so the floor is a
  // collapse detector (tier disabled, the optimizer pessimizing), not
  // a precision gate, and the margin is sized accordingly. Skipped when no
  // committed report is readable (fresh checkouts, custom workload
  // subsets) or when the lane setup is not the production default.
  if (Quick && !NoTraces && !NoTraceOpt && Names.empty()) {
    std::string Committed;
    if (std::FILE *F = std::fopen(Floor.c_str(), "r")) {
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
        Committed.append(Buf, N);
      std::fclose(F);
    }
    size_t Pos = Committed.find("\"geomean_speedup\":");
    if (Pos == std::string::npos) {
      std::printf("floor check skipped: no committed geomean in %s\n",
                  Floor.c_str());
      return 0;
    }
    double Ref = std::strtod(Committed.c_str() + Pos + 18, nullptr);
    double Min = Ref * 0.80;
    double Now = Report.geomeanSpeedup();
    if (Now < Min) {
      std::fprintf(stderr,
                   "error: geomean %.3fx below floor %.3fx (committed "
                   "%.3fx - 20%%)\n",
                   Now, Min, Ref);
      return 1;
    }
    std::printf("floor check ok: geomean %.3fx >= %.3fx (committed %.3fx "
                "- 20%%)\n",
                Now, Min, Ref);
  }
  return 0;
}
