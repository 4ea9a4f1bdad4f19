//===--- ProfileWorkloads.cpp - profile-loops and profile-calls -----------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pass runs, for each program of the workload and one child process at
/// a time, `olpp profile <prog> --degree K --interproc -o X.olpp <size>
/// <seed>` and then `olpp estimate <prog> --profile X.olpp --feasibility`,
/// as a user types them. The pass wall is the sum of the child walls.
///
/// The traced run alternates passes with spans on and off (the difference
/// of their medians is the tracing overhead) and then, twice, replays what
/// the two commands do for each program through the public layer
/// interfaces with a span around each call, with the settings `olpp
/// profile` passes to runPipeline, and checks that the replay printed,
/// wrote and bounded what the children did. The replay also runs the
/// instrumented program with traces off beside the traces-on run,
/// alternating which goes first: the interleaved trace A/B.
///
//===----------------------------------------------------------------------===//

#include "Bounds.h"
#include "Harness.h"
#include "Oracle.h"

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "interp/PlanCache.h"
#include "interp/Trace.h"
#include "ir/Verifier.h"
#include "profdata/ProfData.h"
#include "profdata/Report.h"
#include "wpp/GroundTruth.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace olpp;

namespace perfbench {

namespace {

/// Each program gets Inputs seeded inputs; pass N runs input N % Inputs,
/// so a run's median averages over inputs as well as over passes.
constexpr size_t Inputs = 3;
constexpr size_t MinPasses = Inputs;
constexpr uint64_t Replays = 2;
static_assert(Replays <= MinPasses, "replay N is checked against pass N");

struct Prog {
  const Workload *W = nullptr;
  uint32_t K = 1;
  std::vector<std::vector<int64_t>> Args; ///< per input
  std::string Art, ProfOut, EstOut, ErrOut;
};

/// What the children of one pass printed and wrote, per program.
struct Pass {
  size_t Input = 0;
  std::vector<std::string> Profile, Estimate, Artifact;
  std::vector<double> Latency; ///< profile + estimate, per program
  double Wall = 0;
  long RssKb = 0;
  std::vector<long> ProfileRssKb; ///< of each `olpp profile` child
  uint64_t Commands = 0, Failed = 0;
};

Pass runPass(const Options &O, const std::vector<Prog> &Progs,
             uint64_t PassNo) {
  Pass P;
  P.Input = PassNo % Inputs;
  Tracer::Scope Root("pass", PassNo);
  for (size_t I = 0; I < Progs.size(); ++I) {
    const Prog &G = Progs[I];
    const std::vector<int64_t> &Args = G.Args[P.Input];
    uint64_t Op = PassNo * 16 + I;
    Child A, B;
    {
      Tracer::Scope S("olpp.profile", Op);
      A = runChild({O.Olpp, "profile", G.W->Name, "--degree",
                    std::to_string(G.K), "--interproc", "-o", G.Art,
                    std::to_string(Args[0]), std::to_string(Args[1])},
                   G.ProfOut, G.ErrOut);
    }
    {
      Tracer::Scope S("olpp.estimate", Op);
      B = runChild({O.Olpp, "estimate", G.W->Name, "--profile", G.Art,
                    "--feasibility"},
                   G.EstOut, G.ErrOut);
    }
    P.Commands += 2;
    P.Failed += !A.Ok + !B.Ok;
    P.Wall += A.Wall + B.Wall;
    P.Latency.push_back(A.Wall + B.Wall);
    P.RssKb = std::max({P.RssKb, A.RssKb, B.RssKb});
    P.ProfileRssKb.push_back(A.RssKb);
    P.Profile.push_back(slurp(G.ProfOut));
    P.Estimate.push_back(slurp(G.EstOut));
    P.Artifact.push_back(slurp(G.Art));
  }
  return P;
}

/// Layer counts gathered by the traced replay, summed over traced passes.
struct ReplayTotals {
  uint64_t Events = 0, Steps = 0, BaseCost = 0, InstrCost = 0;
  TraceTierStats TS;
  double TracedRun = 0, NoTraceRun = 0;
  EstimateMetrics Est;
  uint64_t PlanHits = 0, PlanMisses = 0;
};

/// The configuration `olpp profile <prog> --degree K --interproc <args>`
/// hands to runPipeline (the driver's runPipelineFor): the replay takes
/// the settings of every step from it.
PipelineConfig profileConfig(uint32_t K, const std::vector<int64_t> &Args) {
  PipelineConfig C;
  C.Instr = instrOptions(K);
  C.Args = Args;
  return C;
}

/// Replays `olpp profile` (runPipeline, then the artifact write) and `olpp
/// estimate --profile --feasibility` for one program through the layers'
/// public functions, a span per call, and keeps what the two commands
/// would print and write in \p Out. The baseline run traces, and ground
/// truth is computed, only as the configuration asks.
bool replay(const Options &O, const Prog &G, uint64_t Op, bool NoTraceFirst,
            ReplayTotals &T, CommandOutputs &Out, uint64_t &TraceBytes,
            std::string &Err) {
  Tracer::Scope Root("replica", Op);
  const PipelineConfig C = profileConfig(G.K, G.Args[Op % Inputs]);
  ExecPlanCache::Stats C0 = ExecPlanCache::global().stats();
  std::unique_ptr<Module> M;
  {
    Tracer::Scope S("frontend.compile");
    M = compile(G.W->Source, Err);
  }
  if (!M)
    return false;
  const Function *Entry = M->findFunction(C.EntryName);
  if (!Entry) {
    Err = "replay: no entry function";
    return false;
  }
  VectorTrace Trace;
  RunResult Base;
  {
    Tracer::Scope S("interp.base_traced");
    Interpreter I(*M, nullptr, C.CollectGroundTruth ? &Trace : nullptr);
    Base = I.run(*Entry, C.Args, C.Run);
  }
  std::unique_ptr<Module> IM = M->clone();
  ModuleInstrumentation MI;
  {
    Tracer::Scope S("profile.instrument");
    MI = instrumentModule(*IM, C.Instr);
  }
  if (!Base.Ok || !MI.ok()) {
    Err = "replay: baseline run or instrumentation failed";
    return false;
  }
  {
    Tracer::Scope S("ir.verify");
    if (!verifyModuleDiags(*IM).empty()) {
      Err = "replay: instrumented module is malformed";
      return false;
    }
  }
  auto Configure = [&](ProfileRuntime &P) {
    for (uint32_t F = 0; F < IM->numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  };
  ProfileRuntime Prof(IM->numFunctions()), Off(IM->numFunctions());
  Configure(Prof);
  Configure(Off);
  const Function *IEntry = IM->findFunction(C.EntryName);
  RunResult On, NoTr;
  auto RunOn = [&] {
    Tracer::Scope S("interp.instr_run");
    double T0 = nowS();
    Interpreter I(*IM, &Prof);
    On = I.run(*IEntry, C.Args, C.Run);
    T.TracedRun += nowS() - T0;
  };
  auto RunOff = [&] {
    Tracer::Scope S("interp.notrace_run");
    double T0 = nowS();
    RunConfig RC = C.Run;
    RC.EnableTraces = false;
    Interpreter I(*IM, &Off);
    NoTr = I.run(*IEntry, C.Args, RC);
    T.NoTraceRun += nowS() - T0;
  };
  if (NoTraceFirst) {
    RunOff();
    RunOn();
  } else {
    RunOn();
    RunOff();
  }
  if (!On.Ok || !NoTr.Ok || On.ReturnValue != Base.ReturnValue ||
      NoTr.ReturnValue != Base.ReturnValue || !(On.Counts == NoTr.Counts)) {
    Err = "replay: traces on and off disagree for " + G.W->Name;
    return false;
  }
  if (C.CollectGroundTruth) {
    Tracer::Scope S("wpp.ground_truth");
    GroundTruthOptions GTO;
    GTO.CallBreaking = MI.Opts.CallBreaking;
    GroundTruth::compute(*M, Trace.Events, GTO, MI.CallSites);
  }
  T.Events += Trace.Events.size();
  TraceBytes = Trace.Events.size() * sizeof(TraceEvent);
  Trace.Events = {};
  char Line[96];
  std::snprintf(Line, sizeof Line, "result %lld, overhead %.1f %%",
                static_cast<long long>(On.ReturnValue),
                On.Counts.overheadPercentOver(Base.Counts));
  Out.ResultLine = Line;
  const std::string Path = O.WorkDir + "/replica.olpp";
  {
    Tracer::Scope S("profdata.write");
    RunMeta Meta;
    Meta.Workload = G.W->Name;
    Meta.Runs = 1;
    Meta.DynInstrCost = On.Counts.Steps;
    ProfileArtifact A = ProfileArtifact::fromRuntime(*M, MI, Prof, Meta);
    if (!writeProfileArtifactFile(Path, A, Err))
      return false;
  }
  T.Steps += On.Counts.Steps;
  T.BaseCost += Base.Counts.BaseCost;
  T.InstrCost += On.Counts.totalCost();
  T.TS.Recorded += On.Trace.Recorded;
  T.TS.Enters += On.Trace.Enters;
  T.TS.Deopts += On.Trace.Deopts;
  T.TS.TraceSteps += On.Trace.TraceSteps;
  T.TS.Retired += On.Trace.Retired;
  T.TS.Bridges += On.Trace.Bridges;

  // The estimate command: read, recompile, bind, solve.
  std::vector<Diagnostic> Diags;
  {
    Tracer::Scope S("profdata.read");
    if (!readProfileArtifactFile(Path, Out.Artifact, Diags)) {
      Err = "replay: artifact read failed";
      return false;
    }
  }
  std::unique_ptr<Module> M2;
  {
    Tracer::Scope S("frontend.compile");
    M2 = compile(G.W->Source, Err);
  }
  ArtifactBinding B;
  {
    Tracer::Scope S("profdata.bind");
    if (!M2 || !bindArtifactToModule(*M2, Out.Artifact, B, Diags)) {
      Err = "replay: bind failed";
      return false;
    }
  }
  BoundsResult BR = solveBounds(*B.InstrModule, B.MI, Out.Artifact.Counters,
                                nullptr, /*KeepRows=*/true);
  T.Est.add(BR.Total);
  for (const BoundsRow &BRow : BR.Rows)
    Out.Rows.push_back(
        {BRow.Kind, BRow.Where, BRow.Met.Definite, BRow.Met.Potential});
  ExecPlanCache::Stats C1 = ExecPlanCache::global().stats();
  T.PlanHits += (C1.MemoHits + C1.ContentHits) - (C0.MemoHits + C0.ContentHits);
  T.PlanMisses += C1.Misses - C0.Misses;
  return true;
}

/// Checks every program output of \p P against \p Truth (per program,
/// for the pass's input).
void checkPass(const Pass &P, const std::vector<ProfileTruth> &Truth,
               uint64_t &Slack, Result &R) {
  Slack = 0;
  for (size_t I = 0; I < Truth.size(); ++I) {
    int64_t Printed = 0;
    if (!parseProfileResult(P.Profile[I], Printed)) {
      R.wrong("olpp profile printed no result line");
      continue;
    }
    auto Check = [&](const std::string &E) {
      if (!E.empty())
        R.wrong(E);
    };
    Check(checkResult(Printed, Truth[I].ReturnValue));
    ProfileArtifact A;
    std::vector<Diagnostic> Diags;
    if (!readProfileArtifactBytes(P.Artifact[I], A, Diags)) {
      R.wrong("written artifact does not read back");
      continue;
    }
    Check(checkFingerprint(A.Fingerprint, Truth[I].Fingerprint));
    Check(checkExpectedCounters(A.Counters, Truth[I].Expected));
    std::vector<Row> Rows;
    if (!parseEstimateRows(P.Estimate[I], Rows)) {
      R.wrong("olpp estimate printed no bounds table");
      continue;
    }
    Check(checkBounds(Rows, Truth[I].Rows));
    Slack += slackOf(Rows);
  }
}

} // namespace

Result runProfileWorkload(const Options &O,
                          const std::vector<std::string> &Names) {
  Result R;
  std::vector<Prog> Progs;
  for (const std::string &N : Names) {
    Prog G;
    G.W = findWorkload(N);
    std::string Err;
    std::unique_ptr<Module> M = compile(G.W->Source, Err);
    if (!M) {
      R.wrong(N + ": " + Err);
      return R;
    }
    G.K = chosenDegree(*M);
    for (size_t In = 0; In < Inputs; ++In)
      G.Args.push_back(
          argsFor(G.W->OverheadArgs, programSeed(O.Seed, tagOf(N) + In)));
    G.Art = O.WorkDir + "/" + N + ".olpp";
    G.ProfOut = O.WorkDir + "/" + N + ".profile.txt";
    G.EstOut = O.WorkDir + "/" + N + ".estimate.txt";
    G.ErrOut = O.WorkDir + "/" + N + ".stderr.txt";
    Progs.push_back(std::move(G));
  }

  // Set-up: warm-up passes, so caches are warm before timing; two per
  // input, so that the median set-up is not one pass's noise.
  std::vector<double> Setup;
  long RssKb = 0;
  Tracer &Tr = Tracer::get();
  const bool Traced = Tr.enabled();
  Tr.enable(false);
  for (size_t I = 0; I < 2 * Inputs; ++I) {
    Pass P = runPass(O, Progs, I);
    Setup.push_back(P.Wall);
    RssKb = std::max(RssKb, P.RssKb);
  }

  // Timed passes. The traced run alternates passes with spans on and off,
  // then replays the programs through the layers, Replays times.
  std::vector<Pass> Passes;
  std::vector<double> On, Off;
  const double T0 = nowS();
  for (uint64_t N = 0;; ++N) {
    size_t Need = Traced ? MinPasses + 1 : MinPasses;
    if (Passes.size() >= Need && nowS() - T0 >= O.Seconds &&
        N % (Traced ? 2 : Inputs) == 0)
      break;
    const bool SpansOn = Traced && N % 2 == 0;
    Tr.enable(SpansOn);
    Passes.push_back(runPass(O, Progs, N));
    Pass &P = Passes.back();
    R.Attempted += P.Commands;
    R.Failed += P.Failed;
    RssKb = std::max(RssKb, P.RssKb);
    (SpansOn ? On : Off).push_back(P.Wall);
  }
  ReplayTotals T;
  struct Replayed {
    size_t Prog = 0;
    uint64_t N = 0, TraceBytes = 0;
    CommandOutputs Out;
  };
  std::vector<Replayed> ReplayOuts;
  Tr.enable(Traced);
  for (uint64_t N = 0; Traced && N < Replays; ++N)
    for (size_t I = 0; I < Progs.size(); ++I) {
      std::string Err;
      Replayed Rp{I, N, 0, {}};
      if (!replay(O, Progs[I], N, (N + I) % 2 == 1, T, Rp.Out, Rp.TraceBytes,
                  Err))
        R.wrong(Err);
      else
        ReplayOuts.push_back(std::move(Rp));
    }
  Tr.enable(false);

  // The replay must do what the commands do: pass N ran the same input.
  for (const Replayed &Rp : ReplayOuts) {
    const Pass &P = Passes[Rp.N];
    CommandOutputs Cmd;
    std::vector<Diagnostic> Diags;
    Cmd.ResultLine = firstLine(P.Profile[Rp.Prog]);
    if (!readProfileArtifactBytes(P.Artifact[Rp.Prog], Cmd.Artifact, Diags) ||
        !parseEstimateRows(P.Estimate[Rp.Prog], Cmd.Rows)) {
      R.wrong("olpp outputs do not parse");
      continue;
    }
    if (std::string E =
            checkReplay(Rp.Out, Cmd, Rp.TraceBytes,
                        uint64_t(P.ProfileRssKb[Rp.Prog]) * 1024);
        !E.empty())
      R.wrong(Progs[Rp.Prog].W->Name + ": " + E);
  }
  // ack_p50_us: each program's median profile + estimate wall, combined
  // by geometric mean so that every program weighs the same. One
  // percentile over all programs' walls would sit where two programs'
  // walls overlap (vortex and perl) and jump between them with noise.
  std::vector<double> Walls;
  std::vector<std::vector<double>> Lat(Progs.size());
  for (const Pass &P : Passes) {
    Walls.push_back(P.Wall);
    for (size_t I = 0; I < P.Latency.size(); ++I)
      Lat[I].push_back(P.Latency[I] * 1e6);
  }
  double LogLat = 0;
  for (const std::vector<double> &L : Lat)
    LogLat += std::log(median(L));

  // Oracle, outside every timed region. Slack and artifact size depend on
  // the input only; they are reported as means over the inputs.
  std::vector<std::vector<ProfileTruth>> Truth(
      Inputs, std::vector<ProfileTruth>(Progs.size()));
  std::vector<std::string> Errs(Inputs);
  {
    std::vector<std::thread> Ts; // one per input: Inputs <= nproc
    for (size_t In = 0; In < Inputs; ++In)
      Ts.emplace_back([&, In] {
        for (size_t I = 0; I < Progs.size() && Errs[In].empty(); ++I)
          if (!computeProfileTruth(Progs[I].W->Source, Progs[I].K,
                                   Progs[I].Args[In], Truth[In][I],
                                   Errs[In]))
            Errs[In] = Progs[I].W->Name + ": oracle: " + Errs[In];
      });
    for (std::thread &T : Ts)
      T.join();
  }
  for (const std::string &E : Errs)
    if (!E.empty())
      R.wrong(E);
  std::vector<uint64_t> Slack(Inputs, 0), Bytes(Inputs, 0);
  for (size_t I = 0; I < Passes.size() && R.Correct; ++I) {
    const size_t In = Passes[I].Input;
    uint64_t S = 0, B = 0;
    checkPass(Passes[I], Truth[In], S, R);
    for (const std::string &A : Passes[I].Artifact)
      B += A.size();
    if (I < Inputs) {
      Slack[In] = S;
      Bytes[In] = B;
    } else if (S != Slack[In] || B != Bytes[In]) {
      R.wrong("bounds or artifact size differ between passes over the "
              "same inputs");
    }
  }

  R.add("setup_s", median(Setup), "s");
  R.add("time_to_bounds_s", median(Walls), "s");
  R.add("profiles_per_s", double(Progs.size()) / median(Walls), "1/s");
  R.add("ack_p50_us", std::exp(LogLat / double(Lat.size())), "us");
  R.add("peak_rss_mb", double(RssKb) / 1024.0, "MB");
  R.add("artifact_bytes", mean({Bytes.begin(), Bytes.end()}), "B");
  R.add("bound_slack", mean({Slack.begin(), Slack.end()}), "paths");
  if (!Traced)
    return R;

  // Per-layer figures: self times of the replay spans, per replayed pass.
  // The uncovered share sets the replay's layer time against the traced
  // passes' median wall: what the commands spend outside the layers
  // (process start, argument parsing, file I/O, output). The two are
  // measured apart, so noise can push it below 0.
  Layers L;
  std::vector<Span> S = Tr.spans();
  std::vector<double> Self = selfTimes(S);
  std::map<std::string, double> Total;
  double Layer = 0;
  for (size_t I = 0; I < S.size(); ++I)
    if (S[I].Name == "replica")
      for (const auto &[Name, V] : selfByName(S, Self, int64_t(I))) {
        Total[Name] += V;
        if (Name != "replica" && Name != "interp.notrace_run")
          Layer += V;
      }
  const double Units = double(Replays);
  L.setTimes(Total, Units);
  L.set("profile.probe_cost_pct",
        100.0 * double(T.InstrCost - T.BaseCost) / double(T.BaseCost));
  L.set("analysis.infeasible_pairs", double(T.Est.InfeasiblePairs) / Units);
  L.set("interp.trace_events", double(T.Events) / Units);
  L.set("interp.instr_steps", double(T.Steps) / Units);
  L.set("interp.instr_steps_per_s", double(T.Steps) / T.TracedRun);
  L.set("interp.trace_speedup", T.NoTraceRun / T.TracedRun);
  L.set("interp.trace.step_share", double(T.TS.TraceSteps) / double(T.Steps));
  L.set("interp.trace.deopts_per_enter",
        T.TS.Enters ? double(T.TS.Deopts) / double(T.TS.Enters) : 0.0);
  L.set("interp.trace.recorded", double(T.TS.Recorded) / Units);
  L.set("interp.trace.bridges", double(T.TS.Bridges) / Units);
  L.set("interp.trace.retired", double(T.TS.Retired) / Units);
  L.set("interp.plan_cache.hits", double(T.PlanHits) / Units);
  L.set("interp.plan_cache.misses", double(T.PlanMisses) / Units);
  L.set("estimate.solver_evaluations",
        double(T.Est.SolverEvaluations) / Units);
  L.set("estimate.exact_pairs", double(T.Est.ExactPairs) / Units);
  L.set("trace.overhead_s", median(On) - median(Off));
  L.set("trace.uncovered_share", 1.0 - Layer / Units / median(On));
  R.Metrics.clear();
  L.emit(R);
  return R;
}

} // namespace perfbench
