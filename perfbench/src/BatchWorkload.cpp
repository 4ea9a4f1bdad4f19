//===--- BatchWorkload.cpp - profile-batch --------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mixed queue of short (precision-size) instrumented runs of all ten
/// programs, each run with its own seed, is pushed through a TaskPool of
/// nproc workers (--jobs N overrides, for the scaling figures). Each worker
/// slot counts into its own ShardedProfile shard; a round ends with the
/// tree merge, one artifact per program and the bounds of each. Rounds
/// repeat the same queue.
///
/// Set-up (timed SetupReps times, median reported) compiles and instruments
/// every program and decodes its first ExecPlan. The expected merged
/// counters are the plain sum of reference-engine counters over the queue,
/// computed before the first round and compared after each.
///
//===----------------------------------------------------------------------===//

#include "Bounds.h"
#include "Harness.h"
#include "Oracle.h"

#include "interp/Interpreter.h"
#include "interp/PlanCache.h"
#include "interp/ShardedProfile.h"
#include "profdata/ProfData.h"
#include "support/TaskPool.h"

#include <algorithm>

using namespace olpp;

namespace perfbench {

namespace {

constexpr int SetupReps = 15;
constexpr unsigned RunsPerProgram = 12;
constexpr size_t MinRounds = 4;

struct BatchProg {
  const Workload *W = nullptr;
  std::unique_ptr<Module> M, IM; ///< pristine, instrumented
  ModuleInstrumentation MI;
  const Function *IMain = nullptr;
};

struct QueueItem {
  uint32_t Prog = 0;
  std::vector<int64_t> Args;
};

bool setUp(std::vector<BatchProg> &Progs, std::string &Err) {
  Tracer::Scope Root("setup");
  ExecPlanCache::global().clear();
  Progs.clear();
  for (const Workload &W : allWorkloads()) {
    BatchProg G;
    G.W = &W;
    {
      Tracer::Scope S("frontend.compile");
      G.M = compile(W.Source, Err);
    }
    if (!G.M)
      return false;
    G.IM = G.M->clone();
    {
      Tracer::Scope S("profile.instrument");
      G.MI = instrumentModule(*G.IM, instrOptions(chosenDegree(*G.M)));
    }
    if (!G.MI.ok()) {
      Err = G.MI.Errors[0];
      return false;
    }
    G.IMain = G.IM->findFunction("main");
    {
      Tracer::Scope S("interp.plan_decode");
      ExecPlanCache::global().get(*G.IM);
    }
    Progs.push_back(std::move(G));
  }
  return true;
}

std::unique_ptr<ShardedProfile> shardsFor(const BatchProg &G, unsigned N) {
  auto SP = std::make_unique<ShardedProfile>(G.IM->numFunctions(), N);
  for (uint32_t F = 0; F < G.IM->numFunctions(); ++F)
    if (G.MI.Funcs[F].PG)
      SP->configurePathStore(F, G.MI.Funcs[F].PG->numPaths());
  return SP;
}

struct Round {
  double Wall = 0, Collect = 0, Merge = 0;
  std::vector<double> Busy;  ///< per worker slot
  std::vector<double> Done;  ///< per queue item, from round start
  std::vector<int64_t> Results;
  uint64_t Failed = 0, Steps = 0, Bytes = 0, Slack = 0;
  EstimateMetrics Est;
  TraceTierStats TS;
  std::vector<std::unique_ptr<ShardedProfile>> Shards;
};

void runRound(const std::vector<BatchProg> &Progs,
              const std::vector<QueueItem> &Q, TaskPool &Pool, uint64_t No,
              Round &R) {
  const unsigned Slots = Pool.numWorkers();
  const double T0 = nowS();
  Tracer::Scope Root("batch.round", No);
  for (const BatchProg &G : Progs)
    R.Shards.push_back(shardsFor(G, Slots));
  R.Busy.assign(Slots, 0);
  R.Done.assign(Q.size(), 0);
  R.Results.assign(Q.size(), 0);
  std::vector<RunResult> Runs(Q.size());
  {
    Tracer::Scope Collect("batch.collect");
    const int64_t Parent = Collect.id();
    Pool.parallelFor(Q.size(), [&](size_t I, unsigned Slot) {
      Tracer::Scope Task("batch.task", I, Parent);
      const double A = nowS();
      {
        Tracer::Scope S("interp.instr_run", I);
        const BatchProg &G = Progs[Q[I].Prog];
        Interpreter Interp(*G.IM, &R.Shards[Q[I].Prog]->shard(Slot));
        Runs[I] = Interp.run(*G.IMain, Q[I].Args);
      }
      const double B = nowS();
      R.Busy[Slot] += B - A;
      R.Done[I] = B - T0;
    });
  }
  R.Collect = nowS() - T0;
  for (size_t I = 0; I < Q.size(); ++I) {
    R.Failed += !Runs[I].Ok;
    R.Results[I] = Runs[I].ReturnValue;
    R.Steps += Runs[I].Counts.Steps;
    R.TS.TraceSteps += Runs[I].Trace.TraceSteps;
    R.TS.Enters += Runs[I].Trace.Enters;
    R.TS.Deopts += Runs[I].Trace.Deopts;
    R.TS.Recorded += Runs[I].Trace.Recorded;
    R.TS.Bridges += Runs[I].Trace.Bridges;
    R.TS.Retired += Runs[I].Trace.Retired;
  }
  const double M0 = nowS();
  {
    Tracer::Scope S("batch.merge");
    for (auto &SP : R.Shards)
      SP->merge(&Pool);
  }
  R.Merge = nowS() - M0;
  for (size_t P = 0; P < Progs.size(); ++P) {
    const BatchProg &G = Progs[P];
    const ProfileRuntime &Merged = R.Shards[P]->shard(0);
    {
      Tracer::Scope S("profdata.write");
      RunMeta Meta;
      Meta.Workload = G.W->Name;
      Meta.Runs = RunsPerProgram;
      R.Bytes += serializeProfileArtifact(
                     ProfileArtifact::fromRuntime(*G.M, G.MI, Merged, Meta))
                     .size();
    }
    BoundsResult B = solveBounds(*G.IM, G.MI, Merged, nullptr, false);
    R.Slack += B.slack();
    R.Est.add(B.Total);
  }
  R.Wall = nowS() - T0;
}

} // namespace

Result runBatchWorkload(const Options &O) {
  Result R;
  Tracer &Tr = Tracer::get();
  const bool Traced = Tr.enabled();

  std::vector<BatchProg> Progs;
  std::vector<double> Setup;
  for (int I = 0; I < SetupReps; ++I) {
    std::string Err;
    const double T0 = nowS();
    if (!setUp(Progs, Err)) {
      R.wrong("set-up: " + Err);
      return R;
    }
    Setup.push_back(nowS() - T0);
  }

  // The queue: RunsPerProgram seeded runs of each program, mixed round
  // robin, so that only the inputs depend on the seed, not the order.
  std::vector<QueueItem> Q;
  for (unsigned J = 0; J < RunsPerProgram; ++J)
    for (uint32_t P = 0; P < Progs.size(); ++P)
      Q.push_back({P, argsFor(Progs[P].W->PrecisionArgs,
                              programSeed(O.Seed, tagOf(Progs[P].W->Name) +
                                                      J + 1))});

  // Oracle: reference-engine counters of every queue item, summed by
  // plain arithmetic per program; reference results per item.
  Tr.enable(false);
  std::vector<PlainCounters> Want(Progs.size());
  std::vector<int64_t> WantResult(Q.size());
  for (size_t I = 0; I < Q.size(); ++I) {
    const BatchProg &G = Progs[Q[I].Prog];
    ProfileRuntime P(G.IM->numFunctions());
    RunConfig RC;
    RC.Engine = EngineKind::Reference;
    Interpreter Interp(*G.IM, &P);
    RunResult Run = Interp.run(*G.IMain, Q[I].Args, RC);
    if (!Run.Ok)
      R.wrong(G.W->Name + ": reference run failed: " + Run.Error);
    WantResult[I] = Run.ReturnValue;
    Want[Q[I].Prog].addScaled(P, 1);
  }

  TaskPool Pool(O.Jobs ? O.Jobs : O.Nproc);
  std::vector<Round> Rounds;
  std::vector<double> On, Off;
  std::map<std::string, double> Totals;
  size_t TracedRounds = 0;
  uint64_t PlanHits = 0, PlanMisses = 0;
  const double T0 = nowS();
  for (uint64_t N = 0;; ++N) {
    size_t Need = Traced ? 2 * MinRounds : MinRounds;
    if (Rounds.size() >= Need && nowS() - T0 >= O.Seconds &&
        (!Traced || N % 2 == 0))
      break;
    const bool SpansOn = Traced && N % 2 == 0;
    Tr.enable(SpansOn);
    ExecPlanCache::Stats C0 = ExecPlanCache::global().stats();
    Rounds.emplace_back();
    Round &Rd = Rounds.back();
    runRound(Progs, Q, Pool, N, Rd);
    ExecPlanCache::Stats C1 = ExecPlanCache::global().stats();
    Tr.enable(false);
    R.Attempted += Q.size();
    R.Failed += Rd.Failed;
    (SpansOn ? On : Off).push_back(Rd.Wall);
    if (SpansOn) {
      ++TracedRounds;
      PlanHits += (C1.MemoHits + C1.ContentHits) -
                  (C0.MemoHits + C0.ContentHits);
      PlanMisses += C1.Misses - C0.Misses;
    }

    // Checks, between rounds.
    for (size_t I = 0; I < Q.size(); ++I)
      if (Rd.Results[I] != WantResult[I])
        R.wrong(checkResult(Rd.Results[I], WantResult[I]));
    for (size_t P = 0; P < Progs.size(); ++P) {
      std::string E = checkPlainCounters(Rd.Shards[P]->shard(0), Want[P]);
      if (!E.empty())
        R.wrong(Progs[P].W->Name + ": merged counters: " + E);
    }
    Rd.Shards.clear();
  }
  const double RssMb = peakRssSelfMb();

  std::vector<double> Walls, Lat, Bytes;
  for (const Round &Rd : Rounds) {
    Walls.push_back(Rd.Wall);
    Bytes.push_back(double(Rd.Bytes));
    for (double D : Rd.Done)
      Lat.push_back(D * 1e6);
  }
  for (const Round &Rd : Rounds)
    if (Rd.Slack != Rounds[0].Slack)
      R.wrong("bound slack differs between rounds of the same queue");

  if (!Traced) {
    R.add("setup_s", median(Setup), "s");
    R.add("time_to_bounds_s", median(Walls), "s");
    R.add("profiles_per_s", double(Q.size()) / median(Walls), "1/s");
    R.add("ack_p50_us", percentile(Lat, 50), "us");
    R.add("peak_rss_mb", RssMb, "MB");
    R.add("artifact_bytes", median(Bytes), "B");
    R.add("bound_slack", double(Rounds[0].Slack), "paths");
    return R;
  }

  // Per-layer figures. Set-up layers are per set-up, the rest per round.
  Layers L;
  std::vector<Span> S = Tr.spans();
  std::vector<double> Self = selfTimes(S);
  std::map<std::string, double> SetupT;
  std::vector<double> Unc;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I].Name == "setup")
      for (const auto &[Name, V] : selfByName(S, Self, int64_t(I)))
        SetupT[Name] += V;
    if (S[I].Name == "batch.round") {
      for (const auto &[Name, V] : selfByName(S, Self, int64_t(I)))
        Totals[Name] += V;
      Unc.push_back(Self[I] / (S[I].End - S[I].Start));
    }
  }
  L.setTimes(SetupT, SetupReps);
  L.setTimes(Totals, double(TracedRounds));
  std::vector<double> BusyMax, BusyMean, Collect, Merge;
  uint64_t Steps = 0;
  double RunS = 0;
  EstimateMetrics Est;
  TraceTierStats TS;
  for (size_t I = 0; I < Rounds.size(); I += 2) {
    const Round &Rd = Rounds[I];
    BusyMax.push_back(*std::max_element(Rd.Busy.begin(), Rd.Busy.end()));
    BusyMean.push_back(mean(Rd.Busy));
    Collect.push_back(Rd.Collect);
    Merge.push_back(Rd.Merge);
    Steps += Rd.Steps;
    Est.add(Rd.Est);
    TS.TraceSteps += Rd.TS.TraceSteps;
    TS.Enters += Rd.TS.Enters;
    TS.Deopts += Rd.TS.Deopts;
    TS.Recorded += Rd.TS.Recorded;
    TS.Bridges += Rd.TS.Bridges;
    TS.Retired += Rd.TS.Retired;
  }
  for (double B : BusyMean)
    RunS += B * double(Pool.numWorkers());
  const double U = double(TracedRounds);
  L.set("batch.collect_s", mean(Collect));
  L.set("batch.merge_s", mean(Merge));
  L.set("batch.worker_busy_max_s", mean(BusyMax));
  L.set("batch.worker_busy_mean_s", mean(BusyMean));
  L.set("batch.imbalance", mean(BusyMax) / mean(BusyMean));
  L.set("interp.instr_steps", double(Steps) / U);
  L.set("interp.instr_steps_per_s", double(Steps) / RunS);
  L.set("interp.trace.step_share", double(TS.TraceSteps) / double(Steps));
  L.set("interp.trace.deopts_per_enter",
        TS.Enters ? double(TS.Deopts) / double(TS.Enters) : 0.0);
  L.set("interp.trace.recorded", double(TS.Recorded) / U);
  L.set("interp.trace.bridges", double(TS.Bridges) / U);
  L.set("interp.trace.retired", double(TS.Retired) / U);
  L.set("interp.plan_cache.hits", double(PlanHits) / U);
  L.set("interp.plan_cache.misses", double(PlanMisses) / U);
  L.set("analysis.infeasible_pairs", double(Est.InfeasiblePairs) / U);
  L.set("estimate.solver_evaluations", double(Est.SolverEvaluations) / U);
  L.set("estimate.exact_pairs", double(Est.ExactPairs) / U);
  L.set("trace.overhead_s", median(On) - median(Off));
  L.set("trace.uncovered_share", mean(Unc));
  L.emit(R);
  return R;
}

} // namespace perfbench
