//===--- perf_pipeline.cpp - parallel pipeline scaling benchmark ----------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the parallel profiling pipeline end to end and writes the
/// BENCH_pipeline.json report (schema "olpp.bench.pipeline/v1", the
/// committed jobs-scaling curve at the repo root). For each job count in
/// {1, 2, 4, hardware} the whole workload suite is pushed through the three
/// pipeline stages, each timed separately:
///
///   collect  N instrumented profile runs per workload on a TaskPool, every
///            worker slot bumping a private ProfileRuntime shard
///            (interp/ShardedProfile.h) — no shared counters, no atomics,
///   merge    the deterministic stride-doubling tree merge of the shards,
///   solve    the full estimation stack under the worklist interval
///            solver on the calling thread.
///
/// Correctness is checked inside the harness: every point's merged counters
/// and solver metrics must equal the jobs=1 point's bit for bit — the curve
/// is only a curve if all points compute the same answer. The shared
/// ExecPlan cache's hit counters over the run are reported as well (every
/// per-rep Interpreter re-fetches the plan, so collect is also a cache
/// workout).
///
/// Usage: perf_pipeline [workload ...] [--reps N] [--out FILE]
///
//===----------------------------------------------------------------------===//

#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "interp/PlanCache.h"
#include "interp/ShardedProfile.h"
#include "profile/Instrumenter.h"
#include "support/BenchJson.h"
#include "support/TableWriter.h"
#include "support/TaskPool.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace olpp;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One compiled + instrumented workload, shared by every point.
struct Prepared {
  const Workload *W = nullptr;
  std::unique_ptr<Module> M;
  ModuleInstrumentation MI;
  const Function *Main = nullptr;
  std::vector<int64_t> Args;
};

/// The jobs=1 reference result a later point must reproduce exactly.
struct Baseline {
  std::unique_ptr<ShardedProfile> Shards; ///< shard 0 holds the merged total
  EstimateMetrics Solve;
};

bool prepareWorkload(const Workload &W, Prepared &P) {
  CompileResult CR = compileMiniC(W.Source);
  if (!CR.ok()) {
    std::fprintf(stderr, "error: %s: compile failed:\n%s", W.Name.c_str(),
                 CR.diagText().c_str());
    return false;
  }
  P.W = &W;
  P.M = std::move(CR.M);

  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  P.MI = instrumentModule(*P.M, Opts);
  if (!P.MI.ok()) {
    std::fprintf(stderr, "error: %s: instrumentation failed: %s\n",
                 W.Name.c_str(), P.MI.Errors[0].c_str());
    return false;
  }
  P.Main = P.M->findFunction("main");
  if (!P.Main) {
    std::fprintf(stderr, "error: %s: no 'main'\n", W.Name.c_str());
    return false;
  }
  P.Args = W.OverheadArgs;
  P.Args.resize(P.Main->NumParams, 0);
  return true;
}

/// Runs one point of the scaling curve: the whole suite through
/// collect -> merge -> solve at \p Jobs workers. On the first call per
/// workload \p Base is filled; later calls verify against it.
bool runPoint(std::vector<Prepared> &Suite, std::vector<Baseline> &Base,
              unsigned Jobs, unsigned Reps, PipelinePoint &Pt) {
  Pt.Jobs = Jobs;
  TaskPool Pool(Jobs);
  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;

  for (size_t WI = 0; WI < Suite.size(); ++WI) {
    Prepared &P = Suite[WI];
    unsigned Shards = std::min<unsigned>(Jobs, Reps);
    auto SP = std::make_unique<ShardedProfile>(P.M->numFunctions(), Shards);
    for (uint32_t F = 0; F < P.M->numFunctions(); ++F)
      if (P.MI.Funcs[F].PG)
        SP->configurePathStore(F, P.MI.Funcs[F].PG->numPaths());

    // Collect: slot identity (not thread identity) picks the shard, so each
    // shard has exactly one writer and the probe path stays non-atomic.
    std::mutex ErrMu;
    std::string Err;
    auto T0 = std::chrono::steady_clock::now();
    Pool.parallelFor(Reps, [&](size_t, unsigned Slot) {
      Interpreter I(*P.M, &SP->shard(Slot));
      RunResult R = I.run(*P.Main, P.Args, RC);
      if (!R.Ok) {
        std::lock_guard<std::mutex> Lock(ErrMu);
        Err = R.Error;
      }
    });
    Pt.CollectSeconds += secondsSince(T0);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s: profile run failed: %s\n",
                   P.W->Name.c_str(), Err.c_str());
      return false;
    }

    // Merge: deterministic tree, pairs of each round on the pool.
    T0 = std::chrono::steady_clock::now();
    ProfileRuntime &Merged = SP->merge(&Pool);
    Pt.MergeSeconds += secondsSince(T0);

    // Solve: the estimation stack on the merged profile.
    ModuleEstimator Est(*P.M, P.MI, Merged);
    T0 = std::chrono::steady_clock::now();
    EstimateMetrics Met = Est.estimateAll(nullptr);
    Pt.SolveSeconds += secondsSince(T0);

    if (WI >= Base.size()) {
      Base.push_back({std::move(SP), Met});
      continue;
    }

    // Scaling points must be observationally identical to the jobs=1 run:
    // same merged counters, same bounds, same solver effort.
    const ProfileRuntime &Want = Base[WI].Shards->shard(0);
    for (uint32_t F = 0; F < P.M->numFunctions(); ++F)
      if (Merged.PathCounts[F] != Want.PathCounts[F]) {
        std::fprintf(stderr,
                     "error: %s: jobs=%u merged path counters of %s differ "
                     "from jobs=1\n",
                     P.W->Name.c_str(), Jobs, P.M->function(F)->Name.c_str());
        return false;
      }
    if (Merged.TypeICounts != Want.TypeICounts ||
        Merged.TypeIICounts != Want.TypeIICounts) {
      std::fprintf(stderr,
                   "error: %s: jobs=%u merged interprocedural counters "
                   "differ from jobs=1\n",
                   P.W->Name.c_str(), Jobs);
      return false;
    }
    const EstimateMetrics &WantMet = Base[WI].Solve;
    if (Met.Definite != WantMet.Definite ||
        Met.Potential != WantMet.Potential ||
        Met.ExactPairs != WantMet.ExactPairs ||
        Met.SolverEvaluations != WantMet.SolverEvaluations ||
        Met.SolverConverged != WantMet.SolverConverged) {
      std::fprintf(stderr,
                   "error: %s: jobs=%u solve differs from jobs=1\n",
                   P.W->Name.c_str(), Jobs);
      return false;
    }
  }

  Pt.Profiles = static_cast<uint64_t>(Suite.size()) * Reps;
  Pt.TotalSeconds = Pt.CollectSeconds + Pt.MergeSeconds + Pt.SolveSeconds;
  Pt.ProfilesPerSec = Pt.TotalSeconds > 0
                          ? static_cast<double>(Pt.Profiles) / Pt.TotalSeconds
                          : 0.0;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 8;
  std::string Out = "BENCH_pipeline.json";
  std::vector<std::string> Names;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--reps") == 0 && I + 1 < Argc) {
      Reps = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      Out = Argv[++I];
    } else {
      Names.emplace_back(Argv[I]);
    }
  }
  if (Reps == 0)
    Reps = 1;

  std::vector<Prepared> Suite;
  for (const Workload &W : allWorkloads()) {
    if (!Names.empty() &&
        std::find(Names.begin(), Names.end(), W.Name) == Names.end())
      continue;
    Prepared P;
    if (!prepareWorkload(W, P))
      return 1;
    Suite.push_back(std::move(P));
  }
  if (Suite.empty()) {
    std::fprintf(stderr, "error: no workload matched\n");
    return 1;
  }

  // The curve: 1, 2, 4 and whatever this box actually has, deduplicated —
  // but never past the hardware thread count. Oversubscribed points do not
  // measure scaling (they time the scheduler), and the schema validator
  // rejects them.
  std::vector<unsigned> JobPoints = {1, 2, 4, defaultJobCount()};
  JobPoints.erase(std::remove_if(JobPoints.begin(), JobPoints.end(),
                                 [](unsigned J) {
                                   return J > defaultJobCount();
                                 }),
                  JobPoints.end());
  std::sort(JobPoints.begin(), JobPoints.end());
  JobPoints.erase(std::unique(JobPoints.begin(), JobPoints.end()),
                  JobPoints.end());

  PipelineBenchReport Report;
  Report.Prov.HardwareThreads = defaultJobCount();
  Report.Workloads = static_cast<unsigned>(Suite.size());
  Report.Reps = Reps;

  ExecPlanCache::Stats Before = ExecPlanCache::global().stats();
  auto T0 = std::chrono::steady_clock::now();

  std::vector<Baseline> Base;
  for (unsigned Jobs : JobPoints) {
    PipelinePoint Pt;
    std::printf("jobs=%-3u ...", Jobs);
    std::fflush(stdout);
    if (!runPoint(Suite, Base, Jobs, Reps, Pt))
      return 1;
    std::printf("\rjobs=%-3u %" PRIu64
                " profiles in %.3fs (collect %.3fs, merge %.3fs, solve "
                "%.3fs)\n",
                Jobs, Pt.Profiles, Pt.TotalSeconds, Pt.CollectSeconds,
                Pt.MergeSeconds, Pt.SolveSeconds);
    Report.Points.push_back(Pt);
  }
  Report.WallSeconds = secondsSince(T0);
  ExecPlanCache::Stats After = ExecPlanCache::global().stats();
  Report.PlanCache.MemoHits = After.MemoHits - Before.MemoHits;
  Report.PlanCache.ContentHits = After.ContentHits - Before.ContentHits;
  Report.PlanCache.Misses = After.Misses - Before.Misses;

  for (PipelinePoint &Pt : Report.Points)
    Pt.SpeedupVs1 = Report.Points[0].ProfilesPerSec > 0
                        ? Pt.ProfilesPerSec / Report.Points[0].ProfilesPerSec
                        : 0.0;

  TableWriter T({"Jobs", "Profiles", "Collect s", "Merge s", "Solve s",
                 "Profiles/s", "Speedup vs 1"});
  for (const PipelinePoint &Pt : Report.Points) {
    char Col[32], Mrg[32], Slv[32], Thr[32], Sp[32];
    std::snprintf(Col, sizeof(Col), "%.3f", Pt.CollectSeconds);
    std::snprintf(Mrg, sizeof(Mrg), "%.3f", Pt.MergeSeconds);
    std::snprintf(Slv, sizeof(Slv), "%.3f", Pt.SolveSeconds);
    std::snprintf(Thr, sizeof(Thr), "%.1f", Pt.ProfilesPerSec);
    std::snprintf(Sp, sizeof(Sp), "%.2fx", Pt.SpeedupVs1);
    T.addRow({std::to_string(Pt.Jobs), std::to_string(Pt.Profiles), Col, Mrg,
              Slv, Thr, Sp});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("plan cache: %" PRIu64 " memo hits, %" PRIu64
              " content hits, %" PRIu64 " misses; wall %.1fs on %u hardware "
              "thread(s)\n",
              Report.PlanCache.MemoHits, Report.PlanCache.ContentHits,
              Report.PlanCache.Misses, Report.WallSeconds,
              Report.Prov.HardwareThreads);

  std::string Error;
  std::string Rendered = renderPipelineBenchJson(Report);
  if (!validatePipelineBenchJson(Rendered, Error)) {
    std::fprintf(stderr, "internal error: report is invalid: %s\n",
                 Error.c_str());
    return 1;
  }
  if (!writePipelineBenchJson(Out, Report, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", Out.c_str());
  return 0;
}
