//===--- perf_profdata.cpp - .olpp artifact pipeline benchmark ------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the persistent-profile pipeline and writes the
/// BENCH_profdata.json report (schema "olpp.bench.profdata/v1", committed at
/// the repo root). Per workload, the suite is profiled once under the full
/// instrumentation mode (OL-2 + interprocedural k=2) and the resulting
/// artifact is pushed through the three profdata operations:
///
///   write  serializeProfileArtifact, --reps times — the delta/varint + CRC
///          encoder's throughput over the artifact's own bytes,
///   read   readProfileArtifactBytes, --reps times — the checked decoder
///          (CRC verification on, every structural check live),
///   merge  mergeArtifacts folding --merge-inputs copies into an
///          accumulator — the saturating counter-merge throughput.
///
/// Correctness is checked inside the harness: every read must decode to an
/// artifact equal to the one written, and the merged artifact's counters
/// must equal the single-run counters scaled by the input count (merge of N
/// identical runs == N x the run, the replay-equivalence the format
/// guarantees). The report also records the serialized size next to a naive
/// fixed-width counter dump (16 bytes per path record, 40 per
/// interprocedural tuple) — the compression the encoding buys.
///
/// Usage: perf_profdata [workload ...] [--reps N] [--merge-inputs N]
///                      [--out FILE]
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "profdata/Merge.h"
#include "profdata/ProfData.h"
#include "profile/Instrumenter.h"
#include "BenchJson.h"
#include "support/Saturate.h"
#include "support/TableWriter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
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

/// The naive fixed-width dump the varint encoding competes with: u64 slot +
/// u64 count per path record, 4 x u64 key + u64 count per interproc tuple.
uint64_t rawDumpBytes(const ProfileArtifact &A) {
  uint64_t PathRecords = 0;
  for (const auto &S : A.Counters.PathCounts)
    PathRecords += S.size();
  uint64_t TupleRecords =
      A.Counters.TypeICounts.size() + A.Counters.TypeIICounts.size();
  return PathRecords * 16 + TupleRecords * 40;
}

bool benchWorkload(const Workload &W, unsigned Reps, unsigned MergeInputs,
                   ProfdataWorkloadBench &Out) {
  CompileResult CR = compileMiniC(W.Source);
  if (!CR.ok()) {
    std::fprintf(stderr, "error: %s: compile failed:\n%s", W.Name.c_str(),
                 CR.diagText().c_str());
    return false;
  }
  std::unique_ptr<Module> Instr = CR.M->clone();
  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  ModuleInstrumentation MI = instrumentModule(*Instr, Opts);
  if (!MI.ok()) {
    std::fprintf(stderr, "error: %s: instrumentation failed: %s\n",
                 W.Name.c_str(), MI.Errors[0].c_str());
    return false;
  }
  const Function *Main = Instr->findFunction("main");
  if (!Main) {
    std::fprintf(stderr, "error: %s: no 'main'\n", W.Name.c_str());
    return false;
  }
  std::vector<int64_t> Args = W.OverheadArgs;
  Args.resize(Main->NumParams, 0);

  ProfileRuntime Prof(Instr->numFunctions());
  for (uint32_t F = 0; F < Instr->numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  Interpreter I(*Instr, &Prof);
  RunConfig RC;
  RC.MaxSteps = 2'000'000'000;
  RunResult R = I.run(*Main, Args, RC);
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s: profile run failed: %s\n",
                 W.Name.c_str(), R.Error.c_str());
    return false;
  }

  RunMeta Meta;
  Meta.Workload = W.Name;
  Meta.Runs = 1;
  Meta.DynInstrCost = R.Counts.Steps;
  ProfileArtifact Art = ProfileArtifact::fromRuntime(*CR.M, MI, Prof, Meta);

  Out.Name = W.Name;
  Out.Records = Art.numRecords();
  Out.RawDumpBytes = rawDumpBytes(Art);

  // Write throughput: re-serialize the artifact Reps times.
  std::string Bytes;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    Bytes = serializeProfileArtifact(Art);
  Out.WriteSeconds = secondsSince(T0);
  Out.ArtifactBytes = Bytes.size();

  // Checked-read throughput, every decode verified lossless.
  T0 = std::chrono::steady_clock::now();
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    ProfileArtifact Back;
    std::vector<Diagnostic> Diags;
    if (!readProfileArtifactBytes(Bytes, Back, Diags)) {
      std::fprintf(stderr, "error: %s: checked read rejected the artifact: "
                           "%s\n",
                   W.Name.c_str(),
                   Diags.empty() ? "(no diagnostic)"
                                 : Diags[0].str().c_str());
      return false;
    }
    std::string FirstDiff;
    if (!artifactsEqual(Art, Back, &FirstDiff)) {
      std::fprintf(stderr, "error: %s: round trip not lossless: %s\n",
                   W.Name.c_str(), FirstDiff.c_str());
      return false;
    }
  }
  Out.ReadSeconds = secondsSince(T0);

  // Merge throughput: fold MergeInputs copies, then require the result to
  // equal the single run scaled by the input count.
  ProfileArtifact Acc = makeEmptyLike(Art);
  T0 = std::chrono::steady_clock::now();
  for (unsigned In = 0; In < MergeInputs; ++In) {
    std::vector<Diagnostic> Diags;
    if (!mergeArtifacts(Acc, Art, Diags)) {
      std::fprintf(stderr, "error: %s: merge rejected input %u: %s\n",
                   W.Name.c_str(), In,
                   Diags.empty() ? "(no diagnostic)"
                                 : Diags[0].str().c_str());
      return false;
    }
  }
  Out.MergeSeconds = secondsSince(T0);

  ProfileArtifact Want = makeEmptyLike(Art);
  {
    std::vector<Diagnostic> Diags;
    MergeOptions MO;
    MO.Weight = MergeInputs;
    if (!mergeArtifacts(Want, Art, Diags, MO)) {
      std::fprintf(stderr, "error: %s: weighted merge failed\n",
                   W.Name.c_str());
      return false;
    }
  }
  std::string FirstDiff;
  if (!artifactsEqual(Acc, Want, &FirstDiff)) {
    std::fprintf(stderr,
                 "error: %s: merging %u copies != the run weighted by %u: "
                 "%s\n",
                 W.Name.c_str(), MergeInputs, MergeInputs, FirstDiff.c_str());
    return false;
  }

  const double MB = 1024.0 * 1024.0;
  double WriteBytes = static_cast<double>(Bytes.size()) * Reps;
  double ReadBytes = WriteBytes;
  Out.WriteMBPerSec =
      Out.WriteSeconds > 0 ? WriteBytes / MB / Out.WriteSeconds : 0.0;
  Out.ReadMBPerSec =
      Out.ReadSeconds > 0 ? ReadBytes / MB / Out.ReadSeconds : 0.0;
  double MergedRecords =
      static_cast<double>(Out.Records) * MergeInputs;
  Out.MergeRecordsPerSec =
      Out.MergeSeconds > 0 ? MergedRecords / Out.MergeSeconds : 0.0;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 200;
  unsigned MergeInputs = 64;
  std::string Out = "BENCH_profdata.json";
  std::vector<std::string> Names;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--reps") == 0 && I + 1 < Argc) {
      Reps = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--merge-inputs") == 0 && I + 1 < Argc) {
      MergeInputs = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      Out = Argv[++I];
    } else {
      Names.emplace_back(Argv[I]);
    }
  }
  if (Reps == 0)
    Reps = 1;
  if (MergeInputs == 0)
    MergeInputs = 1;

  ProfdataBenchReport Report;
  Report.Reps = Reps;
  Report.MergeInputs = MergeInputs;

  auto T0 = std::chrono::steady_clock::now();
  for (const Workload &W : allWorkloads()) {
    if (!Names.empty() &&
        std::find(Names.begin(), Names.end(), W.Name) == Names.end())
      continue;
    ProfdataWorkloadBench B;
    if (!benchWorkload(W, Reps, MergeInputs, B))
      return 1;
    Report.Workloads.push_back(std::move(B));
  }
  if (Report.Workloads.empty()) {
    std::fprintf(stderr, "error: no workload matched\n");
    return 1;
  }
  Report.WallSeconds = secondsSince(T0);

  TableWriter T({"Workload", "Records", "Artifact B", "Raw B", "Ratio",
                 "Write MB/s", "Read MB/s", "Merge rec/s"});
  for (const ProfdataWorkloadBench &B : Report.Workloads) {
    char Ratio[32], Wr[32], Rd[32], Mg[32];
    double R = B.ArtifactBytes > 0
                   ? static_cast<double>(B.RawDumpBytes) /
                         static_cast<double>(B.ArtifactBytes)
                   : 0.0;
    std::snprintf(Ratio, sizeof(Ratio), "%.2fx", R);
    std::snprintf(Wr, sizeof(Wr), "%.1f", B.WriteMBPerSec);
    std::snprintf(Rd, sizeof(Rd), "%.1f", B.ReadMBPerSec);
    std::snprintf(Mg, sizeof(Mg), "%.0f", B.MergeRecordsPerSec);
    T.addRow({B.Name, std::to_string(B.Records),
              std::to_string(B.ArtifactBytes),
              std::to_string(B.RawDumpBytes), Ratio, Wr, Rd, Mg});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("reps=%u merge-inputs=%u wall %.1fs\n", Reps, MergeInputs,
              Report.WallSeconds);

  std::string Error;
  std::string Rendered = renderProfdataBenchJson(Report);
  if (!validateProfdataBenchJson(Rendered, Error)) {
    std::fprintf(stderr, "internal error: report is invalid: %s\n",
                 Error.c_str());
    return 1;
  }
  if (!writeProfdataBenchJson(Out, Report, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", Out.c_str());
  return 0;
}
