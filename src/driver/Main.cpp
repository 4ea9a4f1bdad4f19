//===--- Main.cpp - the olpp command-line driver --------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `olpp` tool: compile, run, profile and estimate MiniC programs from
/// the command line.
///
///   olpp run <file.mc> [args...]
///   olpp ir <file.mc>
///   olpp profile <file.mc> [--degree K] [--interproc] [--top N]
///        [--lint] [--lint-json] [--lint-werror] [args...]
///   olpp estimate <file.mc> [--degree K] [--feasibility] [args...]
///   olpp analyze <file.mc> [--json]
///   olpp lint <file.mc|workload|--all> [--json] [--werror] [--degree K]
///   olpp workloads
///
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "analysis/Feasibility.h"
#include "analysis/Lint.h"
#include "analysis/LoopInfo.h"
#include "analysis/Summary.h"
#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "frontend/Compiler.h"
#include "fuzz/Fuzzer.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "profdata/Merge.h"
#include "profdata/Report.h"
#include "profile/InfeasiblePaths.h"
#include "profile/InstrCheck.h"
#include "profile/ProfileDecode.h"
#include "serve/Server.h"
#include "serve/ServeBench.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "support/TaskPool.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace olpp;

namespace {

int usage() {
  std::fputs(
      "olpp - overlapping path profiling driver\n"
      "\n"
      "  olpp run <file.mc> [args...]          compile and execute\n"
      "  olpp ir <file.mc>                     dump the lowered IR\n"
      "  olpp profile <file.mc> [options] [args...]\n"
      "       --degree K     overlapping loop paths of degree K\n"
      "       --interproc    also collect Type I/II profiles (degree K)\n"
      "       --top N        show the N hottest paths (default 10)\n"
      "       -o FILE        also write a binary .olpp profile artifact\n"
      "       --json         print the profile summary as JSON (composes\n"
      "                      with -o: artifact and JSON are independent)\n"
      "       --lint         lint the program and audit the probes\n"
      "       --lint-json    emit lint findings as JSON\n"
      "       --lint-werror  treat lint warnings as errors\n"
      "  olpp estimate <file.mc> [--degree K] [--profile FILE]\n"
      "       [--feasibility] [args...]\n"
      "       per-loop and per-call-site interesting path bounds\n"
      "       --profile FILE  solve over a merged .olpp artifact instead of\n"
      "                       re-profiling (no ground-truth column)\n"
      "       --feasibility   feed statically proven-infeasible pairs to the\n"
      "                       solver as hard zero constraints (bounds only\n"
      "                       tighten, never widen)\n"
      "  olpp opt <file.mc> --profile FILE [--emit-ir] [-o FILE] [--json]\n"
      "       profile-guided optimization: rebinds the .olpp artifact\n"
      "       (fingerprint-checked), inlines the hottest Type I/II call\n"
      "       paths, forms superblocks along hot backedge-crossing traces,\n"
      "       then re-verifies, re-instruments and re-runs the optimized\n"
      "       module against the baseline\n"
      "       --profile FILE  the merged .olpp artifact driving the\n"
      "                       transforms (required)\n"
      "       --emit-ir       print the optimized IR to stdout\n"
      "       -o FILE         write the optimized IR to FILE\n"
      "       --json          machine-readable decision/stat report\n"
      "  olpp analyze <file.mc> [--json]\n"
      "       static analysis report: per-function value ranges, bottom-up\n"
      "       call summaries (purity, globals touched, return range) and\n"
      "       the share of acyclic path ids proven infeasible\n"
      "  olpp profdata merge -o OUT [--weight N] <in.olpp|@list|->...\n"
      "       aggregate artifacts (saturating add; --weight N multiplies\n"
      "       every counter, equivalent to N replays of each input)\n"
      "       @FILE reads newline-separated artifact paths from FILE and\n"
      "       '-' reads them from stdin, sidestepping argv length limits\n"
      "  olpp profdata show <file.olpp> [--module file.mc] [--top N]\n"
      "       [--json] [--no-bounds]\n"
      "       provenance, hot paths, coverage; binds to --module (or the\n"
      "       embedded workload it records) to re-solve definite/potential\n"
      "       bounds over the merged counters\n"
      "  olpp profdata diff <a.olpp> <b.olpp> [--top N] [--json]\n"
      "       path records added / removed / regressed between artifacts\n"
      "  olpp profdata export <file.olpp> [-o FILE]\n"
      "       dump every counter as JSON\n"
      "  olpp lint <file.mc|--all> [--json] [--werror] [--degree K]\n"
      "       lint source and verify instrumentation invariants\n"
      "       (--all checks every embedded workload)\n"
      "  olpp workloads                        list the embedded suite\n"
      "  olpp fuzz [--seeds N] [--seed S] [--jobs N] [--shrink] [--json]\n"
      "       differential fuzzing: random programs cross-checked against\n"
      "       every oracle pair (fast vs reference engine, dense vs map\n"
      "       counter stores, profile vs trace-derived truth, worklist vs\n"
      "       sweep vs parallel solver, bound soundness, abort consistency,\n"
      "       .olpp artifact round-trip + mutation rejection)\n"
      "       --seeds N      number of master seeds (default 100)\n"
      "       --seed S       run exactly one master seed (replay)\n"
      "       --jobs N       check seeds on N threads (0 = all cores,\n"
      "                      default 1); the report is identical for any N\n"
      "       --shrink       minimize failing programs before reporting\n"
      "       --json         emit findings as JSON diagnostics\n"
      "  olpp serve [--port P] [--jobs N] [--shards K]\n"
      "       long-lived aggregation daemon: accepts streamed .olpp uploads\n"
      "       over a length-prefixed framed socket protocol, validates each\n"
      "       with the checked reader (malformed frames rejected wholesale,\n"
      "       never partially merged) and folds them into sharded merge\n"
      "       trees; SNAPSHOT/STATS queries answer from epoch-based\n"
      "       snapshots while ingest continues\n"
      "       --port P       listen port (0 = ephemeral, printed on stdout)\n"
      "       --jobs N       merge worker threads (0 = all cores)\n"
      "       --shards K     merge-tree shards (default 16)\n"
      "  olpp serve-bench --port P [--host H] [--clients N] [--uploads M]\n"
      "       [--derive K] [--no-verify] <in.olpp>...\n"
      "       load generator: derives K weighted variants per input\n"
      "       artifact, uploads them from N concurrent clients (M uploads\n"
      "       each) and verifies the final snapshot is bit-identical to an\n"
      "       offline merge of exactly the acked uploads\n"
      "\n"
      "run accepts --profile FILE to pre-heat the tracing tier\n"
      "from a matching .olpp artifact (hot paths recorded without warmup;\n"
      "the run is instrumented under the artifact's recorded mode).\n"
      "\n"
      "run/profile/estimate accept --engine fast|reference to select\n"
      "the execution engine (default: fast). The fast engine's tracing tier\n"
      "takes --trace-threshold N (completions before a hot path is recorded,\n"
      "default 32; 0 = record on the first completion), --no-traces\n"
      "(interpret everything, never trace), --trace-link-threshold N\n"
      "(side-exit deopts before a bridge trace is stitched in, default 8,\n"
      "0 = never link) and --no-trace-opt (check every trace guard on\n"
      "every pass instead of once per batch of guard pass budgets).\n"
      "\n"
      "A file name matching an embedded workload (e.g. 'mcf') may be used\n"
      "in place of a path.\n",
      stderr);
  return 2;
}

bool readSource(const std::string &Path, std::string &Out) {
  if (const Workload *W = findWorkload(Path)) {
    Out = W->Source;
    return true;
  }
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

struct Parsed {
  std::string File;
  /// Positionals after File, verbatim (profdata takes several input files;
  /// run/profile parse the same tokens as integers via Args).
  std::vector<std::string> ExtraFiles;
  uint32_t Degree = 1;
  bool Interproc = false;
  size_t Top = 10;
  std::vector<int64_t> Args;
  bool Lint = false;
  bool LintJson = false;
  bool LintWerror = false;
  bool All = false;
  EngineKind Engine = EngineKind::Fast;
  bool NoTraces = false; ///< --no-traces: disable the tracing tier
  /// --trace-threshold; 0 is a real value (record on the first completion),
  /// so presence is a separate flag instead of a sentinel.
  uint32_t TraceThreshold = 0;
  bool HasTraceThreshold = false;
  uint32_t TraceLinkThreshold = 0; ///< --trace-link-threshold (0 = no bridges)
  bool HasTraceLinkThreshold = false;
  bool NoTraceOpt = false; ///< --no-trace-opt: run compiled traces verbatim
  unsigned Jobs = 1; ///< fuzz/serve worker threads; 0 = one per core
  uint32_t Seeds = 100;    ///< fuzz: number of master seeds
  uint64_t FuzzSeed = 0;   ///< fuzz: single replay seed (--seed)
  bool HasFuzzSeed = false;
  bool Shrink = false;
  /// Unified -o/--out/--output destination; each command supplies its own
  /// default when empty (export: stdout).
  std::string Out;
  bool Json = false;          ///< machine-readable output (composes with -o)
  uint64_t Weight = 1;        ///< profdata merge --weight
  std::string FromProfile;    ///< estimate/opt/run --profile FILE
  bool EmitIr = false;        ///< opt --emit-ir
  bool Feasibility = false;   ///< estimate --feasibility
  std::string ModuleFile;     ///< profdata show --module FILE
  bool NoBounds = false;      ///< profdata show --no-bounds
  std::string Host = "127.0.0.1"; ///< serve-bench --host
  int Port = -1;                  ///< serve/serve-bench --port (0 = ephemeral)
  unsigned Clients = 16;          ///< serve-bench --clients
  unsigned Uploads = 32;          ///< serve-bench --uploads (per client)
  unsigned Derive = 1;            ///< serve-bench --derive (variants/input)
  unsigned Shards = 16;           ///< serve --shards
  bool NoVerify = false;          ///< serve-bench --no-verify
  bool Bad = false;
  bool Ok = false;
};

Parsed parseArgs(int Argc, char **Argv, int Start) {
  Parsed P;
  for (int I = Start; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--interproc") {
      P.Interproc = true;
    } else if (A == "--degree" && I + 1 < Argc) {
      P.Degree = static_cast<uint32_t>(std::atoi(Argv[++I]));
    } else if (A == "--top" && I + 1 < Argc) {
      P.Top = static_cast<size_t>(std::atoi(Argv[++I]));
    } else if (A == "--lint") {
      P.Lint = true;
    } else if (A == "--lint-json") {
      P.Lint = true;
      P.LintJson = true;
    } else if (A == "--json") {
      P.Json = true;
    } else if (A == "--lint-werror" || A == "--werror") {
      P.Lint = true;
      P.LintWerror = true;
    } else if (A == "--all") {
      P.All = true;
    } else if (A == "--engine" && I + 1 < Argc) {
      P.Bad |= !parseEngineKind(Argv[++I], P.Engine);
    } else if (A.rfind("--engine=", 0) == 0) {
      P.Bad |= !parseEngineKind(A.substr(9), P.Engine);
    } else if (A == "--no-traces") {
      P.NoTraces = true;
    } else if (A == "--trace-threshold" && I + 1 < Argc) {
      int V = std::atoi(Argv[++I]);
      if (V < 0) {
        P.Bad = true;
      } else {
        P.TraceThreshold = static_cast<uint32_t>(V);
        P.HasTraceThreshold = true;
      }
    } else if (A == "--trace-link-threshold" && I + 1 < Argc) {
      int V = std::atoi(Argv[++I]);
      if (V < 0) {
        P.Bad = true;
      } else {
        P.TraceLinkThreshold = static_cast<uint32_t>(V);
        P.HasTraceLinkThreshold = true;
      }
    } else if (A == "--no-trace-opt") {
      P.NoTraceOpt = true;
    } else if (A == "--host" && I + 1 < Argc) {
      P.Host = Argv[++I];
    } else if (A == "--port" && I + 1 < Argc) {
      P.Port = std::atoi(Argv[++I]);
      if (P.Port < 0 || P.Port > 65535)
        P.Bad = true;
    } else if (A == "--clients" && I + 1 < Argc) {
      P.Clients = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A == "--uploads" && I + 1 < Argc) {
      P.Uploads = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A == "--derive" && I + 1 < Argc) {
      P.Derive = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A == "--shards" && I + 1 < Argc) {
      P.Shards = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A == "--no-verify") {
      P.NoVerify = true;
    } else if ((A == "--jobs" || A == "-j") && I + 1 < Argc) {
      P.Jobs = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A == "--seeds" && I + 1 < Argc) {
      P.Seeds = static_cast<uint32_t>(std::atoi(Argv[++I]));
    } else if (A == "--seed" && I + 1 < Argc) {
      P.FuzzSeed = std::strtoull(Argv[++I], nullptr, 10);
      P.HasFuzzSeed = true;
    } else if (A == "--shrink") {
      P.Shrink = true;
    } else if ((A == "--out" || A == "--output" || A == "-o") &&
               I + 1 < Argc) {
      P.Out = Argv[++I];
    } else if (A == "--weight" && I + 1 < Argc) {
      P.Weight = std::strtoull(Argv[++I], nullptr, 10);
    } else if (A == "--profile" && I + 1 < Argc) {
      P.FromProfile = Argv[++I];
    } else if (A == "--emit-ir") {
      P.EmitIr = true;
    } else if (A == "--feasibility") {
      P.Feasibility = true;
    } else if (A == "--module" && I + 1 < Argc) {
      P.ModuleFile = Argv[++I];
    } else if (A == "--no-bounds") {
      P.NoBounds = true;
    } else if (A.rfind("--", 0) == 0) {
      P.Bad = true; // unknown option (or one missing its value)
    } else if (P.File.empty()) {
      P.File = A;
    } else {
      P.ExtraFiles.push_back(A);
      P.Args.push_back(std::strtoll(A.c_str(), nullptr, 10));
    }
  }
  P.Ok = !P.Bad && (!P.File.empty() || P.All);
  return P;
}

std::unique_ptr<Module> compileOrFail(const std::string &File) {
  std::string Source;
  if (!readSource(File, Source))
    return nullptr;
  CompileResult CR = compileMiniC(Source);
  if (!CR.ok()) {
    std::fprintf(stderr, "%s", CR.diagText().c_str());
    return nullptr;
  }
  return std::move(CR.M);
}

std::vector<int64_t> fitArgs(const Parsed &P, const Module &M) {
  std::vector<int64_t> Args = P.Args;
  // An embedded workload named on the command line brings its own inputs.
  if (Args.empty())
    if (const Workload *W = findWorkload(P.File))
      Args = W->PrecisionArgs;
  const Function *Main = M.findFunction("main");
  if (Main)
    Args.resize(Main->NumParams, 0);
  return Args;
}

/// Applies the tracing-tier knobs (--no-traces, --trace-threshold,
/// --trace-link-threshold, --no-trace-opt) to a run
/// configuration. Only the fast engine consults them.
void applyTraceOpts(RunConfig &RC, const Parsed &P) {
  if (P.NoTraces)
    RC.EnableTraces = false;
  if (P.HasTraceThreshold)
    RC.TraceThreshold = P.TraceThreshold;
  if (P.HasTraceLinkThreshold)
    RC.TraceLinkThreshold = P.TraceLinkThreshold;
  if (P.NoTraceOpt)
    RC.EnableTraceOpt = false;
}

/// `olpp run <file> --profile art.olpp`: the artifact-driven warmup skip.
/// The artifact is rebound (fingerprint-checked), the module runs
/// instrumented under its recorded mode, and the tracing tier's hotness
/// table is pre-heated from the persisted counters so hot paths record on
/// their first live completion instead of after a warmup's worth of them.
int cmdRunSeeded(const Parsed &P) {
  ProfileArtifact A;
  std::vector<Diagnostic> Diags;
  if (!readProfileArtifactFile(P.FromProfile, A, Diags)) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
    return 1;
  }
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  ArtifactBinding B;
  if (!bindArtifactToModule(*M, A, B, Diags)) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
    return 1;
  }
  const Function *Main = B.InstrModule->findFunction("main");
  if (!Main) {
    std::fprintf(stderr, "error: no 'main' function\n");
    return 1;
  }
  ProfileRuntime Prof(B.InstrModule->numFunctions());
  for (uint32_t F = 0; F < B.InstrModule->numFunctions(); ++F)
    if (B.MI.Funcs[F].PG)
      Prof.configurePathStore(F, B.MI.Funcs[F].PG->numPaths());
  std::vector<HotPathSeed> Seeds =
      collectHotLoopPaths(A, B.MI, /*MinCount=*/1, /*MaxSeeds=*/64);
  seedTraceTier(Prof, Seeds);

  Interpreter I(*B.InstrModule, &Prof);
  RunConfig RC;
  RC.Engine = P.Engine;
  applyTraceOpts(RC, P);
  RunResult R = I.run(*Main, fitArgs(P, *B.InstrModule), RC);
  if (!R.Ok) {
    std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("result: %lld\n", static_cast<long long>(R.ReturnValue));
  std::printf("executed %llu instructions, %llu blocks, %llu calls\n",
              static_cast<unsigned long long>(R.Counts.Steps),
              static_cast<unsigned long long>(R.Counts.Blocks),
              static_cast<unsigned long long>(R.Counts.Calls));
  std::printf("seeded %zu hot path(s) from %s: %llu trace(s) recorded, "
              "%llu trace enter(s)\n",
              Seeds.size(), P.FromProfile.c_str(),
              static_cast<unsigned long long>(R.Trace.Recorded),
              static_cast<unsigned long long>(R.Trace.Enters));
  return 0;
}

int cmdRun(const Parsed &P) {
  if (!P.FromProfile.empty())
    return cmdRunSeeded(P);
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  const Function *Main = M->findFunction("main");
  if (!Main) {
    std::fprintf(stderr, "error: no 'main' function\n");
    return 1;
  }
  Interpreter I(*M);
  RunConfig RC;
  RC.Engine = P.Engine;
  applyTraceOpts(RC, P);
  RunResult R = I.run(*Main, fitArgs(P, *M), RC);
  if (!R.Ok) {
    std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("result: %lld\n", static_cast<long long>(R.ReturnValue));
  std::printf("executed %llu instructions, %llu blocks, %llu calls\n",
              static_cast<unsigned long long>(R.Counts.Steps),
              static_cast<unsigned long long>(R.Counts.Blocks),
              static_cast<unsigned long long>(R.Counts.Calls));
  return 0;
}

int cmdIr(const Parsed &P) {
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  std::fputs(printModule(*M).c_str(), stdout);
  return 0;
}

PipelineResult runPipelineFor(const Parsed &P, Module &M, bool Overlap) {
  PipelineConfig Config;
  if (Overlap) {
    Config.Instr.LoopOverlap = true;
    Config.Instr.LoopDegree = P.Degree;
    if (P.Interproc) {
      Config.Instr.Interproc = true;
      Config.Instr.InterprocDegree = P.Degree;
    }
  }
  Config.Args = fitArgs(P, M);
  Config.Run.Engine = P.Engine;
  applyTraceOpts(Config.Run, P);
  Config.Lint = P.Lint;
  Config.LintWerror = P.LintWerror;
  return runPipeline(M, Config);
}

void emitLintFindings(const Parsed &P, const std::vector<Diagnostic> &Diags) {
  if (P.LintJson) {
    std::fputs(renderDiagnosticsJson(Diags).c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (!Diags.empty()) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
  }
}

int cmdProfile(const Parsed &P) {
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  PipelineResult R = runPipelineFor(P, *M, /*Overlap=*/true);
  if (P.Lint)
    emitLintFindings(P, R.Lint);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Errors[0].c_str());
    return 1;
  }

  // The artifact snapshots the pristine module's fingerprint: that is the
  // program a later `profdata show --module` will recompile and bind.
  RunMeta Meta;
  Meta.Workload = P.File;
  Meta.Runs = 1;
  Meta.DynInstrCost = R.InstrCounts.Steps;
  Meta.TimestampUnix = static_cast<uint64_t>(std::time(nullptr));
  ProfileArtifact Artifact =
      ProfileArtifact::fromRuntime(*R.BaseModule, R.MI, *R.Prof, Meta);

  if (!P.Out.empty()) {
    std::string Error;
    if (!writeProfileArtifactFile(P.Out, Artifact, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%llu record(s))\n", P.Out.c_str(),
                 static_cast<unsigned long long>(Artifact.numRecords()));
  }

  // --json and -o compose: the binary artifact and the JSON summary are
  // independent outputs (artifact to the file, JSON to stdout).
  if (P.Json) {
    ArtifactBinding Bind;
    Bind.InstrModule = std::move(R.InstrModule);
    Bind.MI = std::move(R.MI);
    ReportOptions RO;
    RO.TopN = P.Top;
    RO.Json = true;
    std::fputs(renderArtifactReport(Artifact, &Bind, RO).c_str(), stdout);
    return 0;
  }

  std::printf("result %lld, overhead %.1f %%\n\n",
              static_cast<long long>(R.ReturnValue), R.overheadPercent());

  struct Hot {
    std::string Func;
    DecodedEntry D;
  };
  std::vector<Hot> Paths;
  for (uint32_t F = 0; F < R.InstrModule->numFunctions(); ++F)
    for (DecodedEntry &D :
         decodeProfile(*R.MI.Funcs[F].PG, R.Prof->PathCounts[F]))
      Paths.push_back({R.InstrModule->function(F)->Name, std::move(D)});
  std::sort(Paths.begin(), Paths.end(),
            [](const Hot &A, const Hot &B) { return A.D.Count > B.D.Count; });

  TableWriter T({"Count", "Function", "Path", "Overlap Suffix"});
  for (size_t I = 0; I < Paths.size() && I < P.Top; ++I) {
    const DecodedEntry &D = Paths[I].D;
    std::string Blocks, Suffix;
    for (uint32_t B : D.White.Blocks)
      Blocks += "^" + std::to_string(B) + " ";
    for (uint32_t B : D.Suffix)
      Suffix += "^" + std::to_string(B) + " ";
    T.addRow({std::to_string(D.Count), Paths[I].Func, Blocks, Suffix});
  }
  std::fputs(T.renderText().c_str(), stdout);
  return 0;
}

/// `olpp estimate <file> --profile art.olpp`: bounds from a persisted
/// (possibly multi-run) artifact instead of a fresh profiling run. There is
/// no ground truth for an aggregate, so the Real column renders as "-", and
/// the module is instrumented under the artifact's recorded mode, not the
/// estimate default.
int cmdEstimateFromProfile(const Parsed &P) {
  ProfileArtifact A;
  std::vector<Diagnostic> Diags;
  if (!readProfileArtifactFile(P.FromProfile, A, Diags)) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
    return 1;
  }
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  ArtifactBinding B;
  if (!bindArtifactToModule(*M, A, B, Diags)) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
    return 1;
  }
  ModuleEstimator Est(*B.InstrModule, B.MI, A.Counters);

  // --feasibility: facts are computed over the instrumented module (the
  // walker skips probes) and pin statically impossible pairs to zero.
  ModuleSummaries Sums;
  std::unique_ptr<PathFeasibility> PF;
  EstimateMetrics FeasTotal;
  if (P.Feasibility) {
    Sums = computeSummaries(*B.InstrModule);
    PF = std::make_unique<PathFeasibility>(*B.InstrModule, &Sums);
    Est.setFeasibility(PF.get());
  }

  TableWriter T({"Kind", "Where", "Real", "Definite", "Potential",
                 "Exact Pairs"});
  for (uint32_t F = 0; F < B.InstrModule->numFunctions(); ++F) {
    const auto &Meta = B.MI.Funcs[F];
    for (uint32_t L = 0; L < Meta.Loops->numLoops(); ++L) {
      EstimateMetrics Met = Est.estimateLoop(F, L, nullptr);
      FeasTotal.add(Met);
      if (Met.Pairs == 0)
        continue;
      T.addRow({"loop",
                B.InstrModule->function(F)->Name + " ^" +
                    std::to_string(Meta.Loops->loop(L).Header),
                "-", std::to_string(Met.Definite),
                std::to_string(Met.Potential),
                std::to_string(Met.ExactPairs) + "/" +
                    std::to_string(Met.Pairs)});
    }
  }
  for (const CallSiteInfo &CS : B.MI.CallSites) {
    EstimateMetrics MI1 = Est.estimateCallSiteTypeI(CS.CsId, nullptr);
    EstimateMetrics MI2 = Est.estimateCallSiteTypeII(CS.CsId, nullptr);
    FeasTotal.add(MI1);
    FeasTotal.add(MI2);
    if (MI1.Pairs + MI2.Pairs == 0)
      continue;
    std::string Where = B.InstrModule->function(CS.Func)->Name + " -> " +
                        B.InstrModule->function(CS.Callee)->Name;
    if (MI1.Pairs)
      T.addRow({"type I", Where, "-", std::to_string(MI1.Definite),
                std::to_string(MI1.Potential),
                std::to_string(MI1.ExactPairs) + "/" +
                    std::to_string(MI1.Pairs)});
    if (MI2.Pairs)
      T.addRow({"type II", Where, "-", std::to_string(MI2.Definite),
                std::to_string(MI2.Potential),
                std::to_string(MI2.ExactPairs) + "/" +
                    std::to_string(MI2.Pairs)});
  }
  std::printf("interesting-path bounds from %s (%llu run(s), %s):\n\n",
              P.FromProfile.c_str(),
              static_cast<unsigned long long>(A.Meta.Runs),
              instrumentModeString(A.Meta.Instr).c_str());
  std::fputs(T.renderText().c_str(), stdout);
  if (P.Feasibility)
    std::printf("\nfeasibility: %llu pair(s) proven infeasible and pinned "
                "to zero (%llu walker quer%s)\n",
                static_cast<unsigned long long>(FeasTotal.InfeasiblePairs),
                static_cast<unsigned long long>(FeasTotal.FeasibilityQueries),
                FeasTotal.FeasibilityQueries == 1 ? "y" : "ies");
  return 0;
}

int cmdEstimate(const Parsed &P) {
  if (!P.FromProfile.empty())
    return cmdEstimateFromProfile(P);
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  Parsed P2 = P;
  P2.Interproc = true; // estimation shows both dimensions
  PipelineResult R = runPipelineFor(P2, *M, /*Overlap=*/true);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Errors[0].c_str());
    return 1;
  }
  ModuleEstimator Est(*R.InstrModule, R.MI, *R.Prof);

  ModuleSummaries Sums;
  std::unique_ptr<PathFeasibility> PF;
  EstimateMetrics FeasTotal;
  if (P.Feasibility) {
    Sums = computeSummaries(*R.InstrModule);
    PF = std::make_unique<PathFeasibility>(*R.InstrModule, &Sums);
    Est.setFeasibility(PF.get());
  }

  TableWriter T({"Kind", "Where", "Real", "Definite", "Potential",
                 "Exact Pairs"});
  for (uint32_t F = 0; F < R.InstrModule->numFunctions(); ++F) {
    const auto &Meta = R.MI.Funcs[F];
    for (uint32_t L = 0; L < Meta.Loops->numLoops(); ++L) {
      EstimateMetrics Met = Est.estimateLoop(F, L, &R.GT);
      FeasTotal.add(Met);
      if (Met.Pairs == 0)
        continue;
      T.addRow({"loop",
                R.InstrModule->function(F)->Name + " ^" +
                    std::to_string(Meta.Loops->loop(L).Header),
                std::to_string(Met.Real), std::to_string(Met.Definite),
                std::to_string(Met.Potential),
                std::to_string(Met.ExactPairs) + "/" +
                    std::to_string(Met.Pairs)});
    }
  }
  for (const CallSiteInfo &CS : R.MI.CallSites) {
    EstimateMetrics MI1 = Est.estimateCallSiteTypeI(CS.CsId, &R.GT);
    EstimateMetrics MI2 = Est.estimateCallSiteTypeII(CS.CsId, &R.GT);
    FeasTotal.add(MI1);
    FeasTotal.add(MI2);
    if (MI1.Pairs + MI2.Pairs == 0)
      continue;
    std::string Where = R.InstrModule->function(CS.Func)->Name + " -> " +
                        R.InstrModule->function(CS.Callee)->Name;
    if (MI1.Pairs)
      T.addRow({"type I", Where, std::to_string(MI1.Real),
                std::to_string(MI1.Definite), std::to_string(MI1.Potential),
                std::to_string(MI1.ExactPairs) + "/" +
                    std::to_string(MI1.Pairs)});
    if (MI2.Pairs)
      T.addRow({"type II", Where, std::to_string(MI2.Real),
                std::to_string(MI2.Definite), std::to_string(MI2.Potential),
                std::to_string(MI2.ExactPairs) + "/" +
                    std::to_string(MI2.Pairs)});
  }
  std::printf("interesting-path bounds at overlap degree %u:\n\n", P.Degree);
  std::fputs(T.renderText().c_str(), stdout);
  if (P.Feasibility)
    std::printf("\nfeasibility: %llu pair(s) proven infeasible and pinned "
                "to zero (%llu walker quer%s)\n",
                static_cast<unsigned long long>(FeasTotal.InfeasiblePairs),
                static_cast<unsigned long long>(FeasTotal.FeasibilityQueries),
                FeasTotal.FeasibilityQueries == 1 ? "y" : "ies");
  return 0;
}

//===----------------------------------------------------------------------===//
// olpp opt: artifact-driven profile-guided optimization
//===----------------------------------------------------------------------===//

/// `olpp opt <file> --profile art.olpp [--emit-ir|-o FILE] [--json]`:
/// closes the profile->optimize loop. The artifact is rebound to a pristine
/// compile (fingerprint-checked — a stale artifact is a clean diagnostic,
/// never a partial bind), the hottest interprocedural call paths are
/// inlined and hot backedge-crossing traces become superblocks, and the
/// result is proven out end to end: the verifier accepts it, it
/// re-instruments with a clean instrumentation audit (the optimized module
/// stays profile-able for the next loop iteration), lint finds no errors,
/// and a differential re-run against the baseline confirms the result and
/// reports the dynamic instruction/call savings.
int cmdOpt(const Parsed &P) {
  if (P.FromProfile.empty()) {
    std::fprintf(stderr, "error: olpp opt requires --profile FILE\n");
    return 2;
  }
  ProfileArtifact A;
  std::vector<Diagnostic> Diags;
  if (!readProfileArtifactFile(P.FromProfile, A, Diags)) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
    return 1;
  }
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;

  OptOptions OO;
  OptResult R;
  if (!optimizeModule(*M, A, OO, R, Diags)) {
    std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
    return 1;
  }

  // The optimized module must still take instrumentation cleanly: probes,
  // path graphs and the instrumentation audit all have to work on it, or
  // the profile->optimize->profile loop is broken.
  auto InstrCopy = R.OptModule->clone();
  ModuleInstrumentation MI = instrumentModule(*InstrCopy, A.Meta.Instr);
  if (!MI.ok()) {
    std::fprintf(stderr, "error: optimized module failed instrumentation: %s\n",
                 MI.Errors[0].c_str());
    return 1;
  }
  std::vector<Diagnostic> InstrDiags = checkInstrumentation(*InstrCopy, MI);
  if (!InstrDiags.empty()) {
    std::fputs(renderDiagnosticsText(InstrDiags).c_str(), stderr);
    std::fprintf(stderr, "error: instrumentation audit failed on the "
                         "optimized module\n");
    return 1;
  }
  std::vector<Diagnostic> LintDiags = lintModule(*R.OptModule);
  const bool LintClean = !anySeverityAtLeast(LintDiags, Severity::Error);
  if (!LintClean)
    std::fputs(renderDiagnosticsText(LintDiags).c_str(), stderr);

  // Differential re-run: baseline and optimized must agree on the result,
  // and the optimized module must behave identically under both engines.
  const std::vector<int64_t> Args = fitArgs(P, *M);
  RunConfig RC;
  auto RunOn = [&](const Module &Mod, EngineKind E, RunResult &Out) {
    const Function *Main = Mod.findFunction("main");
    if (!Main) {
      Out.Ok = false;
      Out.Error = "no 'main' function";
      return false;
    }
    Interpreter I(Mod);
    RC.Engine = E;
    std::vector<int64_t> A2 = Args;
    A2.resize(Main->NumParams, 0);
    Out = I.run(*Main, A2, RC);
    return Out.Ok;
  };
  RunResult Base, OptFast, OptRef;
  if (!RunOn(*M, EngineKind::Fast, Base) ||
      !RunOn(*R.OptModule, EngineKind::Fast, OptFast) ||
      !RunOn(*R.OptModule, EngineKind::Reference, OptRef)) {
    std::fprintf(stderr, "runtime error: %s\n",
                 (!Base.Ok ? Base : !OptFast.Ok ? OptFast : OptRef)
                     .Error.c_str());
    return 1;
  }
  const bool Agree = Base.ReturnValue == OptFast.ReturnValue &&
                     OptFast.ReturnValue == OptRef.ReturnValue &&
                     OptFast.Counts == OptRef.Counts;

  if (!P.Out.empty()) {
    std::ofstream OS(P.Out);
    if (!OS || !(OS << printModule(*R.OptModule))) {
      std::fprintf(stderr, "error: cannot write '%s'\n", P.Out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote optimized IR to %s\n", P.Out.c_str());
  }
  if (P.EmitIr)
    std::fputs(printModule(*R.OptModule).c_str(), stdout);

  if (P.Json) {
    std::ostringstream J;
    J << "{\n  \"schema\": \"olpp.opt/v1\",\n";
    J << "  \"artifact\": \"" << jsonEscape(P.FromProfile) << "\",\n";
    J << "  \"runs\": " << A.Meta.Runs << ",\n";
    J << "  \"inlinedSites\": " << R.Stats.InlinedSites << ",\n";
    J << "  \"superblocks\": " << R.Stats.Superblocks << ",\n";
    J << "  \"duplicatedBlocks\": " << R.Stats.DuplicatedBlocks << ",\n";
    J << "  \"mergedBlocks\": " << R.Stats.MergedBlocks << ",\n";
    J << "  \"removedBlocks\": " << R.Stats.RemovedBlocks << ",\n";
    J << "  \"instrCheckClean\": true,\n";
    J << "  \"lintClean\": " << (LintClean ? "true" : "false") << ",\n";
    J << "  \"agree\": " << (Agree ? "true" : "false") << ",\n";
    J << "  \"baselineSteps\": " << Base.Counts.Steps << ",\n";
    J << "  \"optimizedSteps\": " << OptFast.Counts.Steps << ",\n";
    J << "  \"baselineCalls\": " << Base.Counts.Calls << ",\n";
    J << "  \"optimizedCalls\": " << OptFast.Counts.Calls << "\n}\n";
    std::fputs(J.str().c_str(), stdout);
    return Agree && LintClean ? 0 : 1;
  }

  std::printf("opt: %s under %s (%llu run(s), %s)\n", P.File.c_str(),
              P.FromProfile.c_str(),
              static_cast<unsigned long long>(A.Meta.Runs),
              instrumentModeString(A.Meta.Instr).c_str());
  TableWriter T({"Decision", "Where", "Heat", "Applied", "Note"});
  for (const InlineDecision &D : R.Inlines)
    T.addRow({"inline",
              M->function(D.Caller)->Name + " ^" + std::to_string(D.Block) +
                  " -> " + M->function(D.Callee)->Name,
              std::to_string(D.Heat), D.Applied ? "yes" : "no",
              D.SkipReason});
  for (const SuperblockDecision &D : R.Superblocks) {
    std::string Blocks;
    for (uint32_t B : D.Trace)
      Blocks += "^" + std::to_string(B) + " ";
    T.addRow({"superblock", M->function(D.Func)->Name + " " + Blocks,
              std::to_string(D.Count), D.Applied ? "yes" : "no",
              D.SkipReason});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("\ninlined %u call site(s), %u superblock(s) "
              "(%u duplicated, %u merged, %u removed block(s))\n",
              R.Stats.InlinedSites, R.Stats.Superblocks,
              R.Stats.DuplicatedBlocks, R.Stats.MergedBlocks,
              R.Stats.RemovedBlocks);
  std::printf("verify: clean\ninstr-check: clean\nlint: %s\n",
              LintClean ? "clean" : "errors");
  std::printf("result: baseline %lld, optimized %lld (%s)\n",
              static_cast<long long>(Base.ReturnValue),
              static_cast<long long>(OptFast.ReturnValue),
              Agree ? "agree" : "DISAGREE");
  const double Saved =
      Base.Counts.Steps
          ? 100.0 *
                (static_cast<double>(Base.Counts.Steps) -
                 static_cast<double>(OptFast.Counts.Steps)) /
                static_cast<double>(Base.Counts.Steps)
          : 0.0;
  std::printf("steps: baseline %llu -> optimized %llu (%.1f%% saved)\n",
              static_cast<unsigned long long>(Base.Counts.Steps),
              static_cast<unsigned long long>(OptFast.Counts.Steps), Saved);
  std::printf("calls: baseline %llu -> optimized %llu\n",
              static_cast<unsigned long long>(Base.Counts.Calls),
              static_cast<unsigned long long>(OptFast.Counts.Calls));
  return Agree && LintClean ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// olpp analyze: static value-range / summary / feasibility report
//===----------------------------------------------------------------------===//

int cmdAnalyze(const Parsed &P) {
  auto M = compileOrFail(P.File);
  if (!M)
    return 2;
  ModuleSummaries Sums = computeSummaries(*M);

  struct Row {
    const Function *F = nullptr;
    const FunctionSummary *S = nullptr;
    bool HasPaths = false;
    uint64_t NumPaths = 0;
    FunctionInfeasibility FI;
  };
  std::vector<Row> Rows;
  for (const auto &FPtr : M->functions()) {
    const Function &F = *FPtr;
    Row R;
    R.F = &F;
    R.S = &Sums.summary(F.Id);
    if (F.numBlocks() > 0) {
      CfgView Cfg = CfgView::build(F);
      DomTree Dom = DomTree::compute(Cfg);
      LoopInfo LI = LoopInfo::compute(Cfg, Dom);
      std::string Err;
      if (auto PG = PathGraph::build(F, Cfg, LI, PathGraphOptions{}, Err)) {
        R.HasPaths = true;
        R.NumPaths = PG->numPaths();
        R.FI = computeInfeasiblePaths(F, Cfg, *PG, &Sums);
      }
    }
    Rows.push_back(std::move(R));
  }

  auto GlobalNames = [&](const std::vector<uint32_t> &Ids) {
    std::string Out;
    for (uint32_t G : Ids) {
      if (!Out.empty())
        Out += " ";
      Out += G < M->globals().size() ? M->globals()[G].Name
                                     : "g" + std::to_string(G);
    }
    return Out.empty() ? std::string("-") : Out;
  };

  if (P.Json) {
    std::string J = "{\n  \"schema\": \"olpp.analyze/v1\",\n"
                    "  \"module\": \"" + jsonEscape(P.File) + "\",\n"
                    "  \"functions\": [";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      const FunctionSummary &S = *R.S;
      J += I ? ",\n    {" : "\n    {";
      J += "\"name\": \"" + jsonEscape(R.F->Name) + "\"";
      J += ", \"params\": " + std::to_string(R.F->NumParams);
      J += std::string(", \"pure\": ") + (S.SideEffectFree ? "true" : "false");
      J += std::string(", \"recursive\": ") + (S.Recursive ? "true" : "false");
      J += std::string(", \"indirect\": ") +
           (S.TransitivelyIndirect ? "true" : "false");
      auto IdList = [](const std::vector<uint32_t> &Ids) {
        std::string L = "[";
        for (size_t K = 0; K < Ids.size(); ++K) {
          if (K)
            L += ", ";
          L += std::to_string(Ids[K]);
        }
        return L + "]";
      };
      J += ", \"globalsRead\": " + IdList(S.GlobalsRead);
      J += ", \"globalsWritten\": " + IdList(S.GlobalsWritten);
      J += ", \"returnRange\": \"" + jsonEscape(S.Return.str()) + "\"";
      J += std::string(", \"returnsVoid\": ") + (S.ReturnsVoid ? "true" : "false");
      if (R.HasPaths) {
        J += ", \"paths\": " + std::to_string(R.NumPaths);
        J += ", \"infeasiblePaths\": " + std::to_string(R.FI.InfeasibleIds);
        J += std::string(", \"exhausted\": ") +
             (R.FI.Exhausted ? "true" : "false");
        J += ", \"infeasibleIntervals\": [";
        for (size_t K = 0; K < R.FI.Intervals.size(); ++K) {
          if (K)
            J += ", ";
          J += "[" + std::to_string(R.FI.Intervals[K].Lo) + ", " +
               std::to_string(R.FI.Intervals[K].Hi) + "]";
        }
        J += "]";
      } else {
        J += ", \"paths\": null";
      }
      J += "}";
    }
    J += "\n  ]\n}\n";
    std::fputs(J.c_str(), stdout);
    return 0;
  }

  TableWriter T({"Function", "Pure", "Rec", "Globals Read", "Globals Written",
                 "Return Range", "Paths", "Infeasible"});
  for (const Row &R : Rows) {
    const FunctionSummary &S = *R.S;
    std::string Ret = S.ReturnsVoid ? "void" : S.Return.str();
    if (S.TransitivelyIndirect)
      Ret += " (indirect)";
    std::string Paths = R.HasPaths ? std::to_string(R.NumPaths) : "-";
    std::string Inf = "-";
    if (R.HasPaths) {
      Inf = std::to_string(R.FI.InfeasibleIds);
      if (R.FI.Exhausted)
        Inf += "+";
    }
    T.addRow({R.F->Name, S.SideEffectFree ? "yes" : "no",
              S.Recursive ? "yes" : "no", GlobalNames(S.GlobalsRead),
              GlobalNames(S.GlobalsWritten), Ret, Paths, Inf});
  }
  std::fputs(T.renderText().c_str(), stdout);
  uint64_t TotalPaths = 0, TotalInf = 0;
  for (const Row &R : Rows) {
    TotalPaths += R.NumPaths;
    TotalInf += R.FI.InfeasibleIds;
  }
  std::printf("\n%llu of %llu acyclic path id(s) statically infeasible\n",
              static_cast<unsigned long long>(TotalInf),
              static_cast<unsigned long long>(TotalPaths));
  return 0;
}

/// Lints \p M and audits a fully instrumented clone (loop overlap plus
/// interprocedural regions at \p Degree) against its metadata.
std::vector<Diagnostic> lintAndCheck(const Module &M, uint32_t Degree) {
  std::vector<Diagnostic> Diags = lintModule(M);
  std::vector<Diagnostic> Feas = lintInfeasiblePaths(M);
  Diags.insert(Diags.end(), Feas.begin(), Feas.end());

  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = Degree;
  Opts.Interproc = true;
  Opts.InterprocDegree = Degree;
  auto Clone = M.clone();
  ModuleInstrumentation MI = instrumentModule(*Clone, Opts);
  if (!MI.ok()) {
    for (const std::string &E : MI.Errors)
      Diags.push_back(makeDiag(Severity::Error, "instrument", "", E));
    return Diags;
  }
  std::vector<Diagnostic> Verify = verifyModuleDiags(*Clone);
  Diags.insert(Diags.end(), Verify.begin(), Verify.end());
  std::vector<Diagnostic> Check = checkInstrumentation(*Clone, MI);
  Diags.insert(Diags.end(), Check.begin(), Check.end());
  return Diags;
}

int cmdLint(const Parsed &P) {
  std::vector<std::string> Files;
  if (P.All)
    for (const Workload &W : allWorkloads())
      Files.push_back(W.Name);
  else
    Files.push_back(P.File);

  std::vector<Diagnostic> Diags;
  for (const std::string &File : Files) {
    auto M = compileOrFail(File);
    if (!M)
      return 2;
    std::vector<Diagnostic> D = lintAndCheck(*M, P.Degree);
    Diags.insert(Diags.end(), D.begin(), D.end());
  }
  Parsed PL = P; // for lint, --json means the findings themselves
  PL.LintJson |= P.Json;
  emitLintFindings(PL, Diags);
  Severity Min = P.LintWerror ? Severity::Warning : Severity::Error;
  if (anySeverityAtLeast(Diags, Min))
    return 1;
  if (!PL.LintJson)
    std::printf("%zu file(s) clean (%zu finding(s) below threshold)\n",
                Files.size(), Diags.size());
  return 0;
}

//===----------------------------------------------------------------------===//
// olpp profdata: persistent .olpp profile artifacts
//===----------------------------------------------------------------------===//

int profdataFail(const std::vector<Diagnostic> &Diags) {
  std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
  return 1;
}

/// Expands `@listfile` and `-` (stdin) positionals into artifact paths, one
/// per non-blank line, so fleet-sized merges are not bounded by argv limits.
bool expandArtifactInputs(const std::vector<std::string> &Raw,
                          std::vector<std::string> &Out) {
  for (const std::string &R : Raw) {
    if (R == "-" || (R.size() > 1 && R[0] == '@')) {
      std::ifstream FileIn;
      std::istream *In = &std::cin;
      if (R != "-") {
        FileIn.open(R.substr(1));
        if (!FileIn) {
          std::fprintf(stderr, "error: cannot open list file '%s'\n",
                       R.c_str() + 1);
          return false;
        }
        In = &FileIn;
      }
      std::string Line;
      while (std::getline(*In, Line)) {
        while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
          Line.pop_back();
        if (!Line.empty())
          Out.push_back(Line);
      }
    } else {
      Out.push_back(R);
    }
  }
  return true;
}

int cmdProfdataMerge(const Parsed &P) {
  std::vector<std::string> Raw;
  if (!P.File.empty())
    Raw.push_back(P.File);
  Raw.insert(Raw.end(), P.ExtraFiles.begin(), P.ExtraFiles.end());
  std::vector<std::string> Inputs;
  if (!expandArtifactInputs(Raw, Inputs))
    return 2;
  if (Inputs.empty()) {
    std::fprintf(stderr,
                 "error: profdata merge needs at least one input artifact\n");
    return 2;
  }
  if (P.Out.empty()) {
    std::fprintf(stderr, "error: profdata merge requires -o OUT\n");
    return 2;
  }
  std::vector<Diagnostic> Diags;
  ProfileArtifact Acc;
  // Folding from an empty accumulator applies --weight uniformly to every
  // input, the first included.
  for (size_t I = 0; I < Inputs.size(); ++I) {
    ProfileArtifact A;
    if (!readProfileArtifactFile(Inputs[I], A, Diags)) {
      std::fprintf(stderr, "error: reading '%s':\n", Inputs[I].c_str());
      return profdataFail(Diags);
    }
    if (I == 0)
      Acc = makeEmptyLike(A);
    MergeOptions MO;
    MO.Weight = P.Weight;
    if (!mergeArtifacts(Acc, A, Diags, MO)) {
      std::fprintf(stderr, "error: merging '%s':\n", Inputs[I].c_str());
      return profdataFail(Diags);
    }
  }
  std::string Error;
  if (!writeProfileArtifactFile(P.Out, Acc, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("merged %zu artifact(s) into %s: %llu run(s), %llu record(s), "
              "total flow %llu\n",
              Inputs.size(), P.Out.c_str(),
              static_cast<unsigned long long>(Acc.Meta.Runs),
              static_cast<unsigned long long>(Acc.numRecords()),
              static_cast<unsigned long long>(Acc.totalPathCount()));
  return 0;
}

int cmdProfdataShow(const Parsed &P) {
  std::vector<Diagnostic> Diags;
  ProfileArtifact A;
  if (!readProfileArtifactFile(P.File, A, Diags))
    return profdataFail(Diags);

  ArtifactBinding Bind;
  const ArtifactBinding *BindPtr = nullptr;
  if (!P.ModuleFile.empty()) {
    // An explicitly named module must bind, or the report would be built on
    // a mismatched program.
    auto M = compileOrFail(P.ModuleFile);
    if (!M)
      return 1;
    if (!bindArtifactToModule(*M, A, Bind, Diags))
      return profdataFail(Diags);
    BindPtr = &Bind;
  } else if (findWorkload(A.Meta.Workload)) {
    // The artifact records an embedded workload: bind opportunistically so
    // plain `profdata show art.olpp` already reports solver bounds.
    if (auto M = compileOrFail(A.Meta.Workload)) {
      std::vector<Diagnostic> BindDiags;
      if (bindArtifactToModule(*M, A, Bind, BindDiags))
        BindPtr = &Bind;
      else
        std::fprintf(stderr,
                     "note: workload '%s' no longer matches the artifact; "
                     "showing without bounds\n",
                     A.Meta.Workload.c_str());
    }
  }

  ReportOptions RO;
  RO.TopN = P.Top;
  RO.Json = P.Json;
  RO.WithBounds = !P.NoBounds;
  std::fputs(renderArtifactReport(A, BindPtr, RO).c_str(), stdout);
  return 0;
}

int cmdProfdataDiff(const Parsed &P) {
  if (P.ExtraFiles.empty()) {
    std::fprintf(stderr, "error: profdata diff needs two artifacts\n");
    return 2;
  }
  std::vector<Diagnostic> Diags;
  ProfileArtifact A, B;
  if (!readProfileArtifactFile(P.File, A, Diags) ||
      !readProfileArtifactFile(P.ExtraFiles[0], B, Diags))
    return profdataFail(Diags);
  DiffOptions DO;
  DO.TopN = P.Top;
  DO.Json = P.Json;
  std::fputs(
      renderArtifactDiff(A, B, P.File, P.ExtraFiles[0], DO).c_str(),
      stdout);
  return 0;
}

int cmdProfdataExport(const Parsed &P) {
  std::vector<Diagnostic> Diags;
  ProfileArtifact A;
  if (!readProfileArtifactFile(P.File, A, Diags))
    return profdataFail(Diags);
  std::string Json = renderArtifactJson(A);
  if (P.Out.empty()) {
    std::fputs(Json.c_str(), stdout);
    return 0;
  }
  std::ofstream OS(P.Out);
  if (!OS || !(OS << Json)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", P.Out.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", P.Out.c_str());
  return 0;
}

int cmdProfdata(const std::string &Sub, const Parsed &P) {
  if (Sub == "merge")
    return cmdProfdataMerge(P);
  if (P.File.empty())
    return usage();
  if (Sub == "show")
    return cmdProfdataShow(P);
  if (Sub == "diff")
    return cmdProfdataDiff(P);
  if (Sub == "export")
    return cmdProfdataExport(P);
  return usage();
}

int cmdFuzz(const Parsed &P) {
  FuzzOptions FO;
  FO.NumSeeds = P.Seeds;
  FO.Shrink = P.Shrink;
  FO.Jobs = P.Jobs;
  if (P.HasFuzzSeed) {
    FO.SeedBase = P.FuzzSeed;
    FO.NumSeeds = 1;
  }
  DifferentialRunner Runner(FO);
  FuzzReport Rep = Runner.run();
  if (P.LintJson || P.Json)
    std::fputs(renderDiagnosticsJson(Rep.toDiagnostics()).c_str(), stdout);
  else
    std::fputs(Rep.str().c_str(), stdout);
  return Rep.ok() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// olpp serve / serve-bench: fleet-scale streaming profile aggregation
//===----------------------------------------------------------------------===//

volatile std::sig_atomic_t ServeStopFlag = 0;
void serveStopHandler(int) { ServeStopFlag = 1; }

int cmdServe(const Parsed &P) {
  serve::ServeConfig SC;
  if (P.Shards)
    SC.Shards = P.Shards;
  serve::ShardStore Store(SC);
  TaskPool Pool(P.Jobs);
  serve::Server Server(Store, Pool,
                       P.Port < 0 ? 0 : static_cast<uint16_t>(P.Port));
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  // The "listening on" line is the readiness signal scripts poll for; flush
  // so it is visible even through a pipe.
  std::printf("olpp serve: listening on 127.0.0.1:%u (shards=%u, jobs=%u)\n",
              static_cast<unsigned>(Server.port()),
              static_cast<unsigned>(SC.Shards), Pool.numWorkers());
  std::fflush(stdout);
  ServeStopFlag = 0;
  std::signal(SIGINT, serveStopHandler);
  std::signal(SIGTERM, serveStopHandler);
  while (!ServeStopFlag)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Server.stop();
  std::printf("olpp serve: shut down; %s\n", Store.statsJson().c_str());
  return 0;
}

/// Loads the positional .olpp files and expands each into \p Derive weighted
/// variants (weight i scales every counter and sums Runs i times, so every
/// variant serializes to distinct bytes) — a corpus big enough to exercise
/// the shard trees without shipping thousands of files.
bool buildUploadCorpus(const std::vector<std::string> &Files, unsigned Derive,
                       std::vector<std::string> &Corpus) {
  if (Derive == 0)
    Derive = 1;
  for (const std::string &F : Files) {
    ProfileArtifact A;
    std::vector<Diagnostic> Diags;
    if (!readProfileArtifactFile(F, A, Diags)) {
      std::fprintf(stderr, "error: reading '%s':\n", F.c_str());
      std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
      return false;
    }
    Corpus.push_back(serializeProfileArtifact(A));
    for (unsigned V = 2; V <= Derive; ++V) {
      ProfileArtifact W = makeEmptyLike(A);
      MergeOptions MO;
      MO.Weight = V;
      if (!mergeArtifacts(W, A, Diags, MO)) {
        std::fprintf(stderr, "error: deriving variant %u of '%s':\n", V,
                     F.c_str());
        std::fputs(renderDiagnosticsText(Diags).c_str(), stderr);
        return false;
      }
      Corpus.push_back(serializeProfileArtifact(W));
    }
  }
  return true;
}

int cmdServeBench(const Parsed &P) {
  if (P.Port < 0) {
    std::fprintf(stderr, "error: serve-bench requires --port P\n");
    return 2;
  }
  std::vector<std::string> Raw;
  if (!P.File.empty())
    Raw.push_back(P.File);
  Raw.insert(Raw.end(), P.ExtraFiles.begin(), P.ExtraFiles.end());
  std::vector<std::string> Files;
  if (!expandArtifactInputs(Raw, Files))
    return 2;
  if (Files.empty()) {
    std::fprintf(stderr,
                 "error: serve-bench needs at least one input artifact\n");
    return 2;
  }
  std::vector<std::string> Corpus;
  if (!buildUploadCorpus(Files, P.Derive, Corpus))
    return 1;

  serve::FleetOptions FO;
  FO.Host = P.Host;
  FO.Port = static_cast<uint16_t>(P.Port);
  FO.Clients = P.Clients ? P.Clients : 1;
  FO.UploadsPerClient = P.Uploads ? P.Uploads : 1;
  FO.Verify = !P.NoVerify;
  serve::FleetReport R;
  std::string Err;
  if (!serve::runUploadFleet(FO, Corpus, R, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  double Secs = R.WallSeconds > 0 ? R.WallSeconds : 1e-9;
  std::printf("serve-bench: %llu upload(s) (%llu rejected) from %u client(s) "
              "in %.3fs\n",
              static_cast<unsigned long long>(R.Uploads),
              static_cast<unsigned long long>(R.Rejected), FO.Clients,
              R.WallSeconds);
  std::printf("  throughput: %.0f uploads/s, %.2f MB/s\n", R.Uploads / Secs,
              R.Bytes / Secs / (1024.0 * 1024.0));
  std::printf("  latency us: p50 %.0f  p95 %.0f  p99 %.0f\n",
              serve::percentileUs(R.LatenciesUs, 50.0),
              serve::percentileUs(R.LatenciesUs, 95.0),
              serve::percentileUs(R.LatenciesUs, 99.0));
  if (FO.Verify)
    std::printf("  snapshot: epoch %llu, fingerprint %016llx, %llu bytes, "
                "bit-identity %s\n",
                static_cast<unsigned long long>(R.SnapshotEpoch),
                static_cast<unsigned long long>(R.Fingerprint),
                static_cast<unsigned long long>(R.SnapshotBytes),
                R.BitIdentity ? "OK" : "FAILED");
  return 0;
}

int cmdWorkloads() {
  TableWriter T({"Name", "Precision Args", "Overhead Args"});
  for (const Workload &W : allWorkloads()) {
    auto Fmt = [](const std::vector<int64_t> &A) {
      std::string S;
      for (int64_t V : A)
        S += std::to_string(V) + " ";
      return S;
    };
    T.addRow({W.Name, Fmt(W.PrecisionArgs), Fmt(W.OverheadArgs)});
  }
  std::fputs(T.renderText().c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "workloads")
    return cmdWorkloads();
  if (Cmd == "profdata") {
    if (Argc < 3)
      return usage();
    Parsed PD = parseArgs(Argc, Argv, 3);
    return PD.Bad ? usage() : cmdProfdata(Argv[2], PD);
  }
  Parsed P = parseArgs(Argc, Argv, 2);
  if (Cmd == "fuzz")
    return P.Bad ? usage() : cmdFuzz(P);
  if (Cmd == "serve")
    return P.Bad ? usage() : cmdServe(P);
  if (Cmd == "serve-bench")
    return P.Bad ? usage() : cmdServeBench(P);
  if (!P.Ok)
    return usage();
  if (Cmd == "run")
    return cmdRun(P);
  if (Cmd == "ir")
    return cmdIr(P);
  if (Cmd == "profile")
    return cmdProfile(P);
  if (Cmd == "estimate")
    return cmdEstimate(P);
  if (Cmd == "opt")
    return cmdOpt(P);
  if (Cmd == "analyze")
    return cmdAnalyze(P);
  if (Cmd == "lint")
    return cmdLint(P);
  return usage();
}
