//===--- Fuzzer.cpp - Differential fuzzing of the profiling stack --------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "analysis/Feasibility.h"
#include "analysis/Summary.h"
#include "driver/Pipeline.h"
#include "estimate/Estimators.h"
#include "estimate/IntervalSolver.h"
#include "frontend/Compiler.h"
#include "fuzz/Shrinker.h"
#include "interp/Interpreter.h"
#include "interp/TraceOpt.h"
#include "ir/Module.h"
#include "opt/Optimizer.h"
#include "profdata/Merge.h"
#include "profdata/ProfData.h"
#include "profile/InfeasiblePaths.h"
#include "serve/Session.h"
#include "serve/ShardStore.h"
#include "profile/InstrCheck.h"
#include "profile/ProfileDecode.h"
#include "support/Rng.h"
#include "support/TaskPool.h"
#include "wpp/ExpectedCounters.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace olpp;

const char *olpp::fuzzOracleName(FuzzOracle O) {
  switch (O) {
  case FuzzOracle::Generate:
    return "generate";
  case FuzzOracle::EngineDiff:
    return "engine-diff";
  case FuzzOracle::CounterStore:
    return "counter-store";
  case FuzzOracle::Decode:
    return "decode";
  case FuzzOracle::SolverDiff:
    return "solver-diff";
  case FuzzOracle::Bounds:
    return "bounds";
  case FuzzOracle::Abort:
    return "abort";
  case FuzzOracle::Roundtrip:
    return "roundtrip";
  case FuzzOracle::Feasibility:
    return "feasibility";
  case FuzzOracle::Trace:
    return "trace";
  case FuzzOracle::Opt:
    return "opt";
  case FuzzOracle::Serve:
    return "serve";
  }
  return "?";
}

namespace {

std::string describeInstrOpts(const InstrumentOptions &O) {
  std::string S;
  if (O.Interproc)
    S = "interproc k=" + std::to_string(O.InterprocDegree);
  else if (O.LoopOverlap)
    S = "overlap k=" + std::to_string(O.LoopDegree);
  else
    S = "plain-bl";
  if (O.LoopOverlap && O.Interproc)
    S += " loop-k=" + std::to_string(O.LoopDegree);
  S += O.UseChords ? " chords" : " naive";
  return S;
}

bool keyLess(const InterprocKey &A, const InterprocKey &B) {
  if (A.Callee != B.Callee)
    return A.Callee < B.Callee;
  if (A.CallSite != B.CallSite)
    return A.CallSite < B.CallSite;
  if (A.Inner != B.Inner)
    return A.Inner < B.Inner;
  return A.Outer < B.Outer;
}

std::string renderKey(const InterprocKey &K) {
  return "(callee=" + std::to_string(K.Callee) +
         " cs=" + std::to_string(K.CallSite) +
         " inner=" + std::to_string(K.Inner) +
         " outer=" + std::to_string(K.Outer) + ")";
}

/// First mismatch between two path-count maps, or "" if equal. Keys are
/// sorted so the report is deterministic.
std::string diffPathMaps(const PathCounterStore::Map &A,
                         const PathCounterStore::Map &B,
                         const std::string &What) {
  std::vector<int64_t> Keys;
  for (const auto &KV : A)
    Keys.push_back(KV.first);
  for (const auto &KV : B)
    Keys.push_back(KV.first);
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
  for (int64_t K : Keys) {
    auto IA = A.find(K), IB = B.find(K);
    uint64_t VA = IA == A.end() ? 0 : IA->second;
    uint64_t VB = IB == B.end() ? 0 : IB->second;
    if (VA != VB)
      return What + ": path id " + std::to_string(K) + " counts " +
             std::to_string(VA) + " vs " + std::to_string(VB);
  }
  return "";
}

std::string diffInterprocMaps(const FlatInterprocTable::Map &A,
                              const FlatInterprocTable::Map &B,
                              const std::string &What) {
  std::vector<InterprocKey> Keys;
  for (const auto &KV : A)
    Keys.push_back(KV.first);
  for (const auto &KV : B)
    Keys.push_back(KV.first);
  std::sort(Keys.begin(), Keys.end(), keyLess);
  Keys.erase(std::unique(Keys.begin(), Keys.end(),
                         [](const InterprocKey &X, const InterprocKey &Y) {
                           return X == Y;
                         }),
             Keys.end());
  for (const InterprocKey &K : Keys) {
    auto IA = A.find(K), IB = B.find(K);
    uint64_t VA = IA == A.end() ? 0 : IA->second;
    uint64_t VB = IB == B.end() ? 0 : IB->second;
    if (VA != VB)
      return What + ": tuple " + renderKey(K) + " counts " +
             std::to_string(VA) + " vs " + std::to_string(VB);
  }
  return "";
}

/// The raw counters of one runtime, lifted to maps so differently
/// represented runtimes (dense vs spill, flat table vs hash map) compare by
/// value.
struct CounterSnapshot {
  std::vector<PathCounterStore::Map> PathCounts;
  FlatInterprocTable::Map TypeI, TypeII;

  static CounterSnapshot of(const ProfileRuntime &P) {
    CounterSnapshot S;
    for (const auto &Store : P.PathCounts)
      S.PathCounts.push_back(Store.toMap());
    S.TypeI = P.TypeICounts.toMap();
    S.TypeII = P.TypeIICounts.toMap();
    return S;
  }

  /// "" when equal, else the first mismatch.
  std::string diff(const CounterSnapshot &O, const std::string &AName,
                   const std::string &BName) const {
    std::string Tag = AName + " vs " + BName;
    size_t N = std::max(PathCounts.size(), O.PathCounts.size());
    static const PathCounterStore::Map EmptyPaths;
    for (size_t F = 0; F < N; ++F) {
      const auto &A = F < PathCounts.size() ? PathCounts[F] : EmptyPaths;
      const auto &B = F < O.PathCounts.size() ? O.PathCounts[F] : EmptyPaths;
      std::string D =
          diffPathMaps(A, B, Tag + ", function " + std::to_string(F));
      if (!D.empty())
        return D;
    }
    std::string D = diffInterprocMaps(TypeI, O.TypeI, Tag + ", Type I");
    if (!D.empty())
      return D;
    return diffInterprocMaps(TypeII, O.TypeII, Tag + ", Type II");
  }
};

/// Applies the injected defect to a snapshot (the mutation test's hook;
/// FaultKind::None leaves it untouched).
void applyFault(FaultKind Fault, CounterSnapshot &S) {
  switch (Fault) {
  case FaultKind::None:
    return;
  case FaultKind::DropTypeI: {
    if (S.TypeI.empty())
      return;
    auto Min = S.TypeI.begin();
    for (auto It = S.TypeI.begin(); It != S.TypeI.end(); ++It)
      if (keyLess(It->first, Min->first))
        Min = It;
    S.TypeI.erase(Min);
    return;
  }
  case FaultKind::SkewPathCounter: {
    for (auto &M : S.PathCounts) {
      if (M.empty())
        continue;
      auto Min = M.begin();
      for (auto It = M.begin(); It != M.end(); ++It)
        if (It->first < Min->first)
          Min = It;
      ++Min->second;
      return;
    }
    return;
  }
  case FaultKind::SkewArtifactRoundtrip:
  case FaultKind::ArtifactCrcOff:
  case FaultKind::MisclassifyFeasible:
  case FaultKind::MisinlineCallee:
  case FaultKind::DropTraceGuard:
  case FaultKind::DropFrameAck:
    return; // applied inside their own oracles, not here
  }
}

bool isFuelError(const std::string &E) {
  return E.find("fuel exhausted") != std::string::npos;
}

/// RAII restore of the thread's interval-solver implementation.
struct SolverImplGuard {
  SolverImpl Saved;
  SolverImplGuard() : Saved(threadSolverImpl()) {}
  ~SolverImplGuard() { setThreadSolverImpl(Saved); }
};

} // namespace

// --- report rendering ----------------------------------------------------

std::vector<Diagnostic> FuzzReport::toDiagnostics() const {
  std::vector<Diagnostic> Diags;
  for (const FuzzFailure &F : Failures) {
    std::string Msg = F.Detail + " [" + describeGeneratorOptions(F.GenOpts) +
                      "; " + describeInstrOpts(F.InstrOpts) +
                      "]; replay: olpp fuzz --seed " +
                      std::to_string(F.MasterSeed);
    Diags.push_back(makeDiag(Severity::Error,
                             std::string("fuzz-") + fuzzOracleName(F.Oracle),
                             "", std::move(Msg)));
  }
  Diags.push_back(makeDiag(
      Severity::Note, "fuzz", "",
      std::to_string(SeedsRun) + " seed(s): " + std::to_string(Clean) +
          " clean, " + std::to_string(Skipped) + " skipped (step budget), " +
          std::to_string(Failures.size()) + " failing"));
  return Diags;
}

std::string FuzzReport::str() const {
  std::string Out;
  for (const FuzzFailure &F : Failures) {
    Out += "FAILURE seed " + std::to_string(F.MasterSeed) + " [" +
           fuzzOracleName(F.Oracle) + "]\n";
    Out += "  " + F.Detail + "\n";
    Out += "  setup: " + describeGeneratorOptions(F.GenOpts) + "; " +
           describeInstrOpts(F.InstrOpts) + "; args";
    for (int64_t A : F.Args)
      Out += " " + std::to_string(A);
    Out += "\n";
    if (F.Shrunk)
      Out += "  shrunk to " + std::to_string(countCodeLines(F.Source)) +
             " line(s) from " +
             std::to_string(countCodeLines(F.OriginalSource)) + ":\n";
    else
      Out += "  program:\n";
    size_t Pos = 0;
    while (Pos < F.Source.size()) {
      size_t Eol = F.Source.find('\n', Pos);
      if (Eol == std::string::npos)
        Eol = F.Source.size();
      Out += "    " + F.Source.substr(Pos, Eol - Pos) + "\n";
      Pos = Eol + 1;
    }
  }
  Out += std::to_string(SeedsRun) + " seed(s): " + std::to_string(Clean) +
         " clean, " + std::to_string(Skipped) + " skipped (step budget), " +
         std::to_string(Failures.size()) + " failing\n";
  return Out;
}

// --- the runner ----------------------------------------------------------

DifferentialRunner::CaseSetup
DifferentialRunner::deriveSetup(uint64_t MasterSeed) {
  CaseSetup S;
  S.GenOpts = sampleGeneratorOptions(MasterSeed);
  // A distinct stream from the generator's so adding draws to either side
  // never perturbs the other. Fixed draw order, as in sampleGeneratorOptions.
  Rng R(MasterSeed ^ 0x9E3779B97F4A7C15ULL);
  S.Args = {static_cast<int64_t>(R.nextInRange(0, 9)),
            static_cast<int64_t>(R.nextInRange(0, 9))};
  uint64_t Mode = R.nextBelow(4);
  InstrumentOptions &O = S.InstrOpts;
  if (Mode == 1 || Mode == 2) {
    O.LoopOverlap = true;
    O.LoopDegree = static_cast<uint32_t>(R.nextInRange(0, 3));
  } else if (Mode == 3) {
    O.Interproc = true;
    O.InterprocDegree = static_cast<uint32_t>(R.nextInRange(0, 2));
    O.LoopOverlap = R.chance(1, 2);
    O.LoopDegree = O.LoopOverlap ? static_cast<uint32_t>(R.nextInRange(0, 2))
                                 : 0;
  }
  O.UseChords = R.chance(1, 2);
  return S;
}

DifferentialRunner::CaseStatus
DifferentialRunner::checkCase(uint64_t MasterSeed,
                              FuzzFailure *Failure) const {
  CaseSetup Setup = deriveSetup(MasterSeed);
  std::string Source = generateProgram(Setup.GenOpts);
  CaseStatus St = checkProgram(Source, Setup, Failure);
  if (St == CaseStatus::Failed)
    Failure->MasterSeed = MasterSeed;
  return St;
}

namespace {

/// Runs the abort oracle: under \p Budget steps the instrumented program
/// aborts mid-run; both engines must fail identically, and a runtime reused
/// across two aborted runs must equal two fresh aborted runtimes merged.
/// Returns "" on success, else the mismatch.
std::string checkAbortConsistency(const Module &Base,
                                  const DifferentialRunner::CaseSetup &Setup,
                                  uint64_t Budget) {
  std::unique_ptr<Module> Clone = Base.clone();
  ModuleInstrumentation MI = instrumentModule(*Clone, Setup.InstrOpts);
  if (!MI.ok())
    return "instrumentation failed: " + MI.Errors[0];
  const Function *Entry = Clone->findFunction("main");
  if (!Entry)
    return "no main";

  auto configure = [&](ProfileRuntime &P) {
    for (uint32_t F = 0; F < Clone->numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  };

  RunConfig RC;
  RC.MaxSteps = Budget;

  ProfileRuntime PRef(Clone->numFunctions());
  configure(PRef);
  RC.Engine = EngineKind::Reference;
  Interpreter IRef(*Clone, &PRef);
  RunResult RR = IRef.run(*Entry, Setup.Args, RC);

  ProfileRuntime PFast(Clone->numFunctions());
  configure(PFast);
  RC.Engine = EngineKind::Fast;
  Interpreter IFast(*Clone, &PFast);
  RunResult RF = IFast.run(*Entry, Setup.Args, RC);

  if (RR.Ok != RF.Ok)
    return "aborted-run status diverges: reference " +
           (RR.Ok ? std::string("ok") : "'" + RR.Error + "'") + ", fast " +
           (RF.Ok ? std::string("ok") : "'" + RF.Error + "'");
  if (!RR.Ok && RR.Error != RF.Error)
    return "abort error diverges: reference '" + RR.Error + "' vs fast '" +
           RF.Error + "'";
  if (!(RR.Counts == RF.Counts))
    return "aborted-run dynamic counts diverge (steps " +
           std::to_string(RR.Counts.Steps) + " vs " +
           std::to_string(RF.Counts.Steps) + ")";
  std::string D = CounterSnapshot::of(PRef).diff(CounterSnapshot::of(PFast),
                                                 "aborted reference",
                                                 "aborted fast");
  if (!D.empty())
    return D;

  // Runtime reuse across aborted runs: the abort can strand hand-off state
  // (e.g. fuel exhausted between a call probe and the frame push); the next
  // run's resetTransient must fully recover. Two aborted runs into one
  // runtime must therefore equal two fresh single-run runtimes merged.
  ProfileRuntime PReused(Clone->numFunctions());
  configure(PReused);
  Interpreter IReuse(*Clone, &PReused);
  IReuse.run(*Entry, Setup.Args, RC);
  PReused.resetTransient();
  if (!PReused.transientClean())
    return "resetTransient left hand-off state live";
  IReuse.resetGlobals();
  IReuse.run(*Entry, Setup.Args, RC);

  ProfileRuntime Expected(Clone->numFunctions());
  configure(Expected);
  Expected.mergeFrom(PFast);
  Expected.mergeFrom(PFast);
  return CounterSnapshot::of(PReused).diff(CounterSnapshot::of(Expected),
                                           "reused runtime (2 aborted runs)",
                                           "fresh runtimes merged");
}

/// Runs the trace oracle: the fast engine with the tracing tier forced hot
/// (recording threshold 1, so even small generated loops record and execute
/// traces; link threshold 1, so the very first side-exit deopt records a
/// bridge) against the reference engine, across three phases:
///
///   traced          — full budget, trace-local optimizer on
///   abort-mid-trace — fuel boundary at \p HalfBudget (0 = skip), so the
///                     abort can land inside a pass, between passes, or in
///                     the middle of a bridge recording
///   traced-noopt    — full budget with the optimizer off (verbatim traces),
///                     isolating executor bugs from optimizer bugs
///
/// The fast runs carry the static feasibility facts of the instrumented
/// module, exercising the bump cross-check. Return value, error, dynamic
/// counts and every raw counter must match bit for bit. \p Fault plants
/// FaultKind::DropTraceGuard into the optimizer so the mutation test can
/// prove this oracle catches a miscompiled trace. Returns "" on success,
/// else the mismatch.
std::string checkTraceConsistency(const Module &Base,
                                  const DifferentialRunner::CaseSetup &Setup,
                                  uint64_t Budget, uint64_t HalfBudget,
                                  FaultKind Fault) {
  std::unique_ptr<Module> Clone = Base.clone();
  ModuleInstrumentation MI = instrumentModule(*Clone, Setup.InstrOpts);
  if (!MI.ok())
    return "instrumentation failed: " + MI.Errors[0];
  const Function *Entry = Clone->findFunction("main");
  if (!Entry)
    return "no main";

  auto configure = [&](ProfileRuntime &P) {
    for (uint32_t F = 0; F < Clone->numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  };

  // Static path knowledge for the optimizer's bump cross-check, computed
  // the same way oracle 8 does (instrumentation is deterministic, so the
  // clone's path ids match the analysis').
  TraceFeasibilityFacts Facts;
  {
    ModuleSummaries Sums = computeSummaries(*Clone);
    for (uint32_t F = 0; F < Clone->numFunctions(); ++F) {
      const FunctionInstrumentation &FI = MI.Funcs[F];
      if (!FI.PG || !FI.Cfg)
        continue;
      FunctionInfeasibility Inf =
          computeInfeasiblePaths(*Clone->function(F), *FI.Cfg, *FI.PG, &Sums);
      if (Inf.Intervals.empty())
        continue;
      std::vector<TraceFeasibilityFacts::Interval> Iv;
      Iv.reserve(Inf.Intervals.size());
      for (const auto &I : Inf.Intervals)
        Iv.push_back({I.Lo, I.Hi});
      Facts.PerFunc.emplace_back(F, std::move(Iv));
    }
  }

  for (int Phase = 0; Phase < 3; ++Phase) {
    const uint64_t Steps = Phase == 1 ? HalfBudget : Budget;
    if (Phase == 1 && HalfBudget == 0)
      continue;
    const char *What = Phase == 0   ? "traced"
                       : Phase == 1 ? "abort-mid-trace"
                                    : "traced-noopt";

    RunConfig RC;
    RC.MaxSteps = Steps;
    RC.Engine = EngineKind::Reference;
    ProfileRuntime PRef(Clone->numFunctions());
    configure(PRef);
    Interpreter IRef(*Clone, &PRef);
    RunResult RR = IRef.run(*Entry, Setup.Args, RC);

    RC.Engine = EngineKind::Fast;
    RC.EnableTraces = true;
    RC.TraceThreshold = 1;
    RC.TraceLinkThreshold = 1;
    RC.EnableTraceOpt = Phase != 2;
    RC.TraceOptDropGuardFault =
        Phase != 2 && Fault == FaultKind::DropTraceGuard;
    RC.TraceFacts = &Facts;
    ProfileRuntime PFast(Clone->numFunctions());
    configure(PFast);
    Interpreter IFast(*Clone, &PFast);
    RunResult RF = IFast.run(*Entry, Setup.Args, RC);

    if (RR.Ok != RF.Ok)
      return std::string(What) + " status diverges: reference " +
             (RR.Ok ? std::string("ok") : "'" + RR.Error + "'") + ", fast " +
             (RF.Ok ? std::string("ok") : "'" + RF.Error + "'");
    if (!RR.Ok && RR.Error != RF.Error)
      return std::string(What) + " error diverges: reference '" + RR.Error +
             "' vs fast '" + RF.Error + "'";
    if (RR.Ok && RR.ReturnValue != RF.ReturnValue)
      return std::string(What) + " return value diverges: reference " +
             std::to_string(RR.ReturnValue) + " vs fast " +
             std::to_string(RF.ReturnValue);
    if (!(RR.Counts == RF.Counts))
      return std::string(What) + " dynamic counts diverge (steps " +
             std::to_string(RR.Counts.Steps) + " vs " +
             std::to_string(RF.Counts.Steps) + ")";
    std::string D = CounterSnapshot::of(PRef).diff(
        CounterSnapshot::of(PFast), (std::string(What) + " reference").c_str(),
        (std::string(What) + " fast").c_str());
    if (!D.empty())
      return D;
  }
  return "";
}

/// FaultKind::SkewArtifactRoundtrip's hook: perturbs one decoded counter
/// between the read and the comparison so artifactsEqual must flag the
/// mismatch (proves the round-trip oracle has teeth).
void skewArtifact(ProfileArtifact &A) {
  for (auto &S : A.Counters.PathCounts) {
    if (S.empty())
      continue;
    int64_t Id = 0;
    for (const auto &E : S) {
      Id = E.first;
      break;
    }
    S.add(Id, 1);
    return;
  }
  ++A.Meta.Runs; // no path counters at all: perturb provenance instead
}

/// The mutation sub-oracle: deterministic single-bit flips, strict-prefix
/// truncations and crafted checksum-field corruptions of a serialized
/// artifact, every one of which the checked reader must reject. Positions
/// derive from an FNV-1a hash of the bytes, so they vary with program shape
/// yet replay exactly per seed. Under FaultKind::ArtifactCrcOff the reader
/// runs with CRC verification disabled — the checksum-field mutants are then
/// silently accepted, which is exactly the defect this oracle exists to
/// catch. Returns "" on success, else the first silent acceptance.
std::string checkArtifactMutations(const std::string &Bytes, FaultKind Fault) {
  ProfDataReadOptions RO;
  RO.VerifyCrc = Fault != FaultKind::ArtifactCrcOff;
  auto accepted = [&](const std::string &Mut) {
    ProfileArtifact Out;
    std::vector<Diagnostic> Diags;
    return readProfileArtifactBytes(Mut, Out, Diags, RO);
  };

  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes)
    H = (H ^ C) * 0x100000001b3ULL;

  // 12 single-bit flips. Every payload byte sits under a CRC-32 (which
  // catches all single-bit errors), the header is self-checksummed, and a
  // corrupted section framing byte can only fail towards truncation or
  // missing/duplicate-section errors — so none of these may ever decode.
  for (unsigned I = 0; I < 12; ++I) {
    uint64_t X = H + 0x9E3779B97F4A7C15ULL * (I + 1);
    X ^= X >> 29;
    X *= 0xBF58476D1CE4E5B9ULL;
    X ^= X >> 32;
    size_t Pos = static_cast<size_t>(X % Bytes.size());
    unsigned Bit = static_cast<unsigned>((X >> 8) % 8);
    std::string Mut = Bytes;
    Mut[Pos] = static_cast<char>(Mut[Pos] ^ (1u << Bit));
    if (accepted(Mut))
      return "mutated artifact accepted: bit " + std::to_string(Bit) +
             " flipped at byte " + std::to_string(Pos) + " of " +
             std::to_string(Bytes.size());
  }

  // 4 strict-prefix truncations (length < full size, possibly 0).
  for (unsigned I = 0; I < 4; ++I) {
    uint64_t X = H + 0xD1B54A32D192ED03ULL * (I + 1);
    X ^= X >> 27;
    X *= 0x94D049BB133111EBULL;
    X ^= X >> 31;
    size_t Len = static_cast<size_t>(X % Bytes.size());
    if (accepted(Bytes.substr(0, Len)))
      return "truncated artifact accepted: prefix of " + std::to_string(Len) +
             " of " + std::to_string(Bytes.size()) + " byte(s)";
  }

  // Crafted checksum-field flips: the stored header CRC (byte 12) and the
  // first section's stored payload CRC. These leave every payload byte
  // intact, so only CRC verification can catch them.
  {
    std::string Mut = Bytes;
    Mut[12] = static_cast<char>(Mut[12] ^ 0x01);
    if (accepted(Mut))
      return "artifact with corrupted header checksum accepted (CRC "
             "verification disabled?)";
  }
  size_t LenOff = profdata::HeaderSize + 1;
  if (LenOff + 8 <= Bytes.size()) {
    uint64_t PayLen = 0;
    for (unsigned I = 0; I < 8; ++I)
      PayLen |= uint64_t(uint8_t(Bytes[LenOff + I])) << (8 * I);
    size_t CrcOff = LenOff + 8 + PayLen;
    if (CrcOff + 4 <= Bytes.size()) {
      std::string Mut = Bytes;
      Mut[CrcOff] = static_cast<char>(Mut[CrcOff] ^ 0x40);
      if (accepted(Mut))
        return "artifact with corrupted section checksum accepted (CRC "
               "verification disabled?)";
    }
  }
  return "";
}

} // namespace

DifferentialRunner::CaseStatus
DifferentialRunner::checkProgram(const std::string &Source,
                                 const CaseSetup &Setup,
                                 FuzzFailure *Failure) const {
  auto Fail = [&](FuzzOracle O, std::string Detail) {
    Failure->Oracle = O;
    Failure->Detail = std::move(Detail);
    Failure->GenOpts = Setup.GenOpts;
    Failure->InstrOpts = Setup.InstrOpts;
    Failure->Args = Setup.Args;
    Failure->Source = Source;
    return CaseStatus::Failed;
  };

  CompileResult CR = compileMiniC(Source);
  if (!CR.ok())
    return Fail(FuzzOracle::Generate,
                "generated program does not compile: " + CR.diagText());

  // Step-budget probe on the pristine program. Programs that exhaust it
  // still exercise the abort oracle but prove nothing about terminating
  // runs, so the remaining oracles are skipped.
  uint64_t ProbeSteps = 0;
  {
    Interpreter I(*CR.M);
    RunConfig RC;
    RC.MaxSteps = Opts.MaxSteps;
    const Function *Entry = CR.M->findFunction("main");
    if (!Entry)
      return Fail(FuzzOracle::Generate, "generated program has no main");
    RunResult R = I.run(*Entry, Setup.Args, RC);
    if (!R.Ok && isFuelError(R.Error)) {
      std::string D = checkAbortConsistency(*CR.M, Setup, Opts.MaxSteps);
      if (!D.empty())
        return Fail(FuzzOracle::Abort, D);
      return CaseStatus::Skipped;
    }
    if (!R.Ok)
      return Fail(FuzzOracle::Generate,
                  "uninstrumented run failed: " + R.Error);
    ProbeSteps = R.Counts.Steps;
  }

  // Both pipelines: baseline traced run + instrumented run, one per engine.
  PipelineConfig C;
  C.Instr = Setup.InstrOpts;
  C.Args = Setup.Args;
  C.Run.MaxSteps = Opts.MaxSteps * 8;
  C.Run.Engine = EngineKind::Reference;
  PipelineResult RRef = runPipeline(*CR.M, C);
  C.Run.Engine = EngineKind::Fast;
  PipelineResult RFast = runPipeline(*CR.M, C);

  bool RefFuel = !RRef.ok() && isFuelError(RRef.Errors[0]);
  bool FastFuel = !RFast.ok() && isFuelError(RFast.Errors[0]);
  if (RefFuel != FastFuel)
    return Fail(FuzzOracle::EngineDiff,
                "one engine ran out of fuel, the other did not (reference: " +
                    (RRef.ok() ? "ok" : RRef.Errors[0]) + "; fast: " +
                    (RFast.ok() ? "ok" : RFast.Errors[0]) + ")");
  if (RefFuel && FastFuel)
    return CaseStatus::Skipped; // probes pushed the program over budget
  if (!RRef.ok() || !RFast.ok())
    return Fail(FuzzOracle::EngineDiff,
                "pipeline failed (reference: " +
                    (RRef.ok() ? "ok" : RRef.Errors[0]) + "; fast: " +
                    (RFast.ok() ? "ok" : RFast.Errors[0]) + ")");

  // Oracle 1: engine differential, observables bit for bit.
  CounterSnapshot SRef = CounterSnapshot::of(*RRef.Prof);
  CounterSnapshot SFast = CounterSnapshot::of(*RFast.Prof);
  applyFault(Opts.Fault, SFast);
  if (RRef.ReturnValue != RFast.ReturnValue)
    return Fail(FuzzOracle::EngineDiff,
                "return value diverges: reference " +
                    std::to_string(RRef.ReturnValue) + " vs fast " +
                    std::to_string(RFast.ReturnValue));
  if (!(RRef.BaseCounts == RFast.BaseCounts))
    return Fail(FuzzOracle::EngineDiff, "baseline dynamic counts diverge");
  if (!(RRef.InstrCounts == RFast.InstrCounts))
    return Fail(FuzzOracle::EngineDiff,
                "instrumented dynamic counts diverge (steps " +
                    std::to_string(RRef.InstrCounts.Steps) + " vs " +
                    std::to_string(RFast.InstrCounts.Steps) + ")");
  if (std::string D = SRef.diff(SFast, "reference", "fast"); !D.empty())
    return Fail(FuzzOracle::EngineDiff, D);

  // Oracle 2: counter-store differential. Re-run the instrumented module
  // into an *unconfigured* runtime (pure spill-map representation) and
  // compare against the dense/flat stores of the pipeline run.
  {
    ProfileRuntime PMap(RFast.InstrModule->numFunctions());
    Interpreter I(*RFast.InstrModule, &PMap);
    const Function *Entry = RFast.InstrModule->findFunction("main");
    RunConfig RC;
    RC.MaxSteps = Opts.MaxSteps * 8;
    RunResult R = I.run(*Entry, Setup.Args, RC);
    if (!R.Ok)
      return Fail(FuzzOracle::CounterStore,
                  "map-runtime re-run failed: " + R.Error);
    std::string D = SFast.diff(CounterSnapshot::of(PMap), "dense stores",
                               "map stores");
    if (!D.empty())
      return Fail(FuzzOracle::CounterStore, D);
  }

  // Oracle 3: decode. Raw counters must equal the counters recomputed by
  // definition from the control-flow trace, and the checked profile decoder
  // must accept every record the runtime actually produced.
  {
    ExpectedCounters EC = computeExpectedCounters(RFast.MI, RFast.GT);
    CounterSnapshot SExp;
    SExp.PathCounts = EC.PathCounts;
    SExp.TypeI = EC.TypeICounts;
    SExp.TypeII = EC.TypeIICounts;
    std::string D = SFast.diff(SExp, "profiled", "trace-derived");
    if (!D.empty())
      return Fail(FuzzOracle::Decode, D);

    for (uint32_t F = 0; F < RFast.Prof->PathCounts.size(); ++F) {
      if (!RFast.MI.Funcs[F].PG)
        continue;
      std::vector<ProfileRecord> Records;
      for (const auto &KV : SFast.PathCounts[F])
        Records.push_back({KV.first, KV.second});
      std::sort(Records.begin(), Records.end(),
                [](const ProfileRecord &A, const ProfileRecord &B) {
                  return A.Id < B.Id;
                });
      std::vector<Diagnostic> Diags;
      std::vector<DecodedEntry> Entries =
          decodeProfileChecked(*RFast.MI.Funcs[F].PG, Records, Diags);
      if (!Diags.empty())
        return Fail(FuzzOracle::Decode,
                    "checked decoder rejected live records of function " +
                        std::to_string(F) + ": " + Diags[0].str());
      if (Entries.size() != Records.size())
        return Fail(FuzzOracle::Decode,
                    "checked decoder dropped records of function " +
                        std::to_string(F));
    }
  }

  // Oracles 4 + 5: the two interval-solver implementations must agree on
  // every metric, and the bounds must bracket the ground truth. MW outlives
  // the block: the round-trip oracle below compares the decoded artifact's
  // bounds against it.
  EstimateMetrics MW;
  {
    SolverImplGuard Guard;
    auto metrics = [&](SolverImpl Impl) {
      setThreadSolverImpl(Impl);
      ModuleEstimator Est(*RFast.InstrModule, RFast.MI, *RFast.Prof);
      EstimateMetrics M = Est.estimateLoops(&RFast.GT);
      if (Setup.InstrOpts.Interproc) {
        M.add(Est.estimateTypeI(&RFast.GT));
        M.add(Est.estimateTypeII(&RFast.GT));
      }
      return M;
    };
    MW = metrics(SolverImpl::Worklist);
    EstimateMetrics MS = metrics(SolverImpl::Sweep);
    if (MW.Definite != MS.Definite || MW.Potential != MS.Potential ||
        MW.Real != MS.Real || MW.Pairs != MS.Pairs ||
        MW.ExactPairs != MS.ExactPairs ||
        MW.SoundnessViolated != MS.SoundnessViolated)
      return Fail(FuzzOracle::SolverDiff,
                  "worklist vs sweep: definite " + std::to_string(MW.Definite) +
                      "/" + std::to_string(MS.Definite) + ", potential " +
                      std::to_string(MW.Potential) + "/" +
                      std::to_string(MS.Potential) + ", exact pairs " +
                      std::to_string(MW.ExactPairs) + "/" +
                      std::to_string(MS.ExactPairs));
    if (MW.SoundnessViolated)
      return Fail(FuzzOracle::Bounds, "per-path soundness violated");
    if (MW.Definite > MW.Real || MW.Real > MW.Potential)
      return Fail(FuzzOracle::Bounds,
                  "definite <= real <= potential violated: " +
                      std::to_string(MW.Definite) + " / " +
                      std::to_string(MW.Real) + " / " +
                      std::to_string(MW.Potential));
  }

  // Oracle 6: abort the instrumented program halfway and require both
  // engines and the runtime-reuse path to stay consistent.
  if (RFast.InstrCounts.Steps >= 4) {
    std::string D = checkAbortConsistency(*CR.M, Setup,
                                          RFast.InstrCounts.Steps / 2);
    if (!D.empty())
      return Fail(FuzzOracle::Abort, D);
  }
  (void)ProbeSteps;

  // Oracle 6b (the trace surface): the tracing tier forced hot — recording
  // threshold 1 instead of the default — must be invisible both on the
  // terminating run and when the fuel boundary lands mid-trace.
  {
    std::string D = checkTraceConsistency(
        *CR.M, Setup, Opts.MaxSteps * 8,
        RFast.InstrCounts.Steps >= 4 ? RFast.InstrCounts.Steps / 2 : 0,
        Opts.Fault);
    if (!D.empty())
      return Fail(FuzzOracle::Trace, D);
  }

  // Oracle 7: .olpp round trip. The profile serialized into the artifact
  // container and read back by the checked reader must compare equal and
  // reproduce the solver's conclusions exactly; then the mutation sub-oracle
  // requires every deterministic corruption of the bytes to be rejected.
  {
    RunMeta Meta;
    Meta.Workload = "fuzz";
    Meta.Instr = Setup.InstrOpts;
    Meta.Runs = 1;
    Meta.DynInstrCost = RFast.InstrCounts.Steps;
    Meta.TimestampUnix = 0;
    ProfileArtifact Art = ProfileArtifact::fromRuntime(
        *RFast.BaseModule, RFast.MI, *RFast.Prof, Meta);
    std::string Bytes = serializeProfileArtifact(Art);

    ProfileArtifact Back;
    std::vector<Diagnostic> Diags;
    if (!readProfileArtifactBytes(Bytes, Back, Diags))
      return Fail(FuzzOracle::Roundtrip,
                  "checked reader rejected a freshly written artifact: " +
                      (Diags.empty() ? std::string("(no diagnostic)")
                                     : Diags[0].str()));
    if (Opts.Fault == FaultKind::SkewArtifactRoundtrip)
      skewArtifact(Back);
    std::string FirstDiff;
    if (!artifactsEqual(Art, Back, &FirstDiff))
      return Fail(FuzzOracle::Roundtrip,
                  "round trip is not lossless: " + FirstDiff);

    // Re-run the estimator over the decoded counters: persisting a profile
    // must not change a single solver conclusion.
    {
      SolverImplGuard Guard;
      setThreadSolverImpl(SolverImpl::Worklist);
      ModuleEstimator Est(*RFast.InstrModule, RFast.MI, Back.Counters);
      EstimateMetrics MB = Est.estimateLoops(&RFast.GT);
      if (Setup.InstrOpts.Interproc) {
        MB.add(Est.estimateTypeI(&RFast.GT));
        MB.add(Est.estimateTypeII(&RFast.GT));
      }
      if (MB.Definite != MW.Definite || MB.Potential != MW.Potential ||
          MB.Real != MW.Real || MB.ExactPairs != MW.ExactPairs)
        return Fail(FuzzOracle::Roundtrip,
                    "bounds change across the round trip: definite " +
                        std::to_string(MW.Definite) + " -> " +
                        std::to_string(MB.Definite) + ", potential " +
                        std::to_string(MW.Potential) + " -> " +
                        std::to_string(MB.Potential) + ", exact pairs " +
                        std::to_string(MW.ExactPairs) + " -> " +
                        std::to_string(MB.ExactPairs));
    }

    std::string D = checkArtifactMutations(Bytes, Opts.Fault);
    if (!D.empty())
      return Fail(FuzzOracle::Roundtrip, D);
  }

  // Oracle 8: static feasibility. An infeasibility verdict is a claim about
  // *every* execution, so one concrete run is a complete counterexample: no
  // path id the instrumented run just counted may be classified infeasible.
  // And feeding the proven-infeasible pairs to the interval solver must only
  // tighten the bounds — never loosen them, never cross the ground truth.
  {
    ModuleSummaries Sums = computeSummaries(*RFast.InstrModule);
    for (uint32_t F = 0; F < RFast.Prof->PathCounts.size(); ++F) {
      const FunctionInstrumentation &FI = RFast.MI.Funcs[F];
      if (!FI.PG || !FI.Cfg)
        continue;
      FunctionInfeasibility Inf = computeInfeasiblePaths(
          *RFast.InstrModule->function(F), *FI.Cfg, *FI.PG, &Sums);
      // The mutation test's hook: pretend the analysis condemned the first
      // executed id of the first instrumented function.
      bool InjectHere = Opts.Fault == FaultKind::MisclassifyFeasible;
      for (const auto &[Id, Count] : RFast.Prof->PathCounts[F]) {
        if (Count == 0)
          continue;
        bool ClaimedDead = Inf.isInfeasible(Id) || InjectHere;
        InjectHere = false;
        if (ClaimedDead)
          return Fail(FuzzOracle::Feasibility,
                      "path id " + std::to_string(Id) + " of function " +
                          std::to_string(F) + " executed " +
                          std::to_string(Count) +
                          " time(s) but is classified statically infeasible");
      }
    }

    SolverImplGuard Guard;
    setThreadSolverImpl(SolverImpl::Worklist);
    PathFeasibility PF(*RFast.InstrModule, &Sums);
    ModuleEstimator Est(*RFast.InstrModule, RFast.MI, *RFast.Prof);
    Est.setFeasibility(&PF);
    EstimateMetrics MF = Est.estimateLoops(&RFast.GT);
    if (Setup.InstrOpts.Interproc) {
      MF.add(Est.estimateTypeI(&RFast.GT));
      MF.add(Est.estimateTypeII(&RFast.GT));
    }
    if (MF.SoundnessViolated)
      return Fail(FuzzOracle::Feasibility,
                  "per-path soundness violated once feasibility facts were "
                  "fed to the solver");
    if (MF.Definite < MW.Definite || MF.Potential > MW.Potential)
      return Fail(FuzzOracle::Feasibility,
                  "feasibility facts widened the bounds: definite " +
                      std::to_string(MW.Definite) + " -> " +
                      std::to_string(MF.Definite) + ", potential " +
                      std::to_string(MW.Potential) + " -> " +
                      std::to_string(MF.Potential));
    if (MF.Definite > MF.Real || MF.Real > MF.Potential)
      return Fail(FuzzOracle::Feasibility,
                  "definite <= real <= potential violated with feasibility "
                  "facts: " +
                      std::to_string(MF.Definite) + " / " +
                      std::to_string(MF.Real) + " / " +
                      std::to_string(MF.Potential));
  }

  // Oracle 10: profile-guided optimization. The artifact the case just
  // recorded drives the optimizer over the pristine module; whatever it
  // inlines or tail-duplicates, the result must verify, take
  // instrumentation again with a clean audit, and be indistinguishable at
  // runtime: the base program's return value on both engines, and dynamic
  // counts bit-identical between fast and reference.
  {
    RunMeta Meta;
    Meta.Workload = "fuzz";
    Meta.Instr = Setup.InstrOpts;
    Meta.Runs = 1;
    Meta.DynInstrCost = RFast.InstrCounts.Steps;
    Meta.TimestampUnix = 0;
    ProfileArtifact Art = ProfileArtifact::fromRuntime(
        *RFast.BaseModule, RFast.MI, *RFast.Prof, Meta);

    OptOptions OO;
    OO.MinCount = 1; // single-run fuzz profiles: every counted site is hot
    if (Opts.Fault == FaultKind::MisinlineCallee)
      OO.Fault = OptFault::MisinlineCallee;
    OptResult OR;
    std::vector<Diagnostic> OptDiags;
    if (!optimizeModule(*RFast.BaseModule, Art, OO, OR, OptDiags))
      return Fail(FuzzOracle::Opt,
                  "optimizer rejected its own output: " +
                      (OptDiags.empty() ? std::string("(no diagnostic)")
                                        : OptDiags.back().str()));

    // Re-instrumentability: the profile->optimize->profile loop must close.
    {
      auto InstrCopy = OR.OptModule->clone();
      ModuleInstrumentation OMI =
          instrumentModule(*InstrCopy, Setup.InstrOpts);
      if (!OMI.ok())
        return Fail(FuzzOracle::Opt,
                    "optimized module failed re-instrumentation: " +
                        OMI.Errors[0]);
      std::vector<Diagnostic> Audit = checkInstrumentation(*InstrCopy, OMI);
      if (!Audit.empty())
        return Fail(FuzzOracle::Opt,
                    "instrumentation audit failed on the optimized module: " +
                        Audit[0].str());
    }

    auto RunOpt = [&](EngineKind E, RunResult &Out) {
      const Function *Entry = OR.OptModule->findFunction("main");
      Interpreter I(*OR.OptModule);
      RunConfig RC;
      RC.MaxSteps = Opts.MaxSteps * 8;
      RC.Engine = E;
      Out = I.run(*Entry, Setup.Args, RC);
    };
    RunResult OFast, ORef;
    RunOpt(EngineKind::Fast, OFast);
    RunOpt(EngineKind::Reference, ORef);
    if (!OFast.Ok || !ORef.Ok)
      return Fail(FuzzOracle::Opt,
                  "optimized run failed (fast: " +
                      (OFast.Ok ? "ok" : OFast.Error) + "; reference: " +
                      (ORef.Ok ? "ok" : ORef.Error) + ")");
    if (OFast.ReturnValue != RFast.ReturnValue)
      return Fail(FuzzOracle::Opt,
                  "optimized module changed the result: base " +
                      std::to_string(RFast.ReturnValue) + " vs optimized " +
                      std::to_string(OFast.ReturnValue) + " (" +
                      std::to_string(OR.Stats.InlinedSites) +
                      " site(s) inlined, " +
                      std::to_string(OR.Stats.Superblocks) +
                      " superblock(s))");
    if (ORef.ReturnValue != OFast.ReturnValue)
      return Fail(FuzzOracle::Opt,
                  "engines disagree on the optimized module: fast " +
                      std::to_string(OFast.ReturnValue) + " vs reference " +
                      std::to_string(ORef.ReturnValue));
    if (!(OFast.Counts == ORef.Counts))
      return Fail(FuzzOracle::Opt,
                  "dynamic counts diverge between engines on the optimized "
                  "module");
  }

  // Oracle 11: streamed aggregation. The run's artifact is expanded into
  // weighted variants and uploaded to an in-process serve store over the
  // real framed protocol — shuffled order, a legal duplicate, a corrupted
  // payload and truncated/oversized frames injected along the way. The
  // final snapshot must be bit-identical to the offline mergeArtifacts
  // fold of exactly the acked uploads, and nothing rejected may have moved
  // a counter.
  {
    RunMeta Meta;
    Meta.Workload = "fuzz";
    Meta.Instr = Setup.InstrOpts;
    Meta.Runs = 1;
    Meta.DynInstrCost = RFast.InstrCounts.Steps;
    Meta.TimestampUnix = 0;
    ProfileArtifact Art = ProfileArtifact::fromRuntime(
        *RFast.BaseModule, RFast.MI, *RFast.Prof, Meta);

    std::vector<std::string> Corpus;
    std::vector<ProfileArtifact> Variants;
    for (unsigned V = 1; V <= 4; ++V) {
      ProfileArtifact Var = makeEmptyLike(Art);
      std::vector<Diagnostic> MD;
      MergeOptions MO;
      MO.Weight = V;
      if (!mergeArtifacts(Var, Art, MD, MO))
        return Fail(FuzzOracle::Serve, "deriving an upload variant failed");
      Corpus.push_back(serializeProfileArtifact(Var));
      Variants.push_back(std::move(Var));
    }
    // Upload order: every variant plus a duplicate of the first (duplicates
    // are legal fleet traffic), shuffled deterministically from the
    // artifact's own bytes.
    std::vector<size_t> Order = {0, 1, 2, 3, 0};
    uint64_t H = 0xcbf29ce484222325ULL;
    for (char C : Corpus[0])
      H = (H ^ static_cast<uint8_t>(C)) * 0x100000001b3ULL;
    for (size_t I = Order.size(); I > 1; --I) {
      uint64_t X = H + 0x9E3779B97F4A7C15ULL * I;
      X ^= X >> 29;
      X *= 0xBF58476D1CE4E5B9ULL;
      X ^= X >> 32;
      std::swap(Order[I - 1], Order[X % I]);
    }

    serve::ServeConfig SC;
    SC.FaultDropFold = (Opts.Fault == FaultKind::DropFrameAck);
    serve::ShardStore Store(SC);

    // Throwaway session 1: a client that dies mid-upload. The truncated
    // frame must keep the session alive (more bytes could come), be
    // flagged mid-frame, and leave the store untouched when dropped.
    {
      serve::ServeSession S(Store);
      std::string Reply;
      std::string F = encodeFrame(FrameType::Upload, Corpus[0]);
      if (!S.consume(std::string_view(F).substr(0, F.size() / 2), Reply))
        return Fail(FuzzOracle::Serve,
                    "truncated upload prefix closed the session early");
      if (!S.midFrame())
        return Fail(FuzzOracle::Serve,
                    "mid-upload disconnect not flagged as mid-frame");
      if (!Reply.empty())
        return Fail(FuzzOracle::Serve, "partial frame produced a reply");
    }
    // Throwaway session 2: a hostile declared length must be rejected at
    // the header (structured error, session closed), never allocated.
    {
      serve::ServeSession S(Store);
      std::string Hdr;
      Hdr.push_back(static_cast<char>(FrameType::Upload));
      serve::putU32LE(Hdr, 0);
      serve::putU64LE(Hdr, 1ull << 60);
      std::string Reply;
      if (S.consume(Hdr, Reply))
        return Fail(FuzzOracle::Serve,
                    "oversized declared length did not close the session");
      FrameReader RR;
      RR.feed(Reply);
      Frame RF;
      if (RR.next(RF) != FrameStatus::Frame || RF.Type != FrameType::Err)
        return Fail(FuzzOracle::Serve,
                    "oversized declared length did not produce an Err reply");
    }
    if (!Store.fingerprints().empty())
      return Fail(FuzzOracle::Serve,
                  "adversarial frames altered the store's state");

    // The fleet session: shuffled uploads with one corrupted payload
    // spliced into the middle of the stream.
    serve::ServeSession Sess(Store);
    std::vector<size_t> AckedIdx;
    uint64_t MaxTag = 0;
    auto UploadOne = [&](std::string_view Bytes, Frame &ReplyFrame,
                         std::string &D) -> bool {
      std::string Reply;
      if (!Sess.consume(encodeFrame(FrameType::Upload, Bytes), Reply)) {
        D = "upload closed the session";
        return false;
      }
      FrameReader RR;
      RR.feed(Reply);
      if (RR.next(ReplyFrame) != FrameStatus::Frame) {
        D = "upload produced no complete reply frame";
        return false;
      }
      return true;
    };
    for (size_t U = 0; U < Order.size(); ++U) {
      if (U == 2) {
        // A valid frame around an artifact with one flipped byte: the
        // checked reader must reject it (oracle 7 proved every byte
        // corruption detectable) and the session must survive.
        std::string Bad = Corpus[Order[U]];
        Bad[Bad.size() / 2] = static_cast<char>(Bad[Bad.size() / 2] ^ 0x20);
        Frame RF;
        std::string D;
        if (!UploadOne(Bad, RF, D))
          return Fail(FuzzOracle::Serve, "corrupt upload: " + D);
        serve::ErrCode Code{};
        std::string Msg;
        if (RF.Type != FrameType::Err ||
            !serve::decodeErrPayload(RF.Payload, Code, Msg) ||
            Code != serve::ErrCode::BadArtifact)
          return Fail(FuzzOracle::Serve,
                      "corrupt upload was not rejected with BadArtifact");
      }
      Frame RF;
      std::string D;
      if (!UploadOne(Corpus[Order[U]], RF, D))
        return Fail(FuzzOracle::Serve, D);
      serve::AckInfo Ack;
      if (RF.Type != FrameType::Ack ||
          !serve::decodeAckPayload(RF.Payload, Ack))
        return Fail(FuzzOracle::Serve, "valid upload was not acked");
      if (Ack.Seq != AckedIdx.size())
        return Fail(FuzzOracle::Serve,
                    "ack sequence number out of order: got " +
                        std::to_string(Ack.Seq) + ", want " +
                        std::to_string(AckedIdx.size()));
      AckedIdx.push_back(Order[U]);
      MaxTag = std::max(MaxTag, Ack.Tag);
    }

    // Snapshot and the bit-identity contract.
    std::string Reply;
    if (!Sess.consume(encodeFrame(FrameType::Snapshot, ""), Reply))
      return Fail(FuzzOracle::Serve, "snapshot request closed the session");
    FrameReader RR;
    RR.feed(Reply);
    Frame SF;
    if (RR.next(SF) != FrameStatus::Frame ||
        SF.Type != FrameType::SnapshotData)
      return Fail(FuzzOracle::Serve, "snapshot produced no SnapshotData");
    serve::SnapshotInfo Snap;
    if (!serve::decodeSnapshotPayload(SF.Payload, Snap))
      return Fail(FuzzOracle::Serve, "SnapshotData payload undecodable");
    if (MaxTag > Snap.Epoch)
      return Fail(FuzzOracle::Serve,
                  "containment contract broken: ack tag " +
                      std::to_string(MaxTag) + " > snapshot epoch " +
                      std::to_string(Snap.Epoch));
    ProfileArtifact Acc = makeEmptyLike(Art);
    for (size_t Idx : AckedIdx) {
      std::vector<Diagnostic> MD;
      if (!mergeArtifacts(Acc, Variants[Idx], MD))
        return Fail(FuzzOracle::Serve, "offline fold of acked uploads failed");
    }
    if (serializeProfileArtifact(Acc) != Snap.Artifact)
      return Fail(FuzzOracle::Serve,
                  "snapshot is not bit-identical to the offline fold of the "
                  "acked uploads");

    // Orderly shutdown still works after all of the above.
    Reply.clear();
    if (Sess.consume(encodeFrame(FrameType::Quit, ""), Reply))
      return Fail(FuzzOracle::Serve, "Quit did not close the session");
  }

  return CaseStatus::Clean;
}

FuzzReport DifferentialRunner::run() const {
  // Each seed is checked (and, on failure, shrunk) independently into its
  // own outcome slot; the report is then aggregated in seed order. That
  // split is what makes --jobs a pure wall-clock knob: any interleaving of
  // the per-seed work produces the identical report.
  struct SeedOutcome {
    CaseStatus St = CaseStatus::Clean;
    FuzzFailure F;
  };
  std::vector<SeedOutcome> Outcomes(Opts.NumSeeds);

  auto RunSeed = [&](size_t I) {
    uint64_t Seed = Opts.SeedBase + I;
    SeedOutcome &Out = Outcomes[I];
    Out.St = checkCase(Seed, &Out.F);
    if (Out.St != CaseStatus::Failed)
      return;
    FuzzFailure &F = Out.F;
    if (Opts.Shrink) {
      CaseSetup Setup = deriveSetup(Seed);
      FuzzOracle Want = F.Oracle;
      ShrinkResult SR = shrinkProgram(
          F.Source,
          [&](const std::string &Cand) {
            FuzzFailure G;
            return checkProgram(Cand, Setup, &G) == CaseStatus::Failed &&
                   G.Oracle == Want;
          },
          Opts.MaxShrinkAttempts);
      if (SR.Accepted > 0) {
        F.OriginalSource = F.Source;
        F.Shrunk = true;
        // Re-derive the failure detail on the minimized program.
        FuzzFailure G;
        if (checkProgram(SR.Source, Setup, &G) == CaseStatus::Failed) {
          G.MasterSeed = Seed;
          G.OriginalSource = std::move(F.OriginalSource);
          G.Shrunk = true;
          F = std::move(G);
        } else {
          F.Source = SR.Source; // should not happen; keep the shrunk text
        }
      }
    }
  };

  if (Opts.Jobs != 1 && Opts.NumSeeds > 1) {
    TaskPool Pool(Opts.Jobs); // 0 = one worker per core
    Pool.parallelFor(Opts.NumSeeds,
                     [&](size_t I, unsigned) { RunSeed(I); });
  } else {
    for (uint32_t I = 0; I < Opts.NumSeeds; ++I)
      RunSeed(I);
  }

  FuzzReport Rep;
  for (SeedOutcome &Out : Outcomes) {
    ++Rep.SeedsRun;
    switch (Out.St) {
    case CaseStatus::Clean:
      ++Rep.Clean;
      break;
    case CaseStatus::Skipped:
      ++Rep.Skipped;
      break;
    case CaseStatus::Failed:
      Rep.Failures.push_back(std::move(Out.F));
      break;
    }
  }
  return Rep;
}
