//===--- Oracle.cpp - Independent output checks ---------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "Bounds.h"

#include "estimate/IntervalSolver.h"
#include "interp/Interpreter.h"
#include "interp/Trace.h"
#include "profdata/ProfData.h"
#include "wpp/GroundTruth.h"

#include <cstdlib>
#include <sstream>

using namespace olpp;

namespace perfbench {

bool parseProfileResult(const std::string &Out, int64_t &Result) {
  const char *P = Out.c_str();
  if (Out.rfind("result ", 0) != 0)
    return false;
  char *End = nullptr;
  Result = std::strtoll(P + 7, &End, 10);
  return End != P + 7 && *End == ',';
}

namespace {

/// Splits a TableWriter line on runs of two or more spaces.
std::vector<std::string> cells(const std::string &Line) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    if (I >= Line.size())
      break;
    size_t J = I;
    while (J < Line.size() &&
           !(Line[J] == ' ' && (J + 1 >= Line.size() || Line[J + 1] == ' ')))
      ++J;
    Out.push_back(Line.substr(I, J - I));
    I = J;
  }
  return Out;
}

bool parseU64(const std::string &S, uint64_t &V) {
  if (S.empty())
    return false;
  char *End = nullptr;
  V = std::strtoull(S.c_str(), &End, 10);
  return *End == '\0';
}

} // namespace

bool parseEstimateRows(const std::string &Out, std::vector<Row> &Rows) {
  Rows.clear();
  std::istringstream IS(Out);
  std::string Line;
  bool InTable = false, SawHeader = false;
  while (std::getline(IS, Line)) {
    if (Line.rfind("Kind ", 0) == 0) {
      SawHeader = true;
      continue;
    }
    if (SawHeader && !InTable) {
      InTable = Line.rfind("---", 0) == 0;
      continue;
    }
    if (!InTable)
      continue;
    if (Line.empty())
      break;
    std::vector<std::string> C = cells(Line);
    Row R;
    if (C.size() != 6 || !parseU64(C[3], R.Definite) ||
        !parseU64(C[4], R.Potential))
      return false;
    R.Kind = C[0];
    R.Where = C[1];
    Rows.push_back(std::move(R));
  }
  return InTable;
}

uint64_t slackOf(const std::vector<Row> &Rows) {
  uint64_t S = 0;
  for (const Row &R : Rows)
    S += R.Potential - R.Definite;
  return S;
}

bool computeProfileTruth(const std::string &Source, uint32_t K,
                         const std::vector<int64_t> &Args, ProfileTruth &Out,
                         std::string &Err) {
  std::unique_ptr<Module> Base = compile(Source, Err);
  if (!Base)
    return false;
  Out.Fingerprint = moduleProfileFingerprint(*Base);
  const Function *Main = Base->findFunction("main");
  if (!Main) {
    Err = "no main";
    return false;
  }

  // The reference engine's event trace of the uninstrumented program.
  VectorTrace Trace;
  RunConfig RC;
  RC.Engine = EngineKind::Reference;
  {
    Interpreter I(*Base, nullptr, &Trace);
    RunResult R = I.run(*Main, Args, RC);
    if (!R.Ok) {
      Err = "reference run failed: " + R.Error;
      return false;
    }
    Out.ReturnValue = R.ReturnValue;
  }

  std::unique_ptr<Module> Instr = Base->clone();
  ModuleInstrumentation MI = instrumentModule(*Instr, instrOptions(K));
  if (!MI.ok()) {
    Err = MI.Errors[0];
    return false;
  }
  GroundTruthOptions GTO;
  GTO.CallBreaking = MI.Opts.CallBreaking;
  GroundTruth GT =
      GroundTruth::compute(*Base, Trace.Events, GTO, MI.CallSites);
  Trace.Events = {};
  Out.Expected = computeExpectedCounters(MI, GT);

  // Real of each printed row. The rows are enumerated exactly as estimate
  // enumerates them, over the expected counters.
  ProfileRuntime Prof(Instr->numFunctions());
  for (uint32_t F = 0; F < Out.Expected.PathCounts.size(); ++F)
    for (const auto &[Id, C] : Out.Expected.PathCounts[F])
      Prof.PathCounts[F].add(Id, C);
  for (const auto &[Key, C] : Out.Expected.TypeICounts)
    Prof.TypeICounts.bump(Key, C);
  for (const auto &[Key, C] : Out.Expected.TypeIICounts)
    Prof.TypeIICounts.bump(Key, C);
  setThreadSolverImpl(SolverImpl::Sweep);
  BoundsResult B = solveBounds(*Instr, MI, Prof, &GT, /*Rows=*/true);
  setThreadSolverImpl(SolverImpl::Worklist);
  Out.Rows.clear();
  for (const BoundsRow &R : B.Rows)
    Out.Rows.push_back(
        {R.Kind, R.Where, R.Met.Real, R.Met.Definite, R.Met.Potential});
  return true;
}

std::string checkResult(int64_t Printed, int64_t Want) {
  if (Printed == Want)
    return "";
  return "printed result " + std::to_string(Printed) +
         " differs from the reference engine's " + std::to_string(Want);
}

std::string checkFingerprint(uint64_t Got, uint64_t Want) {
  if (Got == Want)
    return "";
  return "artifact fingerprint does not match the compiled source";
}

std::string checkExpectedCounters(const ProfileRuntime &Got,
                                  const ExpectedCounters &Want) {
  if (Got.PathCounts.size() != Want.PathCounts.size())
    return "artifact has " + std::to_string(Got.PathCounts.size()) +
           " functions, expected " + std::to_string(Want.PathCounts.size());
  for (size_t F = 0; F < Want.PathCounts.size(); ++F)
    if (Got.PathCounts[F] != Want.PathCounts[F])
      return "path counters of function " + std::to_string(F) +
             " differ from the trace-derived counters";
  if (Got.TypeICounts != Want.TypeICounts)
    return "Type I counters differ from the trace-derived counters";
  if (Got.TypeIICounts != Want.TypeIICounts)
    return "Type II counters differ from the trace-derived counters";
  return "";
}

std::string checkBounds(const std::vector<Row> &Printed,
                        const std::vector<ProfileTruth::RealRow> &Want) {
  if (Printed.size() != Want.size())
    return "estimate printed " + std::to_string(Printed.size()) +
           " rows, expected " + std::to_string(Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    const Row &P = Printed[I];
    const ProfileTruth::RealRow &W = Want[I];
    if (P.Kind != W.Kind || P.Where != W.Where)
      return "row " + std::to_string(I) + " is '" + P.Kind + " " + P.Where +
             "', expected '" + W.Kind + " " + W.Where + "'";
    const std::string Name = "row '" + P.Kind + " " + P.Where + "': ";
    if (!(P.Definite <= W.Real && W.Real <= P.Potential))
      return Name + "Definite " + std::to_string(P.Definite) + " <= Real " +
             std::to_string(W.Real) + " <= Potential " +
             std::to_string(P.Potential) + " does not hold";
    if (P.Definite != W.Definite || P.Potential != W.Potential)
      return Name + "bounds [" + std::to_string(P.Definite) + ", " +
             std::to_string(P.Potential) + "] differ from the sweep "
             "solver's [" + std::to_string(W.Definite) + ", " +
             std::to_string(W.Potential) + "]";
  }
  return "";
}

void PlainCounters::addScaled(const ProfileRuntime &P, uint64_t Times) {
  auto Add = [&](uint64_t &Slot, uint64_t C) {
    uint64_t Scaled;
    if (__builtin_mul_overflow(C, Times, &Scaled) ||
        __builtin_add_overflow(Slot, Scaled, &Slot))
      Overflow = true;
  };
  if (Paths.size() < P.PathCounts.size())
    Paths.resize(P.PathCounts.size());
  for (size_t F = 0; F < P.PathCounts.size(); ++F)
    for (const auto &[Id, C] : P.PathCounts[F])
      Add(Paths[F][Id], C);
  for (const auto &[K, C] : P.TypeICounts)
    Add(TypeI[{K.Callee, K.CallSite, K.Inner, K.Outer}], C);
  for (const auto &[K, C] : P.TypeIICounts)
    Add(TypeII[{K.Callee, K.CallSite, K.Inner, K.Outer}], C);
}

namespace {

template <typename Table>
std::string compareInterproc(const Table &Got,
                             const std::map<PlainCounters::Key, uint64_t> &W,
                             const char *What) {
  if (Got.size() != W.size())
    return std::string(What) + " has " + std::to_string(Got.size()) +
           " counters, expected " + std::to_string(W.size());
  for (const auto &[K, C] : W)
    if (Got.lookup({uint32_t(K[0]), uint32_t(K[1]), K[2], K[3]}) != C)
      return std::string(What) + " counter differs from the plain sum";
  return "";
}

} // namespace

std::string checkPlainCounters(const ProfileRuntime &Got,
                               const PlainCounters &Want) {
  if (Want.Overflow)
    return "expected counters overflow";
  for (size_t F = 0; F < Got.PathCounts.size(); ++F) {
    static const std::map<int64_t, uint64_t> None;
    const auto &W = F < Want.Paths.size() ? Want.Paths[F] : None;
    if (Got.PathCounts[F].size() != W.size())
      return "function " + std::to_string(F) + " has " +
             std::to_string(Got.PathCounts[F].size()) +
             " path counters, expected " + std::to_string(W.size());
    for (const auto &[Id, C] : W)
      if (Got.PathCounts[F].lookup(Id) != C)
        return "path counter " + std::to_string(Id) + " of function " +
               std::to_string(F) + " differs from the plain sum";
  }
  std::string E = compareInterproc(Got.TypeICounts, Want.TypeI, "Type I");
  if (E.empty())
    E = compareInterproc(Got.TypeIICounts, Want.TypeII, "Type II");
  return E;
}

} // namespace perfbench

namespace perfbench {

std::string checkSnapshotBytes(const std::string &Snapshot,
                               const ProfileArtifact &OfflineFold) {
  if (serializeProfileArtifact(OfflineFold) == Snapshot)
    return "";
  return "snapshot differs from the offline fold of the acked uploads";
}

std::string firstLine(const std::string &Out) {
  return Out.substr(0, Out.find('\n'));
}

std::string checkReplay(const CommandOutputs &Replay,
                        const CommandOutputs &Child, uint64_t ReplayTraceBytes,
                        uint64_t ChildRssBytes) {
  if (Replay.ResultLine != Child.ResultLine)
    return "replay printed \"" + Replay.ResultLine + "\", olpp profile \"" +
           Child.ResultLine + "\"";
  auto Unstamped = [](ProfileArtifact A) {
    A.Meta.TimestampUnix = 0;
    return serializeProfileArtifact(A);
  };
  if (Unstamped(Replay.Artifact) != Unstamped(Child.Artifact))
    return "replay's artifact differs from the one olpp profile wrote";
  if (Replay.Rows.size() != Child.Rows.size())
    return "replay has " + std::to_string(Replay.Rows.size()) +
           " bounds rows, olpp estimate " + std::to_string(Child.Rows.size());
  for (size_t I = 0; I < Replay.Rows.size(); ++I) {
    const Row &A = Replay.Rows[I], &B = Child.Rows[I];
    if (A.Kind != B.Kind || A.Where != B.Where || A.Definite != B.Definite ||
        A.Potential != B.Potential)
      return "replay's bounds differ from olpp estimate's at " + B.Kind +
             " " + B.Where;
  }
  if (ReplayTraceBytes > ChildRssBytes)
    return "replay traced " + std::to_string(ReplayTraceBytes >> 10) +
           " KiB, more than olpp profile's peak RSS of " +
           std::to_string(ChildRssBytes >> 10) +
           " KiB: the command no longer traces its baseline run";
  return "";
}

std::string checkUploadReply(UploadKind K, bool IsAck, bool &Failed) {
  Failed = false;
  switch (K) {
  case UploadKind::Honest:
    return IsAck ? "" : "an honest upload was rejected";
  case UploadKind::Malformed:
    return IsAck ? "a malformed upload was acked" : "";
  case UploadKind::Forged:
    Failed = IsAck;
    return "";
  }
  return "";
}

} // namespace perfbench
