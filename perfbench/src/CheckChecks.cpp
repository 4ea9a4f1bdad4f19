//===--- CheckChecks.cpp - Planted wrong values for every output check ----===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `run.py --check-the-checks`: each output check the workloads use is fed
/// a right value, which it must accept, and a planted wrong one, which it
/// must reject. The right values are real program outputs: `olpp profile`
/// and `olpp estimate` on li, instrumented runs merged through a
/// ShardedProfile, and a ShardStore snapshot.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Oracle.h"

#include "interp/Interpreter.h"
#include "interp/ShardedProfile.h"
#include "profdata/Merge.h"
#include "serve/ShardStore.h"

#include <cstdio>

using namespace olpp;

namespace perfbench {

namespace {

struct Tally {
  int Bad = 0;
  /// \p Right must be "" (accepted) and \p Planted non-empty (rejected).
  void expect(const char *What, const std::string &Right,
              const std::string &Planted) {
    const bool Ok = Right.empty() && !Planted.empty();
    std::printf("%s  %-44s %s\n", Ok ? "ok  " : "FAIL", What,
                Ok ? Planted.c_str()
                   : (Right.empty() ? "planted value accepted"
                                    : ("right value rejected: " + Right)
                                          .c_str()));
    Bad += !Ok;
  }
};

/// A program run's instrumented counters, fresh runtime per run.
bool runInstrumented(Module &IM, const ModuleInstrumentation &MI,
                     const std::vector<int64_t> &Args, EngineKind E,
                     ProfileRuntime &P) {
  for (uint32_t F = 0; F < IM.numFunctions(); ++F)
    if (MI.Funcs[F].PG)
      P.configurePathStore(F, MI.Funcs[F].PG->numPaths());
  RunConfig RC;
  RC.Engine = E;
  Interpreter I(IM, &P);
  return I.run(*IM.findFunction("main"), Args, RC).Ok;
}

} // namespace

int checkTheChecks(const Options &O) {
  Tally T;
  const Workload *W = findWorkload("li");
  std::string Err;
  std::unique_ptr<Module> M = compile(W->Source, Err);
  if (!M) {
    std::fprintf(stderr, "compile failed: %s\n", Err.c_str());
    return 1;
  }
  const uint32_t K = chosenDegree(*M);
  const std::vector<int64_t> Args = argsFor(W->PrecisionArgs, 4242);

  // profile-* checks, on real `olpp` output.
  const std::string Art = O.WorkDir + "/li.olpp";
  Child A = runChild({O.Olpp, "profile", "li", "--degree", std::to_string(K),
                      "--interproc", "-o", Art, std::to_string(Args[0]),
                      std::to_string(Args[1])},
                     O.WorkDir + "/profile.txt", O.WorkDir + "/stderr.txt");
  Child B = runChild({O.Olpp, "estimate", "li", "--profile", Art,
                      "--feasibility"},
                     O.WorkDir + "/estimate.txt", O.WorkDir + "/stderr.txt");
  ProfileTruth Truth;
  int64_t Printed = 0;
  ProfileArtifact Artifact;
  std::vector<Diagnostic> Diags;
  std::vector<Row> Rows;
  if (!A.Ok || !B.Ok || !computeProfileTruth(W->Source, K, Args, Truth, Err) ||
      !parseProfileResult(slurp(O.WorkDir + "/profile.txt"), Printed) ||
      !readProfileArtifactFile(Art, Artifact, Diags) ||
      !parseEstimateRows(slurp(O.WorkDir + "/estimate.txt"), Rows) ||
      Rows.empty()) {
    std::fprintf(stderr, "cannot produce the li outputs: %s\n", Err.c_str());
    return 1;
  }
  T.expect("profile: result vs reference engine",
           checkResult(Printed, Truth.ReturnValue),
           checkResult(Printed + 1, Truth.ReturnValue));
  T.expect("profile: artifact fingerprint",
           checkFingerprint(Artifact.Fingerprint, Truth.Fingerprint),
           checkFingerprint(Artifact.Fingerprint ^ 1, Truth.Fingerprint));
  {
    ProfileRuntime Flipped = Artifact.Counters;
    for (uint32_t F = 0; F < Flipped.PathCounts.size(); ++F)
      if (!Flipped.PathCounts[F].empty()) {
        Flipped.PathCounts[F].add((*Flipped.PathCounts[F].begin()).first, 1);
        break;
      }
    T.expect("profile: flipped counter",
             checkExpectedCounters(Artifact.Counters, Truth.Expected),
             checkExpectedCounters(Flipped, Truth.Expected));
  }
  {
    std::vector<Row> Wide = Rows;
    Wide[0].Potential += 1;
    T.expect("estimate: widened bound", checkBounds(Rows, Truth.Rows),
             checkBounds(Wide, Truth.Rows));
    std::vector<Row> Unsound = Rows;
    for (size_t I = 0; I < Unsound.size(); ++I)
      if (Truth.Rows[I].Real > 0) {
        Unsound[I].Definite = Truth.Rows[I].Real + 1;
        Unsound[I].Potential = std::max(Unsound[I].Potential,
                                        Unsound[I].Definite);
        break;
      }
    T.expect("estimate: bound above Real", checkBounds(Rows, Truth.Rows),
             checkBounds(Unsound, Truth.Rows));
  }

  // The traced replay against the commands' own outputs.
  {
    CommandOutputs Cmd{firstLine(slurp(O.WorkDir + "/profile.txt")), Artifact,
                       Rows};
    const uint64_t Rss = uint64_t(A.RssKb) * 1024;
    const std::string Right = checkReplay(Cmd, Cmd, 0, Rss);
    CommandOutputs Flipped = Cmd;
    for (auto &Store : Flipped.Artifact.Counters.PathCounts)
      if (!Store.empty()) {
        Store.add((*Store.begin()).first, 1);
        break;
      }
    T.expect("replay: flipped artifact counter", Right,
             checkReplay(Flipped, Cmd, 0, Rss));
    CommandOutputs Wide = Cmd;
    Wide.Rows[0].Potential += 1;
    T.expect("replay: widened bound", Right, checkReplay(Wide, Cmd, 0, Rss));
    T.expect("replay: trace the command does not make", Right,
             checkReplay(Cmd, Cmd, Rss + 1, Rss));
  }

  // profile-batch: two runs merged through shards vs the plain sum of
  // reference-engine counters.
  std::unique_ptr<Module> IM = M->clone();
  ModuleInstrumentation MI = instrumentModule(*IM, instrOptions(K));
  const std::vector<int64_t> Args2 = argsFor(W->PrecisionArgs, 777);
  ShardedProfile SP(IM->numFunctions(), 2);
  ProfileRuntime R1(IM->numFunctions()), R2(IM->numFunctions());
  if (!runInstrumented(*IM, MI, Args, EngineKind::Fast, SP.shard(0)) ||
      !runInstrumented(*IM, MI, Args2, EngineKind::Fast, SP.shard(1)) ||
      !runInstrumented(*IM, MI, Args, EngineKind::Reference, R1) ||
      !runInstrumented(*IM, MI, Args2, EngineKind::Reference, R2)) {
    std::fprintf(stderr, "li runs failed\n");
    return 1;
  }
  const ProfileRuntime &Merged = SP.merge();
  PlainCounters Sum, WrongWeight;
  Sum.addScaled(R1, 1);
  Sum.addScaled(R2, 1);
  WrongWeight.addScaled(R1, 1);
  WrongWeight.addScaled(R2, 2);
  T.expect("batch: wrong merge weight", checkPlainCounters(Merged, Sum),
           checkPlainCounters(Merged, WrongWeight));
  {
    ProfileRuntime Flipped = Merged;
    Flipped.TypeICounts.bump((*Flipped.TypeICounts.begin()).first, 1);
    T.expect("batch: flipped merged counter", checkPlainCounters(Merged, Sum),
             checkPlainCounters(Flipped, Sum));
  }

  // fleet-ingest: a ShardStore fed weight-1 and weight-2 uploads.
  ProfileArtifact Base =
      ProfileArtifact::fromRuntime(*M, MI, R1, RunMeta{"li", {}, 1, 0, 0});
  std::vector<ProfileArtifact> Ups;
  for (uint64_t Wt : {1, 2}) {
    ProfileArtifact U = makeEmptyLike(Base);
    MergeOptions MO;
    MO.Weight = Wt;
    mergeArtifacts(U, Base, Diags, MO);
    Ups.push_back(std::move(U));
  }
  serve::ShardStore Store{serve::ServeConfig{}};
  for (const ProfileArtifact &U : Ups)
    Store.upload(serializeProfileArtifact(U));
  uint64_t Epoch = 0, Fp = 0;
  std::string Snap;
  Store.snapshot(false, 0, Epoch, Fp, Snap, Err);
  ProfileArtifact Fold = makeEmptyLike(Base), Dropped = makeEmptyLike(Base);
  for (const ProfileArtifact &U : Ups)
    mergeArtifacts(Fold, U, Diags);
  mergeArtifacts(Dropped, Ups[0], Diags);
  T.expect("fleet: dropped acked upload", checkSnapshotBytes(Snap, Fold),
           checkSnapshotBytes(Snap, Dropped));
  ProfileArtifact Final;
  readProfileArtifactBytes(Snap, Final, Diags);
  PlainCounters Three, Four;
  Three.addScaled(Base.Counters, 3);
  Four.addScaled(Base.Counters, 4);
  T.expect("fleet: wrong acked weight sum",
           checkPlainCounters(Final.Counters, Three),
           checkPlainCounters(Final.Counters, Four));
  bool Failed = false;
  T.expect("fleet: malformed upload acked",
           checkUploadReply(UploadKind::Malformed, false, Failed),
           checkUploadReply(UploadKind::Malformed, true, Failed));
  T.expect("fleet: honest upload rejected",
           checkUploadReply(UploadKind::Honest, true, Failed),
           checkUploadReply(UploadKind::Honest, false, Failed));
  checkUploadReply(UploadKind::Forged, true, Failed);
  T.expect("fleet: acked forged upload counts as failed", "",
           Failed ? "counted as a failed operation" : "");

  std::printf("%s: %d check(s) did not behave\n", T.Bad ? "FAIL" : "ok",
              T.Bad);
  return T.Bad ? 1 : 0;
}

} // namespace perfbench
