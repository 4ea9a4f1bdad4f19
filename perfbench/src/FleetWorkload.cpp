//===--- FleetWorkload.cpp - fleet-ingest ---------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fleet of the ten programs uploads to one `olpp serve` store through
/// the daemon's per-connection protocol handler, ServeSession::consume, in
/// process: every upload is a framed .olpp payload, and every reply frame
/// is decoded as a client would. Each program is profiled on Inputs seeded
/// inputs, and an upload is one of these base profiles scaled by a weight
/// of 1..MaxWeight. The fleet is skewed: per round mcf uploads every
/// (input, weight) pair, each other program each input once. A round also
/// carries malformed uploads, which must be rejected without ending the
/// session, and one CRC-valid forged upload of an eleventh program with a
/// count on a statically infeasible path id; an acked forged upload is a
/// failed operation.
///
/// nproc / 2 sessions on as many threads fold into the one store, whole
/// rounds each, for the run's length; between rounds, every
/// SnapshotPeriodS, the first of them asks for a SNAPSHOT and computes the
/// bounds of the aggregate.
/// Sockets and the I/O thread are left out: on a shared VM their wake-ups
/// made the loopback figures swing several-fold with the host's steal time.
///
/// Checks: every snapshot is byte-identical to the offline mergeArtifacts
/// fold of exactly the uploads acked with a tag up to its epoch; the final
/// counters of each program equal its acked weight sums times its base
/// counters; every malformed upload got an Err and its session still
/// answers STATS.
///
//===----------------------------------------------------------------------===//

#include "Bounds.h"
#include "Harness.h"
#include "Oracle.h"

#include "analysis/Summary.h"
#include "interp/Interpreter.h"
#include "profdata/Merge.h"
#include "profdata/ProfData.h"
#include "profdata/Report.h"
#include "profile/InfeasiblePaths.h"
#include "serve/Protocol.h"
#include "serve/Session.h"
#include "serve/ShardStore.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <tuple>

using namespace olpp;
using namespace olpp::serve;

namespace perfbench {

namespace {

constexpr int SetupReps = 5;
constexpr unsigned MalformedPerRound = 2;
constexpr unsigned MaxWeight = 4;
constexpr unsigned Inputs = 3;
constexpr double SnapshotPeriodS = 0.1; // session 0, between rounds
constexpr size_t MaxReplayRounds = 100;
/// Throughput and ack latency are taken per window of this length and the
/// median over windows reported, so a short stall of the shared machine
/// moves one window, not the figure.
constexpr double WindowS = 0.5;
const char *const HotName = "mcf";
const char *const ForgedMarker = "\nfn fleetForgedMarker() { return 7; }\n";

struct Binary {
  std::string Name, Source;
  std::unique_ptr<Module> M;
  std::vector<ProfileArtifact> Base; ///< per input
  uint64_t Steps = 0;
  /// Upload payloads: input i at weight w is Variants[i * MaxWeight + w - 1].
  std::vector<std::string> Variants;
};

uint32_t weightOf(uint32_t Variant) { return Variant % MaxWeight + 1; }

struct Upload {
  UploadKind K = UploadKind::Honest;
  uint32_t Bin = 0;
  uint32_t Variant = 0;
  const std::string *Bytes = nullptr; ///< the .olpp payload
  std::string Framed;                 ///< the Upload frame carrying it
};

/// The corpus and the store.
struct Fleet {
  std::vector<Binary> Bins; ///< the ten programs, then the forged one
  std::vector<std::string> Malformed;
  std::string Forged;
  std::vector<Upload> Round;
  uint32_t Hot = 0;
  std::unique_ptr<ShardStore> Store;
  size_t honest() const { return Bins.size() - 1; }
};

/// Corpus profiling of one program at its short inputs.
bool profileBinary(Binary &B, uint64_t Seed, const std::vector<int64_t> &Args,
                   unsigned NumInputs, std::string &Err) {
  {
    Tracer::Scope S("frontend.compile");
    B.M = compile(B.Source, Err);
  }
  if (!B.M)
    return false;
  std::unique_ptr<Module> IM = B.M->clone();
  ModuleInstrumentation MI;
  {
    Tracer::Scope S("profile.instrument");
    MI = instrumentModule(*IM, instrOptions(chosenDegree(*B.M)));
  }
  if (!MI.ok()) {
    Err = MI.Errors[0];
    return false;
  }
  B.Base.clear();
  B.Steps = 0;
  for (unsigned In = 0; In < NumInputs; ++In) {
    ProfileRuntime Prof(IM->numFunctions());
    for (uint32_t F = 0; F < IM->numFunctions(); ++F)
      if (MI.Funcs[F].PG)
        Prof.configurePathStore(F, MI.Funcs[F].PG->numPaths());
    RunResult R;
    {
      Tracer::Scope S("interp.instr_run");
      Interpreter I(*IM, &Prof);
      R = I.run(*IM->findFunction("main"),
                argsFor(Args, programSeed(Seed, tagOf(B.Name) + In)));
    }
    if (!R.Ok) {
      Err = B.Name + ": " + R.Error;
      return false;
    }
    B.Steps += R.Counts.Steps;
    Tracer::Scope S("profdata.write");
    RunMeta Meta;
    Meta.Workload = B.Name;
    Meta.DynInstrCost = R.Counts.Steps;
    B.Base.push_back(ProfileArtifact::fromRuntime(*B.M, MI, Prof, Meta));
  }
  return true;
}

/// Set-up: corpus profiling and a fresh store.
bool setUp(Fleet &F, uint64_t Seed, std::string &Err) {
  Tracer::Scope Root("setup");
  F.Bins.clear();
  for (const Workload &W : allWorkloads()) {
    if (W.Name == HotName)
      F.Hot = uint32_t(F.Bins.size());
    F.Bins.push_back({W.Name, W.Source, nullptr, {}, 0, {}});
  }
  const Workload *Li = findWorkload("li");
  F.Bins.push_back({"forged", Li->Source + ForgedMarker, nullptr, {}, 0, {}});
  for (size_t I = 0; I < F.Bins.size(); ++I) {
    const bool Forged = I + 1 == F.Bins.size();
    const Workload *W = Forged ? Li : findWorkload(F.Bins[I].Name);
    if (!profileBinary(F.Bins[I], Seed, W->PrecisionArgs, Forged ? 1 : Inputs,
                       Err))
      return false;
  }
  F.Store = std::make_unique<ShardStore>(ServeConfig{});
  return true;
}

/// The uploads: weighted variants, malformed payloads, the forged profile,
/// and one round's mix.
bool makeUploads(Fleet &F, uint64_t Seed, std::string &Err) {
  std::vector<Diagnostic> Diags;
  for (Binary &B : F.Bins)
    for (const ProfileArtifact &Base : B.Base)
      for (uint32_t W = 1; W <= MaxWeight; ++W) {
        ProfileArtifact A = makeEmptyLike(Base);
        MergeOptions MO;
        MO.Weight = W;
        if (!mergeArtifacts(A, Base, Diags, MO)) {
          Err = "cannot derive weighted upload";
          return false;
        }
        B.Variants.push_back(serializeProfileArtifact(A));
      }
  // Malformed: a flipped byte past the header (a CRC mismatch), and a
  // truncated artifact. Both are well framed.
  std::string Flip = F.Bins[F.Hot].Variants[0];
  Flip[profdata::HeaderSize + (Flip.size() - profdata::HeaderSize) / 2] ^= 0x5a;
  std::string Cut = F.Bins[F.Hot].Variants[0];
  Cut.resize(Cut.size() - 7);
  F.Malformed = {Flip, Cut};

  // Forged: the eleventh program's honest profile plus one count on a path
  // id that computeInfeasiblePaths proves no execution can take.
  Binary &G = F.Bins.back();
  ArtifactBinding Bind;
  if (!bindArtifactToModule(*G.M, G.Base[0], Bind, Diags)) {
    Err = "cannot bind the forged program";
    return false;
  }
  ModuleSummaries Sums = computeSummaries(*Bind.InstrModule);
  ProfileArtifact Forged = G.Base[0];
  bool Done = false;
  for (uint32_t Fn = 0; Fn < Bind.MI.Funcs.size() && !Done; ++Fn) {
    const FunctionInstrumentation &FI = Bind.MI.Funcs[Fn];
    if (!FI.PG || !FI.Cfg)
      continue;
    FunctionInfeasibility Inf = computeInfeasiblePaths(
        *Bind.InstrModule->function(Fn), *FI.Cfg, *FI.PG, &Sums);
    if (Inf.Intervals.empty())
      continue;
    Forged.Counters.PathCounts[Fn].add(Inf.Intervals[0].Lo, 1);
    Done = true;
  }
  if (!Done) {
    Err = "no statically infeasible path id to forge a count on";
    return false;
  }
  F.Forged = serializeProfileArtifact(Forged);

  // The hot program uploads every (input, weight) once per round; each
  // other program uploads input i once, at weight i + 1.
  auto Honest = [&](uint32_t Bin, uint32_t V) {
    F.Round.push_back({UploadKind::Honest, Bin, V, &F.Bins[Bin].Variants[V]});
  };
  for (uint32_t V = 0; V < Inputs * MaxWeight; ++V)
    Honest(F.Hot, V);
  for (uint32_t Bin = 0; Bin < F.honest(); ++Bin)
    if (Bin != F.Hot)
      for (uint32_t In = 0; In < Inputs; ++In)
        Honest(Bin, In * MaxWeight + In);
  for (unsigned I = 0; I < MalformedPerRound; ++I)
    F.Round.push_back({UploadKind::Malformed, 0, 0, &F.Malformed[I % 2]});
  F.Round.push_back(
      {UploadKind::Forged, uint32_t(F.Bins.size() - 1), 0, &F.Forged});
  Rng R(Seed ^ 0xf1ee7ULL);
  for (size_t I = F.Round.size(); I > 1; --I)
    std::swap(F.Round[I - 1], F.Round[R.below(I)]);
  for (Upload &U : F.Round)
    U.Framed = encodeFrame(FrameType::Upload, *U.Bytes);
  return true;
}

/// Acked honest uploads for the offline fold: (program, epoch tag,
/// variant) -> how many.
using AckCounts = std::map<std::tuple<uint32_t, uint64_t, uint32_t>, uint64_t>;

/// One session's share of the fleet's outcome.
struct Outcome {
  AckCounts Acks;
  std::vector<uint64_t> Done;     ///< replies per window
  std::vector<double> AckWindow;  ///< per window: median honest ack, us
  std::vector<double> LatOn, LatOff; ///< traced run: ack seconds
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Wrong;
};

/// A client's end of one ServeSession: frames in, decoded replies out.
struct Client {
  explicit Client(ShardStore &Store) : Session(Store) {}
  ServeSession Session;
  FrameReader Replies;
  bool Open = true;

  /// Sends \p Framed and returns the one reply it must produce.
  bool call(std::string_view Framed, Frame &Reply) {
    std::string Out;
    Open = Open && Session.consume(Framed, Out);
    Replies.feed(Out);
    return Replies.next(Reply) == FrameStatus::Frame;
  }
};

/// Checks and counts the reply to \p U.
void classify(const Upload &U, const Frame &Reply, Outcome &O) {
  ++O.Attempted;
  const bool IsAck = Reply.Type == FrameType::Ack;
  AckInfo A;
  if (IsAck ? !decodeAckPayload(Reply.Payload, A)
            : Reply.Type != FrameType::Err) {
    O.Wrong.push_back("upload answered with an unexpected frame");
    return;
  }
  bool Failed = false;
  std::string E = checkUploadReply(U.K, IsAck, Failed);
  if (!E.empty())
    O.Wrong.push_back(E);
  O.Failed += Failed;
  if (U.K == UploadKind::Honest && IsAck)
    ++O.Acks[{U.Bin, A.Tag, U.Variant}];
}

struct SnapshotRec {
  uint32_t Bin = 0;
  uint64_t Epoch = 0;
  std::string Artifact;
  double Latency = 0;
  uint64_t Slack = 0;
  EstimateMetrics Est;
};

/// One SNAPSHOT query and the bounds of its aggregate.
bool query(const Fleet &F, Client &C, uint32_t Bin, uint64_t Op,
           SnapshotRec &Rec, std::string &Err) {
  Tracer::Scope Root("fleet.snapshot", Op);
  const double T0 = nowS();
  std::string Sel;
  putU64LE(Sel, moduleProfileFingerprint(*F.Bins[Bin].M));
  Frame Reply;
  SnapshotInfo Snap;
  if (!C.call(encodeFrame(FrameType::Snapshot, Sel), Reply) ||
      Reply.Type != FrameType::SnapshotData ||
      !decodeSnapshotPayload(Reply.Payload, Snap)) {
    Err = "snapshot query rejected";
    return false;
  }
  ProfileArtifact A;
  std::vector<Diagnostic> Diags;
  {
    Tracer::Scope S("profdata.read");
    if (!readProfileArtifactView(Snap.Artifact, A, Diags)) {
      Err = "snapshot artifact does not read";
      return false;
    }
  }
  ArtifactBinding B;
  {
    Tracer::Scope S("profdata.bind");
    if (!bindArtifactToModule(*F.Bins[Bin].M, A, B, Diags)) {
      Err = "snapshot artifact does not bind";
      return false;
    }
  }
  BoundsResult BR = solveBounds(*B.InstrModule, B.MI, A.Counters, nullptr,
                                /*KeepRows=*/false);
  Rec.Latency = nowS() - T0;
  Rec.Bin = Bin;
  Rec.Epoch = Snap.Epoch;
  Rec.Artifact = std::move(Snap.Artifact);
  Rec.Slack = BR.slack();
  Rec.Est = BR.Total;
  return true;
}

/// Session \p Id from \p T0: whole rounds until \p Deadline. Session 0
/// also queries a snapshot every SnapshotPeriodS, alternating mcf and the
/// other programs in turn. A traced run keeps each ack apart by whether
/// its round had a span.
void sessionLoop(const Fleet &F, Client &C, unsigned Id, double T0,
                 double Deadline, bool Traced, std::atomic<uint64_t> &Op,
                 Outcome &O, std::vector<SnapshotRec> &Snaps,
                 std::string &SnapErr, size_t &Rounds) {
  const size_t N = F.Round.size();
  std::vector<double> Lat; // honest acks of the current window, us
  size_t Window = 0;
  std::vector<uint32_t> Others;
  for (uint32_t Bin = 0; Bin < F.honest(); ++Bin)
    if (Bin != F.Hot)
      Others.push_back(Bin);
  Rounds = 0;
  double NextSnap = T0 + SnapshotPeriodS;
  do {
    Tracer::Scope S("fleet.round", Op++);
    std::vector<double> &Split = S.id() >= 0 ? O.LatOn : O.LatOff;
    for (size_t J = 0; J < N; ++J) {
      const Upload &U = F.Round[(J + Id * 5) % N];
      Frame Reply;
      const double Sent = nowS();
      if (!C.call(U.Framed, Reply)) {
        O.Wrong.push_back("an upload got no reply");
        return;
      }
      const double End = nowS();
      classify(U, Reply, O);
      const size_t W = size_t((End - T0) / WindowS);
      if (W != Window && !Lat.empty()) {
        O.AckWindow.push_back(median(Lat));
        Lat.clear();
      }
      Window = W;
      if (O.Done.size() <= W)
        O.Done.resize(W + 1, 0);
      ++O.Done[W];
      if (U.K != UploadKind::Honest)
        continue;
      Lat.push_back((End - Sent) * 1e6);
      if (Traced)
        Split.push_back(End - Sent);
    }
    S.close();
    ++Rounds;
    if (Id == 0 && nowS() >= NextSnap) {
      NextSnap += SnapshotPeriodS;
      const size_t Q = Snaps.size();
      const uint32_t Bin =
          Q % 2 == 0 ? F.Hot : Others[(Q / 2) % Others.size()];
      SnapshotRec Rec;
      if (!query(F, C, Bin, Q, Rec, SnapErr))
        return;
      Snaps.push_back(std::move(Rec));
    }
  } while (nowS() < Deadline);
}

/// Byte identity of every snapshot with the offline fold of the uploads
/// acked with a tag up to its epoch. N acks of one variant fold as one
/// merge at weight N, which the merge algebra makes equal to N merges.
void checkSnapshots(const Fleet &F, const AckCounts &Acks,
                    const std::vector<SnapshotRec> &Snaps, Result &R) {
  std::vector<Diagnostic> Diags;
  for (uint32_t Bin = 0; Bin < F.honest(); ++Bin) {
    const std::vector<std::string> &Vs = F.Bins[Bin].Variants;
    std::vector<ProfileArtifact> Decoded(Vs.size());
    for (size_t V = 0; V < Vs.size(); ++V)
      if (!readProfileArtifactBytes(Vs[V], Decoded[V], Diags)) {
        R.wrong("an upload does not decode offline");
        return;
      }
    std::vector<const SnapshotRec *> Mine;
    for (const SnapshotRec &S : Snaps)
      if (S.Bin == Bin)
        Mine.push_back(&S);
    std::sort(Mine.begin(), Mine.end(),
              [](const SnapshotRec *A, const SnapshotRec *B) {
                return A->Epoch < B->Epoch;
              });
    ProfileArtifact Acc = makeEmptyLike(Decoded[0]);
    auto It = Acks.lower_bound({Bin, 0, 0});
    for (const SnapshotRec *S : Mine) {
      for (; It != Acks.end() && std::get<0>(It->first) == Bin &&
             std::get<1>(It->first) <= S->Epoch;
           ++It) {
        MergeOptions MO;
        MO.Weight = It->second;
        mergeArtifacts(Acc, Decoded[std::get<2>(It->first)], Diags, MO);
      }
      std::string E = checkSnapshotBytes(S->Artifact, Acc);
      if (!E.empty())
        R.wrong(F.Bins[Bin].Name + ", epoch " + std::to_string(S->Epoch) +
                ": " + E);
    }
  }
}

/// One round's honest uploads folded through a fresh store, and the size
/// and slack of each program's aggregate: artifact_bytes and bound_slack
/// come from here, so neither grows with the number of uploads the run's
/// length let through. Each aggregate must be byte-identical to the
/// offline fold of the same uploads.
bool foldOneRound(const Fleet &F, double &Bytes, double &Slack,
                  std::string &Err) {
  ShardStore Store{ServeConfig{}};
  Client C(Store);
  std::vector<ProfileArtifact> Fold(F.honest());
  std::vector<bool> Have(F.honest(), false);
  std::vector<Diagnostic> Diags;
  for (const Upload &U : F.Round) {
    if (U.K != UploadKind::Honest)
      continue;
    Frame Reply;
    ProfileArtifact A;
    if (!C.call(U.Framed, Reply) || Reply.Type != FrameType::Ack ||
        !readProfileArtifactBytes(*U.Bytes, A, Diags)) {
      Err = "an honest upload was not acked";
      return false;
    }
    if (!Have[U.Bin])
      Fold[U.Bin] = makeEmptyLike(A);
    Have[U.Bin] = true;
    mergeArtifacts(Fold[U.Bin], A, Diags);
  }
  Bytes = Slack = 0;
  for (uint32_t Bin = 0; Bin < F.honest(); ++Bin) {
    SnapshotRec Rec;
    if (!query(F, C, Bin, 0, Rec, Err))
      return false;
    if (std::string E = checkSnapshotBytes(Rec.Artifact, Fold[Bin]);
        !E.empty()) {
      Err = F.Bins[Bin].Name + ": " + E;
      return false;
    }
    Bytes += double(Rec.Artifact.size());
    Slack += double(Rec.Slack);
  }
  return true;
}

/// The replay of the closed-loop sequence straight into a ShardStore.
struct Replay {
  std::vector<double> Upload, Validate, Fold, Merge, Snapshot;
};

Replay replayIntoStore(const Fleet &F, size_t Rounds) {
  Replay Out;
  Tracer::Scope Root("replay");
  ShardStore Store{ServeConfig{}};
  std::vector<ProfileArtifact> Acc(F.Bins.size());
  std::vector<bool> Have(F.Bins.size(), false);
  const uint64_t HotFp = moduleProfileFingerprint(*F.Bins[F.Hot].M);
  size_t N = 0;
  for (size_t Rd = 0; Rd < Rounds; ++Rd)
    for (const Upload &U : F.Round) {
      double T0 = nowS();
      {
        Tracer::Scope S("serve.upload");
        Store.upload(*U.Bytes);
      }
      double T1 = nowS();
      ProfileArtifact A;
      std::vector<Diagnostic> Diags;
      bool Ok;
      {
        Tracer::Scope S("serve.validate");
        Ok = readProfileArtifactView(*U.Bytes, A, Diags);
      }
      double T2 = nowS();
      Out.Upload.push_back(T1 - T0);
      Out.Validate.push_back(T2 - T1);
      if (Ok) {
        Out.Fold.push_back((T1 - T0) - (T2 - T1));
        if (!Have[U.Bin]) {
          Acc[U.Bin] = makeEmptyLike(A);
          Have[U.Bin] = true;
        }
        double T3 = nowS();
        {
          Tracer::Scope S("profdata.merge");
          mergeArtifacts(Acc[U.Bin], A, Diags);
        }
        Out.Merge.push_back(nowS() - T3);
      }
      if (++N % 64 == 0) {
        uint64_t E, Fp;
        std::string Bytes, Err;
        double T4 = nowS();
        {
          Tracer::Scope S("serve.snapshot");
          Store.snapshot(true, HotFp, E, Fp, Bytes, Err);
        }
        Out.Snapshot.push_back(nowS() - T4);
      }
    }
  return Out;
}

bool statsOf(Client &C, uint64_t &Acked, uint64_t &Rejected) {
  Frame Reply;
  if (!C.call(encodeFrame(FrameType::Stats, {}), Reply) ||
      Reply.Type != FrameType::StatsData)
    return false;
  auto Num = [&](const char *Key, uint64_t &V) {
    size_t P = Reply.Payload.find(std::string("\"") + Key + "\": ");
    if (P == std::string::npos)
      return false;
    V = std::strtoull(Reply.Payload.c_str() + P + std::strlen(Key) + 4,
                      nullptr, 10);
    return true;
  };
  return Num("uploads_acked", Acked) && Num("uploads_rejected", Rejected);
}

} // namespace

Result runFleetWorkload(const Options &O) {
  Result R;
  Tracer &Tr = Tracer::get();
  const bool Traced = Tr.enabled();
  std::string Err;

  Fleet F;
  std::vector<double> Setup;
  for (int I = 0; I < SetupReps; ++I) {
    const double T0 = nowS();
    if (!setUp(F, O.Seed, Err)) {
      R.wrong("set-up: " + Err);
      return R;
    }
    Setup.push_back(nowS() - T0);
  }
  Tr.enable(false);
  if (!makeUploads(F, O.Seed, Err)) {
    R.wrong(Err);
    return R;
  }
  Tr.enable(Traced);

  // The sessions. The traced run toggles spans in 250 ms slices so that
  // uploads with and without a span interleave (the tracing overhead).
  const unsigned Sessions = std::max(1u, O.Nproc / 2);
  std::vector<std::unique_ptr<Client>> Clients;
  for (unsigned S = 0; S < Sessions; ++S)
    Clients.push_back(std::make_unique<Client>(*F.Store));
  std::vector<Outcome> Outs(Sessions);
  std::vector<size_t> Rounds(Sessions, 0);
  std::vector<SnapshotRec> Snaps;
  std::string SnapErr;
  std::atomic<uint64_t> Op{0};
  const double T0 = nowS();
  const double Deadline = T0 + O.Seconds;
  {
    std::vector<std::thread> Ts;
    for (unsigned S = 0; S < Sessions; ++S)
      Ts.emplace_back([&, S] {
        sessionLoop(F, *Clients[S], S, T0, Deadline, Traced, Op, Outs[S],
                    Snaps, SnapErr, Rounds[S]);
      });
    for (unsigned Slice = 0; Traced && nowS() < Deadline; ++Slice) {
      Tr.enable(Slice % 2 == 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    for (std::thread &T : Ts)
      T.join();
    Tr.enable(Traced);
  }
  const double RssMb = peakRssSelfMb();

  // Capacity: replies per second in each whole window of the run.
  std::vector<double> Capacity, AckWindows;
  for (size_t K = 0; (K + 1) * WindowS <= O.Seconds; ++K) {
    uint64_t N = 0;
    for (const Outcome &Oc : Outs)
      N += K < Oc.Done.size() ? Oc.Done[K] : 0;
    Capacity.push_back(double(N) / WindowS);
  }

  // Every session, malformed uploads included, must still answer.
  uint64_t SAcked = 0, SRejected = 0;
  for (auto &C : Clients)
    if (!C->Open || !statsOf(*C, SAcked, SRejected))
      R.wrong("a session stopped answering after its uploads");
  AckCounts Acks;
  for (const Outcome &Oc : Outs) {
    for (const std::string &W : Oc.Wrong)
      R.wrong(W);
    R.Attempted += Oc.Attempted;
    R.Failed += Oc.Failed;
    for (const auto &[Key, N] : Oc.Acks)
      Acks[Key] += N;
    AckWindows.insert(AckWindows.end(), Oc.AckWindow.begin(),
                      Oc.AckWindow.end());
  }
  if (!SnapErr.empty())
    R.wrong("snapshot: " + SnapErr);

  // Final aggregates of every honest program, for the checks below.
  std::vector<SnapshotRec> Finals(F.honest());
  std::vector<std::vector<uint64_t>> Weight(
      F.honest(), std::vector<uint64_t>(Inputs, 0));
  for (const auto &[Key, N] : Acks) {
    const auto [Bin, Tag, V] = Key;
    Weight[Bin][V / MaxWeight] += N * weightOf(V);
  }
  Tr.enable(false);
  for (uint32_t Bin = 0; Bin < F.honest(); ++Bin)
    if (!query(F, *Clients[0], Bin, 0, Finals[Bin], Err)) {
      R.wrong("final snapshot: " + Err);
      return R;
    }
  double Bytes = 0, Slack = 0;
  if (!foldOneRound(F, Bytes, Slack, Err)) {
    R.wrong("one-round fold: " + Err);
    return R;
  }

  // Oracle.
  std::vector<SnapshotRec> All = Snaps;
  All.insert(All.end(), Finals.begin(), Finals.end());
  checkSnapshots(F, Acks, All, R);
  for (uint32_t Bin = 0; Bin < F.honest(); ++Bin) {
    ProfileArtifact A;
    std::vector<Diagnostic> Diags;
    PlainCounters Want;
    for (unsigned In = 0; In < Inputs; ++In)
      Want.addScaled(F.Bins[Bin].Base[In].Counters, Weight[Bin][In]);
    if (!readProfileArtifactBytes(Finals[Bin].Artifact, A, Diags))
      R.wrong("final snapshot does not decode");
    else if (std::string E = checkPlainCounters(A.Counters, Want); !E.empty())
      R.wrong(F.Bins[Bin].Name + ": final counters: " + E);
  }

  std::vector<double> SnapLat;
  for (const SnapshotRec &S : Snaps)
    SnapLat.push_back(S.Latency);
  const double AckP50 = median(AckWindows);
  if (!Traced) {
    R.add("setup_s", median(Setup), "s");
    R.add("time_to_bounds_s", median(SnapLat), "s");
    R.add("profiles_per_s", median(Capacity), "1/s");
    R.add("ack_p50_us", AckP50, "us");
    R.add("peak_rss_mb", RssMb, "MB");
    R.add("artifact_bytes", Bytes, "B");
    R.add("bound_slack", Slack, "paths");
    return R;
  }

  // Per-layer figures: set-up layers per set-up, snapshot layers per
  // query, serve layers per replayed upload.
  Tr.enable(true);
  Replay Rp = replayIntoStore(F, std::min(Rounds[0], MaxReplayRounds));
  Tr.enable(false);
  Layers L;
  std::vector<Span> S = Tr.spans();
  std::vector<double> Self = selfTimes(S);
  std::map<std::string, double> SetupT, QueryT;
  std::vector<double> Unc;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I].Name == "setup")
      for (const auto &[Name, V] : selfByName(S, Self, int64_t(I)))
        SetupT[Name] += V;
    if (S[I].Name == "fleet.snapshot") {
      for (const auto &[Name, V] : selfByName(S, Self, int64_t(I)))
        QueryT[Name] += V;
      Unc.push_back(Self[I] / (S[I].End - S[I].Start));
    }
  }
  L.setTimes(SetupT, SetupReps);
  L.setTimes(QueryT, double(Unc.size()));
  EstimateMetrics Est;
  for (const SnapshotRec &Sn : Snaps)
    Est.add(Sn.Est);
  const double Q = double(std::max<size_t>(1, Snaps.size()));
  uint64_t Steps = 0;
  for (const Binary &B : F.Bins)
    Steps += B.Steps;
  L.set("interp.instr_steps", double(Steps));
  L.set("analysis.infeasible_pairs", double(Est.InfeasiblePairs) / Q);
  L.set("estimate.solver_evaluations", double(Est.SolverEvaluations) / Q);
  L.set("estimate.exact_pairs", double(Est.ExactPairs) / Q);
  L.set("serve.upload_s", median(Rp.Upload));
  L.set("serve.validate_s", median(Rp.Validate));
  L.set("serve.fold_s", median(Rp.Fold));
  L.set("profdata.merge_s", median(Rp.Merge));
  L.set("serve.snapshot_s", median(Rp.Snapshot));
  L.set("serve.framing_us", AckP50 - median(Rp.Upload) * 1e6);
  L.set("serve.acked", double(SAcked));
  L.set("serve.rejected", double(SRejected));
  std::vector<double> On, Off;
  for (const Outcome &Oc : Outs) {
    On.insert(On.end(), Oc.LatOn.begin(), Oc.LatOn.end());
    Off.insert(Off.end(), Oc.LatOff.begin(), Oc.LatOff.end());
  }
  L.set("trace.overhead_s", median(On) - median(Off));
  L.set("trace.uncovered_share", mean(Unc));
  L.emit(R);
  return R;
}

} // namespace perfbench
