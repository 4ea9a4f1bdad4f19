//===--- Oracle.h - Independent output checks -------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expected outputs computed apart from the code under measurement, and the
/// checks that compare the program's outputs against them. Expected values
/// come from the reference engine, from trace ground truth, or from plain
/// arithmetic over counters; none of them runs inside a timed region. Each
/// check returns an empty string when the output is right and a message
/// otherwise, so the planted-value self test can drive them directly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "Common.h"

#include "interp/ProfileRuntime.h"
#include "profdata/ProfData.h"
#include "wpp/ExpectedCounters.h"

#include <array>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One row of the table `olpp estimate` prints.
struct Row {
  std::string Kind, Where;
  uint64_t Definite = 0, Potential = 0;
};

/// Parses the "result N, overhead X %" line of `olpp profile`.
bool parseProfileResult(const std::string &Out, int64_t &Result);
/// Parses the bounds table of `olpp estimate`.
bool parseEstimateRows(const std::string &Out, std::vector<Row> &Rows);
/// Sum of (Potential - Definite) over \p Rows.
uint64_t slackOf(const std::vector<Row> &Rows);

/// What one program run must produce, from a reference-engine trace.
struct ProfileTruth {
  int64_t ReturnValue = 0;
  uint64_t Fingerprint = 0; ///< of the compiled source
  olpp::ExpectedCounters Expected;
  /// Every row estimate prints, in print order: kind, where, Real from
  /// the trace, and the bounds the sweep solver (the interval solver's
  /// independent implementation) finds over the trace-derived counters.
  struct RealRow {
    std::string Kind, Where;
    uint64_t Real = 0, Definite = 0, Potential = 0;
  };
  std::vector<RealRow> Rows;
};

bool computeProfileTruth(const std::string &Source, uint32_t K,
                         const std::vector<int64_t> &Args, ProfileTruth &Out,
                         std::string &Err);

std::string checkResult(int64_t Printed, int64_t Want);
std::string checkFingerprint(uint64_t Got, uint64_t Want);
/// Artifact counters against computeExpectedCounters over the trace.
std::string checkExpectedCounters(const olpp::ProfileRuntime &Got,
                                  const olpp::ExpectedCounters &Want);
/// Definite <= Real <= Potential on every printed row, rows in order, and
/// the printed bounds equal the sweep solver's.
std::string checkBounds(const std::vector<Row> &Printed,
                        const std::vector<ProfileTruth::RealRow> &Want);

/// Counters summed by plain integer arithmetic, for the merge checks.
struct PlainCounters {
  using Key = std::array<int64_t, 4>;
  std::vector<std::map<int64_t, uint64_t>> Paths;
  std::map<Key, uint64_t> TypeI, TypeII;
  bool Overflow = false;

  /// Adds \p Times copies of every counter of \p P.
  void addScaled(const olpp::ProfileRuntime &P, uint64_t Times);
};

/// Merged counters against a plain-arithmetic sum, counter by counter.
std::string checkPlainCounters(const olpp::ProfileRuntime &Got,
                               const PlainCounters &Want);

/// A served snapshot against the offline fold of the uploads it must hold.
std::string checkSnapshotBytes(const std::string &Snapshot,
                               const olpp::ProfileArtifact &OfflineFold);

/// What `olpp profile` and `olpp estimate --profile` produce for one
/// input, and what the traced run's in-process replay of the two commands
/// must reproduce of it.
struct CommandOutputs {
  std::string ResultLine;         ///< profile's "result N, overhead X %"
  olpp::ProfileArtifact Artifact; ///< the written .olpp
  std::vector<Row> Rows;          ///< estimate's bounds table
};

/// The first line of \p Out, without its newline.
std::string firstLine(const std::string &Out);

/// The replay against the commands: the same result line, the same
/// artifact bytes but for the time stamp, the same bounds rows. A child
/// that makes the replay's baseline trace (\p ReplayTraceBytes, 0 without
/// ground truth) peaks at least that high, so a trace larger than the
/// child's peak RSS means the command no longer traces its baseline run.
std::string checkReplay(const CommandOutputs &Replay,
                        const CommandOutputs &Child, uint64_t ReplayTraceBytes,
                        uint64_t ChildRssBytes);

enum class UploadKind : uint8_t { Honest, Malformed, Forged };

/// The reply an upload of kind \p K must get: honest ones are acked,
/// malformed ones rejected. An acked forged upload is not a wrong reply
/// but a failed operation, reported through \p Failed.
std::string checkUploadReply(UploadKind K, bool IsAck, bool &Failed);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
