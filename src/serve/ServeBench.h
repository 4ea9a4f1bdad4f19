//===- ServeBench.h - fleet upload load generator -------------------------===//
//
// Simulates an upload fleet against a running `olpp serve` daemon: N client
// connections each stream uploads from a derived artifact corpus and wait
// for the ack (one request in flight per client, like a real fleet
// uploader), recording per-upload round-trip latency. Optionally finishes
// with a SNAPSHOT and proves the bit-identity contract: the snapshot must
// equal the offline fold of exactly the uploads acked with tag <= epoch.
//
// Used by `olpp serve-bench`.
//
//===----------------------------------------------------------------------===//
#ifndef OLPP_SERVE_SERVEBENCH_H
#define OLPP_SERVE_SERVEBENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace olpp::serve {

struct FleetOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  unsigned Clients = 16;
  unsigned UploadsPerClient = 32;
  /// Request a final snapshot and check it bit-identical to the offline
  /// fold of the acked uploads.
  bool Verify = true;
};

struct FleetReport {
  uint64_t Uploads = 0;  ///< acked
  uint64_t Rejected = 0; ///< Err replies to uploads
  uint64_t Bytes = 0;    ///< payload bytes of acked uploads
  double WallSeconds = 0.0;
  /// Per-acked-upload round-trip latency, microseconds (unsorted).
  std::vector<double> LatenciesUs;
  uint64_t MaxAckTag = 0;
  // Filled when FleetOptions::Verify:
  uint64_t SnapshotEpoch = 0;
  uint64_t Fingerprint = 0;
  uint64_t SnapshotBytes = 0;
  bool BitIdentity = false;
};

/// Runs the fleet against \p Opts.Host:Port uploading from \p Corpus
/// (serialized .olpp artifacts; clients stride through it round-robin).
/// Returns false with \p Err on connection/protocol failure or a failed
/// bit-identity check.
bool runUploadFleet(const FleetOptions &Opts,
                    const std::vector<std::string> &Corpus, FleetReport &Out,
                    std::string &Err);

/// Sorts a copy of \p Samples and returns the \p P percentile (0..100,
/// nearest-rank). 0.0 when empty.
double percentileUs(const std::vector<double> &Samples, double P);

} // namespace olpp::serve

#endif // OLPP_SERVE_SERVEBENCH_H
