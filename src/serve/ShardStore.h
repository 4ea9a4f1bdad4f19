//===- ShardStore.h - sharded per-fingerprint merge trees -----------------===//
//
// The aggregation state behind `olpp serve`: validated uploads fold into
// per-fingerprint accumulator artifacts spread over lock-sharded maps, and
// epoch-based snapshots answer queries with an exact containment contract
// while ingest continues.
//
// ## Epoch exactness
//
// A global atomic epoch counter orders snapshots against folds. Every fold
// reads the counter under its shard lock and acks the upload with that tag.
// Each fingerprint entry keeps two accumulators: `Hist` (sealed history)
// and `Cur` (the open accumulator, stamped with the tag of its first fold).
// A snapshot increments the epoch to E+1 (publishing snapshot id E), then
// visits each shard and seals any Cur with tag <= E into Hist before
// reading Hist. Folds racing with the snapshot observe the incremented
// counter, land in a fresh Cur tagged E+1, and are excluded. Hence:
//
//   snapshot E == merge of exactly the uploads acked with tag <= E,
//
// bit-identically (PR 5 proved the merge algebra associative, commutative
// and order-independent, and metadata folds commutatively), which is the
// property `olpp serve-bench`'s bit-identity gate and fuzz oracle 11 check
// against an offline `profdata merge` fold.
//
// Malformed uploads are rejected by the checked reader before any lock is
// taken; a rejected, truncated or mid-disconnect upload can never move a
// counter.
//
//===----------------------------------------------------------------------===//
#ifndef OLPP_SERVE_SHARDSTORE_H
#define OLPP_SERVE_SHARDSTORE_H

#include "profdata/ProfData.h"
#include "support/Framing.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace olpp::serve {

/// Daemon/store tuning knobs.
struct ServeConfig {
  /// Lock shards the fingerprint map is spread over.
  uint32_t Shards = 16;
  /// Per-frame payload cap (support/Framing.h enforces it pre-allocation).
  uint64_t MaxFrameBytes = DefaultMaxFramePayload;
  /// Buffered-input budget per connection; a connection over budget stops
  /// being read (TCP backpressure) until the backlog drains.
  uint64_t PerConnBudget = 4ull << 20;
  /// Global buffered-input budget across all connections.
  uint64_t GlobalBudget = 256ull << 20;
  /// Connections stuck mid-frame or with undrained replies longer than
  /// this are closed. 0 disables the sweep.
  uint32_t SlowClientTimeoutMs = 30000;
  /// Deliberate defect switch for fuzz oracle 11's mutation test
  /// (FaultKind::DropFrameAck): ack the first upload without folding it.
  /// Must never be enabled by a real tool.
  bool FaultDropFold = false;
};

/// Monotonic ingest counters (readable while the daemon runs).
struct ServeStats {
  std::atomic<uint64_t> UploadsAcked{0};
  std::atomic<uint64_t> UploadsRejected{0};
  std::atomic<uint64_t> BytesIngested{0}; ///< payload bytes of acked uploads
  std::atomic<uint64_t> Snapshots{0};
  std::atomic<uint64_t> FramingErrors{0};
};

enum class UploadStatus : uint8_t {
  Ok,           ///< validated and folded (acked)
  Malformed,    ///< checked reader rejected the payload wholesale
  Incompatible, ///< valid artifact, but clashes with the resident entry
};

struct UploadResult {
  UploadStatus Status = UploadStatus::Ok;
  uint64_t Tag = 0;         ///< epoch tag (only meaningful on Ok)
  uint64_t Fingerprint = 0; ///< module fingerprint (only meaningful on Ok)
  std::string Error;        ///< first diagnostic when rejected
};

class ShardStore {
public:
  explicit ShardStore(const ServeConfig &Cfg);

  /// Validate \p Bytes with the checked .olpp reader and fold it into its
  /// fingerprint's accumulator. Thread-safe; rejection never touches state.
  UploadResult upload(std::string_view Bytes);

  /// Publish a snapshot: \p EpochOut gets the snapshot id E, \p Out the
  /// serialized merge of exactly the uploads acked with tag <= E for the
  /// selected fingerprint. With \p HaveFp false the store must hold exactly
  /// one fingerprint (the common single-binary fleet). Returns false with
  /// \p Error set when there is no data / ambiguous or unknown fingerprint.
  bool snapshot(bool HaveFp, uint64_t Fp, uint64_t &EpochOut,
                uint64_t &FingerprintOut, std::string &Out,
                std::string &Error);

  /// Fingerprints currently resident (any tag).
  std::vector<uint64_t> fingerprints() const;

  /// Current epoch counter value (tags future folds).
  uint64_t epoch() const { return Epoch.load(std::memory_order_relaxed); }

  /// One-line JSON stats document (the StatsData reply payload).
  std::string statsJson() const;

  ServeStats &stats() { return Stats; }
  const ServeConfig &config() const { return Cfg; }

private:
  struct Entry {
    ProfileArtifact Hist; ///< sealed accumulator (rooted at makeEmptyLike)
    ProfileArtifact Cur;  ///< open accumulator
    uint64_t CurTag = 0;
    bool HasCur = false;
  };
  struct Shard {
    mutable std::mutex Mu;
    std::map<uint64_t, Entry> Entries;
  };

  Shard &shardFor(uint64_t Fp) { return *ShardsV[Fp % ShardsV.size()]; }

  ServeConfig Cfg;
  ServeStats Stats;
  std::atomic<uint64_t> Epoch{1}; ///< starts at 1 so tag 0 means "never"
  std::atomic<bool> FaultArmed{false};
  /// Serializes snapshot publication (folds are not blocked by this).
  std::mutex SnapMu;
  std::vector<std::unique_ptr<Shard>> ShardsV;
};

} // namespace olpp::serve

#endif // OLPP_SERVE_SHARDSTORE_H
