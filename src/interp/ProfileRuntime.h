//===--- ProfileRuntime.h - Profile counter stores --------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter stores an instrumented run writes into, plus the transient
/// interprocedural hand-off state (shadow stack, pending return). The
/// decoding of ids back into paths lives in the profile/overlap/interproc
/// modules; this layer only stores raw numbers.
///
/// Path counters are dense vectors under a configured id space and spill to
/// a hash map above it; the interprocedural 4-tuple counters live in an
/// open-addressing flat table (see interp/CounterStore.h).
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_INTERP_PROFILERUNTIME_H
#define OLPP_INTERP_PROFILERUNTIME_H

#include "interp/CounterStore.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace olpp {

/// Counter stores written by probes during an instrumented run.
class ProfileRuntime {
public:
  using PathCountMap = PathCounterStore::Map;
  using InterprocMap = FlatInterprocTable::Map;

  explicit ProfileRuntime(size_t NumFunctions) : PathCounts(NumFunctions) {}

  /// Per-function path-id counters. BL paths and loop-overlap paths of one
  /// function share this id space (they are numbered on one path graph).
  /// Call configurePathStore once the id space is known to get the dense
  /// representation; unconfigured stores count correctly through the spill
  /// map.
  std::vector<PathCounterStore> PathCounts;

  /// Type I / Type II interprocedural overlap counters.
  FlatInterprocTable TypeICounts;
  FlatInterprocTable TypeIICounts;

  /// Declares function \p F's path-id space [0, IdSpace) so its counters can
  /// use the dense form (no-op above PathCounterStore::DenseLimit).
  void configurePathStore(uint32_t F, uint64_t IdSpace) {
    PathCounts[F].configure(IdSpace);
  }

  // --- transient state used while a run is in progress -----------------

  struct ShadowEntry {
    uint32_t CallSite = 0;
    int64_t CallerPre = 0;
  };
  std::vector<ShadowEntry> ShadowStack;

  struct PendingReturn {
    bool Valid = false;
    uint32_t Callee = 0;
    int64_t PathId = 0;
  };
  PendingReturn Pending;

  /// Hot-path tracing tier bookkeeping (see interp/TraceTier.h). The
  /// hotness table and blacklist persist across runs like the counters do
  /// (heat accumulated in one batch run should still trigger recording in
  /// the next); the armed-recording flag is transient — a run that aborts
  /// between arming and recording must not leak the request into the next
  /// batch run, exactly like a stale shadow stack.
  struct TraceTierState {
    struct HotSlot {
      uint64_t Key = 0;
      uint32_t Count = 0;
      bool Disabled = false;
    };
    static constexpr size_t NumSlots = 1024;
    std::vector<HotSlot> Hot;

    /// Function id armed for recording at its next backedge, or -1.
    int64_t PendingRecord = -1;
    /// Hot-table slot that triggered the arm (disabled on give-up).
    uint32_t PendingSlot = 0;
    /// Anchors ((F << 32) | Pc) whose recordings aborted or failed to
    /// compile; never re-attempted.
    std::vector<uint64_t> Blacklist;

    static uint64_t mixKey(uint32_t F, int64_t Id) {
      uint64_t X = (static_cast<uint64_t>(F) << 48) ^
                   static_cast<uint64_t>(Id) * 0x9e3779b97f4a7c15ULL;
      X ^= X >> 29;
      return X | 1; // 0 marks an empty slot
    }

    /// Records one completion of overlapping path \p Id in function \p F;
    /// arms recording once the count reaches \p Threshold.
    void noteHot(uint32_t F, int64_t Id, uint32_t Threshold) {
      if (PendingRecord >= 0)
        return;
      if (Hot.empty())
        Hot.resize(NumSlots);
      const uint64_t Key = mixKey(F, Id);
      size_t I = static_cast<size_t>(Key) & (NumSlots - 1);
      for (size_t Probe = 0; Probe < 8; ++Probe, I = (I + 1) & (NumSlots - 1)) {
        HotSlot &S = Hot[I];
        if (S.Key == Key) {
          if (S.Disabled)
            return;
          if (S.Count != UINT32_MAX)
            ++S.Count;
          if (S.Count >= Threshold) {
            PendingRecord = F;
            PendingSlot = static_cast<uint32_t>(I);
          }
          return;
        }
        if (S.Key == 0) {
          S.Key = Key;
          S.Count = 1;
          if (S.Count >= Threshold) {
            PendingRecord = F;
            PendingSlot = static_cast<uint32_t>(I);
          }
          return;
        }
      }
      // Cluster full: drop the sample. Heat attribution is best-effort.
    }

    bool anchorBlacklisted(uint32_t F, uint32_t Pc) const {
      const uint64_t K = (static_cast<uint64_t>(F) << 32) | Pc;
      for (uint64_t B : Blacklist)
        if (B == K)
          return true;
      return false;
    }
    void blacklistAnchor(uint32_t F, uint32_t Pc) {
      if (!anchorBlacklisted(F, Pc))
        Blacklist.push_back((static_cast<uint64_t>(F) << 32) | Pc);
    }

    void reset() {
      Hot.clear();
      PendingRecord = -1;
      PendingSlot = 0;
      Blacklist.clear();
    }
  };
  TraceTierState Tier;

  /// Clears transient state between runs but keeps accumulated counters.
  /// A run that aborts (fuel, traps) or ends inside instrumented callees
  /// can leave shadow-stack entries and a pending-return record behind;
  /// every Interpreter::run calls this first so reusing one runtime across
  /// batch runs cannot leak hand-off state between them.
  void resetTransient() {
    ShadowStack.clear();
    Pending = PendingReturn();
    Tier.PendingRecord = -1;
  }

  /// True when no hand-off state is live: the runtime is between runs and
  /// its counters are safe to read, merge or compare. An aborted run can
  /// legitimately leave this false (e.g. fuel exhausted between a call
  /// probe and the frame push); resetTransient restores it.
  bool transientClean() const {
    return ShadowStack.empty() && !Pending.Valid && Tier.PendingRecord < 0;
  }

  /// Clears everything.
  void clear() {
    for (auto &S : PathCounts)
      S.clear();
    TypeICounts.clear();
    TypeIICounts.clear();
    Tier.reset();
    resetTransient();
  }

  /// Adds every counter of \p O into this runtime (used to merge per-thread
  /// runtimes after a parallel batch run). Transient state is not merged;
  /// both runtimes must be between runs.
  void mergeFrom(const ProfileRuntime &O) {
    if (PathCounts.size() < O.PathCounts.size())
      PathCounts.resize(O.PathCounts.size());
    for (size_t F = 0; F < O.PathCounts.size(); ++F)
      PathCounts[F].mergeFrom(O.PathCounts[F]);
    TypeICounts.mergeFrom(O.TypeICounts);
    TypeIICounts.mergeFrom(O.TypeIICounts);
  }
};

} // namespace olpp

#endif // OLPP_INTERP_PROFILERUNTIME_H
