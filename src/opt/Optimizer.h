//===--- Optimizer.h - Artifact-driven IR optimization ----------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile->optimize half of the loop: consumes a merged `.olpp`
/// artifact and rewrites the *pristine* module it was collected from. Two
/// transformations, both driven by counters only overlapping path profiles
/// provide (the reason the paper extends profiling across backedges and
/// procedure boundaries in the first place):
///
///   - Demand-driven inlining. Hot Type I / Type II interprocedural path
///     counts (plus call-break path endings) are aggregated per call site;
///     the hottest sites get their callee cloned into the caller with
///     argument/return rewiring, a fresh register window, and straight-line
///     merging of the seams, so the residual cost is a handful of register
///     moves instead of a frame push, argument copy and frame pop.
///
///   - Superblock formation across backedges. Hot `i!j` loop-interesting
///     paths carry the concrete block trace of the next iteration (the OG
///     suffix); the hot trace is kept on the ORIGINAL blocks (so the loop
///     header stays the single entry and the CFG stays reducible) while
///     side entrances are redirected into appended tail-duplicate clones,
///     and the now single-entry trace chain is merged into straight-line
///     runs the plan builder can fuse into superinstructions.
///
/// Every transform is semantics-preserving by construction and the result
/// is still a *pristine-shaped* module: no probes are inserted or assumed,
/// so the optimized module re-instruments cleanly (Verifier + InstrCheck
/// must both pass on it — `olpp opt` enforces this) and can be profiled
/// again for the next iteration of the loop.
///
/// The third consumer of the artifact lives here too: collectHotLoopPaths /
/// seedTraceTier pre-heat the execution tier's hotness table
/// (ProfileRuntime::TraceTierState) from the persisted counters, so
/// `olpp run` given `--profile` arms trace recording on the
/// first live completion instead of re-measuring heat over a warmup run.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_OPT_OPTIMIZER_H
#define OLPP_OPT_OPTIMIZER_H

#include "profdata/Report.h"
#include "support/Diagnostic.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace olpp {

class Module;
class Function;

/// Deliberate-defect switch for the fuzz harness's mutation oracle
/// (FaultKind::MisinlineCallee): proves a mis-inlined callee is caught by
/// the optimized-vs-reference differential, never set by real tools.
enum class OptFault : uint8_t {
  None,
  MisinlineCallee, ///< drop the return-value move of every inlined callee
};

struct OptOptions {
  /// Most-profitable call sites inlined, in heat order.
  uint32_t MaxInlineSites = 8;
  /// Callee instruction-count cap; bigger callees are never inlined.
  uint32_t MaxCalleeInstrs = 200;
  /// Hot loop traces turned into superblocks, in count order.
  uint32_t MaxSuperblocks = 8;
  /// Candidates colder than this are ignored.
  uint64_t MinCount = 2;
  OptFault Fault = OptFault::None;
};

/// One ranked inline candidate and what happened to it.
struct InlineDecision {
  uint32_t Caller = 0; ///< caller function id
  uint32_t Block = 0;  ///< pre-instrumentation block holding the call
  uint32_t Callee = 0; ///< callee function id
  uint64_t Heat = 0;   ///< summed Type I/II + call-break path counts
  bool Applied = false;
  std::string SkipReason; ///< non-empty when !Applied
};

/// One ranked superblock candidate (a hot backedge-crossing trace) and what
/// happened to it.
struct SuperblockDecision {
  uint32_t Func = 0;
  uint64_t Count = 0;
  /// The OG suffix: header-first block trace of the next iteration, in
  /// pre-instrumentation block ids.
  std::vector<uint32_t> Trace;
  uint32_t DuplicatedBlocks = 0;
  uint32_t MergedBlocks = 0;
  bool Applied = false;
  std::string SkipReason;
};

struct OptStats {
  uint32_t InlinedSites = 0;
  uint32_t Superblocks = 0;
  uint32_t DuplicatedBlocks = 0;
  uint32_t MergedBlocks = 0;
  uint32_t RemovedBlocks = 0; ///< unreachable after merging
};

struct OptResult {
  /// The optimized module (pristine-shaped: no probes). Null when binding
  /// or verification failed; never partially transformed.
  std::unique_ptr<Module> OptModule;
  std::vector<InlineDecision> Inlines;
  std::vector<SuperblockDecision> Superblocks;
  OptStats Stats;

  bool ok() const { return OptModule != nullptr; }
};

/// Optimizes \p Pristine under the counters of \p A. Binds the artifact
/// first (fingerprint-checked re-instrumentation, pass "profdata-bind"); a
/// stale or foreign artifact fails the bind and nothing is transformed.
/// The transformed module is verified before it is returned; a verifier
/// failure (a transform bug) is reported on \p Diags (pass "opt") and
/// rejected wholesale. Returns Out.ok().
bool optimizeModule(const Module &Pristine, const ProfileArtifact &A,
                    const OptOptions &Opts, OptResult &Out,
                    std::vector<Diagnostic> &Diags);

//===----------------------------------------------------------------------===//
// Building blocks (unit-testable pieces of optimizeModule)
//===----------------------------------------------------------------------===//

/// Ranks call sites by artifact heat: Type I / Type II interprocedural
/// counts attributed through the call-site table, plus decoded call-break
/// path endings. Hottest first; cold (< Opts.MinCount) sites are dropped.
/// Decisions come back unapplied.
std::vector<InlineDecision>
rankInlineCandidates(const ProfileArtifact &A, const ModuleInstrumentation &MI,
                     const OptOptions &Opts);

/// Ranks hot backedge-crossing traces (decoded entries with a Backedge end
/// and an OG suffix of at least two blocks). Hottest first.
std::vector<SuperblockDecision>
rankSuperblockCandidates(const ProfileArtifact &A,
                         const ModuleInstrumentation &MI,
                         const OptOptions &Opts);

/// Inlines the unique call in block \p BlockId of \p Caller (both in \p M).
/// On success returns true; otherwise fills \p SkipReason and leaves the
/// function untouched. \p MaxCalleeInstrs caps the cloned body.
bool inlineCallSite(Module &M, Function &Caller, uint32_t BlockId,
                    uint32_t MaxCalleeInstrs, OptFault Fault,
                    std::string &SkipReason);

/// Forms a superblock along \p Trace (header-first block ids) in \p F:
/// tail-duplicates side-entered trace blocks (originals keep the hot path)
/// and merges the resulting single-entry straight-line seams. On success
/// returns true and reports the duplicated/merged block counts; otherwise
/// fills \p SkipReason and leaves the function untouched.
bool formSuperblock(Function &F, const std::vector<uint32_t> &Trace,
                    uint32_t &DuplicatedBlocks, uint32_t &MergedBlocks,
                    std::string &SkipReason);

//===----------------------------------------------------------------------===//
// Trace-tier seeding (the artifact-driven warmup skip)
//===----------------------------------------------------------------------===//

/// One hot overlapping path id worth pre-heating the tracing tier with.
struct HotPathSeed {
  uint32_t Func = 0;
  int64_t Id = 0;
  uint64_t Count = 0;
};

/// The artifact's hot loop-interesting path ids (Backedge-ended decoded
/// entries), hottest first, capped at \p MaxSeeds and floored at
/// \p MinCount. The ids are in the same space the interpreter feeds to
/// TraceTierState::noteHot, so seeding them reproduces warmed-up heat.
std::vector<HotPathSeed> collectHotLoopPaths(const ProfileArtifact &A,
                                             const ModuleInstrumentation &MI,
                                             uint64_t MinCount,
                                             size_t MaxSeeds);

/// Installs \p Seeds into \p Prof's tracing-tier hotness table.
void seedTraceTier(ProfileRuntime &Prof, const std::vector<HotPathSeed> &Seeds);

} // namespace olpp

#endif // OLPP_OPT_OPTIMIZER_H
