//===--- Optimizer.cpp - Artifact-driven optimization pipeline -------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include "ir/Module.h"
#include "ir/Verifier.h"
#include "profile/ProfileDecode.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace olpp;

//===----------------------------------------------------------------------===//
// Ranking
//===----------------------------------------------------------------------===//

std::vector<InlineDecision>
olpp::rankInlineCandidates(const ProfileArtifact &A,
                           const ModuleInstrumentation &MI,
                           const OptOptions &Opts) {
  // Heat per module-wide call-site id. Type I counts the callee prefixes
  // entered through the site, Type II the continuations resumed behind it,
  // and call-break path endings cover artifacts collected without the
  // interprocedural tables; the three overlap, which is fine for a ranking
  // signal (the ordering is what matters, not the absolute number).
  std::unordered_map<uint32_t, uint64_t> Heat;
  for (const auto &[K, C] : A.Counters.TypeICounts.toMap())
    Heat[K.CallSite] += C;
  for (const auto &[K, C] : A.Counters.TypeIICounts.toMap())
    Heat[K.CallSite] += C;

  std::map<std::pair<uint32_t, uint32_t>, uint32_t> SiteAt;
  for (const CallSiteInfo &CS : MI.CallSites)
    SiteAt[{CS.Func, CS.Block}] = CS.CsId;
  const size_t NumF = std::min(MI.Funcs.size(), A.Counters.PathCounts.size());
  for (uint32_t F = 0; F < NumF; ++F) {
    if (!MI.Funcs[F].PG)
      continue;
    for (const DecodedEntry &E :
         decodeProfile(*MI.Funcs[F].PG, A.Counters.PathCounts[F])) {
      // A call-break path's last white block is the call block.
      if (E.End != PathEnd::CallBreak || E.White.Blocks.empty())
        continue;
      auto It = SiteAt.find({F, E.White.Blocks.back()});
      if (It != SiteAt.end())
        Heat[It->second] += E.Count;
    }
  }

  std::vector<InlineDecision> Out;
  for (const auto &[CsId, H] : Heat) {
    if (H < Opts.MinCount || CsId >= MI.CallSites.size())
      continue;
    const CallSiteInfo &CS = MI.CallSites[CsId];
    InlineDecision D;
    D.Caller = CS.Func;
    D.Block = CS.Block;
    D.Callee = CS.Callee;
    D.Heat = H;
    Out.push_back(std::move(D));
  }
  std::sort(Out.begin(), Out.end(),
            [](const InlineDecision &X, const InlineDecision &Y) {
              if (X.Heat != Y.Heat)
                return X.Heat > Y.Heat;
              if (X.Caller != Y.Caller)
                return X.Caller < Y.Caller;
              return X.Block < Y.Block;
            });
  return Out;
}

std::vector<SuperblockDecision>
olpp::rankSuperblockCandidates(const ProfileArtifact &A,
                               const ModuleInstrumentation &MI,
                               const OptOptions &Opts) {
  // Distinct overlapping paths (different white prefixes) share one next-
  // iteration suffix; the suffix is the superblock trace, so their counts
  // aggregate.
  std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t> Agg;
  const size_t NumF = std::min(MI.Funcs.size(), A.Counters.PathCounts.size());
  for (uint32_t F = 0; F < NumF; ++F) {
    if (!MI.Funcs[F].PG)
      continue;
    for (const DecodedEntry &E :
         decodeProfile(*MI.Funcs[F].PG, A.Counters.PathCounts[F]))
      if (E.End == PathEnd::Backedge && E.Suffix.size() >= 2)
        Agg[{F, E.Suffix}] += E.Count;
  }
  std::vector<SuperblockDecision> Out;
  for (const auto &[Key, C] : Agg) {
    if (C < Opts.MinCount)
      continue;
    SuperblockDecision D;
    D.Func = Key.first;
    D.Trace = Key.second;
    D.Count = C;
    Out.push_back(std::move(D));
  }
  std::sort(Out.begin(), Out.end(),
            [](const SuperblockDecision &X, const SuperblockDecision &Y) {
              if (X.Count != Y.Count)
                return X.Count > Y.Count;
              if (X.Func != Y.Func)
                return X.Func < Y.Func;
              return X.Trace < Y.Trace;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

bool olpp::optimizeModule(const Module &Pristine, const ProfileArtifact &A,
                          const OptOptions &Opts, OptResult &Out,
                          std::vector<Diagnostic> &Diags) {
  Out = OptResult();

  // Fingerprint-checked rebind: counters may only drive transforms on the
  // exact module they were collected from.
  ArtifactBinding B;
  if (!bindArtifactToModule(Pristine, A, B, Diags))
    return false;

  std::unique_ptr<Module> OM = Pristine.clone();

  // Inlining first: it only appends blocks and edits call blocks in place,
  // so the pristine block ids every later decision speaks in stay valid.
  Out.Inlines = rankInlineCandidates(A, B.MI, Opts);
  for (InlineDecision &D : Out.Inlines) {
    if (Out.Stats.InlinedSites >= Opts.MaxInlineSites) {
      D.SkipReason = "over the inline budget";
      continue;
    }
    if (inlineCallSite(*OM, *OM->function(D.Caller), D.Block,
                       Opts.MaxCalleeInstrs, Opts.Fault, D.SkipReason)) {
      D.Applied = true;
      ++Out.Stats.InlinedSites;
    }
  }

  // Superblocks second. Each trace is re-validated against the live CFG
  // inside formSuperblock, so traces invalidated by inlining (or by a
  // hotter superblock in the same loop) skip rather than misapply.
  Out.Superblocks = rankSuperblockCandidates(A, B.MI, Opts);
  for (SuperblockDecision &D : Out.Superblocks) {
    if (Out.Stats.Superblocks >= Opts.MaxSuperblocks) {
      D.SkipReason = "over the superblock budget";
      continue;
    }
    if (formSuperblock(*OM->function(D.Func), D.Trace, D.DuplicatedBlocks,
                       D.MergedBlocks, D.SkipReason)) {
      D.Applied = true;
      ++Out.Stats.Superblocks;
      Out.Stats.DuplicatedBlocks += D.DuplicatedBlocks;
      Out.Stats.MergedBlocks += D.MergedBlocks;
    }
  }

  // Sweep the husks the seam merging left behind, then prove the result
  // well-formed. A verifier finding here is a transform bug; the module is
  // rejected wholesale, never returned half-optimized.
  for (const auto &F : OM->functions())
    Out.Stats.RemovedBlocks +=
        static_cast<uint32_t>(F->removeUnreachableBlocks());
  std::vector<Diagnostic> VDiags = verifyModuleDiags(*OM);
  if (!VDiags.empty()) {
    Diags.push_back(makeDiag(
        Severity::Error, "opt", "",
        "optimized module failed verification; transforms rejected"));
    Diags.insert(Diags.end(), VDiags.begin(), VDiags.end());
    return false;
  }
  Out.OptModule = std::move(OM);
  return true;
}
