//===--- Instrumenter.cpp - Probe insertion for path profiling --------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "profile/Instrumenter.h"

#include "analysis/EdgeSplit.h"
#include "ir/Module.h"

#include <cassert>
#include <map>

using namespace olpp;

namespace {

/// Assembles the per-site probe programs for one function. Pure: reads the
/// function shape and the instrumentation metadata only.
class PlanBuilder {
public:
  PlanBuilder(const Function &F, const FunctionInstrumentation &Meta,
              const InstrumentOptions &Opts,
              const std::vector<CallSiteInfo> &CallSites)
      : F(F), Meta(Meta), Opts(Opts), CallSites(CallSites) {}

  ProbePlan build() {
    assembleOps();
    return std::move(Plan);
  }

private:
  using Ops = std::vector<ProbeOp>;

  int64_t edgeInc(uint32_t PGEdgeId) const {
    assert(PGEdgeId != UINT32_MAX && "missing path-graph edge");
    return Meta.PG->edge(PGEdgeId).Inc;
  }

  /// Inc of the generic count/flush dummy leaving path-graph node \p Node.
  int64_t dummyInc(uint32_t Node) const {
    return edgeInc(Meta.PG->exitCountEdgeFrom(Node));
  }

  /// OG flush op for loop \p L at block \p B (which must be in the OG).
  ProbeOp olFlushAt(uint32_t L, uint32_t B) const {
    uint32_t Node = Meta.PG->ogNode(L, B);
    assert(Node != UINT32_MAX && "flush outside the OG");
    return {ProbeOpKind::OLFlush, L, dummyInc(Node), 0};
  }

  void assembleOps() {
    const CfgView &Cfg = *Meta.Cfg;
    const LoopInfo &LI = *Meta.Loops;
    const PathGraph &PG = *Meta.PG;
    uint32_t N = Cfg.numBlocks();

    Plan.EdgeOps.clear();
    Plan.BlockEntryOps.assign(N, {});
    Plan.PreCallOps.assign(N, {});
    Plan.PostCallOps.assign(N, {});
    Plan.RetOps.assign(N, {});

    // Function entry.
    Plan.FuncEntryOps.clear();
    Plan.FuncEntryOps.push_back(
        {ProbeOpKind::BLSet, 0,
         edgeInc(PG.entryStartEdgeTo(PG.whiteNode(F.entry()->Id))), 0});
    if (Opts.Interproc)
      Plan.FuncEntryOps.push_back({ProbeOpKind::IPEnter, 0, 0, 0});

    // Per-CFG-edge programs.
    for (uint32_t B = 0; B < N; ++B) {
      if (!Cfg.isReachable(B))
        continue;
      bool BIsBreakingCall = Opts.CallBreaking && isCallBlock(F, B);
      uint32_t SrcWhite = PG.whiteNode(B, /*CallStart=*/BIsBreakingCall);
      for (uint32_t S : Cfg.succs(B)) {
        Ops E;
        uint32_t BeLoop = LI.loopForBackedge(B, S);
        if (BeLoop != UINT32_MAX) {
          // Any backedge ends every active overlap region at B.
          if (Opts.Interproc)
            appendInterprocFlushes(E, B);
          if (Opts.LoopOverlap) {
            for (uint32_t L = 0; L < LI.numLoops(); ++L)
              if (L != BeLoop && PG.ogNode(L, B) != UINT32_MAX)
                E.push_back(olFlushAt(L, B));
            if (PG.ogNode(BeLoop, B) != UINT32_MAX)
              E.push_back(olFlushAt(BeLoop, B));
            // Arm the new overlap path, then restart the BL register.
            E.push_back({ProbeOpKind::OLArm, BeLoop,
                         edgeInc(PG.armEdgeFor(BeLoop, B)), 0});
          } else {
            // Plain BL: count the path ending at this backedge.
            uint32_t CountEdge = UINT32_MAX;
            for (uint32_t PE : PG.outEdges(SrcWhite)) {
              const PGEdge &Ed = PG.edge(PE);
              if (Ed.Kind == PGEdgeKind::ExitCount && Ed.CfgFrom == B &&
                  Ed.CfgTo == S) {
                CountEdge = PE;
                break;
              }
            }
            E.push_back({ProbeOpKind::BLCount, 0, edgeInc(CountEdge), 0});
          }
          E.push_back({ProbeOpKind::BLSet, 0,
                       edgeInc(PG.entryStartEdgeTo(PG.whiteNode(S))), 0});
          Plan.EdgeOps[{B, S}] = std::move(E);
          continue;
        }

        // Normal edge: loop-exit flushes, then white/OG/interproc incs.
        if (Opts.LoopOverlap)
          for (uint32_t L = 0; L < LI.numLoops(); ++L)
            if (LI.loop(L).contains(B) && !LI.loop(L).contains(S) &&
                PG.ogNode(L, B) != UINT32_MAX)
              E.push_back(olFlushAt(L, B));

        uint32_t White = PG.realEdgeBetween(SrcWhite, PG.whiteNode(S));
        if (int64_t Inc = edgeInc(White))
          E.push_back({ProbeOpKind::BLAdd, 0, Inc, 0});

        if (Opts.LoopOverlap)
          for (uint32_t L = 0; L < LI.numLoops(); ++L) {
            uint32_t From = PG.ogNode(L, B), To = PG.ogNode(L, S);
            if (From == UINT32_MAX || To == UINT32_MAX)
              continue;
            uint32_t Og = PG.realEdgeBetween(From, To);
            if (Og == UINT32_MAX)
              continue; // B is a non-extendable OG node
            if (int64_t Inc = edgeInc(Og))
              E.push_back({ProbeOpKind::OLAdd, L, Inc, 0});
          }

        if (Opts.Interproc)
          appendInterprocEdgeIncs(E, B, S);

        if (!E.empty())
          Plan.EdgeOps[{B, S}] = std::move(E);
      }
    }

    // Block entry: predicate counting for every region the block is in.
    for (uint32_t B = 0; B < N; ++B) {
      if (!Cfg.isReachable(B) || !F.block(B)->isPredicate())
        continue;
      Ops &E = Plan.BlockEntryOps[B];
      if (Opts.LoopOverlap)
        for (uint32_t L = 0; L < LI.numLoops(); ++L) {
          uint32_t Node = PG.ogNode(L, B);
          if (Node == UINT32_MAX)
            continue;
          int64_t C0 = PG.exitCountEdgeFrom(Node) == UINT32_MAX
                           ? 0
                           : dummyInc(Node);
          E.push_back({ProbeOpKind::OLPred, L, C0,
                       static_cast<int64_t>(Opts.LoopDegree) + 1});
        }
      if (Opts.Interproc) {
        int64_t KPlus1 = static_cast<int64_t>(Opts.InterprocDegree) + 1;
        uint32_t NI = Meta.TypeIRegion->nodeForBlock(B);
        if (NI != UINT32_MAX) {
          int64_t C0 = Meta.TypeIRegion->nodes()[NI].needsDummy()
                           ? Meta.TypeINumbering->dummyVal(NI)
                           : 0;
          E.push_back({ProbeOpKind::IPPredI, 0, C0, KPlus1});
        }
        for (const auto &Site : Meta.TypeII) {
          uint32_t NII = Site.Region->nodeForBlock(B);
          if (NII == UINT32_MAX)
            continue;
          int64_t C0 = Site.Region->nodes()[NII].needsDummy()
                           ? Site.Numbering->dummyVal(NII)
                           : 0;
          E.push_back({ProbeOpKind::IPPredII, Site.CsId, C0, KPlus1});
        }
      }
    }

    // Calls and returns.
    for (uint32_t B = 0; B < N; ++B) {
      if (!Cfg.isReachable(B))
        continue;
      const BasicBlock *BB = F.block(B);
      bool IsCall = isCallBlock(F, B);

      if (IsCall && Opts.CallBreaking) {
        Ops &Pre = Plan.PreCallOps[B];
        if (Opts.LoopOverlap)
          for (uint32_t L = 0; L < LI.numLoops(); ++L)
            if (PG.ogNode(L, B) != UINT32_MAX)
              Pre.push_back(olFlushAt(L, B));
        if (Opts.Interproc)
          appendInterprocFlushes(Pre, B, /*SkipOwnSite=*/true);
        int64_t PreInc = dummyInc(PG.whiteNode(B));
        Pre.push_back({ProbeOpKind::BLCount, 0, PreInc, 0});
        uint32_t CsId = callSiteIdOf(B);
        if (Opts.Interproc)
          Pre.push_back({ProbeOpKind::IPCall, 0,
                         static_cast<int64_t>(CsId), PreInc});

        Ops &Post = Plan.PostCallOps[B];
        Post.push_back(
            {ProbeOpKind::BLSet, 0,
             edgeInc(PG.entryStartEdgeTo(PG.whiteNode(B, true))), 0});
        if (Opts.Interproc)
          Post.push_back({ProbeOpKind::IPArmII, 0, 0,
                          static_cast<int64_t>(CsId)});
      }

      if (BB->isExit()) {
        Ops &Ret = Plan.RetOps[B];
        if (Opts.Interproc)
          appendInterprocFlushes(Ret, B);
        bool Breaking = IsCall && Opts.CallBreaking;
        int64_t RetInc = dummyInc(PG.whiteNode(B, /*CallStart=*/Breaking));
        Ret.push_back({ProbeOpKind::BLCount, 0, RetInc, 0});
        if (Opts.Interproc)
          Ret.push_back({ProbeOpKind::IPRet, 0, RetInc, 0});
      }
    }
  }

  uint32_t callSiteIdOf(uint32_t Block) const {
    for (const CallSiteInfo &CS : CallSites)
      if (CS.Func == F.Id && CS.Block == Block)
        return CS.CsId;
    assert(false && "call block without a call-site id");
    return UINT32_MAX;
  }

  /// Flush ops for the Type I region and every Type II region that is
  /// active-capable at \p B. \p SkipOwnSite skips the Type II site anchored
  /// at \p B (its region cannot be active when re-reaching its own anchor).
  void appendInterprocFlushes(Ops &E, uint32_t B, bool SkipOwnSite = false) {
    uint32_t NI = Meta.TypeIRegion->nodeForBlock(B);
    if (NI != UINT32_MAX && Meta.TypeIRegion->nodes()[NI].needsDummy())
      E.push_back({ProbeOpKind::IPFlushI, 0,
                   Meta.TypeINumbering->dummyVal(NI), 0});
    for (const auto &Site : Meta.TypeII) {
      if (SkipOwnSite && Site.Block == B)
        continue;
      uint32_t NII = Site.Region->nodeForBlock(B);
      if (NII != UINT32_MAX && Site.Region->nodes()[NII].needsDummy())
        E.push_back({ProbeOpKind::IPFlushII, Site.CsId,
                     Site.Numbering->dummyVal(NII), 0});
    }
  }

  void appendInterprocEdgeIncs(Ops &E, uint32_t B, uint32_t S) {
    // Type I prefix region edge.
    const OverlapRegion &RI = *Meta.TypeIRegion;
    uint32_t FromI = RI.nodeForBlock(B), ToI = RI.nodeForBlock(S);
    if (FromI != UINT32_MAX && ToI != UINT32_MAX)
      for (uint32_t RE : RI.outEdges(FromI))
        if (RI.edges()[RE].To == ToI) {
          if (int64_t V = Meta.TypeINumbering->edgeVal(RE))
            E.push_back({ProbeOpKind::IPAddI, 0, V, 0});
          break;
        }
    // Type II continuation regions.
    for (const auto &Site : Meta.TypeII) {
      const OverlapRegion &R = *Site.Region;
      uint32_t From = R.nodeForBlock(B), To = R.nodeForBlock(S);
      if (From == UINT32_MAX || To == UINT32_MAX)
        continue;
      for (uint32_t RE : R.outEdges(From))
        if (R.edges()[RE].To == To) {
          if (int64_t V = Site.Numbering->edgeVal(RE))
            E.push_back({ProbeOpKind::IPAddII, Site.CsId, V, 0});
          break;
        }
    }
  }

  const Function &F;
  const FunctionInstrumentation &Meta;
  const InstrumentOptions &Opts;
  const std::vector<CallSiteInfo> &CallSites;
  ProbePlan Plan;
};

/// Instruments one function.
class FunctionInstrumenter {
public:
  FunctionInstrumenter(Module &M, Function &F, FunctionInstrumentation &Meta,
                       const InstrumentOptions &Opts,
                       const std::vector<CallSiteInfo> &CallSites)
      : M(M), F(F), Meta(Meta), Opts(Opts), CallSites(CallSites) {}

  bool run(std::string &Error) {
    F.renumberBlocks();
    Meta.Cfg = std::make_unique<CfgView>(CfgView::build(F));
    Meta.Dom = std::make_unique<DomTree>(DomTree::compute(*Meta.Cfg));
    Meta.Loops =
        std::make_unique<LoopInfo>(LoopInfo::compute(*Meta.Cfg, *Meta.Dom));
    const CfgView &Cfg = *Meta.Cfg;
    const LoopInfo &LI = *Meta.Loops;

    if (!Cfg.preds(F.entry()->Id).empty()) {
      Error = "function '" + F.Name +
              "' has branches to its entry block; create a separate header";
      return false;
    }

    PathGraphOptions PGO;
    PGO.CallBreaking = Opts.CallBreaking;
    PGO.LoopOverlap = Opts.LoopOverlap;
    PGO.Degree = Opts.LoopDegree;
    PGO.UseChords = Opts.UseChords;
    Meta.PG = PathGraph::build(F, Cfg, LI, PGO, Error);
    if (!Meta.PG)
      return false;

    // Degree maxima (for sweep benches).
    for (uint32_t L = 0; L < LI.numLoops(); ++L) {
      OverlapRegionParams P;
      P.Anchor = LI.loop(L).Header;
      P.Restrict.assign(Cfg.numBlocks(), false);
      for (uint32_t B : LI.loop(L).Blocks)
        P.Restrict[B] = true;
      P.BreakAtCalls = Opts.CallBreaking;
      Meta.MaxLoopDegree = std::max(
          Meta.MaxLoopDegree, maxOverlapDegree(F, Cfg, LI, P));
    }

    // Interprocedural regions and numberings.
    if (Opts.Interproc) {
      if (!buildInterprocMeta(Error))
        return false;
    }

    if (Opts.LoopOverlap)
      F.NumLoopSlots = static_cast<uint32_t>(LI.numLoops());

    Plan = computeProbePlan(F, Meta, Opts, CallSites);
    insertProbes();
    F.renumberBlocks();
    return true;
  }

private:
  using Ops = std::vector<ProbeOp>;

  bool buildInterprocMeta(std::string &Error) {
    const CfgView &Cfg = *Meta.Cfg;
    const LoopInfo &LI = *Meta.Loops;

    OverlapRegionParams PI;
    PI.Anchor = F.entry()->Id;
    PI.Degree = Opts.InterprocDegree;
    PI.BreakAtCalls = true;
    Meta.TypeIRegion = std::make_unique<OverlapRegion>(
        OverlapRegion::compute(F, Cfg, LI, PI));
    Meta.TypeINumbering = RegionNumbering::build(*Meta.TypeIRegion, Error);
    if (!Meta.TypeINumbering)
      return false;
    Meta.MaxInterprocDegree =
        std::max(Meta.MaxInterprocDegree, maxOverlapDegree(F, Cfg, LI, PI));

    for (const CallSiteInfo &CS : CallSites) {
      if (CS.Func != F.Id)
        continue;
      FunctionInstrumentation::TypeIISite Site;
      Site.CsId = CS.CsId;
      Site.Block = CS.Block;
      Site.Callee = CS.Callee;
      OverlapRegionParams PII;
      PII.Anchor = CS.Block;
      PII.Degree = Opts.InterprocDegree;
      PII.BreakAtCalls = true;
      PII.AnchorExemptFromCallBreak = true;
      Site.Region = std::make_unique<OverlapRegion>(
          OverlapRegion::compute(F, Cfg, LI, PII));
      Site.Numbering = RegionNumbering::build(*Site.Region, Error);
      if (!Site.Numbering)
        return false;
      Meta.MaxInterprocDegree =
          std::max(Meta.MaxInterprocDegree, maxOverlapDegree(F, Cfg, LI, PII));
      Meta.TypeII.push_back(std::move(Site));
    }
    return true;
  }

  // --- probe insertion ----------------------------------------------------

  static Instruction makeProbe(Ops OpsList) {
    Instruction I;
    I.Op = Opcode::Probe;
    auto Prog = std::make_shared<ProbeProgram>();
    Prog->Ops = std::move(OpsList);
    I.ProbePayload = std::move(Prog);
    return I;
  }

  void insertProbes() {
    const CfgView &Cfg = *Meta.Cfg;
    uint32_t N = Cfg.numBlocks();

    // Decide edge-op placement from the pre-instrumentation CFG shape.
    struct Split {
      uint32_t From, To;
      Ops OpsList;
    };
    std::vector<Split> Splits;
    std::vector<Ops> EdgeIntoOps(N), PreTermOps(N);
    for (auto &[Key, OpsList] : Plan.EdgeOps) {
      auto [U, V] = Key;
      if (Cfg.succs(U).size() == 1) {
        // Runs when U exits, which is exactly when the edge is taken.
        for (const ProbeOp &Op : OpsList)
          PreTermOps[U].push_back(Op);
      } else if (Cfg.preds(V).size() == 1) {
        EdgeIntoOps[V] = OpsList;
      } else {
        Splits.push_back({U, V, OpsList});
      }
    }

    for (uint32_t B = 0; B < N; ++B) {
      if (!Cfg.isReachable(B))
        continue;
      BasicBlock *BB = F.block(B);

      Ops Entry;
      auto Append = [](Ops &Dst, const Ops &Src) {
        Dst.insert(Dst.end(), Src.begin(), Src.end());
      };
      Append(Entry, EdgeIntoOps[B]);
      if (BB == F.entry())
        Append(Entry, Plan.FuncEntryOps);
      Append(Entry, Plan.BlockEntryOps[B]);

      std::vector<Instruction> NewInstrs;
      if (!Entry.empty())
        NewInstrs.push_back(makeProbe(std::move(Entry)));
      for (Instruction &I : BB->Instrs) {
        bool IsCallInstr = I.Op == Opcode::Call || I.Op == Opcode::CallInd;
        if (IsCallInstr && !Plan.PreCallOps[B].empty())
          NewInstrs.push_back(makeProbe(Plan.PreCallOps[B]));
        if (I.Op == Opcode::Ret && !Plan.RetOps[B].empty())
          NewInstrs.push_back(makeProbe(Plan.RetOps[B]));
        if (isTerminator(I.Op) && I.Op != Opcode::Ret &&
            !PreTermOps[B].empty())
          NewInstrs.push_back(makeProbe(PreTermOps[B]));
        NewInstrs.push_back(std::move(I));
        if (IsCallInstr && !Plan.PostCallOps[B].empty())
          NewInstrs.push_back(makeProbe(Plan.PostCallOps[B]));
      }
      BB->Instrs = std::move(NewInstrs);
    }

    for (Split &Sp : Splits) {
      BasicBlock *Mid = splitEdge(F, F.block(Sp.From), F.block(Sp.To));
      Mid->terminator().SplitJump = true;
      Mid->Instrs.insert(Mid->Instrs.begin(), makeProbe(std::move(Sp.OpsList)));
    }
  }

  Module &M;
  Function &F;
  FunctionInstrumentation &Meta;
  const InstrumentOptions &Opts;
  const std::vector<CallSiteInfo> &CallSites;
  ProbePlan Plan;
};

} // namespace

ProbePlan olpp::computeProbePlan(const Function &F,
                                 const FunctionInstrumentation &Meta,
                                 const InstrumentOptions &Opts,
                                 const std::vector<CallSiteInfo> &CallSites) {
  return PlanBuilder(F, Meta, Opts, CallSites).build();
}

ModuleInstrumentation olpp::instrumentModule(Module &M,
                                             const InstrumentOptions &Opts) {
  ModuleInstrumentation MI;
  MI.Opts = Opts;
  if (MI.Opts.Interproc)
    MI.Opts.CallBreaking = true;

  // Enumerate call sites module-wide (pre-instrumentation block ids).
  for (const auto &F : M.functions()) {
    F->renumberBlocks();
    for (uint32_t B = 0; B < F->numBlocks(); ++B)
      for (const Instruction &I : F->block(B)->Instrs)
        if (I.Op == Opcode::Call || I.Op == Opcode::CallInd) {
          CallSiteInfo CS;
          CS.Func = F->Id;
          CS.Block = B;
          CS.Callee = I.Op == Opcode::Call ? I.CalleeId : UINT32_MAX;
          CS.CsId = static_cast<uint32_t>(MI.CallSites.size());
          MI.CallSites.push_back(CS);
        }
  }

  MI.Funcs.resize(M.numFunctions());
  for (uint32_t FId = 0; FId < M.numFunctions(); ++FId) {
    std::string Error;
    FunctionInstrumenter FI(M, *M.function(FId), MI.Funcs[FId], MI.Opts,
                            MI.CallSites);
    if (!FI.run(Error))
      MI.Errors.push_back(Error);
  }
  return MI;
}

DegreeLimits olpp::computeDegreeLimits(const Module &M, bool CallBreaking) {
  DegreeLimits Lim;
  for (const auto &F : M.functions()) {
    CfgView Cfg = CfgView::build(*F);
    DomTree Dom = DomTree::compute(Cfg);
    LoopInfo LI = LoopInfo::compute(Cfg, Dom);
    for (uint32_t L = 0; L < LI.numLoops(); ++L) {
      OverlapRegionParams P;
      P.Anchor = LI.loop(L).Header;
      P.Restrict.assign(Cfg.numBlocks(), false);
      for (uint32_t B : LI.loop(L).Blocks)
        P.Restrict[B] = true;
      P.BreakAtCalls = CallBreaking;
      Lim.MaxLoopDegree =
          std::max(Lim.MaxLoopDegree, maxOverlapDegree(*F, Cfg, LI, P));
    }
    OverlapRegionParams PI;
    PI.Anchor = F->entry()->Id;
    PI.BreakAtCalls = true;
    Lim.MaxInterprocDegree =
        std::max(Lim.MaxInterprocDegree, maxOverlapDegree(*F, Cfg, LI, PI));
    for (uint32_t B = 0; B < Cfg.numBlocks(); ++B) {
      if (!Cfg.isReachable(B) || !isCallBlock(*F, B))
        continue;
      OverlapRegionParams PII;
      PII.Anchor = B;
      PII.BreakAtCalls = true;
      PII.AnchorExemptFromCallBreak = true;
      Lim.MaxInterprocDegree =
          std::max(Lim.MaxInterprocDegree, maxOverlapDegree(*F, Cfg, LI, PII));
    }
  }
  return Lim;
}
