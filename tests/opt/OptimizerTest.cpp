//===--- OptimizerTest.cpp - artifact-driven optimization -----------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The optimizer's contract mirrors the tracing tier's: invisibility. An
// optimized module must return exactly what the pristine module returns on
// both engines, verify, and take instrumentation again — the profile ->
// optimize -> profile loop has to close. These tests pin the transforms
// (inlining, superblock formation), the skip conditions that keep them
// sound (recursion, reachable void returns, loop-header tails), the
// artifact-heat rankings, and the rebind failure mode: a stale-fingerprint
// artifact must be rejected with a clean diagnostic and never a partially
// bound result.
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include "analysis/Cfg.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "interp/ProfileRuntime.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "profdata/ProfData.h"
#include "profile/Instrumenter.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace olpp;

namespace {

InstrumentOptions fullOpts() {
  InstrumentOptions Opts;
  Opts.LoopOverlap = true;
  Opts.LoopDegree = 2;
  Opts.Interproc = true;
  Opts.InterprocDegree = 2;
  return Opts;
}

/// A pristine compile, an instrumented profiling run, and the artifact it
/// persists — the front half of the profile->optimize loop.
struct Profiled {
  std::unique_ptr<Module> Pristine;
  std::unique_ptr<Module> Instr;
  ModuleInstrumentation MI;
  ProfileArtifact Art;
  int64_t ReturnValue = 0;
};

Profiled profileOnce(const char *Source, std::vector<int64_t> Args) {
  Profiled P;
  CompileResult CR = compileMiniC(Source);
  EXPECT_TRUE(CR.ok()) << CR.diagText();
  if (!CR.ok())
    return P;
  P.Pristine = std::move(CR.M);
  P.Instr = P.Pristine->clone();
  P.MI = instrumentModule(*P.Instr, fullOpts());
  EXPECT_TRUE(P.MI.ok());
  ProfileRuntime Prof(P.Instr->numFunctions());
  for (uint32_t F = 0; F < P.Instr->numFunctions(); ++F)
    if (P.MI.Funcs[F].PG)
      Prof.configurePathStore(F, P.MI.Funcs[F].PG->numPaths());
  const Function *Main = P.Instr->findFunction("main");
  EXPECT_NE(Main, nullptr);
  Args.resize(Main->NumParams, 0);
  Interpreter I(*P.Instr, &Prof);
  RunConfig RC;
  RunResult R = I.run(*Main, Args, RC);
  EXPECT_TRUE(R.Ok) << R.Error;
  P.ReturnValue = R.ReturnValue;
  RunMeta Meta;
  Meta.Workload = "opt-test";
  Meta.Instr = fullOpts();
  Meta.Runs = 1;
  P.Art = ProfileArtifact::fromRuntime(*P.Pristine, P.MI, Prof, Meta);
  return P;
}

int64_t runMain(const Module &M, std::vector<int64_t> Args, EngineKind E,
                DynCounts *Counts = nullptr) {
  const Function *Main = M.findFunction("main");
  EXPECT_NE(Main, nullptr);
  Args.resize(Main->NumParams, 0);
  Interpreter I(M);
  RunConfig RC;
  RC.Engine = E;
  RunResult R = I.run(*Main, Args, RC);
  EXPECT_TRUE(R.Ok) << R.Error;
  if (Counts)
    *Counts = R.Counts;
  return R.ReturnValue;
}

/// Finds the first block of \p F holding a direct call.
uint32_t findCallBlock(const Function &F) {
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    for (const Instruction &I : F.block(B)->Instrs)
      if (I.Op == Opcode::Call)
        return B;
  ADD_FAILURE() << "no call block in " << F.Name;
  return 0;
}

// A hot loop around a small pure callee: the canonical inline target. The
// callee branches, so the inlined body is genuinely multi-block and the
// loop re-enters it every iteration.
const char *HotCallSource = R"(
  global acc;
  fn leaf(a, b) {
    if (a > b) { return a - b; }
    return b - a;
  }
  fn main(n) {
    var i = 0;
    while (i < n) {
      acc = acc + leaf(i, acc & 7);
      i = i + 1;
    }
    return acc;
  }
)";

// A heavily biased branch inside a hot loop: the overlapping `i!j` paths
// record the steady-state next-iteration trace the superblock former needs.
const char *BiasedLoopSource = R"(
  global acc;
  fn main(n) {
    var i = 0;
    while (i < n) {
      if (i & 63) {
        acc = acc + i;
      } else {
        acc = acc * 2;
      }
      i = i + 1;
    }
    return acc;
  }
)";

//===----------------------------------------------------------------------===//
// optimizeModule end to end
//===----------------------------------------------------------------------===//

TEST(Optimizer, InlinesHotCallAndPreservesSemantics) {
  Profiled P = profileOnce(HotCallSource, {200});
  ASSERT_TRUE(P.Pristine);

  OptOptions OO;
  OO.MinCount = 1;
  OptResult R;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(optimizeModule(*P.Pristine, P.Art, OO, R, Diags))
      << (Diags.empty() ? "(no diagnostic)" : Diags.back().str());
  EXPECT_GE(R.Stats.InlinedSites, 1u);
  EXPECT_TRUE(verifyModuleDiags(*R.OptModule).empty());

  // Same answer on both engines, counts bit-identical between them, and
  // the inline visibly removed the call traffic.
  DynCounts Base, OptFast, OptRef;
  int64_t B = runMain(*P.Pristine, {200}, EngineKind::Fast, &Base);
  int64_t OF = runMain(*R.OptModule, {200}, EngineKind::Fast, &OptFast);
  int64_t ORf = runMain(*R.OptModule, {200}, EngineKind::Reference, &OptRef);
  EXPECT_EQ(B, OF);
  EXPECT_EQ(OF, ORf);
  EXPECT_TRUE(OptFast == OptRef);
  EXPECT_LT(OptFast.Calls, Base.Calls);

  // The loop closes: the optimized module re-instruments cleanly.
  auto InstrCopy = R.OptModule->clone();
  EXPECT_TRUE(instrumentModule(*InstrCopy, fullOpts()).ok());
}

TEST(Optimizer, FormsSuperblocksOnBiasedLoop) {
  Profiled P = profileOnce(BiasedLoopSource, {300});
  ASSERT_TRUE(P.Pristine);

  OptOptions OO;
  OO.MinCount = 1;
  EXPECT_FALSE(rankSuperblockCandidates(P.Art, P.MI, OO).empty())
      << "profiling the biased loop produced no backedge-crossing traces";

  OptResult R;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(optimizeModule(*P.Pristine, P.Art, OO, R, Diags))
      << (Diags.empty() ? "(no diagnostic)" : Diags.back().str());
  EXPECT_TRUE(verifyModuleDiags(*R.OptModule).empty());
  for (int64_t N : {0, 1, 63, 64, 300})
    EXPECT_EQ(runMain(*P.Pristine, {N}, EngineKind::Fast),
              runMain(*R.OptModule, {N}, EngineKind::Reference))
        << "n = " << N;
}

TEST(Optimizer, RanksInlineCandidatesByHeat) {
  Profiled P = profileOnce(R"(
    global acc;
    fn hot(a) { return a + 1; }
    fn cold(a) { return a * 2; }
    fn main(n) {
      var i = 0;
      while (i < n) {
        acc = acc + hot(i);
        i = i + 1;
      }
      acc = acc + cold(n);
      return acc;
    }
  )",
                           {50});
  ASSERT_TRUE(P.Pristine);

  OptOptions OO;
  OO.MinCount = 1;
  std::vector<InlineDecision> Ranked = rankInlineCandidates(P.Art, P.MI, OO);
  ASSERT_GE(Ranked.size(), 2u);
  for (size_t I = 1; I < Ranked.size(); ++I)
    EXPECT_GE(Ranked[I - 1].Heat, Ranked[I].Heat);
  uint32_t HotId = 0;
  for (uint32_t F = 0; F < P.Pristine->numFunctions(); ++F)
    if (P.Pristine->function(F)->Name == "hot")
      HotId = F;
  EXPECT_EQ(Ranked[0].Callee, HotId)
      << "the 50x-hotter callee must rank first";
}

//===----------------------------------------------------------------------===//
// inlineCallSite skip conditions
//===----------------------------------------------------------------------===//

TEST(Optimizer, InlineSkipsRecursiveCall) {
  CompileResult CR = compileMiniC("fn main(a) {\n"
                                  "  if (a > 3) { return a; }\n"
                                  "  return main(a + 1);\n"
                                  "}\n");
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Function *Main = CR.M->findFunction("main");
  std::string Skip;
  EXPECT_FALSE(inlineCallSite(*CR.M, *Main, findCallBlock(*Main), 200,
                              OptFault::None, Skip));
  EXPECT_EQ(Skip, "recursive call site");
}

TEST(Optimizer, InlineSkipsReachableVoidReturnIntoUsedResult) {
  // `half` falls off the end when a <= 0: its void return is *reachable*,
  // and main consumes the result — at runtime that traps ("void return
  // value used by the caller"), so inlining must refuse to erase it.
  CompileResult CR = compileMiniC("fn half(a) {\n"
                                  "  if (a > 0) { return a; }\n"
                                  "}\n"
                                  "fn main(a) {\n"
                                  "  return half(a);\n"
                                  "}\n");
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Function *Main = CR.M->findFunction("main");
  std::string Skip;
  EXPECT_FALSE(inlineCallSite(*CR.M, *Main, findCallBlock(*Main), 200,
                              OptFault::None, Skip));
  EXPECT_EQ(Skip, "callee may return void into a used result");
}

TEST(Optimizer, InlinedLoopBodyStaysBitExact) {
  // Direct transform check: inline the in-loop call, then the rewired body
  // (fresh register window, re-zeroed live-ins) must agree with the
  // original on both engines across several trip counts.
  CompileResult CR = compileMiniC(HotCallSource);
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  auto Inlined = CR.M->clone();
  Function *Main = Inlined->findFunction("main");
  std::string Skip;
  ASSERT_TRUE(inlineCallSite(*Inlined, *Main, findCallBlock(*Main), 200,
                             OptFault::None, Skip))
      << Skip;
  EXPECT_TRUE(verifyModuleDiags(*Inlined).empty());
  for (int64_t N : {0, 1, 2, 25})
    EXPECT_EQ(runMain(*CR.M, {N}, EngineKind::Fast),
              runMain(*Inlined, {N}, EngineKind::Reference))
        << "n = " << N;
}

//===----------------------------------------------------------------------===//
// formSuperblock
//===----------------------------------------------------------------------===//

TEST(Optimizer, SuperblockDuplicatesSideEntranceAndMerges) {
  CompileResult CR = compileMiniC("fn main(a) {\n"
                                  "  var x = 0;\n"
                                  "  if (a > 0) {\n"
                                  "    x = 1;\n"
                                  "  } else {\n"
                                  "    x = 2;\n"
                                  "  }\n"
                                  "  x = x + 5;\n"
                                  "  return x;\n"
                                  "}\n");
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Function *Main = CR.M->findFunction("main");
  // The diamond: entry cond-branches to then/else, both fall into the join.
  const Instruction &Cond = Main->entry()->terminator();
  ASSERT_EQ(Cond.Op, Opcode::CondBr);
  BasicBlock *Then = Cond.Target0;
  ASSERT_EQ(Then->terminator().Op, Opcode::Br);
  BasicBlock *Join = Then->terminator().Target0;

  auto Opt = CR.M->clone();
  Function *F = Opt->findFunction("main");
  uint32_t Dup = 0, Merged = 0;
  std::string Skip;
  ASSERT_TRUE(
      formSuperblock(*F, {Then->Id, Join->Id}, Dup, Merged, Skip))
      << Skip;
  // The else edge side-enters the join: the join is duplicated for it and
  // the hot then->join seam merges into one straight-line block.
  EXPECT_EQ(Dup, 1u);
  EXPECT_EQ(Merged, 1u);
  EXPECT_TRUE(verifyModuleDiags(*Opt).empty());
  for (int64_t A : {-1, 0, 1, 7})
    EXPECT_EQ(runMain(*CR.M, {A}, EngineKind::Fast),
              runMain(*Opt, {A}, EngineKind::Reference))
        << "a = " << A;
}

TEST(Optimizer, SuperblockRejectsLoopHeaderTail) {
  CompileResult CR = compileMiniC("fn main(n) {\n"
                                  "  var i = 0;\n"
                                  "  while (i < n) {\n"
                                  "    i = i + 1;\n"
                                  "  }\n"
                                  "  return i;\n"
                                  "}\n");
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Function *Main = CR.M->findFunction("main");
  const CfgView Cfg = CfgView::build(*Main);
  const DomTree Dom = DomTree::compute(Cfg);
  const LoopInfo Loops = LoopInfo::compute(Cfg, Dom);
  ASSERT_FALSE(Loops.loops().empty());
  uint32_t Header = Loops.loops()[0].Header;
  // The latch: an in-loop predecessor of the header.
  uint32_t Latch = UINT32_MAX;
  for (uint32_t B = 0; B < Main->numBlocks(); ++B) {
    if (B == Main->entry()->Id)
      continue;
    for (const BasicBlock *S : Main->block(B)->successors())
      if (S->Id == Header)
        Latch = B;
  }
  ASSERT_NE(Latch, UINT32_MAX);
  uint32_t Dup = 0, Merged = 0;
  std::string Skip;
  EXPECT_FALSE(formSuperblock(*Main, {Latch, Header}, Dup, Merged, Skip));
  EXPECT_EQ(Skip, "trace tail crosses an inner loop header")
      << "duplicating a loop header would make the CFG irreducible";
}

//===----------------------------------------------------------------------===//
// Rebind failure (stale artifacts stay rejected, never partially bound)
//===----------------------------------------------------------------------===//

TEST(Optimizer, StaleFingerprintArtifactFailsBindCleanly) {
  // The checked-in golden artifact profiles a program this module is not:
  // the bind must fail on the fingerprint with a profdata-bind diagnostic
  // and leave the binding empty — no instrumented clone, no counters.
  ProfileArtifact A;
  std::vector<Diagnostic> ReadDiags;
  ASSERT_TRUE(readProfileArtifactFile(
      std::string(OLPP_TEST_DATA_DIR) + "/tiny.olpp", A, ReadDiags));

  CompileResult CR = compileMiniC(HotCallSource);
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  ArtifactBinding Bind;
  std::vector<Diagnostic> Diags;
  EXPECT_FALSE(bindArtifactToModule(*CR.M, A, Bind, Diags));
  EXPECT_FALSE(Bind.ok());
  EXPECT_EQ(Bind.InstrModule, nullptr) << "a failed bind must stay empty";
  ASSERT_FALSE(Diags.empty());
  EXPECT_EQ(Diags[0].Pass, "profdata-bind");
  EXPECT_NE(Diags[0].Message.find("fingerprint mismatch"), std::string::npos)
      << Diags[0].Message;

  // The optimizer front door refuses the same way: no module comes back.
  OptResult R;
  std::vector<Diagnostic> OptDiags;
  EXPECT_FALSE(optimizeModule(*CR.M, A, OptOptions(), R, OptDiags));
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.OptModule, nullptr);
  EXPECT_FALSE(OptDiags.empty());
}

TEST(Optimizer, OptimizedModuleRejectsItsSourceArtifact) {
  // After inlining, the module is a different program: re-binding the
  // artifact that drove the optimization must fail the fingerprint check
  // cleanly instead of silently mis-attributing counters.
  Profiled P = profileOnce(HotCallSource, {200});
  ASSERT_TRUE(P.Pristine);
  OptOptions OO;
  OO.MinCount = 1;
  OptResult R;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(optimizeModule(*P.Pristine, P.Art, OO, R, Diags));
  ASSERT_GE(R.Stats.InlinedSites, 1u);

  ArtifactBinding Bind;
  std::vector<Diagnostic> BindDiags;
  EXPECT_FALSE(bindArtifactToModule(*R.OptModule, P.Art, Bind, BindDiags));
  EXPECT_FALSE(Bind.ok());
  EXPECT_EQ(Bind.InstrModule, nullptr);
  ASSERT_FALSE(BindDiags.empty());
  EXPECT_EQ(BindDiags[0].Pass, "profdata-bind");
}

} // namespace
