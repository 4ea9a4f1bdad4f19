//===--- FrontendTest.cpp - lexer/parser/sema/lowering tests -----------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "frontend/Compiler.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace olpp;

namespace {

std::vector<TokKind> lexAll(std::string_view Src) {
  Lexer L(Src);
  std::vector<TokKind> Out;
  while (true) {
    Token T = L.next();
    Out.push_back(T.Kind);
    if (T.Kind == TokKind::Eof || T.Kind == TokKind::Error)
      break;
  }
  return Out;
}

int64_t runMain(const Module &M, std::vector<int64_t> Args = {}) {
  const Function *Main = M.findFunction("main");
  EXPECT_NE(Main, nullptr);
  Args.resize(Main->NumParams, 0);
  Interpreter I(M);
  RunResult R = I.run(*Main, Args);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.ReturnValue;
}

} // namespace

// --- lexer -----------------------------------------------------------------

TEST(Lexer, KeywordsAndOperators) {
  auto Toks = lexAll("fn while <= >> && != =");
  std::vector<TokKind> Want = {TokKind::KwFn, TokKind::KwWhile, TokKind::Le,
                               TokKind::Shr,  TokKind::AmpAmp,  TokKind::NotEq,
                               TokKind::Assign, TokKind::Eof};
  EXPECT_EQ(Toks, Want);
}

TEST(Lexer, NumbersAndIdentifiers) {
  Lexer L("foo 123 _bar9");
  Token A = L.next();
  EXPECT_EQ(A.Kind, TokKind::Ident);
  EXPECT_EQ(A.Text, "foo");
  Token B = L.next();
  EXPECT_EQ(B.Kind, TokKind::Number);
  EXPECT_EQ(B.Value, 123);
  Token C = L.next();
  EXPECT_EQ(C.Kind, TokKind::Ident);
  EXPECT_EQ(C.Text, "_bar9");
}

TEST(Lexer, Comments) {
  auto Toks = lexAll("1 // line\n 2 /* block\n over lines */ 3");
  EXPECT_EQ(Toks, (std::vector<TokKind>{TokKind::Number, TokKind::Number,
                                        TokKind::Number, TokKind::Eof}));
}

TEST(Lexer, UnterminatedBlockComment) {
  auto Toks = lexAll("1 /* never closed");
  EXPECT_EQ(Toks.back(), TokKind::Error);
}

TEST(Lexer, OverflowingLiteral) {
  Lexer L("999999999999999999999999999");
  EXPECT_EQ(L.next().Kind, TokKind::Error);
}

TEST(Lexer, LineColumnTracking) {
  Lexer L("a\n  b");
  Token A = L.next();
  EXPECT_EQ(A.Line, 1u);
  EXPECT_EQ(A.Col, 1u);
  Token B = L.next();
  EXPECT_EQ(B.Line, 2u);
  EXPECT_EQ(B.Col, 3u);
}

// --- parser ----------------------------------------------------------------

TEST(Parser, Precedence) {
  // 1 + 2 * 3 must parse as 1 + (2 * 3); verified by evaluation.
  auto M = testutil::compileOrDie("fn main() { return 1 + 2 * 3; }");
  EXPECT_EQ(runMain(*M), 7);
}

TEST(Parser, ErrorRecovery) {
  Parser P("fn main() { var = 3; return 1; } fn ok() { return 2; }");
  Program Prog = P.parseProgram();
  EXPECT_FALSE(P.diags().empty());
  // The parser must still have recovered and seen the second function.
  bool SawOk = false;
  for (const FuncDecl &F : Prog.Funcs)
    SawOk |= F.Name == "ok";
  EXPECT_TRUE(SawOk);
}

TEST(Parser, MissingSemicolonDiagnosed) {
  Parser P("fn main() { return 1 }");
  P.parseProgram();
  EXPECT_FALSE(P.diags().empty());
}

TEST(Parser, ElseIfChains) {
  auto M = testutil::compileOrDie(R"(
    fn main(a) {
      if (a == 0) { return 10; }
      else if (a == 1) { return 20; }
      else { return 30; }
    })");
  EXPECT_EQ(runMain(*M, {0}), 10);
  EXPECT_EQ(runMain(*M, {1}), 20);
  EXPECT_EQ(runMain(*M, {5}), 30);
}

/// Compiles \p Src, which must fail with exactly one diagnostic naming the
/// nesting limit.
static void expectNestingDiagnostic(const std::string &Src) {
  CompileResult R = compileMiniC(Src);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Diags.size(), 1u) << R.diagText().substr(0, 400);
  EXPECT_NE(R.Diags[0].Message.find("nesting deeper than"), std::string::npos)
      << R.Diags[0].Message;
}

static std::string repeat(const std::string &S, size_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (size_t I = 0; I < N; ++I)
    Out += S;
  return Out;
}

TEST(Parser, DeeplyNestedIfsAreADiagnostic) {
  expectNestingDiagnostic("fn main(a) { " + repeat("if (a) { ", 100'000) +
                          repeat("} ", 100'000) + "return 0; }");
  // Nesting well inside the limit still compiles and runs.
  auto M = testutil::compileOrDie("fn main(a) { " + repeat("if (a) { ", 200) +
                                  "return 7; " + repeat("} ", 200) +
                                  "return 0; }");
  EXPECT_EQ(runMain(*M, {1}), 7);
}

TEST(Parser, DeeplyNestedParenthesesAreADiagnostic) {
  expectNestingDiagnostic("fn main() { return " + repeat("(", 200'000) + "1" +
                          repeat(")", 200'000) + "; }");
}

TEST(Parser, LongUnaryChainsAreADiagnostic) {
  expectNestingDiagnostic("fn main() { return " + repeat("-", 100'000) +
                          "1; }");
}

TEST(Parser, LongBinaryChainsAreADiagnostic) {
  // The chain parses iteratively, but every operator deepens the left
  // spine of the tree that later passes walk recursively.
  expectNestingDiagnostic("fn main() { return " + repeat("1 + ", 200'000) +
                          "1; }");
  auto M = testutil::compileOrDie("fn main() { return " +
                                  repeat("1 + ", 500) + "1; }");
  EXPECT_EQ(runMain(*M), 501);
}

// --- sema ------------------------------------------------------------------

static std::vector<Diag> semaDiags(std::string_view Src) {
  Parser P(Src);
  Program Prog = P.parseProgram();
  EXPECT_TRUE(P.diags().empty());
  return checkProgram(Prog);
}

TEST(Sema, UndeclaredVariable) {
  auto D = semaDiags("fn main() { return nope; }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("undeclared variable"), std::string::npos);
}

TEST(Sema, UndeclaredFunction) {
  auto D = semaDiags("fn main() { return nope(); }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("undeclared function"), std::string::npos);
}

TEST(Sema, ArityMismatch) {
  auto D = semaDiags("fn f(a, b) { return a; } fn main() { return f(1); }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("expects 2 arguments"), std::string::npos);
}

TEST(Sema, BreakOutsideLoop) {
  auto D = semaDiags("fn main() { break; }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("'break' outside"), std::string::npos);
}

TEST(Sema, ArrayUsedAsScalar) {
  auto D = semaDiags("global a[4]; fn main() { return a; }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("without an index"), std::string::npos);
}

TEST(Sema, ScalarIndexed) {
  auto D = semaDiags("global g; fn main() { return g[0]; }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("not a global array"), std::string::npos);
}

TEST(Sema, ShadowingAllowedAcrossScopes) {
  auto D = semaDiags("fn main() { var x = 1; if (x) { var x = 2; } return x; }");
  EXPECT_TRUE(D.empty());
}

TEST(Sema, RedefinitionInSameScope) {
  auto D = semaDiags("fn main() { var x = 1; var x = 2; }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("redefinition"), std::string::npos);
}

TEST(Sema, HugeGlobalArrayIsADiagnostic) {
  CompileResult R = compileMiniC("global g[4000000000000000000];\n"
                                 "fn main() { g[1] = 2; return g[1]; }");
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Diags.size(), 1u) << R.diagText();
  EXPECT_NE(R.Diags[0].Message.find("'g'"), std::string::npos);
  EXPECT_NE(R.Diags[0].Message.find(std::to_string(MaxGlobalElements)),
            std::string::npos)
      << R.Diags[0].Message;
}

TEST(Sema, GlobalsSummingPastTheCapAreADiagnostic) {
  // Four arrays of a quarter of the cap fill it exactly; a fifth crosses
  // it and is the one reported.
  std::string Decls;
  for (int I = 0; I < 4; ++I)
    Decls += "global a" + std::to_string(I) + "[" +
             std::to_string(MaxGlobalElements / 4) + "];\n";
  EXPECT_TRUE(semaDiags(Decls + "fn main() { return 0; }").empty());
  auto D = semaDiags(Decls + "global a4[2];\nglobal a5[2];\n"
                             "fn main() { return 0; }");
  ASSERT_EQ(D.size(), 1u);
  EXPECT_NE(D[0].Message.find("'a4'"), std::string::npos) << D[0].Message;
}

TEST(Sema, DuplicateFunction) {
  auto D = semaDiags("fn f() {} fn f() {} fn main() {}");
  ASSERT_EQ(D.size(), 1u);
}

// --- lowering + execution ----------------------------------------------------

TEST(Lowering, VerifiesCleanly) {
  auto M = testutil::compileOrDie(R"(
    global g;
    global arr[10];
    fn helper(x) { return x * 2; }
    fn main(n) {
      var total = 0;
      for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { total = total + helper(i); }
        else { arr[i % 10] = total; }
      }
      while (total > 100) { total = total - 7; }
      return total;
    })");
  EXPECT_TRUE(verifyModule(*M).empty());
}

TEST(Lowering, Fibonacci) {
  auto M = testutil::compileOrDie(R"(
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main(n) { return fib(n); })");
  EXPECT_EQ(runMain(*M, {10}), 55);
}

TEST(Lowering, ShortCircuitSemantics) {
  // The right operand of && must not run when the left is false: division
  // by zero would trap.
  auto M = testutil::compileOrDie(R"(
    fn main(a) {
      if (a != 0 && 10 / a > 1) { return 1; }
      return 0;
    })");
  EXPECT_EQ(runMain(*M, {0}), 0);
  EXPECT_EQ(runMain(*M, {3}), 1);
  EXPECT_EQ(runMain(*M, {20}), 0);
}

TEST(Lowering, BreakAndContinue) {
  auto M = testutil::compileOrDie(R"(
    fn main() {
      var sum = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (i == 3) { continue; }
        if (i == 6) { break; }
        sum = sum + i;
      }
      return sum;  // 0+1+2+4+5 = 12
    })");
  EXPECT_EQ(runMain(*M), 12);
}

TEST(Lowering, DoWhileRunsBodyOnce) {
  auto M = testutil::compileOrDie(R"(
    fn main() {
      var n = 0;
      do { n = n + 1; } while (n < 0);
      return n;
    })");
  EXPECT_EQ(runMain(*M), 1);
}

TEST(Lowering, GlobalsPersistAcrossCalls) {
  auto M = testutil::compileOrDie(R"(
    global count;
    fn bump() { count = count + 1; return 0; }
    fn main() { bump(); bump(); bump(); return count; })");
  EXPECT_EQ(runMain(*M), 3);
}

TEST(Lowering, CallEndsItsBlock) {
  auto M = testutil::compileOrDie(
      "fn f() { return 1; } fn main() { return f() + f(); }");
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (size_t I = 0; I < BB->Instrs.size(); ++I)
        if (BB->Instrs[I].Op == Opcode::Call)
          EXPECT_TRUE(I + 1 < BB->Instrs.size() &&
                      isTerminator(BB->Instrs[I + 1].Op))
              << "call not followed by a terminator in " << F->Name;
}

TEST(Lowering, WhileLoopHasSingleLatch) {
  auto M = testutil::compileOrDie(R"(
    fn main(n) {
      var s = 0;
      while (s < n) {
        if (s % 2 == 0) { s = s + 1; continue; }
        s = s + 2;
      }
      return s;
    })");
  // Count backedge sources per header; continue must reuse the latch.
  const Function &F = *M->findFunction("main");
  CfgView Cfg = CfgView::build(F);
  DomTree Dom = DomTree::compute(Cfg);
  LoopInfo LI = LoopInfo::compute(Cfg, Dom);
  ASSERT_EQ(LI.numLoops(), 1u);
  EXPECT_EQ(LI.loop(0).Latches.size(), 1u);
}
