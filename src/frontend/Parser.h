//===--- Parser.h - MiniC recursive-descent parser --------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing the AST of frontend/Ast.h. Parse
/// errors are collected as diagnostics; the parser recovers at statement
/// and declaration boundaries so that several errors can be reported from
/// one run.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_FRONTEND_PARSER_H
#define OLPP_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Lexer.h"

namespace olpp {

/// Deepest statement-plus-expression nesting the parser accepts. Parsing
/// (and every pass that walks the AST) recurses once per level, so deeper
/// input gets a diagnostic instead of overflowing the stack.
inline constexpr unsigned MaxNestingDepth = 1000;

class Parser {
public:
  explicit Parser(std::string_view Source);

  /// Parses a whole program. Check diags() before using the result.
  Program parseProgram();

  const std::vector<Diag> &diags() const { return Diags; }

private:
  // Token plumbing.
  const Token &cur() const { return Cur; }
  void bump();
  bool at(TokKind K) const { return Cur.Kind == K; }
  bool accept(TokKind K);
  bool expect(TokKind K, const char *Context);
  void error(const std::string &Msg);
  void syncToDeclBoundary();
  void syncToStmtBoundary();

  /// Holds levels of nesting for one production: a block, a statement, a
  /// unary expression, or each operator folded into a binary chain (which
  /// deepens the left spine of the tree). Past MaxNestingDepth, deepen() reports
  /// once, skips the rest of the input and silences later diagnostics, so
  /// the parse unwinds at once.
  class NestingGuard {
  public:
    explicit NestingGuard(Parser &P) : P(P) {}
    NestingGuard(const NestingGuard &) = delete;
    NestingGuard &operator=(const NestingGuard &) = delete;
    ~NestingGuard() { P.Depth -= Levels; }
    /// Holds one more level. False once the input is too deep.
    bool deepen();

  private:
    Parser &P;
    unsigned Levels = 0;
  };

  // Grammar productions.
  void parseGlobal(Program &P);
  void parseFunction(Program &P);
  StmtPtr parseBlock();
  StmtPtr parseStmt();
  StmtPtr parseSimpleStmt(bool RequireSemi);
  ExprPtr parseExpr();
  ExprPtr parseBinaryRhs(int MinPrec, ExprPtr Lhs);
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  Lexer Lex;
  Token Cur;
  std::vector<Diag> Diags;
  uint64_t TokensConsumed = 0;
  unsigned Depth = 0;
  bool TooDeep = false;
};

} // namespace olpp

#endif // OLPP_FRONTEND_PARSER_H
