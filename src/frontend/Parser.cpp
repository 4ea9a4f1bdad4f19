//===--- Parser.cpp - MiniC recursive-descent parser ----------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <cassert>
#include <string>

using namespace olpp;

Parser::Parser(std::string_view Source) : Lex(Source) { Cur = Lex.next(); }

void Parser::bump() {
  if (Cur.Kind == TokKind::Error) {
    // Report once, then swallow so we don't loop.
    error(Cur.Text);
  }
  ++TokensConsumed;
  if (Cur.Kind != TokKind::Eof)
    Cur = Lex.next();
}

bool Parser::accept(TokKind K) {
  if (!at(K))
    return false;
  bump();
  return true;
}

bool Parser::expect(TokKind K, const char *Context) {
  if (accept(K))
    return true;
  error(std::string("expected ") + tokKindName(K) + " " + Context +
        ", found " + tokKindName(Cur.Kind));
  return false;
}

void Parser::error(const std::string &Msg) {
  if (!TooDeep)
    Diags.push_back({Cur.Line, Cur.Col, Msg});
}

bool Parser::NestingGuard::deepen() {
  ++Levels;
  if (++P.Depth > MaxNestingDepth && !P.TooDeep) {
    P.error("nesting deeper than " + std::to_string(MaxNestingDepth) +
            " levels");
    P.TooDeep = true;
    while (!P.at(TokKind::Eof))
      P.bump();
  }
  return !P.TooDeep;
}

void Parser::syncToDeclBoundary() {
  while (!at(TokKind::Eof) && !at(TokKind::KwFn) && !at(TokKind::KwGlobal))
    bump();
}

void Parser::syncToStmtBoundary() {
  int Depth = 0;
  while (!at(TokKind::Eof)) {
    if (at(TokKind::Semi) && Depth == 0) {
      bump();
      return;
    }
    if (at(TokKind::LBrace))
      ++Depth;
    if (at(TokKind::RBrace)) {
      if (Depth == 0)
        return;
      --Depth;
    }
    bump();
  }
}

Program Parser::parseProgram() {
  Program P;
  while (!at(TokKind::Eof)) {
    if (at(TokKind::KwGlobal)) {
      parseGlobal(P);
    } else if (at(TokKind::KwFn)) {
      parseFunction(P);
    } else {
      error(std::string("expected 'global' or 'fn' at top level, found ") +
            tokKindName(Cur.Kind));
      bump();
      syncToDeclBoundary();
    }
  }
  return P;
}

void Parser::parseGlobal(Program &P) {
  GlobalDecl G;
  G.Line = Cur.Line;
  G.Col = Cur.Col;
  bump(); // 'global'
  if (!at(TokKind::Ident)) {
    error("expected a global variable name");
    syncToDeclBoundary();
    return;
  }
  G.Name = Cur.Text;
  bump();
  if (accept(TokKind::LBracket)) {
    if (!at(TokKind::Number)) {
      error("expected an array size");
      syncToDeclBoundary();
      return;
    }
    if (Cur.Value <= 0) {
      error("array size must be positive");
    } else {
      G.Size = static_cast<uint64_t>(Cur.Value);
    }
    bump();
    expect(TokKind::RBracket, "after array size");
  }
  expect(TokKind::Semi, "after global declaration");
  P.Globals.push_back(std::move(G));
}

void Parser::parseFunction(Program &P) {
  FuncDecl F;
  F.Line = Cur.Line;
  F.Col = Cur.Col;
  bump(); // 'fn'
  if (!at(TokKind::Ident)) {
    error("expected a function name");
    syncToDeclBoundary();
    return;
  }
  F.Name = Cur.Text;
  bump();
  if (!expect(TokKind::LParen, "after function name")) {
    syncToDeclBoundary();
    return;
  }
  if (!at(TokKind::RParen)) {
    do {
      if (!at(TokKind::Ident)) {
        error("expected a parameter name");
        break;
      }
      F.Params.push_back(Cur.Text);
      bump();
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::RParen, "after parameter list");
  if (!at(TokKind::LBrace)) {
    error("expected a function body");
    syncToDeclBoundary();
    return;
  }
  F.Body = parseBlock();
  P.Funcs.push_back(std::move(F));
}

StmtPtr Parser::parseBlock() {
  NestingGuard Nest(*this);
  if (!Nest.deepen())
    return nullptr;
  auto B = std::make_unique<Stmt>();
  B->K = Stmt::Kind::Block;
  B->Line = Cur.Line;
  B->Col = Cur.Col;
  expect(TokKind::LBrace, "to open a block");
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    size_t DiagsBefore = Diags.size();
    uint64_t TokensBefore = TokensConsumed;
    StmtPtr S = parseStmt();
    if (S)
      B->Body.push_back(std::move(S));
    else if (Diags.size() > DiagsBefore)
      syncToStmtBoundary();
    // Error recovery must make progress: a malformed statement that
    // produced diagnostics without consuming anything would loop forever.
    if (TokensConsumed == TokensBefore) {
      if (Diags.size() == DiagsBefore)
        error("statement made no progress");
      bump();
      syncToStmtBoundary();
    }
  }
  expect(TokKind::RBrace, "to close a block");
  return B;
}

StmtPtr Parser::parseStmt() {
  NestingGuard Nest(*this);
  if (!Nest.deepen())
    return nullptr;
  auto Make = [&](Stmt::Kind K) {
    auto S = std::make_unique<Stmt>();
    S->K = K;
    S->Line = Cur.Line;
    S->Col = Cur.Col;
    return S;
  };

  switch (Cur.Kind) {
  case TokKind::LBrace:
    return parseBlock();
  case TokKind::KwIf: {
    auto S = Make(Stmt::Kind::If);
    bump();
    expect(TokKind::LParen, "after 'if'");
    S->E.push_back(parseExpr());
    expect(TokKind::RParen, "after if condition");
    S->SubStmt.push_back(parseBlock());
    if (accept(TokKind::KwElse)) {
      if (at(TokKind::KwIf))
        S->SubStmt.push_back(parseStmt()); // else-if chain
      else
        S->SubStmt.push_back(parseBlock());
    }
    return S;
  }
  case TokKind::KwWhile: {
    auto S = Make(Stmt::Kind::While);
    bump();
    expect(TokKind::LParen, "after 'while'");
    S->E.push_back(parseExpr());
    expect(TokKind::RParen, "after while condition");
    S->SubStmt.push_back(parseBlock());
    return S;
  }
  case TokKind::KwDo: {
    auto S = Make(Stmt::Kind::DoWhile);
    bump();
    S->SubStmt.push_back(parseBlock());
    expect(TokKind::KwWhile, "after do-while body");
    expect(TokKind::LParen, "after 'while'");
    S->E.push_back(parseExpr());
    expect(TokKind::RParen, "after do-while condition");
    expect(TokKind::Semi, "after do-while");
    return S;
  }
  case TokKind::KwFor: {
    auto S = Make(Stmt::Kind::For);
    bump();
    expect(TokKind::LParen, "after 'for'");
    // SubStmt layout: [0] = body, [1] = init?, [2] = step?. E[0] = cond?.
    StmtPtr Init, Step;
    if (!at(TokKind::Semi))
      Init = parseSimpleStmt(/*RequireSemi=*/false);
    expect(TokKind::Semi, "after for-init");
    if (!at(TokKind::Semi))
      S->E.push_back(parseExpr());
    else
      S->E.push_back(nullptr);
    expect(TokKind::Semi, "after for-condition");
    if (!at(TokKind::RParen))
      Step = parseSimpleStmt(/*RequireSemi=*/false);
    expect(TokKind::RParen, "after for clauses");
    S->SubStmt.push_back(parseBlock());
    S->SubStmt.push_back(std::move(Init));
    S->SubStmt.push_back(std::move(Step));
    return S;
  }
  case TokKind::KwReturn: {
    auto S = Make(Stmt::Kind::Return);
    bump();
    if (!at(TokKind::Semi))
      S->E.push_back(parseExpr());
    expect(TokKind::Semi, "after return");
    return S;
  }
  case TokKind::KwBreak: {
    auto S = Make(Stmt::Kind::Break);
    bump();
    expect(TokKind::Semi, "after 'break'");
    return S;
  }
  case TokKind::KwContinue: {
    auto S = Make(Stmt::Kind::Continue);
    bump();
    expect(TokKind::Semi, "after 'continue'");
    return S;
  }
  default:
    return parseSimpleStmt(/*RequireSemi=*/true);
  }
}

StmtPtr Parser::parseSimpleStmt(bool RequireSemi) {
  auto Make = [&](Stmt::Kind K) {
    auto S = std::make_unique<Stmt>();
    S->K = K;
    S->Line = Cur.Line;
    S->Col = Cur.Col;
    return S;
  };
  auto Finish = [&](StmtPtr S) -> StmtPtr {
    if (RequireSemi)
      expect(TokKind::Semi, "after statement");
    return S;
  };

  if (at(TokKind::KwVar)) {
    auto S = Make(Stmt::Kind::VarDecl);
    bump();
    if (!at(TokKind::Ident)) {
      error("expected a variable name after 'var'");
      return nullptr;
    }
    S->Name = Cur.Text;
    bump();
    if (accept(TokKind::Assign))
      S->E.push_back(parseExpr());
    return Finish(std::move(S));
  }

  // Assignment / array assignment / bare expression. We need lookahead to
  // distinguish `x = e`, `a[i] = e` from expression statements.
  if (at(TokKind::Ident)) {
    std::string Name = Cur.Text;
    uint32_t Line = Cur.Line, Col = Cur.Col;
    bump();
    if (accept(TokKind::Assign)) {
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::Assign;
      S->Line = Line;
      S->Col = Col;
      S->Name = std::move(Name);
      S->E.push_back(parseExpr());
      return Finish(std::move(S));
    }
    if (at(TokKind::LBracket)) {
      bump();
      ExprPtr Index = parseExpr();
      expect(TokKind::RBracket, "after array index");
      if (accept(TokKind::Assign)) {
        auto S = std::make_unique<Stmt>();
        S->K = Stmt::Kind::ArrayAssign;
        S->Line = Line;
        S->Col = Col;
        S->Name = std::move(Name);
        S->E.push_back(std::move(Index));
        S->E.push_back(parseExpr());
        return Finish(std::move(S));
      }
      // It was an array read used as an expression statement; rebuild it.
      auto Read = std::make_unique<Expr>();
      Read->K = Expr::Kind::ArrayIndex;
      Read->Line = Line;
      Read->Col = Col;
      Read->Name = std::move(Name);
      Read->Sub.push_back(std::move(Index));
      auto S = Make(Stmt::Kind::ExprStmt);
      S->Line = Line;
      S->Col = Col;
      S->E.push_back(parseBinaryRhs(0, std::move(Read)));
      return Finish(std::move(S));
    }
    // Expression statement beginning with an identifier (typically a call).
    ExprPtr Lead;
    if (at(TokKind::LParen)) {
      auto CallE = std::make_unique<Expr>();
      CallE->K = Expr::Kind::Call;
      CallE->Line = Line;
      CallE->Col = Col;
      CallE->Name = std::move(Name);
      bump();
      if (!at(TokKind::RParen)) {
        do {
          CallE->Sub.push_back(parseExpr());
        } while (accept(TokKind::Comma));
      }
      expect(TokKind::RParen, "after call arguments");
      Lead = std::move(CallE);
    } else {
      auto Ref = std::make_unique<Expr>();
      Ref->K = Expr::Kind::VarRef;
      Ref->Line = Line;
      Ref->Col = Col;
      Ref->Name = std::move(Name);
      Lead = std::move(Ref);
    }
    auto S = Make(Stmt::Kind::ExprStmt);
    S->Line = Line;
    S->Col = Col;
    S->E.push_back(parseBinaryRhs(0, std::move(Lead)));
    return Finish(std::move(S));
  }

  auto S = Make(Stmt::Kind::ExprStmt);
  S->E.push_back(parseExpr());
  return Finish(std::move(S));
}

// Binary operator precedence (higher binds tighter).
static int precedenceOf(TokKind K) {
  switch (K) {
  case TokKind::PipePipe:
    return 1;
  case TokKind::AmpAmp:
    return 2;
  case TokKind::Pipe:
    return 3;
  case TokKind::Caret:
    return 4;
  case TokKind::Amp:
    return 5;
  case TokKind::EqEq:
  case TokKind::NotEq:
    return 6;
  case TokKind::Lt:
  case TokKind::Le:
  case TokKind::Gt:
  case TokKind::Ge:
    return 7;
  case TokKind::Shl:
  case TokKind::Shr:
    return 8;
  case TokKind::Plus:
  case TokKind::Minus:
    return 9;
  case TokKind::Star:
  case TokKind::Slash:
  case TokKind::Percent:
    return 10;
  default:
    return -1;
  }
}

static BinaryOp binaryOpOf(TokKind K) {
  switch (K) {
  case TokKind::PipePipe:
    return BinaryOp::LOr;
  case TokKind::AmpAmp:
    return BinaryOp::LAnd;
  case TokKind::Pipe:
    return BinaryOp::BitOr;
  case TokKind::Caret:
    return BinaryOp::BitXor;
  case TokKind::Amp:
    return BinaryOp::BitAnd;
  case TokKind::EqEq:
    return BinaryOp::Eq;
  case TokKind::NotEq:
    return BinaryOp::Ne;
  case TokKind::Lt:
    return BinaryOp::Lt;
  case TokKind::Le:
    return BinaryOp::Le;
  case TokKind::Gt:
    return BinaryOp::Gt;
  case TokKind::Ge:
    return BinaryOp::Ge;
  case TokKind::Shl:
    return BinaryOp::Shl;
  case TokKind::Shr:
    return BinaryOp::Shr;
  case TokKind::Plus:
    return BinaryOp::Add;
  case TokKind::Minus:
    return BinaryOp::Sub;
  case TokKind::Star:
    return BinaryOp::Mul;
  case TokKind::Slash:
    return BinaryOp::Div;
  case TokKind::Percent:
    return BinaryOp::Mod;
  default:
    assert(false && "not a binary operator token");
    return BinaryOp::Add;
  }
}

ExprPtr Parser::parseExpr() { return parseBinaryRhs(0, parseUnary()); }

ExprPtr Parser::parseBinaryRhs(int MinPrec, ExprPtr Lhs) {
  if (!Lhs)
    return Lhs;
  NestingGuard Nest(*this);
  while (true) {
    int Prec = precedenceOf(Cur.Kind);
    if (Prec < MinPrec || Prec < 0 || !Nest.deepen())
      return Lhs;
    TokKind OpTok = Cur.Kind;
    uint32_t Line = Cur.Line, Col = Cur.Col;
    bump();
    ExprPtr Rhs = parseUnary();
    if (!Rhs)
      return Lhs;
    int NextPrec = precedenceOf(Cur.Kind);
    if (NextPrec > Prec)
      Rhs = parseBinaryRhs(Prec + 1, std::move(Rhs));
    auto Node = std::make_unique<Expr>();
    Node->K = Expr::Kind::Binary;
    Node->Line = Line;
    Node->Col = Col;
    Node->BOp = binaryOpOf(OpTok);
    Node->Sub.push_back(std::move(Lhs));
    Node->Sub.push_back(std::move(Rhs));
    Lhs = std::move(Node);
  }
}

ExprPtr Parser::parseUnary() {
  NestingGuard Nest(*this);
  if (!Nest.deepen())
    return nullptr;
  if (at(TokKind::Amp)) {
    // &name: the named function's id as a first-class value.
    auto Node = std::make_unique<Expr>();
    Node->K = Expr::Kind::FuncAddr;
    Node->Line = Cur.Line;
    Node->Col = Cur.Col;
    bump();
    if (!at(TokKind::Ident)) {
      error("expected a function name after '&'");
      return nullptr;
    }
    Node->Name = Cur.Text;
    bump();
    return Node;
  }
  if (at(TokKind::Minus) || at(TokKind::Bang)) {
    auto Node = std::make_unique<Expr>();
    Node->K = Expr::Kind::Unary;
    Node->Line = Cur.Line;
    Node->Col = Cur.Col;
    Node->UOp = at(TokKind::Minus) ? UnaryOp::Neg : UnaryOp::Not;
    bump();
    Node->Sub.push_back(parseUnary());
    if (!Node->Sub.back())
      return nullptr;
    return Node;
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  auto Make = [&](Expr::Kind K) {
    auto E = std::make_unique<Expr>();
    E->K = K;
    E->Line = Cur.Line;
    E->Col = Cur.Col;
    return E;
  };

  switch (Cur.Kind) {
  case TokKind::Number: {
    auto E = Make(Expr::Kind::IntLit);
    E->Value = Cur.Value;
    bump();
    return E;
  }
  case TokKind::LParen: {
    bump();
    ExprPtr E = parseExpr();
    expect(TokKind::RParen, "to close a parenthesized expression");
    return E;
  }
  case TokKind::Ident: {
    std::string Name = Cur.Text;
    uint32_t Line = Cur.Line, Col = Cur.Col;
    bump();
    if (at(TokKind::LParen)) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Call;
      E->Line = Line;
      E->Col = Col;
      E->Name = std::move(Name);
      bump();
      if (!at(TokKind::RParen)) {
        do {
          E->Sub.push_back(parseExpr());
        } while (accept(TokKind::Comma));
      }
      expect(TokKind::RParen, "after call arguments");
      return E;
    }
    if (at(TokKind::LBracket)) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::ArrayIndex;
      E->Line = Line;
      E->Col = Col;
      E->Name = std::move(Name);
      bump();
      E->Sub.push_back(parseExpr());
      expect(TokKind::RBracket, "after array index");
      return E;
    }
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::VarRef;
    E->Line = Line;
    E->Col = Col;
    E->Name = std::move(Name);
    return E;
  }
  default:
    error(std::string("expected an expression, found ") +
          tokKindName(Cur.Kind));
    return nullptr;
  }
}
