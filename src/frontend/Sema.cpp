//===--- Sema.cpp - MiniC semantic checking --------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

using namespace olpp;

namespace {

class Checker {
public:
  explicit Checker(Program &P) : P(P) {}

  std::vector<Diag> run() {
    // Global symbol tables; variables and functions live in separate
    // namespaces (a call always resolves against functions).
    uint64_t Elements = 0;
    for (uint32_t G = 0; G < P.Globals.size(); ++G) {
      const GlobalDecl &GD = P.Globals[G];
      if (!GlobalIds.emplace(GD.Name, G).second)
        error(GD.Line, GD.Col, "redefinition of global '" + GD.Name + "'");
      // Reported once, at the global that crosses the cap; the min keeps
      // the sum from wrapping.
      if (Elements <= MaxGlobalElements) {
        Elements += std::min(GD.Size, MaxGlobalElements + 1);
        if (Elements > MaxGlobalElements)
          error(GD.Line, GD.Col,
                "global '" + GD.Name + "' takes the globals past " +
                    std::to_string(MaxGlobalElements) + " elements in total");
      }
    }
    for (uint32_t F = 0; F < P.Funcs.size(); ++F) {
      const FuncDecl &FD = P.Funcs[F];
      if (!FuncIds.emplace(FD.Name, F).second)
        error(FD.Line, FD.Col, "redefinition of function '" + FD.Name + "'");
    }
    for (FuncDecl &F : P.Funcs)
      checkFunction(F);
    return std::move(Diags);
  }

private:
  void error(uint32_t Line, uint32_t Col, const std::string &Msg) {
    Diags.push_back({Line, Col, Msg});
  }

  // --- scope management -------------------------------------------------
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  /// Declares a local; returns its function-unique id.
  uint32_t declareLocal(const std::string &Name, uint32_t Line, uint32_t Col) {
    auto &Top = Scopes.back();
    if (Top.count(Name))
      error(Line, Col, "redefinition of '" + Name + "' in the same scope");
    uint32_t Id = NextLocal++;
    Top[Name] = Id;
    return Id;
  }

  /// Innermost local with this name, or UINT32_MAX.
  uint32_t lookupLocal(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return UINT32_MAX;
  }

  // --- per-function traversal -------------------------------------------
  void checkFunction(FuncDecl &F) {
    Scopes.clear();
    NextLocal = 0;
    LoopDepth = 0;
    pushScope();
    for (const std::string &Param : F.Params)
      declareLocal(Param, F.Line, F.Col);
    if (F.Body)
      checkStmt(*F.Body);
    popScope();
    F.NumLocals = NextLocal;
  }

  void checkStmt(Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Block:
      pushScope();
      for (StmtPtr &Sub : S.Body)
        if (Sub)
          checkStmt(*Sub);
      popScope();
      break;
    case Stmt::Kind::VarDecl:
      // Check the initializer before the name becomes visible.
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]);
      S.Ref = RefKind::Local;
      S.RefId = declareLocal(S.Name, S.Line, S.Col);
      break;
    case Stmt::Kind::Assign: {
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]);
      uint32_t Local = lookupLocal(S.Name);
      if (Local != UINT32_MAX) {
        S.Ref = RefKind::Local;
        S.RefId = Local;
        break;
      }
      auto G = GlobalIds.find(S.Name);
      if (G == GlobalIds.end()) {
        error(S.Line, S.Col, "assignment to undeclared variable '" + S.Name +
                                 "'");
        break;
      }
      if (P.Globals[G->second].Size > 1) {
        error(S.Line, S.Col,
              "array '" + S.Name + "' assigned without an index");
        break;
      }
      S.Ref = RefKind::Global;
      S.RefId = G->second;
      break;
    }
    case Stmt::Kind::ArrayAssign: {
      for (ExprPtr &E : S.E)
        if (E)
          checkExpr(*E);
      auto G = GlobalIds.find(S.Name);
      if (G == GlobalIds.end() || P.Globals[G->second].Size == 1) {
        error(S.Line, S.Col, "'" + S.Name + "' is not a global array");
        break;
      }
      if (lookupLocal(S.Name) != UINT32_MAX) {
        error(S.Line, S.Col,
              "local '" + S.Name + "' shadows the global array; rename it");
        break;
      }
      S.Ref = RefKind::GlobalArray;
      S.RefId = G->second;
      break;
    }
    case Stmt::Kind::If:
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]);
      for (StmtPtr &Sub : S.SubStmt)
        if (Sub)
          checkStmt(*Sub);
      break;
    case Stmt::Kind::While:
    case Stmt::Kind::DoWhile:
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]);
      ++LoopDepth;
      if (!S.SubStmt.empty() && S.SubStmt[0])
        checkStmt(*S.SubStmt[0]);
      --LoopDepth;
      break;
    case Stmt::Kind::For: {
      // Init/step see a dedicated scope so `for (var i = ...; ...)` works.
      pushScope();
      if (S.SubStmt.size() > 1 && S.SubStmt[1])
        checkStmt(*S.SubStmt[1]); // init
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]); // condition
      ++LoopDepth;
      if (!S.SubStmt.empty() && S.SubStmt[0])
        checkStmt(*S.SubStmt[0]); // body
      --LoopDepth;
      if (S.SubStmt.size() > 2 && S.SubStmt[2])
        checkStmt(*S.SubStmt[2]); // step
      popScope();
      break;
    }
    case Stmt::Kind::Return:
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]);
      break;
    case Stmt::Kind::Break:
      if (LoopDepth == 0)
        error(S.Line, S.Col, "'break' outside of a loop");
      break;
    case Stmt::Kind::Continue:
      if (LoopDepth == 0)
        error(S.Line, S.Col, "'continue' outside of a loop");
      break;
    case Stmt::Kind::ExprStmt:
      if (!S.E.empty() && S.E[0])
        checkExpr(*S.E[0]);
      break;
    }
  }

  void checkExpr(Expr &E) {
    switch (E.K) {
    case Expr::Kind::IntLit:
      break;
    case Expr::Kind::VarRef: {
      uint32_t Local = lookupLocal(E.Name);
      if (Local != UINT32_MAX) {
        E.Ref = RefKind::Local;
        E.RefId = Local;
        break;
      }
      auto G = GlobalIds.find(E.Name);
      if (G != GlobalIds.end()) {
        if (P.Globals[G->second].Size > 1) {
          error(E.Line, E.Col,
                "array '" + E.Name + "' read without an index");
          break;
        }
        E.Ref = RefKind::Global;
        E.RefId = G->second;
        break;
      }
      error(E.Line, E.Col, "use of undeclared variable '" + E.Name + "'");
      break;
    }
    case Expr::Kind::ArrayIndex: {
      if (!E.Sub.empty() && E.Sub[0])
        checkExpr(*E.Sub[0]);
      auto G = GlobalIds.find(E.Name);
      if (G == GlobalIds.end() || P.Globals[G->second].Size == 1) {
        error(E.Line, E.Col, "'" + E.Name + "' is not a global array");
        break;
      }
      E.Ref = RefKind::GlobalArray;
      E.RefId = G->second;
      break;
    }
    case Expr::Kind::Unary:
    case Expr::Kind::Binary:
      for (ExprPtr &Sub : E.Sub)
        if (Sub)
          checkExpr(*Sub);
      break;
    case Expr::Kind::FuncAddr: {
      auto F = FuncIds.find(E.Name);
      if (F == FuncIds.end()) {
        error(E.Line, E.Col, "'&" + E.Name + "' does not name a function");
        break;
      }
      E.Ref = RefKind::Func;
      E.RefId = F->second;
      break;
    }
    case Expr::Kind::Call: {
      for (ExprPtr &Sub : E.Sub)
        if (Sub)
          checkExpr(*Sub);
      auto F = FuncIds.find(E.Name);
      if (F == FuncIds.end()) {
        // Not a function: an indirect call through a variable holding a
        // function id (arity is checked at run time).
        uint32_t Local = lookupLocal(E.Name);
        if (Local != UINT32_MAX) {
          E.Indirect = true;
          E.Ref = RefKind::Local;
          E.RefId = Local;
          break;
        }
        auto G = GlobalIds.find(E.Name);
        if (G != GlobalIds.end() && P.Globals[G->second].Size == 1) {
          E.Indirect = true;
          E.Ref = RefKind::Global;
          E.RefId = G->second;
          break;
        }
        error(E.Line, E.Col, "call to undeclared function '" + E.Name + "'");
        break;
      }
      const FuncDecl &Callee = P.Funcs[F->second];
      if (Callee.Params.size() != E.Sub.size()) {
        error(E.Line, E.Col,
              "'" + E.Name + "' expects " +
                  std::to_string(Callee.Params.size()) + " arguments, got " +
                  std::to_string(E.Sub.size()));
        break;
      }
      E.Ref = RefKind::Func;
      E.RefId = F->second;
      break;
    }
    }
  }

  Program &P;
  std::vector<Diag> Diags;
  std::unordered_map<std::string, uint32_t> GlobalIds;
  std::unordered_map<std::string, uint32_t> FuncIds;
  std::vector<std::unordered_map<std::string, uint32_t>> Scopes;
  uint32_t NextLocal = 0;
  uint32_t LoopDepth = 0;
};

} // namespace

std::vector<Diag> olpp::checkProgram(Program &P) { return Checker(P).run(); }
