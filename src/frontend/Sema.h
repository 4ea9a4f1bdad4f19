//===--- Sema.h - MiniC semantic checking -----------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution and semantic checks over the AST. On success every
/// VarRef/ArrayIndex/Call/Assign node carries its resolution (RefKind +
/// RefId) and each FuncDecl knows how many local variable slots it needs,
/// which is all the lowering requires.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_FRONTEND_SEMA_H
#define OLPP_FRONTEND_SEMA_H

#include "frontend/Ast.h"

namespace olpp {

/// Checks and annotates \p P in place. Returns the diagnostics; empty means
/// the program is well-formed and ready for lowering.
/// Cap on the elements of all globals together. The interpreter allocates
/// every global up front, so a declaration past this cap is a compile error
/// rather than an allocation failure at run time. The largest array in the
/// embedded workloads has 1,024 elements.
inline constexpr uint64_t MaxGlobalElements = uint64_t(1) << 22;

std::vector<Diag> checkProgram(Program &P);

} // namespace olpp

#endif // OLPP_FRONTEND_SEMA_H
