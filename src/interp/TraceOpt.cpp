//===--- TraceOpt.cpp - Trace-local optimizer -----------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/TraceOpt.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>

//===----------------------------------------------------------------------===//
// Guard pass budgets
//===----------------------------------------------------------------------===//

namespace olpp {
namespace {

GuardBudget budgetInf() { return GuardBudget{}; }
GuardBudget budgetOne() {
  GuardBudget B;
  B.M = GuardBudget::One;
  return B;
}
GuardBudget budgetDynLt(int64_t D) {
  GuardBudget B;
  B.M = GuardBudget::DynLt;
  B.Delta = D;
  return B;
}

/// Guard compare styles: exact equality on V, boolean equality on
/// (V != 0), or a strict upper bound (the monotone-counter range guards).
enum class GuardStyle { Eq, Bool, Lt };

/// Budget of one guard from the collapsed per-pass net effect on its
/// component. No effect: the component never changes across a pass, so a
/// pass-1 success holds forever (Inf). One Set: the post-pass value is a
/// compile-time constant; statically re-evaluate the guard against it.
/// One Add: an Eq guard survives only a zero delta; a Lt guard over a
/// positive delta admits exactly ceil((bound - live) / delta) passes,
/// which only the executor can evaluate (DynLt). Anything harder falls
/// back to One — always sound, it is exactly the per-pass legacy check.
GuardBudget budgetFor(const TraceGuard &G,
                      const std::vector<TraceEffect> &PassEffects) {
  EffectKind SetK = EffectKind::SetR;
  EffectKind AddK = EffectKind::AddR;
  bool HasAdd = true;
  bool SlotMatch = false;
  GuardStyle Style = GuardStyle::Eq;
  switch (G.Kind) {
  case GuardKind::R:
    SetK = EffectKind::SetR;
    AddK = EffectKind::AddR;
    break;
  case GuardKind::LoopActive:
    SetK = EffectKind::SetLoopActive;
    HasAdd = false;
    SlotMatch = true;
    Style = GuardStyle::Bool;
    break;
  case GuardKind::LoopRo:
    SetK = EffectKind::SetLoopRo;
    AddK = EffectKind::AddLoopRo;
    SlotMatch = true;
    break;
  case GuardKind::LoopOlEq:
  case GuardKind::LoopOlLt:
    SetK = EffectKind::SetLoopOl;
    AddK = EffectKind::AddLoopOl;
    SlotMatch = true;
    if (G.Kind == GuardKind::LoopOlLt)
      Style = GuardStyle::Lt;
    break;
  case GuardKind::ActiveI:
    SetK = EffectKind::SetActiveI;
    HasAdd = false;
    Style = GuardStyle::Bool;
    break;
  case GuardKind::HaveCaller:
    SetK = EffectKind::SetHaveCaller;
    HasAdd = false;
    Style = GuardStyle::Bool;
    break;
  case GuardKind::RI:
    SetK = EffectKind::SetRI;
    AddK = EffectKind::AddRI;
    break;
  case GuardKind::OlIEq:
  case GuardKind::OlILt:
    SetK = EffectKind::SetOlI;
    AddK = EffectKind::AddOlI;
    if (G.Kind == GuardKind::OlILt)
      Style = GuardStyle::Lt;
    break;
  case GuardKind::CallerPre:
    SetK = EffectKind::SetCallerPre;
    HasAdd = false;
    break;
  case GuardKind::CallSiteI:
    SetK = EffectKind::SetCallSiteI;
    HasAdd = false;
    break;
  case GuardKind::ActiveII:
    SetK = EffectKind::SetActiveII;
    HasAdd = false;
    Style = GuardStyle::Bool;
    break;
  case GuardKind::RoII:
    SetK = EffectKind::SetRoII;
    AddK = EffectKind::AddRoII;
    break;
  case GuardKind::OlIIEq:
  case GuardKind::OlIILt:
    SetK = EffectKind::SetOlII;
    AddK = EffectKind::AddOlII;
    if (G.Kind == GuardKind::OlIILt)
      Style = GuardStyle::Lt;
    break;
  case GuardKind::CalleePathII:
    SetK = EffectKind::SetCalleePathII;
    HasAdd = false;
    break;
  case GuardKind::CallSiteII:
    SetK = EffectKind::SetCallSiteII;
    HasAdd = false;
    break;
  case GuardKind::CalleeII:
    SetK = EffectKind::SetCalleeII;
    HasAdd = false;
    break;
  case GuardKind::PendingValid: {
    const TraceEffect *M = nullptr;
    int Count = 0;
    for (const TraceEffect &E : PassEffects) {
      if (E.Depth != 0)
        continue;
      if (E.Kind == EffectKind::PendingSet ||
          E.Kind == EffectKind::PendingClear) {
        ++Count;
        M = &E;
      }
    }
    if (Count == 0)
      return budgetInf();
    if (Count > 1)
      return budgetOne();
    const bool After = M->Kind == EffectKind::PendingSet;
    return After == (G.V != 0) ? budgetInf() : budgetOne();
  }
  case GuardKind::PendingCallee:
  case GuardKind::PendingPathId: {
    // PendingClear leaves Callee/PathId untouched — only PendingSet is a
    // write for these guards.
    const TraceEffect *M = nullptr;
    int Count = 0;
    for (const TraceEffect &E : PassEffects) {
      if (E.Depth != 0)
        continue;
      if (E.Kind == EffectKind::PendingSet) {
        ++Count;
        M = &E;
      }
    }
    if (Count == 0)
      return budgetInf();
    if (Count > 1)
      return budgetOne();
    if (G.Kind == GuardKind::PendingCallee)
      return M->Slot == G.Slot ? budgetInf() : budgetOne();
    return M->V == G.V ? budgetInf() : budgetOne();
  }
  case GuardKind::ShadowDepth:
  case GuardKind::ShadowSiteAt:
  case GuardKind::ShadowPreAt:
    for (const TraceEffect &E : PassEffects)
      if (E.Kind == EffectKind::ShadowPush || E.Kind == EffectKind::ShadowPop)
        return budgetOne();
    return budgetInf();
  }

  const TraceEffect *Match = nullptr;
  bool IsAdd = false;
  int Count = 0;
  for (const TraceEffect &E : PassEffects) {
    if (E.Depth != 0)
      continue;
    const bool MS = E.Kind == SetK;
    const bool MA = HasAdd && E.Kind == AddK;
    if (!MS && !MA)
      continue;
    if (SlotMatch && E.Slot != G.Slot)
      continue;
    ++Count;
    Match = &E;
    IsAdd = MA;
  }
  if (Count == 0)
    return budgetInf();
  if (Count > 1)
    return budgetOne();
  if (IsAdd) {
    if (Style == GuardStyle::Lt)
      return Match->V <= 0 ? budgetInf() : budgetDynLt(Match->V);
    return Match->V == 0 ? budgetInf() : budgetOne();
  }
  const int64_t V = Match->V;
  switch (Style) {
  case GuardStyle::Eq:
    return V == G.V ? budgetInf() : budgetOne();
  case GuardStyle::Bool:
    return (V != 0) == (G.V != 0) ? budgetInf() : budgetOne();
  case GuardStyle::Lt:
    return V < G.V ? budgetInf() : budgetOne();
  }
  return budgetOne();
}

void computeBudgets(CompiledTrace &T) {
  T.Budgets.clear();
  T.Budgets.reserve(T.Guards.size());
  for (const TraceGuard &G : T.Guards)
    T.Budgets.push_back(budgetFor(G, T.PassEffects));
  T.Budgeted = true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void optimizeTrace(CompiledTrace &T, bool FaultDropGuard) {
  if (FaultDropGuard) {
    // Planted bug: the last branch guard disappears, so a pass that should
    // deopt there runs on down the recorded path.
    for (size_t I = T.Steps.size(); I-- > 0;) {
      const TOp Op = T.Steps[I].Op;
      if (Op == TOp::GuardTrue || Op == TOp::GuardFalse) {
        T.Steps.erase(T.Steps.begin() + static_cast<ptrdiff_t>(I));
        T.Meta.erase(T.Meta.begin() + static_cast<ptrdiff_t>(I));
        break;
      }
    }
  }
  computeBudgets(T);
}

} // namespace olpp

//===----------------------------------------------------------------------===//
// Dump (goldens + debugging)
//===----------------------------------------------------------------------===//

namespace olpp {
namespace {

const char *opName(TOp Op) {
  static const char *const Names[] = {
      "const",    "move",     "add",       "sub",        "mul",
      "div",      "mod",      "and",       "or",         "xor",
      "shl",      "shr",      "cmpeq",     "cmpne",      "cmplt",
      "cmple",    "cmpgt",    "cmpge",     "addimm",     "andimm",
      "cmpeqimm", "cmpneimm", "cmpltimm",  "cmpleimm",   "cmpgtimm",
      "cmpgeimm", "neg",      "not",       "loadg",      "storeg",
      "loadarr",  "storearr", "guardtrue", "guardfalse", "guardcallee",
      "call",     "ret"};
  return Names[static_cast<size_t>(Op)];
}

const char *guardName(GuardKind K) {
  static const char *const Names[] = {
      "R",          "LoopActive", "LoopRo",       "LoopOlEq",
      "LoopOlLt",   "ActiveI",    "HaveCaller",   "RI",
      "OlIEq",      "OlILt",      "CallerPre",    "CallSiteI",
      "ActiveII",   "RoII",       "OlIIEq",       "OlIILt",
      "CalleePathII", "CallSiteII", "CalleeII",   "PendingValid",
      "PendingCallee", "PendingPathId", "ShadowDepth", "ShadowSiteAt",
      "ShadowPreAt"};
  return Names[static_cast<size_t>(K)];
}

const char *effectName(EffectKind K) {
  static const char *const Names[] = {
      "SetR",         "AddR",         "SetRI",          "AddRI",
      "SetOlI",       "AddOlI",       "SetCallerPre",   "SetCallSiteI",
      "SetActiveI",   "SetHaveCaller", "SetRoII",       "AddRoII",
      "SetOlII",      "AddOlII",      "SetCalleePathII", "SetCallSiteII",
      "SetCalleeII",  "SetActiveII",  "SetLoopRo",      "AddLoopRo",
      "SetLoopOl",    "AddLoopOl",    "SetLoopActive",  "ShadowPush",
      "ShadowPop",    "PendingSet",   "PendingClear"};
  return Names[static_cast<size_t>(K)];
}

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

void appendReg(std::string &Out, Reg R) {
  if (R == NoReg)
    Out += " -";
  else
    appendf(Out, " r%u", R);
}

} // namespace

std::string dumpTrace(const CompiledTrace &T) {
  std::string Out;
  appendf(Out, "trace func=%u anchor=%u@%u multipass=%d basesteps=%u "
               "budgeted=%d\n",
          T.FuncId, T.AnchorPc, T.AnchorBlock, T.MultiPass ? 1 : 0,
          T.PassBaseSteps, T.Budgeted ? 1 : 0);
  appendf(Out, "guards: %zu\n", T.Guards.size());
  for (size_t I = 0; I < T.Guards.size(); ++I) {
    const TraceGuard &G = T.Guards[I];
    appendf(Out, "  [%zu] %s slot=%u v=%lld", I, guardName(G.Kind), G.Slot,
            static_cast<long long>(G.V));
    if (T.Budgeted) {
      const GuardBudget &B = T.Budgets[I];
      if (B.M == GuardBudget::Inf)
        Out += " budget=inf";
      else if (B.M == GuardBudget::One)
        Out += " budget=one";
      else
        appendf(Out, " budget=lt+%lld", static_cast<long long>(B.Delta));
    }
    Out += "\n";
  }
  appendf(Out, "steps: %zu\n", T.Steps.size());
  for (size_t I = 0; I < T.Steps.size(); ++I) {
    const TraceStep &S = T.Steps[I];
    const TraceStepMeta &M = T.Meta[I];
    appendf(Out, "  [%zu] %s", I, opName(S.Op));
    switch (S.Op) {
    case TOp::Const:
      appendReg(Out, S.Dst);
      appendf(Out, " %lld", static_cast<long long>(S.Imm));
      break;
    case TOp::Move:
    case TOp::Neg:
    case TOp::Not:
      appendReg(Out, S.Dst);
      appendReg(Out, S.Src0);
      break;
    case TOp::AddImm:
    case TOp::AndImm:
    case TOp::CmpEqImm:
    case TOp::CmpNeImm:
    case TOp::CmpLtImm:
    case TOp::CmpLeImm:
    case TOp::CmpGtImm:
    case TOp::CmpGeImm:
      appendReg(Out, S.Dst);
      appendReg(Out, S.Src0);
      appendf(Out, " %lld", static_cast<long long>(S.Imm));
      break;
    case TOp::LoadG:
      appendReg(Out, S.Dst);
      appendf(Out, " g%u", S.Aux);
      break;
    case TOp::StoreG:
      appendf(Out, " g%u", S.Aux);
      appendReg(Out, S.Src0);
      break;
    case TOp::LoadArr:
      appendReg(Out, S.Dst);
      appendf(Out, " g%u[", S.Aux);
      appendReg(Out, S.Src0);
      Out += " ]";
      break;
    case TOp::StoreArr:
      appendf(Out, " g%u[", S.Aux);
      appendReg(Out, S.Src0);
      Out += " ]";
      appendReg(Out, S.Src1);
      break;
    case TOp::GuardTrue:
    case TOp::GuardFalse:
      appendReg(Out, S.Src0);
      break;
    case TOp::GuardCallee:
      appendReg(Out, S.Src0);
      appendf(Out, " f%u", S.Aux);
      break;
    case TOp::Call:
      appendReg(Out, S.Dst);
      appendf(Out, " f%u (", S.Aux);
      for (uint32_t A = 0; A < S.ArgsCount; ++A)
        appendReg(Out, S.Args[A]);
      Out += " )";
      break;
    case TOp::Ret:
      appendReg(Out, S.Src0);
      break;
    default:
      appendReg(Out, S.Dst);
      appendReg(Out, S.Src0);
      appendReg(Out, S.Src1);
      break;
    }
    appendf(Out, "  @f%u:%u b%u base=%u\n", M.FuncId, M.Pc, M.Block,
            M.BaseIdx);
  }
  appendf(Out, "effects: %zu\n", T.Effects.size());
  for (size_t I = 0; I < T.Effects.size(); ++I) {
    const TraceEffect &E = T.Effects[I];
    appendf(Out, "  [%zu] %s d=%u slot=%u base=%u v=%lld\n", I,
            effectName(E.Kind), E.Depth, E.Slot, E.BaseIdx,
            static_cast<long long>(E.V));
  }
  appendf(Out, "passeffects: %zu\n", T.PassEffects.size());
  for (size_t I = 0; I < T.PassEffects.size(); ++I) {
    const TraceEffect &E = T.PassEffects[I];
    appendf(Out, "  [%zu] %s d=%u slot=%u v=%lld\n", I, effectName(E.Kind),
            E.Depth, E.Slot, static_cast<long long>(E.V));
  }
  appendf(Out, "bumps: %zu\n", T.Bumps.size());
  for (size_t I = 0; I < T.Bumps.size(); ++I) {
    const TraceBump &B = T.Bumps[I];
    appendf(Out, "  [%zu] table=%u func=%u base=%u id=%lld\n", I, B.Table,
            B.FuncId, B.BaseIdx, static_cast<long long>(B.Id));
  }
  return Out;
}

} // namespace olpp
