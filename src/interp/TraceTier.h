//===--- TraceTier.h - Hot-path tracing tier --------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast engine's hot-path tracing tier. The runtime already computes
/// hot-path identity on every backedge (the overlapping path ids); this
/// layer turns that signal into straight-line execution:
///
///   - A TraceRecorder is armed when an OL path-id completion crosses the
///     hotness threshold (ProfileRuntime::TraceTierState). At the next
///     taken backward branch of that function the dispatch loop swaps the
///     recorder in as its TraceSink and captures exactly one loop pass —
///     anchor to anchor at equal call depth — as an event stream plus a
///     snapshot of the profiling state at entry.
///
///   - compileTrace() replays the recorded pass over the ExecPlan and
///     compiles it into a CompiledTrace: a straight-line step vector in
///     which every probe is elided. Probe state (the Ball-Larus register,
///     the loop overlap regions, the interprocedural Type I/II registers,
///     the shadow stack and pending return) evolves deterministically
///     along a fixed path, so the compiler simulates it symbolically:
///     each component is either a compile-time constant or an
///     entry-relative delta, promoted to a constant by an entry *guard*
///     against the recording snapshot the first time its exact value is
///     consumed. Counter bumps become a side table applied once at trace
///     exit (one saturating add per counter instead of one bump per pass),
///     and state writes become a positional effect list applied lazily at
///     exit — the accumulator registers live in compile-time symbolic form
///     across the whole trace instead of memory.
///
///   - runCompiledTrace() executes passes until an entry guard, a branch
///     guard, a fault condition or the fuel precondition stops it, then
///     *deopts before* the diverging step: it applies the per-position
///     accounting prefix, the positional state effects and the counter
///     side table, points the frame at the step's pc and returns to the
///     ordinary dispatch loop, which re-executes that step with identical
///     semantics. DynCounts and every counter store stay bit-exact with
///     the untraced engine; tests/interp/TraceTierTest.cpp and the fuzz
///     trace oracle enforce this at every possible exit position.
///
/// Compiled traces are cached on the ExecPlan, segregated by the trace
/// settings that recorded them (PlanTraceCacheSet below), so every
/// interpreter of a content-identical module running under the same
/// settings shares them, exactly like the plan itself — while runs with a
/// different threshold (or --no-traces) never see them.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_INTERP_TRACETIER_H
#define OLPP_INTERP_TRACETIER_H

#include "interp/ExecPlan.h"
#include "interp/ProfileRuntime.h"
#include "interp/Trace.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace olpp {

//===----------------------------------------------------------------------===//
// Fast-engine frame state (shared between Interpreter.cpp and the trace
// executor; the reference engine keeps its own Frame in Interpreter.cpp)
//===----------------------------------------------------------------------===//

/// Per-loop overlap-region registers.
struct LoopRegs {
  int64_t Ro = 0;
  int64_t Ol = 0;
  bool Active = false;
};

/// One activation record of the fast engine. Registers and loop slots live
/// in pooled stacks indexed by RegBase/LoopBase, so a call allocates
/// nothing.
struct FastFrame {
  uint32_t FuncId = 0;
  uint32_t Pc = 0;
  uint32_t Block = 0; ///< current block id (traces and diagnostics)
  uint32_t RegBase = 0;
  uint32_t LoopBase = 0;
  Reg RetDst = NoReg;

  int64_t R = 0;
  bool ActiveI = false;
  bool HaveCaller = false;
  int64_t RI = 0, OlI = 0, CallerPre = 0;
  uint32_t CallSiteI = 0;
  bool ActiveII = false;
  int64_t RoII = 0, OlII = 0, CalleePathII = 0;
  uint32_t CallSiteII = 0, CalleeII = 0;
};

/// Flat {data,size} view of one global (hoisted out of the vector<>
/// indirection once per run).
struct GlobalView {
  int64_t *Data;
  uint64_t Size;
};

//===----------------------------------------------------------------------===//
// Per-run statistics
//===----------------------------------------------------------------------===//

/// One run's tracing-tier counters (RunResult::Trace).
struct TraceTierStats {
  uint64_t Recorded = 0;   ///< anchor traces compiled and installed this run
  uint64_t Aborted = 0;    ///< recordings abandoned (caps, unsupported shape)
  uint64_t Enters = 0;     ///< times the dispatch loop entered a trace
  uint64_t Passes = 0;     ///< full straight-line passes executed
  /// Enters rejected by the entry-guard check before a single pass (or
  /// bridge segment) ran. Distinct from Deopts: an entry reject costs one
  /// guard sweep and nothing else, while a mid-pass deopt abandons partial
  /// straight-line work. The retirement heuristic and the bench columns
  /// consume them separately.
  uint64_t EntryRejects = 0;
  uint64_t Deopts = 0;     ///< mid-pass guard exits back to the plan
  uint64_t TraceSteps = 0; ///< base-step equivalents retired inside traces
  uint64_t Retired = 0;    ///< traces marked dead for persistent churn
  uint64_t Bridges = 0;      ///< bridge traces compiled and linked this run
  uint64_t BridgeEnters = 0; ///< side exits continued into a bridge trace
};

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

/// Profiling state at the recording anchor; the compiler consults it to
/// resolve entry-relative symbolic values and emits a guard for every
/// component it reads.
struct TraceSnapshot {
  FastFrame Fr;                ///< anchor frame's probe registers
  std::vector<LoopRegs> Loops; ///< anchor function's loop slots
  std::vector<ProfileRuntime::ShadowEntry> Shadow;
  ProfileRuntime::PendingReturn Pending;
};

/// Captures one loop pass (anchor to anchor at equal depth) as the event
/// stream the fast engine already emits for TraceSinks. Swapped in as the
/// dispatch loop's sink for the duration of the recording; cheap enough to
/// live on the runFast stack.
class TraceRecorder final : public TraceSink {
public:
  /// Events per recording before the attempt is abandoned. Generous: one
  /// event per block entry / call / return of a single loop pass.
  static constexpr size_t MaxEvents = 4096;

  void begin(uint32_t FuncId, uint32_t AnchorPc, uint32_t AnchorBlock,
             const FastFrame &Anchor, const LoopRegs *Slots, uint32_t NumSlots,
             const ProfileRuntime &Prof) {
    Recording = true;
    Abort = false;
    Bridge = false;
    Depth = 0;
    Func = FuncId;
    Pc = AnchorPc;
    Block = AnchorBlock;
    EndF = FuncId;
    EndP = AnchorPc;
    Events.clear();
    Snap.Fr = Anchor;
    Snap.Loops.assign(Slots, Slots + NumSlots);
    Snap.Shadow = Prof.ShadowStack;
    Snap.Pending = Prof.Pending;
  }

  /// Arms a *bridge* recording: starts at a parent trace's side exit (the
  /// deopt resume point, usually mid-block) and ends when control next
  /// reaches the parent's anchor at equal depth. The live state at the
  /// call site *is* the snapshot — the caller invokes this at the exact
  /// resume point, before any further instruction runs.
  void beginBridge(uint32_t FuncId, uint32_t StartPc, uint32_t StartBlock,
                   uint32_t EndFunc, uint32_t EndPc, const FastFrame &Cur,
                   const LoopRegs *Slots, uint32_t NumSlots,
                   const ProfileRuntime &Prof) {
    begin(FuncId, StartPc, StartBlock, Cur, Slots, NumSlots, Prof);
    Bridge = true;
    EndF = EndFunc;
    EndP = EndPc;
  }

  void clear() { Recording = false; }

  void onEnter(uint32_t F) override {
    ++Depth;
    push(TraceEventKind::Enter, F, 0);
  }
  void onBlock(uint32_t F, uint32_t B) override {
    push(TraceEventKind::Block, F, B);
  }
  void onExit(uint32_t F) override {
    if (Depth == 0)
      Abort = true; // the anchor frame returned: not a loop pass
    else
      --Depth;
    push(TraceEventKind::Exit, F, 0);
  }

  bool recording() const { return Recording; }
  bool aborted() const { return Abort; }
  bool bridge() const { return Bridge; }
  int depth() const { return Depth; }
  uint32_t anchorFunc() const { return Func; }
  uint32_t anchorPc() const { return Pc; }
  uint32_t anchorBlock() const { return Block; }
  uint32_t endFunc() const { return EndF; }
  uint32_t endPc() const { return EndP; }
  const std::vector<TraceEvent> &events() const { return Events; }
  const TraceSnapshot &snapshot() const { return Snap; }

private:
  void push(TraceEventKind K, uint32_t F, uint32_t B) {
    if (Events.size() >= MaxEvents)
      Abort = true;
    else
      Events.push_back({K, F, B});
  }

  bool Recording = false;
  bool Abort = false;
  bool Bridge = false;
  int Depth = 0;
  uint32_t Func = 0, Pc = 0, Block = 0;
  uint32_t EndF = 0, EndP = 0;
  std::vector<TraceEvent> Events;
  TraceSnapshot Snap;
};

//===----------------------------------------------------------------------===//
// Compiled form
//===----------------------------------------------------------------------===//

/// Straight-line trace step opcodes. Probes and unconditional branches are
/// fully elided (they exist only in the accounting prefixes, the effect
/// list and the bump table); conditional branches become guard steps.
enum class TOp : uint8_t {
  Const, ///< Dst = Imm
  Move,  ///< Dst = Regs[Src0]
  Add,
  Sub,
  Mul,
  Div, ///< deopts on zero divisor / INT64_MIN  -1
  Mod, ///< deopts on zero divisor / INT64_MIN % -1
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  AddImm, ///< Dst = Regs[Src0] + Imm (trace-local constant folding)
  AndImm, ///< Dst = Regs[Src0] & Imm
  CmpEqImm,
  CmpNeImm,
  CmpLtImm,
  CmpLeImm,
  CmpGtImm,
  CmpGeImm,
  Neg,
  Not,
  LoadG,    ///< Dst = global[Aux]
  StoreG,   ///< global[Aux] = Regs[Src0]
  LoadArr,  ///< Dst = global[Aux][Regs[Src0]]; deopts out of bounds
  StoreArr, ///< global[Aux][Regs[Src0]] = Regs[Src1]; deopts out of bounds
  GuardTrue,   ///< recorded taken: deopt if Regs[Src0] == 0
  GuardFalse,  ///< recorded not taken: deopt if Regs[Src0] != 0
  GuardCallee, ///< indirect call target: deopt if Regs[Src0] != Aux
  Call,        ///< push a frame for Aux, copy ArgsCount args via Args
  Ret,         ///< pop the frame; Src0 is the value reg (NoReg: void)
};

/// An entry guard: a component of the profiling state the compiled trace
/// assumed a concrete value (or range) for. Checked against live state
/// before every pass; a miss exits at the pass boundary with zero cost.
enum class GuardKind : uint8_t {
  R,          ///< Fr.R == V
  LoopActive, ///< Loops[Slot].Active == (V != 0)
  LoopRo,     ///< Loops[Slot].Ro == V
  LoopOlEq,   ///< Loops[Slot].Ol == V
  LoopOlLt,   ///< Loops[Slot].Ol < V (monotone counter range guard)
  ActiveI,    ///< Fr.ActiveI == (V != 0)
  HaveCaller,
  RI,
  OlIEq,
  OlILt,
  CallerPre,
  CallSiteI,
  ActiveII,
  RoII,
  OlIIEq,
  OlIILt,
  CalleePathII,
  CallSiteII,
  CalleeII,
  PendingValid,  ///< Prof.Pending.Valid == (V != 0)
  PendingCallee, ///< Prof.Pending.Callee == Slot
  PendingPathId, ///< Prof.Pending.PathId == V
  ShadowDepth,   ///< Prof.ShadowStack.size() == (uint64_t)V
  ShadowSiteAt,  ///< ShadowStack[size-1-Slot].CallSite == (uint32_t)V
  ShadowPreAt,   ///< ShadowStack[size-1-Slot].CallerPre == V
};

struct TraceGuard {
  GuardKind Kind;
  uint32_t Slot = 0;
  int64_t V = 0;
};

/// One deferred profiling-state write. Applied in list order; BaseIdx (the
/// op's position in base-step order) gates partial application on a
/// mid-pass deopt, and Depth names the in-trace frame the write targets
/// (0 = the anchor frame; deeper frames only exist while their call is on
/// the stack).
enum class EffectKind : uint8_t {
  SetR,
  AddR, ///< += V: the component is still entry-relative at this point
  SetRI,
  AddRI,
  SetOlI,
  AddOlI,
  SetCallerPre,
  SetCallSiteI, ///< V carries the value
  SetActiveI,   ///< V != 0
  SetHaveCaller,
  SetRoII,
  AddRoII,
  SetOlII,
  AddOlII,
  SetCalleePathII,
  SetCallSiteII, ///< V carries the value
  SetCalleeII,   ///< V carries the value
  SetActiveII,
  SetLoopRo, ///< loop slot Slot
  AddLoopRo, ///< loop slot Slot += V (entry-relative component)
  SetLoopOl,
  AddLoopOl,
  SetLoopActive,
  ShadowPush, ///< push {CallSite = Slot, CallerPre = V}
  ShadowPop,
  PendingSet,   ///< Valid = true, Callee = Slot, PathId = V
  PendingClear, ///< Valid = false
};

struct TraceEffect {
  EffectKind Kind;
  uint16_t Depth = 0;
  uint32_t Slot = 0;
  uint32_t BaseIdx = 0;
  int64_t V = 0;
};

/// One elided counter bump. At trace exit the store receives one
/// saturating add of (full passes + 1 if the partial pass got past it).
struct TraceBump {
  uint8_t Table = 0; ///< 0 = path counters, 1 = Type I, 2 = Type II
  uint32_t FuncId = 0;
  uint32_t BaseIdx = 0;
  int64_t Id = 0; ///< path id (Table 0)
  InterprocKey Key;
};

/// One runtime step of the straight line.
struct TraceStep {
  TOp Op;
  Reg Dst = 0, Src0 = 0, Src1 = 0;
  uint32_t Aux = 0;       ///< global id / callee id
  uint32_t ArgsCount = 0; ///< Call only
  int64_t Imm = 0;
  const Reg *Args = nullptr; ///< Call only; points into the plan's ArgPool
};

/// Resume point and accounting prefix of one runtime step. Cum* hold the
/// totals of every base step strictly before this one (ghosts included),
/// which is exactly the deopt-before accounting: the ordinary loop
/// re-executes this step and charges it normally.
struct TraceStepMeta {
  uint32_t FuncId = 0;
  uint32_t Pc = 0;
  uint32_t Block = 0;
  uint32_t BaseIdx = 0;
  uint32_t CumSteps = 0;
  uint32_t CumBase = 0;
  uint32_t CumPCost = 0;
  uint32_t CumBlocks = 0;
  uint32_t CumCalls = 0;
};

/// Per-entry-guard pass budget, computed by the optimizer from the guard's
/// evolution under PassEffects. Lets the executor check guards once per
/// *batch* of passes instead of once per pass: a component untouched by a
/// pass can never fail later (Inf); a Set-evolving component either keeps
/// passing forever (Inf) or fails on the second pass (One); a monotone
/// Add under a Lt bound admits exactly ceil((V - live) / Delta) passes
/// (DynLt).
struct GuardBudget {
  enum Mode : uint8_t { Inf, One, DynLt };
  Mode M = Inf;
  int64_t Delta = 0; ///< DynLt: per-pass increment (> 0)
};

/// A compiled straight-line loop pass, anchored at a taken backward branch
/// target — or a *bridge*: a straight line from a parent trace's side exit
/// back to the parent's anchor (IsBridge below). Immutable after
/// compilation; references only plan-owned data, so it is safe to share
/// across every interpreter of the plan.
struct CompiledTrace {
  /// Anchor traces: the loop anchor. Bridges: FuncId/AnchorPc/AnchorBlock
  /// are the *parent's* anchor (where a completed bridge pass lands);
  /// StartPc/StartBlock are the side-exit resume point the bridge begins
  /// at.
  uint32_t FuncId = 0;
  uint32_t AnchorPc = 0;
  uint32_t AnchorBlock = 0;
  uint32_t StartPc = 0;
  uint32_t StartBlock = 0;
  bool IsBridge = false;

  std::vector<TraceGuard> Guards;
  std::vector<TraceStep> Steps;
  std::vector<TraceStepMeta> Meta; ///< parallel to Steps
  std::vector<TraceEffect> Effects;     ///< full, BaseIdx order (deopt path)
  std::vector<TraceEffect> PassEffects; ///< collapsed net effect (pass end)
  std::vector<TraceBump> Bumps;

  /// Optimizer product (interp/TraceOpt.h). Empty on an unoptimized
  /// trace; the executor falls back to per-pass guard checks when Budgets
  /// is empty.
  std::vector<GuardBudget> Budgets; ///< parallel to Guards when Budgeted
  bool Budgeted = false; ///< budget stage ran (Budgets.size()==Guards.size())

  /// Whole-pass accounting totals (ghosts included).
  uint64_t PassSteps = 0;
  uint64_t PassBase = 0;
  uint64_t PassPCost = 0;
  uint64_t PassBlocks = 0;
  uint64_t PassCalls = 0;
  uint32_t PassBaseSteps = 0; ///< base steps per pass (bump/effect threshold)

  /// False when one pass leaves global hand-off state (shadow stack)
  /// changed: the executor then exits at the first pass boundary instead
  /// of looping.
  bool MultiPass = true;

  /// Adaptive retirement. A trace whose guards keep failing before one
  /// full pass completes is pure entry/deopt churn — worse than plain
  /// interpretation — so the executor tallies lifetime enters and passes
  /// (relaxed; approximate under concurrency is fine, the decision is a
  /// heuristic and counters stay exact either way) and marks the trace
  /// dead once RetireCheckEnters enters have averaged under one completed
  /// pass each. lookup() hides dead traces, so the loop returns to the
  /// ordinary threaded dispatch.
  static constexpr uint64_t RetireCheckEnters = 64;
  mutable std::atomic<uint64_t> LifeEnters{0};
  mutable std::atomic<uint64_t> LifePasses{0};
  mutable std::atomic<bool> Dead{false};

  /// Side-exit linking (trace trees). Per-step tables sized Steps.size(),
  /// allocated by the cache at install time (prepareRuntime). ExitDeopts
  /// counts anchor-depth mid-pass deopts at each step; crossing the link
  /// threshold asks the interpreter to record a bridge from that exit, and
  /// the sentinel marks an exit whose bridge recording failed (never asked
  /// again). BridgeAt publishes the stitched-in bridge, first install
  /// wins.
  static constexpr uint32_t NoBridgeSentinel = UINT32_MAX;
  std::unique_ptr<std::atomic<uint32_t>[]> ExitDeopts;
  std::unique_ptr<std::atomic<const CompiledTrace *>[]> BridgeAt;

  /// Allocates the runtime link tables (idempotent).
  void prepareRuntime() {
    if (ExitDeopts || Steps.empty())
      return;
    ExitDeopts.reset(new std::atomic<uint32_t>[Steps.size()]);
    BridgeAt.reset(new std::atomic<const CompiledTrace *>[Steps.size()]);
    for (size_t I = 0; I < Steps.size(); ++I) {
      ExitDeopts[I].store(0, std::memory_order_relaxed);
      BridgeAt[I].store(nullptr, std::memory_order_relaxed);
    }
  }
};

//===----------------------------------------------------------------------===//
// Per-plan trace cache
//===----------------------------------------------------------------------===//

/// The compiled traces of one ExecPlan, keyed by anchor (function, pc).
/// Readers are lock-free: each function's anchor list is published through
/// an acquire/release atomic and superseded lists are retired, never
/// freed, until the plan dies (a handful of small vectors). Writers
/// serialize on a mutex; the first trace installed for an anchor wins.
class PlanTraceCache {
public:
  explicit PlanTraceCache(size_t NumFuncs);
  ~PlanTraceCache();

  PlanTraceCache(const PlanTraceCache &) = delete;
  PlanTraceCache &operator=(const PlanTraceCache &) = delete;

  /// The live installed trace anchored at (F, Pc), or null (missing or
  /// retired). Lock-free.
  const CompiledTrace *lookup(uint32_t F, uint32_t Pc) const {
    const AnchorList *L = Published[F].load(std::memory_order_acquire);
    if (!L)
      return nullptr;
    for (const auto &E : L->Entries)
      if (E.first == Pc)
        return E.second->Dead.load(std::memory_order_relaxed) ? nullptr
                                                              : E.second;
    return nullptr;
  }

  /// True when the anchor holds any trace, dead ones included. Recording
  /// consults this so a retired trace's anchor is never re-recorded (the
  /// install would fail anyway — first trace per anchor wins).
  bool occupied(uint32_t F, uint32_t Pc) const {
    const AnchorList *L = Published[F].load(std::memory_order_acquire);
    if (!L)
      return false;
    for (const auto &E : L->Entries)
      if (E.first == Pc)
        return true;
    return false;
  }

  /// Publishes \p T under its anchor. Returns false (and frees T) when the
  /// anchor already has a trace.
  bool install(std::unique_ptr<CompiledTrace> T);

  /// Stitches \p B in as the bridge for \p Parent's side exit at step
  /// \p Step. First bridge per exit wins; returns false (and frees B) when
  /// the exit already has one. The cache owns the bridge for the plan's
  /// lifetime, like any other trace.
  bool installBridge(const CompiledTrace &Parent, uint32_t Step,
                     std::unique_ptr<CompiledTrace> B);

  /// Every trace this cache owns (anchors and bridges, dead ones
  /// included), in install order. Test/dump helper; takes the install
  /// lock.
  std::vector<const CompiledTrace *> all() const;

private:
  struct AnchorList {
    std::vector<std::pair<uint32_t, const CompiledTrace *>> Entries;
  };

  std::vector<std::atomic<const AnchorList *>> Published;
  mutable std::mutex InstallMu;
  std::vector<std::unique_ptr<const AnchorList>> Retired;
  std::vector<std::unique_ptr<const CompiledTrace>> Owned;
};

/// Everything that shapes what a recorded trace *is*: two runs whose
/// settings differ in any field must never share compiled traces, because
/// the traces themselves differ (recording threshold changes which anchors
/// get recorded and when; the optimizer and the planted fault change the
/// compiled bodies; the link threshold changes which bridges exist).
struct TraceSettings {
  uint32_t Threshold = 32;     ///< hotness threshold (0 = first completion)
  uint32_t LinkThreshold = 8;  ///< side-exit deopts before bridging (0 = off)
  bool Optimize = false;       ///< guard pass budgets (interp/TraceOpt.h)
  bool FaultDropGuard = false; ///< fuzz-only planted optimizer bug

  bool operator==(const TraceSettings &O) const {
    return Threshold == O.Threshold && LinkThreshold == O.LinkThreshold &&
           Optimize == O.Optimize && FaultDropGuard == O.FaultDropGuard;
  }
};

/// The trace caches of one ExecPlan, keyed by the trace settings that
/// recorded them. Plans are shared process-wide by content fingerprint
/// (interp/PlanCache.h); a single cache per plan would let traces recorded
/// under one settings tuple leak into later runs of an identical-content
/// module with different settings — a different threshold, the optimizer
/// switched off, or tracing disabled — silently changing the
/// execution tier. Each distinct settings tuple therefore gets its own
/// PlanTraceCache, created on first use; a run with tracing off never asks
/// for one and so never sees a trace.
///
/// Plans are shared as `const`, hence the interior mutability; the
/// returned cache is itself thread-safe, and the set's own lock is taken
/// once per run, not per dispatch.
class PlanTraceCacheSet {
public:
  explicit PlanTraceCacheSet(size_t NumFuncs) : NumFuncs(NumFuncs) {}

  PlanTraceCacheSet(const PlanTraceCacheSet &) = delete;
  PlanTraceCacheSet &operator=(const PlanTraceCacheSet &) = delete;

  /// The cache holding the traces recorded under \p S, created on first
  /// use. Never null.
  PlanTraceCache *forSettings(const TraceSettings &S) const {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &E : Caches)
      if (E.first == S)
        return E.second.get();
    Caches.emplace_back(S, std::make_unique<PlanTraceCache>(NumFuncs));
    return Caches.back().second.get();
  }

private:
  size_t NumFuncs;
  mutable std::mutex Mu;
  mutable std::vector<
      std::pair<TraceSettings, std::unique_ptr<PlanTraceCache>>>
      Caches;
};

//===----------------------------------------------------------------------===//
// Compile and execute
//===----------------------------------------------------------------------===//

/// Compiles the recorded pass into a CompiledTrace, or returns null when
/// the shape is unsupported (step cap exceeded, event mismatch, a probe
/// consulting state below the snapshotted shadow stack). The recorder must
/// have stopped at its anchor with depth 0.
std::unique_ptr<CompiledTrace> compileTrace(const ExecPlan &P,
                                            const TraceRecorder &Rec);

/// Everything runCompiledTrace needs from the dispatch loop. The
/// accounting references alias runFast's hot locals; the executor only
/// touches them at pass boundaries and exits.
struct TraceRunIO {
  std::vector<FastFrame> &Frames;
  std::vector<int64_t> &RegStack;
  std::vector<LoopRegs> &LoopStack;
  const GlobalView *Globals;
  ProfileRuntime &Prof;
  const ExecPlan &Plan;
  uint64_t MaxSteps;
  uint32_t MaxCallDepth;
  uint64_t &Steps;
  uint64_t &Base;
  uint64_t &PCost;
  uint64_t &Blocks;
  uint64_t &Calls;
  TraceTierStats &Stats;

  /// Side-exit linking policy: a side exit whose anchor-depth deopt count
  /// reaches exactly LinkThreshold requests a bridge recording (0 = never
  /// link).
  uint32_t LinkThreshold = 0;

  /// Out: set when the run wants a bridge recorded for Parent's side exit
  /// at step BridgeStep. The interpreter arms the recorder at the resume
  /// point it is about to dispatch from.
  const CompiledTrace *BridgeParent = nullptr;
  uint32_t BridgeStep = 0;
};

/// Runs \p T until a guard, fault condition or the fuel precondition stops
/// it, then restores exact engine state (accounting, counters, probe
/// state, frame resume point) and returns. The caller reloads its cached
/// frame view and dispatches; the next executed instruction behaves
/// identically to the untraced engine.
void runCompiledTrace(const CompiledTrace &T, TraceRunIO &IO);

} // namespace olpp

#endif // OLPP_INTERP_TRACETIER_H
