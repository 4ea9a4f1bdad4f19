//===--- TaskPool.h - Work-stealing task pool -------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent work-stealing task pool: the one concurrency primitive
/// behind the parallel profiling pipeline (sharded profile merges,
/// `olpp serve --jobs`, `olpp fuzz --jobs`). Workers stay alive, so
/// fine-grained work (one fuzz seed, one batch run) can be submitted
/// without paying thread start-up per item.
///
/// Design:
///   - every worker owns a deque; local submissions push to its bottom
///     (LIFO, cache-friendly for nested fork/join), idle workers steal from
///     the top of a victim's deque,
///   - Task::wait() *helps*: while its task is unfinished the waiting
///     thread executes other pending tasks, so tasks may submit subtasks
///     and wait on them without deadlocking even on a one-worker pool,
///   - exceptions escaping a task are captured and rethrown by wait(),
///   - the destructor drains every queued task, then joins the workers.
///
/// Determinism contract: the pool promises nothing about execution order.
/// Callers that need deterministic results must make tasks independent
/// (disjoint outputs) and combine results in a fixed order afterwards —
/// the pattern every pipeline stage in this repo follows.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_SUPPORT_TASKPOOL_H
#define OLPP_SUPPORT_TASKPOOL_H

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace olpp {

/// One worker per hardware thread (4 when the count is unknown): the pool
/// size for Threads == 0 and the `--jobs 0` ("auto") job count.
inline unsigned defaultJobCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 4;
}

class TaskPool {
  struct TaskState {
    std::function<void()> Fn;
    std::atomic<bool> Done{false};
    std::exception_ptr Error;
    std::mutex Mu;
    std::condition_variable Cv;
  };

  struct WorkerQueue {
    std::mutex Mu;
    std::deque<std::shared_ptr<TaskState>> Deque;
  };

public:
  /// A handle to one submitted task. Copyable; wait() may be called from
  /// any thread (including pool workers) and from multiple threads.
  class Task {
  public:
    Task() = default;

    /// Blocks until the task finished, executing other pending pool tasks
    /// while waiting (so nested submit-and-wait cannot deadlock). Rethrows
    /// the task's exception if it threw.
    void wait() {
      if (!S)
        return;
      while (!S->Done.load(std::memory_order_acquire)) {
        if (!Pool->tryRunOneTask()) {
          std::unique_lock<std::mutex> Lock(S->Mu);
          // A short timed wait instead of a pure cv wait: new stealable
          // work may appear while we sleep, and helping it is how nested
          // waits make progress on saturated pools.
          S->Cv.wait_for(Lock, std::chrono::milliseconds(1), [&] {
            return S->Done.load(std::memory_order_acquire);
          });
        }
      }
      if (S->Error)
        std::rethrow_exception(S->Error);
    }

    bool valid() const { return S != nullptr; }

  private:
    friend class TaskPool;
    Task(TaskPool *Pool, std::shared_ptr<TaskState> S)
        : Pool(Pool), S(std::move(S)) {}
    TaskPool *Pool = nullptr;
    std::shared_ptr<TaskState> S;
  };

  /// \p Threads == 0 picks defaultJobCount() workers.
  explicit TaskPool(unsigned Threads = 0) {
    if (Threads == 0)
      Threads = defaultJobCount();
    Queues.reserve(Threads);
    for (unsigned W = 0; W < Threads; ++W)
      Queues.push_back(std::make_unique<WorkerQueue>());
    Workers.reserve(Threads);
    for (unsigned W = 0; W < Threads; ++W)
      Workers.emplace_back([this, W] { workerLoop(W); });
  }

  /// Drains every queued task (they all run), then joins the workers.
  ~TaskPool() {
    {
      std::lock_guard<std::mutex> Lock(SleepMu);
      ShuttingDown = true;
    }
    SleepCv.notify_all();
    for (std::thread &T : Workers)
      T.join();
    // Workers only exit once every deque is empty, but run the invariant
    // check in debug builds anyway.
    for ([[maybe_unused]] auto &Q : Queues)
      assert(Q->Deque.empty() && "task leaked past shutdown");
  }

  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Fn. From a worker thread the task lands on that worker's
  /// own deque (LIFO); external submissions round-robin across workers.
  Task submit(std::function<void()> Fn) {
    auto S = std::make_shared<TaskState>();
    S->Fn = std::move(Fn);
    unsigned Q = currentWorkerOf(this) != kNotAWorker
                     ? currentWorkerOf(this)
                     : NextQueue.fetch_add(1, std::memory_order_relaxed) %
                           Queues.size();
    {
      std::lock_guard<std::mutex> Lock(Queues[Q]->Mu);
      Queues[Q]->Deque.push_back(S);
    }
    Pending.fetch_add(1, std::memory_order_release);
    SleepCv.notify_one();
    return Task(this, std::move(S));
  }

  /// Runs Body(Index, Slot) for every Index in [0, Count) across
  /// min(numWorkers(), Count) slots. Each slot is owned by exactly one
  /// task for the whole call, so Body may keep per-slot state (a counter
  /// shard, a solver arena) without locking; Slot is a *task* identity,
  /// not a thread identity — the slot task may migrate between threads but
  /// never runs concurrently with itself. Blocks until every item ran;
  /// rethrows the first slot exception. Count <= 1 or a one-worker pool
  /// degenerates to an inline loop on the calling thread.
  void parallelFor(size_t Count,
                   const std::function<void(size_t, unsigned)> &Body) {
    if (Count == 0)
      return;
    unsigned Slots = numWorkers();
    if (Slots > Count)
      Slots = static_cast<unsigned>(Count);
    if (Slots <= 1) {
      for (size_t I = 0; I < Count; ++I)
        Body(I, 0);
      return;
    }
    auto Next = std::make_shared<std::atomic<size_t>>(0);
    std::vector<Task> Tasks;
    Tasks.reserve(Slots);
    for (unsigned Slot = 0; Slot < Slots; ++Slot)
      Tasks.push_back(submit([Next, Count, Slot, &Body] {
        for (size_t I = Next->fetch_add(1, std::memory_order_relaxed);
             I < Count; I = Next->fetch_add(1, std::memory_order_relaxed))
          Body(I, Slot);
      }));
    std::exception_ptr First;
    for (Task &T : Tasks) {
      try {
        T.wait();
      } catch (...) {
        if (!First)
          First = std::current_exception();
      }
    }
    if (First)
      std::rethrow_exception(First);
  }

  /// The process-wide pool the pipeline stages default to, sized to the
  /// hardware. Built on first use; lives until process exit.
  static TaskPool &shared() {
    static TaskPool Pool(0);
    return Pool;
  }

private:
  static constexpr unsigned kNotAWorker = ~0u;

  /// Which worker of which pool the current thread is (threads can only
  /// ever belong to one pool).
  static unsigned &tlsWorkerIndex() {
    thread_local unsigned Index = kNotAWorker;
    return Index;
  }
  static TaskPool *&tlsWorkerPool() {
    thread_local TaskPool *Pool = nullptr;
    return Pool;
  }
  static unsigned currentWorkerOf(TaskPool *P) {
    return tlsWorkerPool() == P ? tlsWorkerIndex() : kNotAWorker;
  }

  std::shared_ptr<TaskState> popTask(unsigned Self) {
    // Own deque first (bottom: newest, the nested-fork hot end) ...
    if (Self != kNotAWorker) {
      WorkerQueue &Q = *Queues[Self];
      std::lock_guard<std::mutex> Lock(Q.Mu);
      if (!Q.Deque.empty()) {
        auto S = Q.Deque.back();
        Q.Deque.pop_back();
        return S;
      }
    }
    // ... then steal from the top of the others, round robin.
    unsigned N = static_cast<unsigned>(Queues.size());
    unsigned Start = Self == kNotAWorker ? 0 : Self + 1;
    for (unsigned K = 0; K < N; ++K) {
      WorkerQueue &Q = *Queues[(Start + K) % N];
      std::lock_guard<std::mutex> Lock(Q.Mu);
      if (!Q.Deque.empty()) {
        auto S = Q.Deque.front();
        Q.Deque.pop_front();
        return S;
      }
    }
    return nullptr;
  }

  void runTask(TaskState &S) {
    try {
      S.Fn();
    } catch (...) {
      S.Error = std::current_exception();
    }
    S.Fn = nullptr; // release captures before signalling completion
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Done.store(true, std::memory_order_release);
    }
    S.Cv.notify_all();
    Pending.fetch_sub(1, std::memory_order_release);
  }

  /// Executes one pending task if any exists. Used by workers and by
  /// helping waiters (which may be external threads: Self == kNotAWorker).
  bool tryRunOneTask() {
    auto S = popTask(currentWorkerOf(this));
    if (!S)
      return false;
    runTask(*S);
    return true;
  }

  void workerLoop(unsigned Self) {
    tlsWorkerIndex() = Self;
    tlsWorkerPool() = this;
    while (true) {
      if (auto S = popTask(Self)) {
        runTask(*S);
        continue;
      }
      std::unique_lock<std::mutex> Lock(SleepMu);
      if (ShuttingDown && Pending.load(std::memory_order_acquire) == 0)
        return;
      SleepCv.wait_for(Lock, std::chrono::milliseconds(1), [&] {
        return ShuttingDown || Pending.load(std::memory_order_acquire) > 0;
      });
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;
  std::atomic<size_t> Pending{0};
  std::atomic<unsigned> NextQueue{0};
  std::mutex SleepMu;
  std::condition_variable SleepCv;
  bool ShuttingDown = false;
};

} // namespace olpp

#endif // OLPP_SUPPORT_TASKPOOL_H
