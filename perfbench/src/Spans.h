//===--- Spans.h - In-memory span recorder for traced runs ------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. A span is opened around each call the
/// benchmark makes into one of the program's layers; it carries a name,
/// start and end, its parent span and the id of the operation it serves.
/// Spans stay in memory until the run ends, when they are written out and
/// reduced to per-layer self times: a span's duration minus the part of it
/// its children cover. With tracing off a Scope costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int64_t Parent = -1;
  uint64_t Op = 0;
};

class Tracer {
public:
  static Tracer &get();

  /// May be flipped while other threads open spans (the traced fleet run
  /// toggles it between slices), hence atomic.
  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's innermost open span, or under
  /// \p Parent when given (a task handed to another thread).
  int64_t open(const std::string &Name, uint64_t Op, int64_t Parent = -2);
  void close(int64_t Id);
  /// The calling thread's innermost open span (-1 = none).
  static int64_t current();

  /// RAII span; inert while tracing is off.
  class Scope {
  public:
    Scope(const char *Name, uint64_t Op = 0, int64_t Parent = -2)
        : Id(Tracer::get().enabled() ? Tracer::get().open(Name, Op, Parent)
                                     : -1) {}
    ~Scope() { close(); }
    /// Ends the span early; the destructor then does nothing.
    void close() {
      if (Id >= 0)
        Tracer::get().close(Id);
      Id = -1;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int64_t id() const { return Id; }

  private:
    int64_t Id;
  };

  std::vector<Span> spans() const;
  /// Writes every span as one JSON object per line.
  bool writeJsonl(const std::string &Path) const;

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::vector<Span> All;
};

/// Self time of every span (duration minus the union of its children).
std::vector<double> selfTimes(const std::vector<Span> &S);

/// Is span \p I (transitively) under span \p Root?
bool under(const std::vector<Span> &S, int64_t I, int64_t Root);

/// Sum of self times by span name over the spans under \p Root.
std::map<std::string, double> selfByName(const std::vector<Span> &S,
                                         const std::vector<double> &Self,
                                         int64_t Root);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
