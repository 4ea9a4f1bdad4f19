//===--- Common.h - Shared pieces of the perfbench harness ------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result record every workload fills, clocks, order
/// statistics, seed derivation and the per-program table (Table 8's
/// "k chosen", the suite's long and short inputs) that the four workloads
/// share.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "ir/Module.h"
#include "profile/Instrumenter.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Olpp;    ///< path of the built `olpp` driver
  std::string WorkDir; ///< scratch directory for artifacts and span dumps
  unsigned Nproc = 1;
  unsigned Jobs = 0; ///< profile-batch workers; 0 = Nproc
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports: the last stdout line is this record as JSON.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Records a failed output check (printed to stderr once per message).
  void wrong(const std::string &Msg);
  std::string json() const;
};

inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double mean(const std::vector<double> &V);

/// SplitMix64: every input a workload generates comes from this stream.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

/// A program seed for MiniC's main(size, seed), derived from the benchmark
/// seed and a stream tag; always in [1, 100000].
int64_t programSeed(uint64_t BenchSeed, uint64_t Tag);
/// FNV-1a of \p S: a stable stream tag for a program name.
uint64_t tagOf(const std::string &S);

/// Compiles \p Source; returns null (with \p Err) on failure.
std::unique_ptr<olpp::Module> compile(const std::string &Source,
                                      std::string &Err);
/// Table 8's "k chosen" for a compiled program.
uint32_t chosenDegree(const olpp::Module &M);
/// OL-k plus Type I/II at degree \p K, as `olpp profile --degree K
/// --interproc` instruments.
olpp::InstrumentOptions instrOptions(uint32_t K);
/// main(size, seed) arguments.
std::vector<int64_t> argsFor(const std::vector<int64_t> &Base, int64_t Seed);

/// Peak resident set of this process so far, in MB.
double peakRssSelfMb();

/// A finished child process.
struct Child {
  double Wall = 0; ///< seconds from spawn to reaped
  long RssKb = 0;  ///< its peak resident set
  bool Ok = false; ///< exited with status 0
};
/// Starts \p Argv with stdout and stderr sent to files and waits for it.
Child runChild(const std::vector<std::string> &Argv, const std::string &Out,
               const std::string &Err);
/// The contents of a file ("" when unreadable).
std::string slurp(const std::string &Path);

/// Program names of the two `profile-*` workloads.
const std::vector<std::string> &loopPrograms();
const std::vector<std::string> &callPrograms();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
