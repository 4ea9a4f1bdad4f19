//===--- BenchJson.h - Benchmark report JSON --------------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The report JSON the bench harnesses commit at the repo root, in three
/// schemas:
///
///   "olpp.bench.engine/v1"   (BENCH_engine.json, bench/perf_engine):
///                            per-workload wall time and steps/sec for the
///                            fast and reference engines, the
///                            fast/reference speedup, and the interval
///                            solver's effort counters (worklist
///                            evaluations vs whole-set sweeps).
///
///   "olpp.bench.profdata/v1" (BENCH_profdata.json, bench/perf_profdata):
///                            the .olpp artifact pipeline — per workload the
///                            serialized artifact size vs the raw fixed-width
///                            counter-dump size, and the write / checked-read
///                            / merge throughputs.
///
///   "olpp.bench.opt/v1"      (BENCH_opt.json, bench/perf_opt): the closed
///                            profile->optimize loop — per workload the
///                            baseline-vs-optimized wall time and speedup,
///                            the inline/superblock transform counts, and
///                            the agreement bit (both modules returned the
///                            same result).
///
/// Every schema carries the same provenance pair so reports from different
/// machines and commits stay comparable: "hardware_threads" (the box's
/// concurrency) and "git_rev" (the commit the binary was built from,
/// "unknown" outside a git checkout).
///
/// validate*BenchJson structurally checks a rendered report against its
/// schema with a dependency-free JSON parser; each harness validates its
/// report before writing it.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_BENCH_BENCHJSON_H
#define OLPP_BENCH_BENCHJSON_H


#include <cstdint>
#include <string>
#include <vector>

namespace olpp {

/// The provenance pair every benchmark report embeds.
struct BenchProvenance {
  unsigned HardwareThreads = 1;
  std::string GitRev = "unknown";
};

/// This build's provenance: std::thread::hardware_concurrency() and the
/// compiled-in OLPP_GIT_REV (the commit the bench library was configured
/// against; "unknown" when the source tree was not a git checkout).
BenchProvenance benchProvenance();

inline constexpr const char *EngineBenchSchema = "olpp.bench.engine/v1";

/// One engine's measurement of one workload.
struct EngineSample {
  double WallSeconds = 0.0;
  uint64_t Steps = 0;
  double StepsPerSec = 0.0;
};

/// One workload's row of the report.
struct WorkloadBench {
  std::string Name;
  EngineSample Fast;
  EngineSample Reference;
  /// Fast steps/sec over reference steps/sec.
  double Speedup = 0.0;
  /// Interval-solver effort on this workload's estimation system.
  uint64_t SolverEvaluationsWorklist = 0;
  uint64_t SolverEvaluationsSweep = 0;
  bool SolverConverged = true;
  /// Tracing-tier activity of the fast run (interp/TraceTier.h): traces
  /// recorded, share of executed steps spent inside traces, and deopts per
  /// trace entry.
  uint64_t TracesRecorded = 0;
  double TraceStepPercent = 0.0;
  double DeoptRate = 0.0;
  /// Entry-guard rejects per trace entry on the final timed run (cheap
  /// bounces, reported separately from mid-pass deopts).
  double EntryRejectRate = 0.0;
  /// Fast-with-optimizer steps/sec over fast-without (the --no-trace-opt
  /// A/B lane); 0 when the harness did not measure the A/B lane.
  double TraceOptSpeedup = 0.0;
};

struct EngineBenchReport {
  BenchProvenance Prov = benchProvenance();
  unsigned Jobs = 1;
  double WallSeconds = 0.0; ///< whole batch, wall clock
  std::vector<WorkloadBench> Workloads;

  /// Geometric mean of the per-workload speedups (0 if empty).
  double geomeanSpeedup() const;
};

/// Renders \p R as pretty-printed JSON (trailing newline included).
std::string renderEngineBenchJson(const EngineBenchReport &R);

/// Renders and writes to \p Path. Returns false and sets \p Error on I/O
/// failure.
bool writeEngineBenchJson(const std::string &Path, const EngineBenchReport &R,
                          std::string &Error);

/// Structurally validates \p Text against the v1 schema: parses the JSON,
/// checks the schema tag, the required keys and their types, and that
/// numeric fields are non-negative. Returns false and sets \p Error on the
/// first violation.
bool validateEngineBenchJson(const std::string &Text, std::string &Error);

//===----------------------------------------------------------------------===//
// Profile-artifact report ("olpp.bench.profdata/v1")
//===----------------------------------------------------------------------===//

inline constexpr const char *ProfdataBenchSchema = "olpp.bench.profdata/v1";

/// One workload's measurement of the .olpp artifact pipeline.
struct ProfdataWorkloadBench {
  std::string Name;
  uint64_t Records = 0;       ///< (slot, count) records in the artifact
  uint64_t ArtifactBytes = 0; ///< serialized .olpp size
  /// The same counters as a naive fixed-width dump (16 bytes per path
  /// record, 40 per interprocedural tuple) — the size the delta/varint
  /// encoding is up against.
  uint64_t RawDumpBytes = 0;
  double WriteSeconds = 0.0; ///< serialize, summed over the reps
  double ReadSeconds = 0.0;  ///< checked read, summed over the reps
  double MergeSeconds = 0.0; ///< merging MergeInputs copies, one pass
  double WriteMBPerSec = 0.0;
  double ReadMBPerSec = 0.0;
  double MergeRecordsPerSec = 0.0;
};

struct ProfdataBenchReport {
  BenchProvenance Prov = benchProvenance();
  unsigned Reps = 0;        ///< serialize/read repetitions per workload
  unsigned MergeInputs = 0; ///< artifacts folded by the merge measurement
  double WallSeconds = 0.0;
  std::vector<ProfdataWorkloadBench> Workloads;
};

/// Renders \p R as pretty-printed JSON (trailing newline included).
std::string renderProfdataBenchJson(const ProfdataBenchReport &R);

/// Renders and writes to \p Path. Returns false and sets \p Error on I/O
/// failure.
bool writeProfdataBenchJson(const std::string &Path,
                            const ProfdataBenchReport &R, std::string &Error);

/// Structurally validates \p Text against the profdata v1 schema.
bool validateProfdataBenchJson(const std::string &Text, std::string &Error);

//===----------------------------------------------------------------------===//
// Profile-guided optimization report ("olpp.bench.opt/v1")
//===----------------------------------------------------------------------===//

inline constexpr const char *OptBenchSchema = "olpp.bench.opt/v1";

/// One workload's profiled-then-optimized measurement: the pristine module
/// vs the module `olpp opt` produced from its own .olpp artifact, both
/// uninstrumented on the fast engine.
struct OptWorkloadBench {
  std::string Name;
  unsigned InlinedSites = 0;
  unsigned Superblocks = 0;
  uint64_t BaselineSteps = 0;
  uint64_t OptimizedSteps = 0;
  uint64_t BaselineCalls = 0;
  uint64_t OptimizedCalls = 0;
  double BaselineSeconds = 0.0;  ///< best-of-reps wall time, pristine
  double OptimizedSeconds = 0.0; ///< best-of-reps wall time, optimized
  double Speedup = 0.0;          ///< baseline/optimized wall time; >1 wins
  /// Both modules returned the same result (a report with a disagreement
  /// is invalid: the optimizer broke the program, timing it is meaningless).
  bool Agree = false;
};

struct OptBenchReport {
  BenchProvenance Prov = benchProvenance();
  unsigned Reps = 0; ///< timed repetitions per module (best-of)
  double WallSeconds = 0.0;
  std::vector<OptWorkloadBench> Workloads;
};

/// Renders \p R as pretty-printed JSON (trailing newline included).
std::string renderOptBenchJson(const OptBenchReport &R);

/// Renders and writes to \p Path. Returns false and sets \p Error on I/O
/// failure.
bool writeOptBenchJson(const std::string &Path, const OptBenchReport &R,
                       std::string &Error);

/// Structurally validates \p Text against the opt v1 schema.
bool validateOptBenchJson(const std::string &Text, std::string &Error);

} // namespace olpp

#endif // OLPP_BENCH_BENCHJSON_H
