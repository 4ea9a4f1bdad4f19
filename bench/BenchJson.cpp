//===--- BenchJson.cpp - Benchmark report JSON ----------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

using namespace olpp;

// The build system compiles the short HEAD revision in; a tarball build
// falls back to "unknown" so the field is always present and non-empty.
#ifndef OLPP_GIT_REV
#define OLPP_GIT_REV "unknown"
#endif

BenchProvenance olpp::benchProvenance() {
  BenchProvenance P;
  unsigned N = std::thread::hardware_concurrency();
  P.HardwareThreads = N ? N : 1;
  P.GitRev = OLPP_GIT_REV;
  if (P.GitRev.empty())
    P.GitRev = "unknown";
  return P;
}

double EngineBenchReport::geomeanSpeedup() const {
  if (Workloads.empty())
    return 0.0;
  double LogSum = 0.0;
  for (const WorkloadBench &W : Workloads)
    LogSum += std::log(W.Speedup > 0 ? W.Speedup : 1e-9);
  return std::exp(LogSum / static_cast<double>(Workloads.size()));
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string jsonNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out + "\"";
}

/// The provenance pair every schema leads with, right after the tag.
void renderProvenance(std::string &Out, const BenchProvenance &P) {
  Out += "  \"hardware_threads\": " + std::to_string(P.HardwareThreads) +
         ",\n";
  Out += "  \"git_rev\": " + jsonStr(P.GitRev.empty() ? "unknown" : P.GitRev) +
         ",\n";
}

void renderSample(std::string &Out, const char *Name, const EngineSample &S,
                  const char *Indent) {
  Out += Indent;
  Out += jsonStr(Name) + ": {";
  Out += "\"wall_seconds\": " + jsonNum(S.WallSeconds);
  Out += ", \"steps\": " + std::to_string(S.Steps);
  Out += ", \"steps_per_sec\": " + jsonNum(S.StepsPerSec);
  Out += "}";
}

} // namespace

std::string olpp::renderEngineBenchJson(const EngineBenchReport &R) {
  std::string Out = "{\n";
  Out += "  \"schema\": " + jsonStr(EngineBenchSchema) + ",\n";
  renderProvenance(Out, R.Prov);
  Out += "  \"jobs\": " + std::to_string(R.Jobs) + ",\n";
  Out += "  \"wall_seconds\": " + jsonNum(R.WallSeconds) + ",\n";
  Out += "  \"geomean_speedup\": " + jsonNum(R.geomeanSpeedup()) + ",\n";
  Out += "  \"workloads\": [";
  for (size_t I = 0; I < R.Workloads.size(); ++I) {
    const WorkloadBench &W = R.Workloads[I];
    Out += I ? ",\n" : "\n";
    Out += "    {\n";
    Out += "      \"name\": " + jsonStr(W.Name) + ",\n";
    renderSample(Out, "fast", W.Fast, "      ");
    Out += ",\n";
    renderSample(Out, "reference", W.Reference, "      ");
    Out += ",\n";
    Out += "      \"speedup\": " + jsonNum(W.Speedup) + ",\n";
    Out += "      \"traces_recorded\": " + std::to_string(W.TracesRecorded) +
           ",\n";
    Out += "      \"trace_step_percent\": " + jsonNum(W.TraceStepPercent) +
           ",\n";
    Out += "      \"deopt_rate\": " + jsonNum(W.DeoptRate) + ",\n";
    Out += "      \"bridges\": " + std::to_string(W.Bridges) + ",\n";
    Out += "      \"entry_reject_rate\": " + jsonNum(W.EntryRejectRate) +
           ",\n";
    Out += "      \"trace_opt_speedup\": " + jsonNum(W.TraceOptSpeedup) +
           ",\n";
    Out += "      \"solver\": {\"evaluations_worklist\": " +
           std::to_string(W.SolverEvaluationsWorklist) +
           ", \"evaluations_sweep\": " +
           std::to_string(W.SolverEvaluationsSweep) + ", \"converged\": " +
           (W.SolverConverged ? "true" : "false") + "}\n";
    Out += "    }";
  }
  Out += R.Workloads.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

namespace {

bool writeTextFile(const std::string &Path, const std::string &Text,
                   std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    Error = "write to '" + Path + "' failed";
  return Ok;
}

} // namespace

bool olpp::writeEngineBenchJson(const std::string &Path,
                                const EngineBenchReport &R,
                                std::string &Error) {
  return writeTextFile(Path, renderEngineBenchJson(R), Error);
}

//===----------------------------------------------------------------------===//
// Validation: a tiny recursive-descent JSON parser, then schema checks
//===----------------------------------------------------------------------===//

namespace {

/// Just enough of a JSON value for structural validation.
struct JValue {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  bool B = false;
  double N = 0.0;
  std::string S;
  std::vector<JValue> Elems;
  std::map<std::string, JValue> Fields;
};

class JParser {
public:
  JParser(const std::string &Text, std::string &Error)
      : T(Text), Error(Error) {}

  bool parse(JValue &Out) {
    if (!value(Out))
      return false;
    skipWs();
    if (Pos != T.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    Error = "JSON parse error at offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (Pos < T.size() && std::isspace(static_cast<unsigned char>(T[Pos])))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t Len = std::string(Lit).size();
    if (T.compare(Pos, Len, Lit) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Pos += Len;
    return true;
  }

  bool string(std::string &Out) {
    if (Pos >= T.size() || T[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < T.size() && T[Pos] != '"') {
      if (T[Pos] == '\\') {
        ++Pos;
        if (Pos >= T.size())
          return fail("truncated escape");
      }
      Out += T[Pos++];
    }
    if (Pos >= T.size())
      return fail("unterminated string");
    ++Pos;
    return true;
  }

  bool value(JValue &Out) {
    skipWs();
    if (Pos >= T.size())
      return fail("unexpected end of input");
    char Ch = T[Pos];
    if (Ch == '{') {
      Out.K = JValue::Obj;
      ++Pos;
      skipWs();
      if (Pos < T.size() && T[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!string(Key))
          return false;
        skipWs();
        if (Pos >= T.size() || T[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        JValue V;
        if (!value(V))
          return false;
        Out.Fields.emplace(std::move(Key), std::move(V));
        skipWs();
        if (Pos < T.size() && T[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < T.size() && T[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (Ch == '[') {
      Out.K = JValue::Arr;
      ++Pos;
      skipWs();
      if (Pos < T.size() && T[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        JValue V;
        if (!value(V))
          return false;
        Out.Elems.push_back(std::move(V));
        skipWs();
        if (Pos < T.size() && T[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < T.size() && T[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (Ch == '"') {
      Out.K = JValue::Str;
      return string(Out.S);
    }
    if (Ch == 't') {
      Out.K = JValue::Bool;
      Out.B = true;
      return literal("true");
    }
    if (Ch == 'f') {
      Out.K = JValue::Bool;
      Out.B = false;
      return literal("false");
    }
    if (Ch == 'n') {
      Out.K = JValue::Null;
      return literal("null");
    }
    // Number.
    size_t Start = Pos;
    if (Pos < T.size() && (T[Pos] == '-' || T[Pos] == '+'))
      ++Pos;
    while (Pos < T.size() &&
           (std::isdigit(static_cast<unsigned char>(T[Pos])) ||
            T[Pos] == '.' || T[Pos] == 'e' || T[Pos] == 'E' ||
            T[Pos] == '-' || T[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return fail("expected value");
    Out.K = JValue::Num;
    Out.N = std::strtod(T.substr(Start, Pos - Start).c_str(), nullptr);
    return true;
  }

  const std::string &T;
  std::string &Error;
  size_t Pos = 0;
};

bool checkNum(const JValue &Obj, const std::string &Path, const char *Key,
              std::string &Error) {
  auto It = Obj.Fields.find(Key);
  if (It == Obj.Fields.end()) {
    Error = Path + ": missing key \"" + Key + "\"";
    return false;
  }
  if (It->second.K != JValue::Num) {
    Error = Path + "." + Key + ": expected a number";
    return false;
  }
  if (It->second.N < 0) {
    Error = Path + "." + Key + ": must be non-negative";
    return false;
  }
  return true;
}

/// Every schema's provenance pair: a non-negative "hardware_threads" and a
/// non-empty "git_rev" string.
bool checkProvenance(const JValue &Root, std::string &Error) {
  if (!checkNum(Root, "top level", "hardware_threads", Error))
    return false;
  auto Rev = Root.Fields.find("git_rev");
  if (Rev == Root.Fields.end() || Rev->second.K != JValue::Str ||
      Rev->second.S.empty()) {
    Error = "top level: missing non-empty string \"git_rev\"";
    return false;
  }
  return true;
}

bool checkSample(const JValue &Row, const std::string &Path, const char *Key,
                 std::string &Error) {
  auto It = Row.Fields.find(Key);
  if (It == Row.Fields.end() || It->second.K != JValue::Obj) {
    Error = Path + ": missing engine object \"" + std::string(Key) + "\"";
    return false;
  }
  const std::string P = Path + "." + Key;
  return checkNum(It->second, P, "wall_seconds", Error) &&
         checkNum(It->second, P, "steps", Error) &&
         checkNum(It->second, P, "steps_per_sec", Error);
}

} // namespace

bool olpp::validateEngineBenchJson(const std::string &Text,
                                   std::string &Error) {
  JValue Root;
  if (!JParser(Text, Error).parse(Root))
    return false;
  if (Root.K != JValue::Obj) {
    Error = "top level: expected an object";
    return false;
  }
  auto Schema = Root.Fields.find("schema");
  if (Schema == Root.Fields.end() || Schema->second.K != JValue::Str ||
      Schema->second.S != EngineBenchSchema) {
    Error = std::string("schema: expected \"") + EngineBenchSchema + "\"";
    return false;
  }
  if (!checkProvenance(Root, Error) ||
      !checkNum(Root, "top level", "jobs", Error) ||
      !checkNum(Root, "top level", "wall_seconds", Error) ||
      !checkNum(Root, "top level", "geomean_speedup", Error))
    return false;
  auto WL = Root.Fields.find("workloads");
  if (WL == Root.Fields.end() || WL->second.K != JValue::Arr) {
    Error = "workloads: missing or not an array";
    return false;
  }
  for (size_t I = 0; I < WL->second.Elems.size(); ++I) {
    const JValue &Row = WL->second.Elems[I];
    const std::string Path = "workloads[" + std::to_string(I) + "]";
    if (Row.K != JValue::Obj) {
      Error = Path + ": expected an object";
      return false;
    }
    auto Name = Row.Fields.find("name");
    if (Name == Row.Fields.end() || Name->second.K != JValue::Str ||
        Name->second.S.empty()) {
      Error = Path + ": missing non-empty \"name\"";
      return false;
    }
    if (!checkSample(Row, Path, "fast", Error) ||
        !checkSample(Row, Path, "reference", Error) ||
        !checkNum(Row, Path, "speedup", Error) ||
        !checkNum(Row, Path, "traces_recorded", Error) ||
        !checkNum(Row, Path, "trace_step_percent", Error) ||
        !checkNum(Row, Path, "deopt_rate", Error) ||
        !checkNum(Row, Path, "bridges", Error) ||
        !checkNum(Row, Path, "entry_reject_rate", Error) ||
        !checkNum(Row, Path, "trace_opt_speedup", Error))
      return false;
    auto Solver = Row.Fields.find("solver");
    if (Solver == Row.Fields.end() || Solver->second.K != JValue::Obj) {
      Error = Path + ": missing \"solver\" object";
      return false;
    }
    const std::string SP = Path + ".solver";
    if (!checkNum(Solver->second, SP, "evaluations_worklist", Error) ||
        !checkNum(Solver->second, SP, "evaluations_sweep", Error))
      return false;
    auto Conv = Solver->second.Fields.find("converged");
    if (Conv == Solver->second.Fields.end() ||
        Conv->second.K != JValue::Bool) {
      Error = SP + ": missing boolean \"converged\"";
      return false;
    }
  }
  return true;
}

std::string olpp::renderProfdataBenchJson(const ProfdataBenchReport &R) {
  std::string Out = "{\n";
  Out += "  \"schema\": " + jsonStr(ProfdataBenchSchema) + ",\n";
  renderProvenance(Out, R.Prov);
  Out += "  \"reps\": " + std::to_string(R.Reps) + ",\n";
  Out += "  \"merge_inputs\": " + std::to_string(R.MergeInputs) + ",\n";
  Out += "  \"wall_seconds\": " + jsonNum(R.WallSeconds) + ",\n";
  Out += "  \"workloads\": [";
  for (size_t I = 0; I < R.Workloads.size(); ++I) {
    const ProfdataWorkloadBench &W = R.Workloads[I];
    Out += I ? ",\n" : "\n";
    Out += "    {\n";
    Out += "      \"name\": " + jsonStr(W.Name) + ",\n";
    Out += "      \"records\": " + std::to_string(W.Records) + ",\n";
    Out += "      \"artifact_bytes\": " + std::to_string(W.ArtifactBytes) +
           ",\n";
    Out += "      \"raw_dump_bytes\": " + std::to_string(W.RawDumpBytes) +
           ",\n";
    Out += "      \"write_seconds\": " + jsonNum(W.WriteSeconds) + ",\n";
    Out += "      \"read_seconds\": " + jsonNum(W.ReadSeconds) + ",\n";
    Out += "      \"merge_seconds\": " + jsonNum(W.MergeSeconds) + ",\n";
    Out += "      \"write_mb_per_sec\": " + jsonNum(W.WriteMBPerSec) + ",\n";
    Out += "      \"read_mb_per_sec\": " + jsonNum(W.ReadMBPerSec) + ",\n";
    Out += "      \"merge_records_per_sec\": " +
           jsonNum(W.MergeRecordsPerSec) + "\n";
    Out += "    }";
  }
  Out += R.Workloads.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

bool olpp::writeProfdataBenchJson(const std::string &Path,
                                  const ProfdataBenchReport &R,
                                  std::string &Error) {
  return writeTextFile(Path, renderProfdataBenchJson(R), Error);
}

bool olpp::validateProfdataBenchJson(const std::string &Text,
                                     std::string &Error) {
  JValue Root;
  if (!JParser(Text, Error).parse(Root))
    return false;
  if (Root.K != JValue::Obj) {
    Error = "top level: expected an object";
    return false;
  }
  auto Schema = Root.Fields.find("schema");
  if (Schema == Root.Fields.end() || Schema->second.K != JValue::Str ||
      Schema->second.S != ProfdataBenchSchema) {
    Error = std::string("schema: expected \"") + ProfdataBenchSchema + "\"";
    return false;
  }
  if (!checkProvenance(Root, Error) ||
      !checkNum(Root, "top level", "reps", Error) ||
      !checkNum(Root, "top level", "merge_inputs", Error) ||
      !checkNum(Root, "top level", "wall_seconds", Error))
    return false;
  auto WL = Root.Fields.find("workloads");
  if (WL == Root.Fields.end() || WL->second.K != JValue::Arr) {
    Error = "workloads: missing or not an array";
    return false;
  }
  if (WL->second.Elems.empty()) {
    Error = "workloads: must have at least one entry";
    return false;
  }
  for (size_t I = 0; I < WL->second.Elems.size(); ++I) {
    const JValue &Row = WL->second.Elems[I];
    const std::string Path = "workloads[" + std::to_string(I) + "]";
    if (Row.K != JValue::Obj) {
      Error = Path + ": expected an object";
      return false;
    }
    auto Name = Row.Fields.find("name");
    if (Name == Row.Fields.end() || Name->second.K != JValue::Str ||
        Name->second.S.empty()) {
      Error = Path + ": missing non-empty \"name\"";
      return false;
    }
    if (!checkNum(Row, Path, "records", Error) ||
        !checkNum(Row, Path, "artifact_bytes", Error) ||
        !checkNum(Row, Path, "raw_dump_bytes", Error) ||
        !checkNum(Row, Path, "write_seconds", Error) ||
        !checkNum(Row, Path, "read_seconds", Error) ||
        !checkNum(Row, Path, "merge_seconds", Error) ||
        !checkNum(Row, Path, "write_mb_per_sec", Error) ||
        !checkNum(Row, Path, "read_mb_per_sec", Error) ||
        !checkNum(Row, Path, "merge_records_per_sec", Error))
      return false;
    // An artifact is never empty: the header + four required sections alone
    // take bytes, so a zero size means the benchmark measured nothing.
    auto Bytes = Row.Fields.find("artifact_bytes");
    if (Bytes->second.N <= 0) {
      Error = Path + ": artifact_bytes must be positive";
      return false;
    }
  }
  return true;
}

std::string olpp::renderOptBenchJson(const OptBenchReport &R) {
  std::string Out = "{\n";
  Out += "  \"schema\": " + jsonStr(OptBenchSchema) + ",\n";
  renderProvenance(Out, R.Prov);
  Out += "  \"reps\": " + std::to_string(R.Reps) + ",\n";
  Out += "  \"wall_seconds\": " + jsonNum(R.WallSeconds) + ",\n";
  Out += "  \"workloads\": [";
  for (size_t I = 0; I < R.Workloads.size(); ++I) {
    const OptWorkloadBench &W = R.Workloads[I];
    Out += I ? ",\n" : "\n";
    Out += "    {\n";
    Out += "      \"name\": " + jsonStr(W.Name) + ",\n";
    Out += "      \"inlined_sites\": " + std::to_string(W.InlinedSites) +
           ",\n";
    Out += "      \"superblocks\": " + std::to_string(W.Superblocks) + ",\n";
    Out += "      \"baseline_steps\": " + std::to_string(W.BaselineSteps) +
           ",\n";
    Out += "      \"optimized_steps\": " + std::to_string(W.OptimizedSteps) +
           ",\n";
    Out += "      \"baseline_calls\": " + std::to_string(W.BaselineCalls) +
           ",\n";
    Out += "      \"optimized_calls\": " + std::to_string(W.OptimizedCalls) +
           ",\n";
    Out += "      \"baseline_seconds\": " + jsonNum(W.BaselineSeconds) +
           ",\n";
    Out += "      \"optimized_seconds\": " + jsonNum(W.OptimizedSeconds) +
           ",\n";
    Out += "      \"speedup\": " + jsonNum(W.Speedup) + ",\n";
    Out += std::string("      \"agree\": ") + (W.Agree ? "true" : "false") +
           "\n";
    Out += "    }";
  }
  Out += R.Workloads.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

bool olpp::writeOptBenchJson(const std::string &Path, const OptBenchReport &R,
                             std::string &Error) {
  return writeTextFile(Path, renderOptBenchJson(R), Error);
}

bool olpp::validateOptBenchJson(const std::string &Text, std::string &Error) {
  JValue Root;
  if (!JParser(Text, Error).parse(Root))
    return false;
  if (Root.K != JValue::Obj) {
    Error = "top level: expected an object";
    return false;
  }
  auto Schema = Root.Fields.find("schema");
  if (Schema == Root.Fields.end() || Schema->second.K != JValue::Str ||
      Schema->second.S != OptBenchSchema) {
    Error = std::string("schema: expected \"") + OptBenchSchema + "\"";
    return false;
  }
  if (!checkProvenance(Root, Error) ||
      !checkNum(Root, "top level", "reps", Error) ||
      !checkNum(Root, "top level", "wall_seconds", Error))
    return false;
  auto WL = Root.Fields.find("workloads");
  if (WL == Root.Fields.end() || WL->second.K != JValue::Arr) {
    Error = "workloads: missing or not an array";
    return false;
  }
  if (WL->second.Elems.empty()) {
    Error = "workloads: must have at least one entry";
    return false;
  }
  for (size_t I = 0; I < WL->second.Elems.size(); ++I) {
    const JValue &Row = WL->second.Elems[I];
    const std::string Path = "workloads[" + std::to_string(I) + "]";
    if (Row.K != JValue::Obj) {
      Error = Path + ": expected an object";
      return false;
    }
    auto Name = Row.Fields.find("name");
    if (Name == Row.Fields.end() || Name->second.K != JValue::Str ||
        Name->second.S.empty()) {
      Error = Path + ": missing non-empty \"name\"";
      return false;
    }
    if (!checkNum(Row, Path, "inlined_sites", Error) ||
        !checkNum(Row, Path, "superblocks", Error) ||
        !checkNum(Row, Path, "baseline_steps", Error) ||
        !checkNum(Row, Path, "optimized_steps", Error) ||
        !checkNum(Row, Path, "baseline_calls", Error) ||
        !checkNum(Row, Path, "optimized_calls", Error) ||
        !checkNum(Row, Path, "baseline_seconds", Error) ||
        !checkNum(Row, Path, "optimized_seconds", Error) ||
        !checkNum(Row, Path, "speedup", Error))
      return false;
    // A disagreement means the optimizer broke the program; the timing
    // columns of such a row are meaningless and the report is invalid.
    auto Agree = Row.Fields.find("agree");
    if (Agree == Row.Fields.end() || Agree->second.K != JValue::Bool) {
      Error = Path + ": missing boolean \"agree\"";
      return false;
    }
    if (!Agree->second.B) {
      Error = Path + ": agree must be true (the optimized module diverged "
                     "from the baseline)";
      return false;
    }
    // Timing a module that never ran is the other way to lie.
    auto Secs = Row.Fields.find("optimized_seconds");
    if (Secs->second.N <= 0) {
      Error = Path + ": optimized_seconds must be positive";
      return false;
    }
  }
  return true;
}
