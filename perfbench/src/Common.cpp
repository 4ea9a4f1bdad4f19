//===--- Common.cpp - Shared pieces of the perfbench harness --------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "frontend/Compiler.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <set>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>

extern char **environ;

using namespace olpp;

namespace perfbench {

void Result::wrong(const std::string &Msg) {
  static std::set<std::string> Seen;
  if (Seen.insert(Msg).second)
    std::fprintf(stderr, "perfbench: check failed: %s\n", Msg.c_str());
  Correct = false;
}

std::string Result::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    OS << (I ? ", " : "") << "\"" << Metrics[I].Name << "\": {\"value\": "
       << Buf << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  }
  OS << "}}";
  return OS.str();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * double(V.size()));
  size_t I = size_t(std::max(1.0, Rank)) - 1;
  return V[std::min(I, V.size() - 1)];
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / double(V.size());
}

int64_t programSeed(uint64_t BenchSeed, uint64_t Tag) {
  Rng R(BenchSeed * 0x100000001b3ULL ^ (Tag + 0x51ed270b27c4a3dULL));
  R.next();
  return 1 + int64_t(R.below(100000));
}

uint64_t tagOf(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

std::unique_ptr<Module> compile(const std::string &Source, std::string &Err) {
  CompileResult CR = compileMiniC(Source);
  if (!CR.ok())
    Err = CR.diagText();
  return std::move(CR.M);
}

uint32_t chosenDegree(const Module &M) {
  DegreeLimits L = computeDegreeLimits(M, /*CallBreaking=*/true);
  return std::max<uint32_t>(1, std::max(L.MaxLoopDegree,
                                        L.MaxInterprocDegree) / 3);
}

InstrumentOptions instrOptions(uint32_t K) {
  InstrumentOptions O;
  O.LoopOverlap = true;
  O.LoopDegree = K;
  O.Interproc = true;
  O.InterprocDegree = K;
  return O;
}

std::vector<int64_t> argsFor(const std::vector<int64_t> &Base, int64_t Seed) {
  std::vector<int64_t> A = Base;
  A.resize(2, 0);
  A[1] = Seed;
  return A;
}

double peakRssSelfMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0;
}

Child runChild(const std::vector<std::string> &Argv, const std::string &Out,
               const std::string &Err) {
  Child C;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, Out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&FA, 2, Err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char *> A;
  for (const std::string &S : Argv)
    A.push_back(const_cast<char *>(S.c_str()));
  A.push_back(nullptr);
  double T0 = nowS();
  pid_t Pid;
  int Rc = posix_spawn(&Pid, A[0], &FA, nullptr, A.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0)
    return C;
  int St = 0;
  struct rusage RU {};
  while (wait4(Pid, &St, 0, &RU) < 0 && errno == EINTR) {
  }
  C.Wall = nowS() - T0;
  C.RssKb = RU.ru_maxrss;
  C.Ok = WIFEXITED(St) && WEXITSTATUS(St) == 0;
  return C;
}

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

const std::vector<std::string> &loopPrograms() {
  static const std::vector<std::string> P = {"twolf", "mcf", "espresso",
                                             "gcc", "li"};
  return P;
}

const std::vector<std::string> &callPrograms() {
  static const std::vector<std::string> P = {"go", "vortex", "parser",
                                             "ijpeg", "perl"};
  return P;
}

} // namespace perfbench
