//===--- Spans.cpp - In-memory span recorder for traced runs --------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "Common.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
thread_local std::vector<int64_t> Stack;
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::current() { return Stack.empty() ? -1 : Stack.back(); }

int64_t Tracer::open(const std::string &Name, uint64_t Op, int64_t Parent) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Parent == -2 ? current() : Parent;
  S.Start = nowS();
  int64_t Id;
  {
    std::lock_guard<std::mutex> L(Mu);
    Id = int64_t(All.size());
    All.push_back(std::move(S));
  }
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int64_t Id) {
  double End = nowS();
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  All[size_t(Id)].End = End;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return All;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  for (size_t I = 0; I < All.size(); ++I)
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"op\": %llu}\n",
                 I, All[I].Name.c_str(), All[I].Start, All[I].End,
                 static_cast<long long>(All[I].Parent),
                 static_cast<unsigned long long>(All[I].Op));
  return std::fclose(F) == 0;
}

std::vector<double> selfTimes(const std::vector<Span> &S) {
  std::vector<std::vector<std::pair<double, double>>> Kids(S.size());
  for (const Span &C : S)
    if (C.Parent >= 0)
      Kids[size_t(C.Parent)].push_back({C.Start, C.End});
  std::vector<double> Self(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, Lo = 0, Hi = -1;
    for (auto [A, B] : K) {
      A = std::max(A, S[I].Start);
      B = std::min(B, S[I].End);
      if (B <= A)
        continue;
      if (A > Hi) {
        if (Hi > Lo)
          Covered += Hi - Lo;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    if (Hi > Lo)
      Covered += Hi - Lo;
    Self[I] = std::max(0.0, S[I].End - S[I].Start - Covered);
  }
  return Self;
}

bool under(const std::vector<Span> &S, int64_t I, int64_t Root) {
  for (; I >= 0; I = S[size_t(I)].Parent)
    if (I == Root)
      return true;
  return false;
}

std::map<std::string, double> selfByName(const std::vector<Span> &S,
                                         const std::vector<double> &Self,
                                         int64_t Root) {
  std::map<std::string, double> Out;
  for (size_t I = 0; I < S.size(); ++I)
    if (under(S, int64_t(I), Root))
      Out[S[I].Name] += Self[I];
  return Out;
}

} // namespace perfbench
