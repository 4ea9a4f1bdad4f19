//===--- Ijpeg.cpp - image quantization workload -------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
// Stand-in for 132.ijpeg: block quantization with clamp helpers and a
// brightness classifier. Unlike the other nine programs this one is built
// around *correlated* branches — clamped values re-tested against their
// proven range, and a flag assigned under one predicate and branched on
// again later — so a static feasibility pass has real acyclic paths to
// prove dead (the others' LCG-driven branch mixes leave almost nothing
// provable). The suite's exemplar for `olpp analyze`.
//
//===----------------------------------------------------------------------===//

#include "workloads/programs/Sources.h"

namespace olpp {
namespace workload_sources {

const char Ijpeg[] = R"MINIC(
global jrng;
global qtab[64];
global hist[16];
global acc;

fn jrand(m) {
  jrng = (jrng * 1103515245 + 12345) & 2147483647;
  return jrng % m;
}

fn clamp255(v) {
  if (v < 0) { return 0; }
  if (v > 255) { return 255; }
  return v;
}

fn quantize(v, q) {
  var s = clamp255(v);
  if (s < 0) { return 0; }
  if (s > 255) { return 255; }
  return s / (q + 1);
}

fn sharpen(v) {
  var bright = 0;
  if (v < 128) { bright = 1; }
  if (bright) {
    acc = acc + v;
    return v + 8;
  }
  return v - 8;
}

fn main(size, seed) {
  jrng = seed;
  acc = 0;
  for (var i = 0; i < 64; i = i + 1) {
    qtab[i & 63] = 1 + jrand(31);
  }
  var sum = 0;
  for (var pass = 0; pass < size; pass = pass + 1) {
    for (var i = 0; i < 64; i = i + 1) {
      var v = jrand(512) - 128;
      var s = sharpen(clamp255(v));
      var q = quantize(s, qtab[i & 63]);
      hist[q & 15] = hist[q & 15] + 1;
      sum = sum + q;
    }
  }
  return (sum + acc) & 65535;
}
)MINIC";

} // namespace workload_sources
} // namespace olpp
