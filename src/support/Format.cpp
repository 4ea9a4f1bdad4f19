//===--- Format.cpp - Small string formatting helpers --------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cmath>
#include <cstdio>

using namespace olpp;

std::string olpp::formatFixed(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return Buf;
}

std::string olpp::formatSignedPercent(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%+.*f %%", Decimals, Value);
  return Buf;
}

std::string olpp::formatInt(int64_t Value, bool Grouped) {
  std::string Raw = std::to_string(Value);
  if (!Grouped)
    return Raw;
  std::string Out;
  size_t Start = Raw[0] == '-' ? 1 : 0;
  Out.append(Raw, 0, Start);
  size_t Digits = Raw.size() - Start;
  for (size_t I = 0; I < Digits; ++I) {
    if (I != 0 && (Digits - I) % 3 == 0)
      Out.push_back(',');
    Out.push_back(Raw[Start + I]);
  }
  return Out;
}

std::string olpp::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string olpp::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

bool olpp::parseUnsigned(const char *Text, uint64_t Min, uint64_t Max,
                         uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  uint64_t V = 0;
  for (const char *C = Text; *C; ++C) {
    if (*C < '0' || *C > '9')
      return false;
    const uint64_t D = static_cast<uint64_t>(*C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  if (V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

bool olpp::parseSigned(const char *Text, int64_t &Out) {
  const bool Neg = Text && *Text == '-';
  // |INT64_MIN| = INT64_MAX + 1 fits the unsigned magnitude.
  const uint64_t Limit = static_cast<uint64_t>(INT64_MAX) + (Neg ? 1 : 0);
  uint64_t Mag = 0;
  if (!parseUnsigned(Neg ? Text + 1 : Text, 0, Limit, Mag))
    return false;
  if (!Neg)
    Out = static_cast<int64_t>(Mag);
  else
    Out = Mag == Limit ? INT64_MIN : -static_cast<int64_t>(Mag);
  return true;
}
