//===--- Format.h - Small string formatting helpers ------------*- C++ -*-===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny formatting helpers shared by the table writer, the benches and the
/// textual IR printer. Kept deliberately small; no iostreams in headers.
///
//===----------------------------------------------------------------------===//

#ifndef OLPP_SUPPORT_FORMAT_H
#define OLPP_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>

namespace olpp {

/// Formats \p Value with \p Decimals digits after the decimal point.
std::string formatFixed(double Value, int Decimals);

/// Formats \p Value as a signed percentage, e.g. "-33.6 %" or "+4.4 %".
std::string formatSignedPercent(double Value, int Decimals = 1);

/// Formats an integer with thousands separators, e.g. "3539310" -> "3539310".
/// (Separators intentionally omitted from machine-readable output; this adds
/// them only when \p Grouped is true.)
std::string formatInt(int64_t Value, bool Grouped = false);

/// Left-pads \p S with spaces to at least \p Width characters.
std::string padLeft(const std::string &S, size_t Width);

/// Right-pads \p S with spaces to at least \p Width characters.
std::string padRight(const std::string &S, size_t Width);

/// Parses all of \p Text as a decimal unsigned integer in [\p Min, \p Max].
/// Returns false, leaving \p Out untouched, on an empty string, a sign,
/// whitespace or any other non-digit, overflow, or a value out of range.
bool parseUnsigned(const char *Text, uint64_t Min, uint64_t Max,
                   uint64_t &Out);

/// Parses all of \p Text as a decimal int64_t: an optional '-', then
/// digits only. Returns false, leaving \p Out untouched, on anything else
/// (as parseUnsigned) or a value outside int64_t.
bool parseSigned(const char *Text, int64_t &Out);

} // namespace olpp

#endif // OLPP_SUPPORT_FORMAT_H
