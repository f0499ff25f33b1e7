/**
 * @file
 * Locale-independent numeric text I/O.
 *
 * Model and campaign files are trust boundaries that cross machines
 * (the virtual-sensor use case ships a model file to hosts the
 * campaign never ran on), so their numeric encoding must not depend
 * on whatever LC_NUMERIC the writing or reading process happens to
 * run under. iostream insertion/extraction and strtod all consult the
 * global locale; these helpers use std::to_chars / std::from_chars,
 * which are locale-independent by specification and round-trip
 * doubles bit-exactly at shortest representation.
 */

#ifndef GPUPM_COMMON_NUMIO_HH
#define GPUPM_COMMON_NUMIO_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace gpupm
{
namespace numio
{

/** Shortest decimal form that parses back to exactly `x`. */
std::string formatDouble(double x);

/** Decimal form of a signed integer. */
std::string formatLong(long x);

/**
 * Parse a whole token as a double (decimal or scientific; "nan" and
 * "inf" are accepted and surfaced as such for the caller to judge).
 * @return false unless the entire token was consumed.
 */
bool parseDouble(std::string_view token, double &out);

/** Parse a whole token as a signed decimal integer. */
bool parseLong(std::string_view token, long &out);

/** Parse a whole token as an unsigned 64-bit decimal integer. */
bool parseU64(std::string_view token, std::uint64_t &out);

/** Longest duration parseDuration() accepts: about 31.7 years. */
constexpr double kMaxSeconds = 1e9;

/**
 * Parse a human duration in seconds: "2s", "500ms", "1m", or a bare
 * number of seconds. Negative when malformed, negative or above
 * kMaxSeconds, so every caller can convert the result to whole
 * microseconds in an int64_t.
 */
double parseDuration(std::string_view text);

} // namespace numio
} // namespace gpupm

#endif // GPUPM_COMMON_NUMIO_HH
