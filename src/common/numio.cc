#include "numio.hh"

#include <charconv>
#include <utility>

namespace gpupm
{
namespace numio
{

std::string
formatDouble(double x)
{
    // 32 chars covers the longest shortest-round-trip double
    // ("-2.2250738585072014e-308" is 24) with room to spare.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), x);
    return std::string(buf, res.ptr);
}

std::string
formatLong(long x)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), x);
    return std::string(buf, res.ptr);
}

namespace
{

template <typename T>
bool
parseWhole(std::string_view token, T &out)
{
    if (token.empty())
        return false;
    const auto res =
            std::from_chars(token.data(), token.data() + token.size(),
                            out);
    return res.ec == std::errc() &&
           res.ptr == token.data() + token.size();
}

} // namespace

bool
parseDouble(std::string_view token, double &out)
{
    return parseWhole(token, out);
}

bool
parseLong(std::string_view token, long &out)
{
    return parseWhole(token, out);
}

bool
parseU64(std::string_view token, std::uint64_t &out)
{
    return parseWhole(token, out);
}

double
parseDuration(std::string_view text)
{
    static constexpr std::pair<std::string_view, double> units[] = {
            {"ms", 1e-3}, {"s", 1.0}, {"m", 60.0}, {"", 1.0}};
    for (const auto &[unit, scale] : units) {
        if (!text.ends_with(unit))
            continue;
        text.remove_suffix(unit.size());
        double v = 0.0;
        const bool ok = parseDouble(text, v) && v >= 0.0 &&
                        v * scale <= kMaxSeconds;
        return ok ? v * scale : -1.0;
    }
    return -1.0; // unreachable: the bare-number unit "" always matches
}

} // namespace numio
} // namespace gpupm
