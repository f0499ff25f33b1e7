/**
 * @file
 * Tests of locale-independent numeric text I/O: bit-exact double
 * round-trips, whole-token parsing, and immunity to a hostile global
 * locale (comma decimal separator).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <locale>

#include "common/numio.hh"

namespace
{

using namespace gpupm;

TEST(Numio, DoublesRoundTripBitExactly)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            1.0 / 3.0,
                            -2.5e-7,
                            1e300,
                            1e-300,
                            0.1,
                            57.0 / 7.0,
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            0.7071067811865476};
    for (const double x : cases) {
        double back = 0.0;
        ASSERT_TRUE(numio::parseDouble(numio::formatDouble(x), back))
                << numio::formatDouble(x);
        // Bit-exact, including the sign of -0.0.
        EXPECT_EQ(std::signbit(back), std::signbit(x));
        EXPECT_EQ(back, x) << numio::formatDouble(x);
    }
}

TEST(Numio, ParseConsumesWholeTokenOnly)
{
    double d = 0.0;
    EXPECT_TRUE(numio::parseDouble("1.5e3", d));
    EXPECT_DOUBLE_EQ(d, 1500.0);
    EXPECT_FALSE(numio::parseDouble("1.5x", d));
    EXPECT_FALSE(numio::parseDouble("", d));
    EXPECT_FALSE(numio::parseDouble("  1.5", d));
    EXPECT_FALSE(numio::parseDouble("1e999", d)); // out of range

    long l = 0;
    EXPECT_TRUE(numio::parseLong("-42", l));
    EXPECT_EQ(l, -42);
    EXPECT_FALSE(numio::parseLong("42.0", l));
    EXPECT_FALSE(numio::parseLong("", l));

    std::uint64_t u = 0;
    EXPECT_TRUE(numio::parseU64("18446744073709551615", u));
    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(numio::parseU64("-1", u));
}

TEST(Numio, NonFiniteTokensAreSurfacedNotHidden)
{
    // The contract: "nan"/"inf" parse, and the caller judges them
    // (the file parsers reject them; validation reports them).
    double d = 0.0;
    EXPECT_TRUE(numio::parseDouble("nan", d));
    EXPECT_TRUE(std::isnan(d));
    EXPECT_TRUE(numio::parseDouble("inf", d));
    EXPECT_TRUE(std::isinf(d));
}

TEST(Numio, ImmuneToCommaDecimalLocale)
{
    // Install a global locale whose decimal point is ',' — the classic
    // way strtod/iostream-based serializers corrupt model files.
    struct CommaNumpunct : std::numpunct<char>
    {
        char do_decimal_point() const override { return ','; }
        char do_thousands_sep() const override { return '.'; }
        std::string do_grouping() const override { return "\3"; }
    };
    const std::locale old =
            std::locale::global(std::locale(
                    std::locale::classic(), new CommaNumpunct));

    const double x = 1234.5678;
    const std::string text = numio::formatDouble(x);
    EXPECT_NE(text.find('.'), std::string::npos) << text;
    EXPECT_EQ(text.find(','), std::string::npos) << text;
    double back = 0.0;
    EXPECT_TRUE(numio::parseDouble(text, back));
    EXPECT_EQ(back, x);
    // ','-formatted input from a locale-dependent writer is rejected
    // outright rather than silently misread as 1234.0.
    EXPECT_FALSE(numio::parseDouble("1234,5678", back));
    EXPECT_EQ(numio::formatLong(1234567), "1234567"); // no grouping

    std::locale::global(old);
}

TEST(Numio, DurationsCarryUnitsUpToTheBound)
{
    EXPECT_DOUBLE_EQ(numio::parseDuration("2s"), 2.0);
    EXPECT_DOUBLE_EQ(numio::parseDuration("500ms"), 0.5);
    EXPECT_DOUBLE_EQ(numio::parseDuration("1m"), 60.0);
    EXPECT_DOUBLE_EQ(numio::parseDuration("1.5"), 1.5);
    // At the bound, and just past it in each unit.
    EXPECT_EQ(numio::parseDuration("1e9"), numio::kMaxSeconds);
    EXPECT_EQ(numio::parseDuration("1000000000s"), numio::kMaxSeconds);
    EXPECT_LT(numio::parseDuration("1000000001"), 0.0);
    EXPECT_LT(numio::parseDuration("1000000000001ms"), 0.0);
    EXPECT_LT(numio::parseDuration("16666667m"), 0.0);
    EXPECT_LT(numio::parseDuration("1e14s"), 0.0);
    for (const char *bad : {"", "s", "-1s", "2x", "nan", "infs", "1e400"})
        EXPECT_LT(numio::parseDuration(bad), 0.0) << bad;
}

} // namespace
