/**
 * @file
 * Tests of the shared JSON reader and escaper: every ASCII byte
 * survives escape -> parse, the nesting bound holds at exactly
 * kMaxDepth, \u escapes decode to UTF-8, and every rejection is a
 * typed error at the byte where the document went wrong.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.hh"

namespace
{

using namespace gpupm;

json::Error
rejection(std::string_view text)
{
    json::Value v;
    json::Error err;
    EXPECT_FALSE(json::parse(text, v, err)) << "accepted: " << text;
    return err;
}

TEST(Json, EscapeParseRoundTripsEveryAsciiByte)
{
    for (int c = 0; c < 0x80; ++c) {
        const std::string s{'a', static_cast<char>(c), 'z'};
        std::string doc = "\"";
        doc += json::escape(s);
        doc += '"';
        json::Value v;
        json::Error err;
        ASSERT_TRUE(json::parse(doc, v, err))
                << "byte " << c << ": " << err.message();
        ASSERT_EQ(v.kind, json::Value::Kind::String);
        EXPECT_EQ(v.str, s) << "byte " << c;
        // No raw control byte ever reaches the output.
        for (const char out : doc)
            EXPECT_GE(static_cast<unsigned char>(out), 0x20)
                    << "byte " << c;
    }
}

TEST(Json, EscapePinsItsOutputBytes)
{
    EXPECT_EQ(json::escape("q\"b\\n\nt\tr\r"),
              "q\\\"b\\\\n\\nt\\tr\\r");
    EXPECT_EQ(json::escape(std::string("\x01\x08\x0c\x1f", 4)),
              "\\u0001\\u0008\\u000c\\u001f");
    EXPECT_EQ(json::escape("/\x7f\xc3\xa9"), "/\x7f\xc3\xa9");
}

TEST(Json, DepthCapIsExact)
{
    const auto nested = [](int depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(nested(json::kMaxDepth), v, err))
            << err.message();

    const json::Error deep = rejection(nested(json::kMaxDepth + 1));
    EXPECT_EQ(deep.code, json::Errc::TooDeep);
    EXPECT_EQ(deep.offset, static_cast<std::size_t>(json::kMaxDepth));
    EXPECT_NE(deep.message().find("nesting deeper than 64"),
              std::string::npos)
            << deep.message();

    // Objects count toward the same bound, and a bomb far past it is
    // rejected at the same byte without exhausting the stack.
    std::string objects;
    for (int i = 0; i <= json::kMaxDepth; ++i)
        objects += "{\"k\":";
    EXPECT_EQ(rejection(objects).code, json::Errc::TooDeep);
    const json::Error bomb = rejection(std::string(200000, '['));
    EXPECT_EQ(bomb.code, json::Errc::TooDeep);
    EXPECT_EQ(bomb.offset, static_cast<std::size_t>(json::kMaxDepth));
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(R"("A\u00e9\u20AC\ud83d\ude00\u0000\/\b\f")",
                            v, err))
            << err.message();
    EXPECT_EQ(v.str, std::string("A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"
                                 "\0/\b\f",
                                 14));

    // A surrogate half on its own is rejected where parsing stopped.
    const std::pair<const char *, std::size_t> lone[] = {
            {R"("x\ude00")", 8}, {R"("x\ud83d\u0041")", 14},
            {R"("x\ud83d")", 8}, {R"("x\ud83dz")", 8}};
    for (const auto &[text, offset] : lone) {
        const json::Error e = rejection(text);
        EXPECT_EQ(e.code, json::Errc::BadEscape) << text;
        EXPECT_EQ(e.offset, offset) << text;
    }
    EXPECT_EQ(rejection(R"("\u12g4")").code, json::Errc::BadEscape);
    EXPECT_EQ(rejection(R"("\x")").code, json::Errc::BadEscape);
}

TEST(Json, RejectionsAreTypedWithTheirOffset)
{
    struct Case
    {
        std::string text;
        json::Errc code;
        std::size_t offset;
    };
    const Case cases[] = {
            {std::string("[\"a\x01\"]"), json::Errc::ControlByte, 3},
            {"[\"tab\there\"]", json::Errc::ControlByte, 5},
            {"nan", json::Errc::UnexpectedByte, 1},
            {"[1, nan]", json::Errc::UnexpectedByte, 5},
            {"1e999", json::Errc::BadNumber, 0},
            {"[-1e999]", json::Errc::BadNumber, 1},
            {"Infinity", json::Errc::UnexpectedByte, 0},
            {"01", json::Errc::TrailingBytes, 1},
            {"1.", json::Errc::UnexpectedEnd, 2},
            {"-x", json::Errc::BadNumber, 1},
            {"+1", json::Errc::UnexpectedByte, 0},
            {"{\"a\":1} x", json::Errc::TrailingBytes, 8},
            {"[1] [2]", json::Errc::TrailingBytes, 4},
            {"{\"a\" 1}", json::Errc::UnexpectedByte, 5},
            {"{a:1}", json::Errc::UnexpectedByte, 1},
            {"[1,]", json::Errc::UnexpectedByte, 3},
            {"", json::Errc::UnexpectedEnd, 0},
            {"  \n", json::Errc::UnexpectedEnd, 3},
    };
    for (const Case &c : cases) {
        const json::Error e = rejection(c.text);
        EXPECT_EQ(e.code, c.code) << c.text << ": " << e.message();
        EXPECT_EQ(e.offset, c.offset) << c.text << ": " << e.message();
    }
}

TEST(Json, EveryTruncationIsAnUnexpectedEnd)
{
    const std::string doc =
            R"({"name":"fig7","ok":true,"none":null,"off":false,)"
            R"("wall_ms":-887.5e-1,"ids":[0,12,3.25E+2],)"
            R"("s":"a\"b\\c\u00e9\ud83d\ude00\/"})";
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(doc, v, err)) << err.message();
    for (std::size_t cut = 0; cut < doc.size(); ++cut) {
        const json::Error e = rejection(doc.substr(0, cut));
        EXPECT_EQ(e.code, json::Errc::UnexpectedEnd)
                << "cut at " << cut << ": " << e.message();
        EXPECT_EQ(e.offset, cut);
    }
}

TEST(Json, ValuesAndDocumentOrder)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(
            R"( {"z":1, "a":[true,false,null,"s",-0.5,1e2], "o":{}} )",
            v, err))
            << err.message();
    ASSERT_EQ(v.kind, json::Value::Kind::Object);
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "z");
    EXPECT_EQ(v.object[1].first, "a");
    const json::Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 6u);
    EXPECT_TRUE(a->array[0].boolean);
    EXPECT_EQ(a->array[2].kind, json::Value::Kind::Null);
    EXPECT_EQ(a->array[3].str, "s");
    EXPECT_EQ(a->array[4].number, -0.5);
    EXPECT_EQ(a->array[5].number, 100.0);
    EXPECT_EQ(v.find("o")->kind, json::Value::Kind::Object);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(a->find("z"), nullptr); // find on a non-object
}

TEST(Json, DuplicateKeysKeepTheFirstValue)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(R"({"k":1,"k":2})", v, err));
    EXPECT_EQ(v.object.size(), 2u);
    EXPECT_EQ(v.find("k")->number, 1.0);
}

TEST(Json, ParseResetsTheOutputValue)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(R"({"a":1})", v, err));
    ASSERT_TRUE(json::parse(R"({"b":2})", v, err));
    EXPECT_EQ(v.object.size(), 1u);
    EXPECT_EQ(v.find("a"), nullptr);
}

} // namespace
