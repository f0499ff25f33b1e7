#include "json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/numio.hh"

namespace gpupm
{
namespace json
{

const Value *
Value::find(std::string_view key) const
{
    for (const auto &kv : object)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

std::string
Error::message() const
{
    std::string what;
    switch (code) {
      case Errc::UnexpectedEnd: what = "unexpected end of input"; break;
      case Errc::UnexpectedByte: what = "unexpected byte"; break;
      case Errc::ControlByte: what = "raw control byte in string"; break;
      case Errc::BadEscape: what = "bad escape"; break;
      case Errc::BadNumber: what = "bad or non-finite number"; break;
      case Errc::TooDeep:
        what = "nesting deeper than " + std::to_string(kMaxDepth) +
               " levels";
        break;
      case Errc::TrailingBytes: what = "trailing bytes"; break;
    }
    return what + " at byte " + std::to_string(offset);
}

namespace
{

void
appendUtf8(std::string &out, unsigned cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | cp >> 6);
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | cp >> 12);
        out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | cp >> 18);
        out += static_cast<char>(0x80 | (cp >> 12 & 0x3F));
        out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

/**
 * Recursive descent over one document. Recursion only enters
 * containers, and at most kMaxDepth of them, so the stack stays
 * bounded whatever the input. fail() reports any rejection at the end
 * of the input as UnexpectedEnd, so a truncated file is recognizable.
 */
class Parser
{
  public:
    Parser(std::string_view text, Error &err)
        : text_(text), err_(err)
    {
    }

    bool
    document(Value &out)
    {
        if (!value(out, 0))
            return false;
        skipSpace();
        return atEnd() || fail(Errc::TrailingBytes);
    }

  private:
    bool atEnd() const { return pos_ == text_.size(); }

    /** The byte at pos_; NUL at the end, which every check rejects. */
    char peek() const { return atEnd() ? '\0' : text_[pos_]; }

    bool
    fail(Errc code)
    {
        err_ = {atEnd() ? Errc::UnexpectedEnd : code, pos_};
        return false;
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    skipSpace()
    {
        while (consume(' ') || consume('\t') || consume('\n') ||
               consume('\r')) {
        }
    }

    /** `depth` containers enclose this value. */
    bool
    value(Value &out, int depth)
    {
        skipSpace();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth == kMaxDepth)
                return fail(Errc::TooDeep);
            ++pos_;
            return c == '{' ? object(out, depth + 1)
                            : array(out, depth + 1);
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return string(out.str);
        }
        if (c == 't' || c == 'f') {
            out.kind = Value::Kind::Bool;
            out.boolean = c == 't';
            return literal(out.boolean ? "true" : "false");
        }
        if (c == 'n')
            return literal("null");
        if (c == '-' || (c >= '0' && c <= '9')) {
            out.kind = Value::Kind::Number;
            return number(out.number);
        }
        return fail(Errc::UnexpectedByte);
    }

    bool
    object(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        skipSpace();
        if (consume('}'))
            return true;
        do {
            skipSpace();
            auto &[key, member] = out.object.emplace_back();
            if (!string(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail(Errc::UnexpectedByte);
            if (!value(member, depth))
                return false;
            skipSpace();
        } while (consume(','));
        return consume('}') || fail(Errc::UnexpectedByte);
    }

    bool
    array(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        skipSpace();
        if (consume(']'))
            return true;
        do {
            if (!value(out.array.emplace_back(), depth))
                return false;
            skipSpace();
        } while (consume(','));
        return consume(']') || fail(Errc::UnexpectedByte);
    }

    bool
    literal(std::string_view word)
    {
        for (const char c : word)
            if (!consume(c))
                return fail(Errc::UnexpectedByte);
        return true;
    }

    /** One or more decimal digits; false when there are none. */
    bool
    digits()
    {
        const std::size_t start = pos_;
        while (peek() >= '0' && peek() <= '9')
            ++pos_;
        return pos_ > start;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, finite. */
    bool
    number(double &out)
    {
        const std::size_t start = pos_;
        consume('-');
        if (!consume('0') && !digits())
            return fail(Errc::BadNumber);
        if (consume('.') && !digits())
            return fail(Errc::BadNumber);
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!digits())
                return fail(Errc::BadNumber);
        }
        const auto token = text_.substr(start, pos_ - start);
        if (!numio::parseDouble(token, out) || !std::isfinite(out)) {
            pos_ = start;
            return fail(Errc::BadNumber);
        }
        return true;
    }

    /** Four hex digits as one UTF-16 code unit. */
    bool
    hex4(unsigned &unit)
    {
        const char *first = text_.data() + pos_;
        const char *last = first + std::min<std::size_t>(
                                           4, text_.size() - pos_);
        const char *stop = std::from_chars(first, last, unit, 16).ptr;
        pos_ += static_cast<std::size_t>(stop - first);
        return stop == first + 4 || fail(Errc::BadEscape);
    }

    /**
     * The rest of a \u escape, appended as UTF-8. A surrogate counts
     * only as a high/low pair; a half on its own is a BadEscape.
     */
    bool
    unicodeEscape(std::string &out)
    {
        unsigned cp = 0, low = 0;
        if (!hex4(cp))
            return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!consume('\\') || !consume('u') || !hex4(low) ||
                low < 0xDC00 || low > 0xDFFF)
                return fail(Errc::BadEscape);
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail(Errc::BadEscape);
        }
        appendUtf8(out, cp);
        return true;
    }

    bool
    string(std::string &out)
    {
        // The single-character escapes and what each one stands for.
        static constexpr std::string_view kEscaped = "\"\\/bfnrt";
        static constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
        if (!consume('"'))
            return fail(Errc::UnexpectedByte);
        for (;;) {
            const char c = peek();
            if (static_cast<unsigned char>(c) < 0x20)
                return fail(Errc::ControlByte);
            ++pos_;
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            const std::size_t e = kEscaped.find(peek());
            if (e != std::string_view::npos) {
                out += kMeaning[e];
                ++pos_;
            } else if (!consume('u')) {
                return fail(Errc::BadEscape);
            } else if (!unicodeEscape(out)) {
                return false;
            }
        }
    }

    std::string_view text_;
    Error &err_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parse(std::string_view text, Value &out, Error &err)
{
    out = Value{};
    return Parser(text, err).document(out);
}

std::string
escape(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xF];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace json
} // namespace gpupm
