/**
 * @file
 * The one JSON reader and string escaper of the code base.
 *
 * Checkpoints, scoreboards, bench telemetry, Chrome traces and the
 * drift-rule golden all arrive from disk, so whatever reads them is a
 * trust boundary: a hostile document must come back as a typed error
 * with the byte offset where it went wrong, never as a crash. The
 * grammar is RFC 8259 with three bounds of its own: nesting deeper
 * than kMaxDepth containers is rejected (a "[[[[..." bomb cannot
 * exhaust the stack), numbers must be finite doubles, and nothing but
 * whitespace may follow the top-level value. Strings accept every
 * escape, decode `\uXXXX` (surrogate pairs included) to UTF-8 and
 * reject raw control bytes; other bytes pass through unvalidated.
 *
 * escape() is the matching writer for string contents: the result
 * goes between quotes and always parses back to the input bytes.
 */

#ifndef GPUPM_COMMON_JSON_HH
#define GPUPM_COMMON_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpupm
{
namespace json
{

/** Deepest array/object nesting parse() accepts. */
constexpr int kMaxDepth = 64;

/** One parsed JSON value; the tree owns its children. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    /** Members in document order, duplicate keys included. */
    std::vector<std::pair<std::string, Value>> object;

    /** First member named `key`; nullptr when absent or no object. */
    const Value *find(std::string_view key) const;
};

/** Why parse() rejected a document. */
enum class Errc
{
    UnexpectedEnd,  ///< the input stops inside a value
    UnexpectedByte, ///< a byte the grammar does not allow here
    ControlByte,    ///< raw byte below 0x20 inside a string
    BadEscape,      ///< unknown escape, bad hex digit, lone surrogate
    BadNumber,      ///< malformed, or outside the finite doubles
    TooDeep,        ///< more than kMaxDepth nested containers
    TrailingBytes,  ///< non-whitespace after the top-level value
};

/** A rejection: what went wrong and at which byte. */
struct Error
{
    Errc code = Errc::UnexpectedByte;
    std::size_t offset = 0;

    /** One-line description, e.g. "bad number at byte 17". */
    std::string message() const;
};

/**
 * Parse a whole document into `out`. On rejection returns false and
 * fills `err`; `out` is then unspecified.
 */
bool parse(std::string_view text, Value &out, Error &err);

/** String contents escaped for use between JSON quotes. */
std::string escape(std::string_view s);

} // namespace json
} // namespace gpupm

#endif // GPUPM_COMMON_JSON_HH
