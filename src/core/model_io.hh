/**
 * @file
 * File persistence for models, training campaigns, checkpoints,
 * scoreboards and fleet shards.
 *
 * A real deployment separates the expensive measurement campaign from
 * model fitting and from prediction-time use: the campaign output and
 * the fitted model are both persisted as plain text so they can be
 * archived, diffed and shipped (the virtual-sensor use case ships a
 * model file to machines that have no sensor at all). That makes
 * these files trust boundaries: they arrive over networks, out of
 * object stores and from operators' editors, and a corrupt or stale
 * artifact must surface as a typed, reportable error — never as an
 * aborted process on the machine that merely tried to read it.
 *
 * On-disk format (v2): a one-line envelope followed by the payload,
 *
 *     gpupm-file <kind> v2 crc32 <8-hex> bytes <n>\n
 *     <payload: exactly n bytes>
 *
 * where <kind> is model | campaign | checkpoint | scoreboard |
 * fleetshard | fleet and the CRC32 (IEEE, zlib variant) covers the
 * payload bytes. Loaders verify the kind, version, declared size
 * (truncation) and checksum (corruption) before parsing, and still
 * accept legacy v0 files — payloads written before the envelope
 * existed — unless LoadOptions says otherwise. Checkpoint payloads
 * remain plain JSON: `tail -n +2 ck | jq .`.
 *
 * Each artifact kind is one row, a Codec<T> specialization: its
 * FileKind, payload writer, payload parser and validator. Every kind
 * goes through the same four calls, serialize / tryParse / tryLoad /
 * trySave, and every failure comes back as a typed IoStatus
 * (ParseError, VersionMismatch, ChecksumMismatch, IoError,
 * ValidationError).
 */

#ifndef GPUPM_CORE_MODEL_IO_HH
#define GPUPM_CORE_MODEL_IO_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/numio.hh"
#include "core/io_status.hh"
#include "core/resilient.hh"
#include "core/validate.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

/** Artifact kind carried by a file. */
enum class FileKind
{
    Model,
    Campaign,
    Checkpoint,
    Scoreboard,
    FleetShard, ///< one shard's device outcomes (src/fleet)
    Fleet,      ///< merged fleet scoreboard (src/fleet)
};

/** Envelope token of a file kind ("model" | "campaign" | ...). */
std::string_view fileKindName(FileKind kind);

/** Loader policy knobs. */
struct LoadOptions
{
    /** Accept legacy v0 payloads (no envelope, no checksum). */
    bool allow_legacy = true;
    /**
     * Run the core/validate physical-plausibility checks after
     * parsing and fail with ValidationError when they find errors.
     */
    bool validate = false;
};

/** Wrap a payload in the versioned, checksummed v2 envelope. */
std::string wrapEnvelope(FileKind kind, const std::string &payload);

/**
 * Verify and strip a v2 envelope of the expected kind: magic, kind,
 * version, declared payload size and CRC32 are checked in trust order
 * and the payload returned. Typed errors (ParseError /
 * VersionMismatch / ChecksumMismatch), never an exception.
 */
IoExpected<std::string> tryUnwrapEnvelope(const std::string &text,
                                          FileKind want);

/** Read a whole file as bytes (typed IoError on failure). */
IoExpected<std::string> tryReadFile(const std::string &path);

/**
 * Write a file crash-safely: the bytes go to `path + ".tmp"` first
 * and are renamed into place (atomic within a POSIX directory), so an
 * interrupted writer can never leave a truncated file at `path`. The
 * value is always `true`.
 */
IoExpected<bool> tryWriteFileAtomic(const std::string &path,
                                    const std::string &text);

/**
 * Sniff the artifact kind of file content: the v2 envelope's kind
 * token, or the legacy payload magic. ParseError when it is neither.
 */
IoExpected<FileKind> detectFileKind(const std::string &text);

// -- Payload parsing -------------------------------------------------

/**
 * Unwinding channel of the payload parsers: parsing is deeply nested
 * and almost every step can fail, so a failure travels as this
 * exception and tryParse turns it into an IoStatus. It never escapes
 * the typed API.
 */
struct ParseFail
{
    IoStatus status;
};

template <typename... Args>
[[noreturn]] void
failParse(IoErrc code, Args &&...args)
{
    throw ParseFail{
        {code, detail::concat(std::forward<Args>(args)...)}};
}

/**
 * Upper bound on any count declared inside a file. Honest artifacts
 * are far below it (83 benchmarks, a few hundred V-F configurations);
 * a fuzzed size field must not be able to drive allocation.
 */
constexpr std::size_t kMaxCount = 100000;

/** A device kind read from a file (ParseError when out of range). */
gpu::DeviceKind deviceKindOf(long kind);

/** Whitespace-token scanner for the text payloads. */
class TokenScanner
{
  public:
    explicit TokenScanner(const std::string &text) : text_(text) {}

    bool
    atEnd()
    {
        skipSpace();
        return pos_ == text_.size();
    }

    std::string_view
    next(const char *what)
    {
        skipSpace();
        if (pos_ == text_.size())
            failParse(IoErrc::ParseError,
                      "unexpected end of input while reading ", what);
        const std::size_t start = pos_;
        while (pos_ < text_.size() && !isSpace(text_[pos_]))
            ++pos_;
        return std::string_view(text_).substr(start, pos_ - start);
    }

    void
    expect(std::string_view word)
    {
        const auto tok = next(
                detail::concat("keyword '", word, "'").c_str());
        if (tok != word)
            failParse(IoErrc::ParseError, "expected '", word,
                      "', got '", tok, "'");
    }

    /** A finite double ("nan"/"inf" tokens are a parse error). */
    double
    number(const char *what)
    {
        const auto tok = next(what);
        double v = 0.0;
        if (!numio::parseDouble(tok, v) || !std::isfinite(v))
            failParse(IoErrc::ParseError,
                      "bad or non-finite number for ", what, ": '",
                      tok, "'");
        return v;
    }

    long
    integer(const char *what)
    {
        const auto tok = next(what);
        long v = 0;
        if (!numio::parseLong(tok, v))
            failParse(IoErrc::ParseError, "bad integer for ", what,
                      ": '", tok, "'");
        return v;
    }

    int
    intValue(const char *what)
    {
        const long v = integer(what);
        if (v < -2147483647L || v > 2147483647L)
            failParse(IoErrc::ParseError, what, " out of range: ", v);
        return static_cast<int>(v);
    }

    /** A declared element count, bounded so it cannot drive OOM. */
    std::size_t
    count(const char *what, std::size_t max = kMaxCount)
    {
        const long v = integer(what);
        if (v < 0 || static_cast<std::size_t>(v) > max)
            failParse(IoErrc::ParseError, "implausible ", what, ": ",
                      v);
        return static_cast<std::size_t>(v);
    }

    /**
     * The rest of the current line after the one space that follows
     * the last token: free text such as a message, possibly empty.
     */
    std::string_view
    restOfLine(const char *what)
    {
        if (pos_ == text_.size() || text_[pos_] != ' ')
            failParse(IoErrc::ParseError, "missing ", what);
        const std::size_t start = pos_ + 1;
        pos_ = std::min(text_.find('\n', start), text_.size());
        return std::string_view(text_).substr(start, pos_ - start);
    }

  private:
    static bool
    isSpace(char c)
    {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r';
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/**
 * The payload of file content: the verified envelope's, which must
 * hold a `want`, or the whole text when it is a legacy payload and
 * opts accepts those. Throws ParseFail.
 */
std::string payloadOf(const std::string &text, FileKind want,
                      const LoadOptions &opts);

/**
 * Run one parsing step and return its value, or the typed error it
 * failed with. An exception a parser lets slip on hostile input (an
 * assert in a constructor, say) is a ParseError too.
 */
template <typename Step>
auto
typed(Step &&step) -> IoExpected<decltype(step())>
{
    try {
        return step();
    } catch (const ParseFail &f) {
        return f.status;
    } catch (const std::exception &e) {
        return IoStatus{IoErrc::ParseError, e.what()};
    }
}

// -- Artifact rows ---------------------------------------------------

/**
 * One row of the artifact table, specialized once per kind:
 *   kind      the envelope's FileKind;
 *   write     the payload writer (serialize wraps it in the envelope);
 *   parse     the payload parser, failing through failParse;
 *   validate  what LoadOptions::validate runs on a parsed value.
 * The fleet shard's row lives in fleet/shard_io.hh.
 */
template <typename T>
struct Codec;

template <>
struct Codec<DvfsPowerModel>
{
    static constexpr FileKind kind = FileKind::Model;
    static constexpr auto validate = &validateModel;
    static std::string write(const DvfsPowerModel &model);
    static DvfsPowerModel parse(const std::string &payload);
};

template <>
struct Codec<TrainingData>
{
    static constexpr FileKind kind = FileKind::Campaign;
    static constexpr auto validate = &validateTrainingData;
    static std::string write(const TrainingData &data);
    static TrainingData parse(const std::string &payload);
};

/**
 * Checkpoint doubles are written at round-trip precision, so a
 * resumed campaign reproduces an uninterrupted one bit for bit.
 */
template <>
struct Codec<CampaignCheckpoint>
{
    static constexpr FileKind kind = FileKind::Checkpoint;
    static constexpr auto validate = &validateCheckpoint;
    static std::string write(const CampaignCheckpoint &ck);
    static CampaignCheckpoint parse(const std::string &payload);
};

/**
 * Scoreboards are written with their residual samples; the legacy
 * form is the raw JSON, summary-only or not, that `gpupm audit
 * --json` prints and bench/golden/ stores.
 */
template <>
struct Codec<obs::Scoreboard>
{
    static constexpr FileKind kind = FileKind::Scoreboard;
    static constexpr auto validate = &validateScoreboard;
    static std::string write(const obs::Scoreboard &sb);
    static obs::Scoreboard parse(const std::string &payload);
};

// -- The one path every kind takes -----------------------------------

/** A file's content: the row's payload inside the v2 envelope. */
template <typename T>
std::string
serialize(const T &value)
{
    return wrapEnvelope(Codec<T>::kind, Codec<T>::write(value));
}

/**
 * Parse file content: unwrap the envelope (or accept a legacy
 * payload), parse the payload, and validate it when opts asks.
 * Payload errors name their kind: "scoreboard: missing field
 * 'provenance'".
 */
template <typename T>
IoExpected<T>
tryParse(const std::string &text, const LoadOptions &opts = {})
{
    return typed([&] {
        const std::string payload =
                payloadOf(text, Codec<T>::kind, opts);
        T value = [&] {
            try {
                return Codec<T>::parse(payload);
            } catch (const ParseFail &f) {
                failParse(f.status.code, fileKindName(Codec<T>::kind),
                          ": ", f.status.message);
            }
        }();
        if (opts.validate) {
            GPUPM_TRACE_SPAN("io", "io.validate");
            const ValidationReport report = Codec<T>::validate(value);
            if (!report.ok())
                failParse(IoErrc::ValidationError, report.summary());
        }
        return value;
    });
}

/** Read and parse a file; a parse error names the path. */
template <typename T>
IoExpected<T>
tryLoad(const std::string &path, const LoadOptions &opts = {})
{
    GPUPM_TRACE_SPAN_NAMED(span, "io", "io.load");
    span.arg("path", path);
    span.arg("kind", fileKindName(Codec<T>::kind));
    const IoExpected<std::string> text = tryReadFile(path);
    if (!text.ok()) {
        obs::ioLoadFailuresTotal().inc();
        return text.error();
    }
    IoExpected<T> res = tryParse<T>(text.value(), opts);
    if (!res.ok()) {
        obs::ioLoadFailuresTotal().inc();
        return IoStatus{res.error().code,
                        detail::concat("'", path, "': ",
                                       res.error().message)};
    }
    obs::ioLoadsTotal().inc();
    return res;
}

/** Write a file crash-safely (tryWriteFileAtomic). */
template <typename T>
IoExpected<bool>
trySave(const T &value, const std::string &path)
{
    return tryWriteFileAtomic(path, serialize(value));
}

// -- Forwards kept for perfbench/ -------------------------------------

inline std::string
serializeModel(const DvfsPowerModel &model)
{
    return serialize(model);
}

inline IoExpected<DvfsPowerModel>
tryParseModel(const std::string &text, const LoadOptions &opts = {})
{
    return tryParse<DvfsPowerModel>(text, opts);
}

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_MODEL_IO_HH
