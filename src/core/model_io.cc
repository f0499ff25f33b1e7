#include "model_io.hh"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/checksum.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "core/validate.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace model
{

std::string_view
ioErrcName(IoErrc code)
{
    switch (code) {
      case IoErrc::IoError: return "io-error";
      case IoErrc::ParseError: return "parse-error";
      case IoErrc::VersionMismatch: return "version-mismatch";
      case IoErrc::ChecksumMismatch: return "checksum-mismatch";
      case IoErrc::ValidationError: return "validation-error";
    }
    return "unknown";
}

std::string_view
fileKindName(FileKind kind)
{
    switch (kind) {
      case FileKind::Model: return "model";
      case FileKind::Campaign: return "campaign";
      case FileKind::Checkpoint: return "checkpoint";
      case FileKind::Scoreboard: return "scoreboard";
      case FileKind::FleetShard: return "fleetshard";
      case FileKind::Fleet: return "fleet";
    }
    return "unknown";
}

namespace
{

/**
 * Internal unwinding channel of the parsers: parsing is deeply
 * recursive and almost every step can fail, so the failure travels as
 * an exception and is converted to an IoExpected error exactly once,
 * at the try* boundary. It never escapes this translation unit.
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
/** Upper bound on benchmarks x configurations cells. */
constexpr std::size_t kMaxCells = 10000000;

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

gpu::DeviceKind
deviceKindOf(long kind)
{
    if (kind < 0 || kind > 2)
        failParse(IoErrc::ParseError, "bad device kind ", kind);
    return static_cast<gpu::DeviceKind>(kind);
}

// -- v2 envelope -----------------------------------------------------

constexpr std::string_view kEnvelopeMagic = "gpupm-file";

struct Envelope
{
    FileKind kind = FileKind::Model;
    std::string payload;
};

bool
hasEnvelope(const std::string &text)
{
    return text.rfind(kEnvelopeMagic, 0) == 0;
}

FileKind
fileKindOf(std::string_view token)
{
    for (FileKind k : {FileKind::Model, FileKind::Campaign,
                       FileKind::Checkpoint, FileKind::Scoreboard,
                       FileKind::FleetShard, FileKind::Fleet})
        if (token == fileKindName(k))
            return k;
    failParse(IoErrc::ParseError, "unknown artifact kind '", token,
              "' in envelope");
}

/**
 * Verify and strip the envelope, in trust order: kind, version,
 * declared payload size (truncation), checksum (corruption). Only
 * then does the payload reach a parser.
 */
Envelope
unwrapEnvelope(const std::string &text)
{
    const std::size_t eol = text.find('\n');
    if (eol == std::string::npos)
        failParse(IoErrc::ParseError,
                  "envelope header line is not terminated");
    const std::string header = text.substr(0, eol);

    TokenScanner s(header);
    s.expect(kEnvelopeMagic);
    Envelope env;
    env.kind = fileKindOf(s.next("artifact kind"));
    const auto version = s.next("format version");
    if (version != "v2")
        failParse(IoErrc::VersionMismatch, "unsupported ",
                  fileKindName(env.kind), " file version '", version,
                  "' (this build reads v2 and legacy v0)");
    s.expect("crc32");
    std::uint32_t declared_crc = 0;
    const auto crc_tok = s.next("crc32 value");
    if (!checksum::parseCrc32Hex(crc_tok, declared_crc))
        failParse(IoErrc::ParseError, "bad crc32 field '", crc_tok,
                  "'");
    s.expect("bytes");
    const long declared_bytes = s.integer("payload size");
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing tokens in envelope header");

    env.payload = text.substr(eol + 1);
    if (declared_bytes < 0 ||
        static_cast<std::size_t>(declared_bytes) != env.payload.size())
        failParse(IoErrc::ParseError, "envelope declares ",
                  declared_bytes, " payload bytes but ",
                  env.payload.size(), " are present (truncated or "
                  "trailing data)");

    const std::uint32_t actual_crc = checksum::crc32(env.payload);
    if (actual_crc != declared_crc)
        failParse(IoErrc::ChecksumMismatch, "payload crc32 ",
                  checksum::crc32Hex(actual_crc),
                  " does not match declared ",
                  checksum::crc32Hex(declared_crc));
    return env;
}

// -- File access -----------------------------------------------------

IoExpected<std::string>
tryReadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return IoStatus{IoErrc::IoError,
                        detail::concat("cannot open '", path,
                                       "' for reading")};
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        return IoStatus{IoErrc::IoError,
                        detail::concat("read from '", path,
                                       "' failed")};
    return os.str();
}

IoExpected<bool>
tryWriteFile(const std::string &path, const std::string &text)
{
    GPUPM_TRACE_SPAN_NAMED(span, "io", "io.write");
    span.arg("path", path);
    span.arg("bytes", (long)text.size());
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        obs::ioSaveFailuresTotal().inc();
        return IoStatus{IoErrc::IoError,
                        detail::concat("cannot open '", path,
                                       "' for writing")};
    }
    out << text;
    out.flush();
    if (!out) {
        obs::ioSaveFailuresTotal().inc();
        return IoStatus{IoErrc::IoError,
                        detail::concat("write to '", path,
                                       "' failed")};
    }
    obs::ioSavesTotal().inc();
    return true;
}

// -- Model payload ---------------------------------------------------

DvfsPowerModel
parseModelPayload(const std::string &payload)
{
    TokenScanner s(payload);
    s.expect("gpupm-model");
    const auto version = s.next("model payload version");
    if (version != "v1")
        failParse(IoErrc::VersionMismatch,
                  "unsupported model payload version '", version,
                  "'");

    s.expect("device");
    const gpu::DeviceKind kind =
            deviceKindOf(s.integer("device kind"));

    s.expect("reference");
    gpu::FreqConfig ref;
    ref.core_mhz = s.intValue("reference core MHz");
    ref.mem_mhz = s.intValue("reference memory MHz");

    s.expect("beta");
    ModelParams p;
    p.beta0 = s.number("beta0");
    p.beta1 = s.number("beta1");
    p.beta2 = s.number("beta2");
    p.beta3 = s.number("beta3");

    s.expect("omega");
    for (double &w : p.omega)
        w = s.number("omega coefficient");

    s.expect("voltages");
    const std::size_t n = s.count("voltage pair count");
    DvfsPowerModel m(kind, ref, p);
    for (std::size_t i = 0; i < n; ++i) {
        gpu::FreqConfig cfg;
        cfg.core_mhz = s.intValue("voltage-table core MHz");
        cfg.mem_mhz = s.intValue("voltage-table memory MHz");
        VoltagePair v;
        v.core = s.number("core voltage");
        v.mem = s.number("memory voltage");
        if (v.core <= 0.0 || v.mem <= 0.0)
            failParse(IoErrc::ParseError,
                      "non-positive voltage at (", cfg.core_mhz,
                      ", ", cfg.mem_mhz, ") MHz");
        m.setVoltages(cfg, v);
    }
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing content after the voltage table");
    return m;
}

// -- Campaign payload ------------------------------------------------

TrainingData
parseCampaignPayload(const std::string &payload)
{
    TokenScanner s(payload);
    s.expect("gpupm-campaign");
    const auto version = s.next("campaign payload version");
    if (version != "v1")
        failParse(IoErrc::VersionMismatch,
                  "unsupported campaign payload version '", version,
                  "'");

    TrainingData data;
    s.expect("device");
    data.device = deviceKindOf(s.integer("device kind"));

    s.expect("reference");
    data.reference.core_mhz = s.intValue("reference core MHz");
    data.reference.mem_mhz = s.intValue("reference memory MHz");

    s.expect("configs");
    const std::size_t nc = s.count("configuration count");
    data.configs.resize(nc);
    for (auto &cfg : data.configs) {
        cfg.core_mhz = s.intValue("config core MHz");
        cfg.mem_mhz = s.intValue("config memory MHz");
    }

    s.expect("benchmarks");
    const std::size_t nb = s.count("benchmark count");
    if (nb != 0 && nc > kMaxCells / nb)
        failParse(IoErrc::ParseError, "implausible campaign size: ",
                  nb, " benchmarks x ", nc, " configurations");
    data.utils.resize(nb);
    data.power_w.assign(nb, std::vector<double>(nc));
    for (std::size_t b = 0; b < nb; ++b) {
        for (double &u : data.utils[b])
            u = s.number("utilization");
        for (double &p : data.power_w[b])
            p = s.number("power sample");
    }
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing content after the benchmark rows");
    return data;
}

// -- JSON payloads (checkpoint, scoreboard) --------------------------
// The writers emit a fixed schema; common/json reads it back as general
// JSON, so checkpoints stay readable by standard tooling
// (`tail -n +2 ck | jq .`) and edits by such tooling stay readable by
// us. The accessors turn any schema mismatch into a ParseError.

json::Value
parseJson(const std::string &payload)
{
    json::Value root;
    json::Error err;
    if (!json::parse(payload, root, err))
        failParse(IoErrc::ParseError, err.message());
    return root;
}

const json::Value &
at(const json::Value &obj, const char *field)
{
    if (obj.kind != json::Value::Kind::Object)
        failParse(IoErrc::ParseError, "expected object around '", field,
                  "'");
    const json::Value *v = obj.find(field);
    if (!v)
        failParse(IoErrc::ParseError, "missing field '", field, "'");
    return *v;
}

double
num(const json::Value &v)
{
    if (v.kind != json::Value::Kind::Number)
        failParse(IoErrc::ParseError, "expected a number");
    return v.number;
}

long
integer(const json::Value &v)
{
    const double d = num(v);
    if (!(d >= -9.2e18 && d <= 9.2e18))
        failParse(IoErrc::ParseError, "integer field out of range");
    return static_cast<long>(d);
}

int
intOf(const json::Value &v, const char *what)
{
    const long x = integer(v);
    if (x < -2147483647L || x > 2147483647L)
        failParse(IoErrc::ParseError, what, " out of range");
    return static_cast<int>(x);
}

const std::string &
str(const json::Value &v)
{
    if (v.kind != json::Value::Kind::String)
        failParse(IoErrc::ParseError, "expected a string");
    return v.str;
}

const std::vector<json::Value> &
arr(const json::Value &v)
{
    if (v.kind != json::Value::Kind::Array)
        failParse(IoErrc::ParseError, "expected an array");
    return v.array;
}

gpu::FreqConfig
configOf(const json::Value &v)
{
    const auto &pair = arr(v);
    if (pair.size() != 2)
        failParse(IoErrc::ParseError, "a config is a [core, mem] pair");
    return {intOf(pair[0], "core clock"), intOf(pair[1], "mem clock")};
}

void
putConfig(std::ostringstream &os, const gpu::FreqConfig &cfg)
{
    os << "[" << std::to_string(cfg.core_mhz) << ","
       << std::to_string(cfg.mem_mhz) << "]";
}

CampaignCheckpoint
parseCheckpointPayload(const std::string &payload)
{
    const json::Value root = parseJson(payload);
    if (str(at(root, "format")) != "gpupm-checkpoint" ||
        integer(at(root, "version")) != 1)
        failParse(IoErrc::VersionMismatch,
                  "not a gpupm campaign checkpoint (or unsupported "
                  "checkpoint schema version)");

    CampaignCheckpoint ck;
    const double seed = num(at(root, "seed"));
    if (!(seed >= 0.0 && seed < 18446744073709551616.0))
        failParse(IoErrc::ParseError, "bad seed");
    ck.seed = static_cast<std::uint64_t>(seed);
    ck.device = deviceKindOf(integer(at(root, "device")));
    ck.reference = configOf(at(root, "reference"));
    if (arr(at(root, "configs")).size() > kMaxCount)
        failParse(IoErrc::ParseError, "implausible configuration count");
    for (const auto &v : arr(at(root, "configs")))
        ck.configs.push_back(configOf(v));
    for (const auto &v : arr(at(root, "benchmarks")))
        ck.benchmark_names.push_back(str(v));

    const std::size_t nb = ck.benchmark_names.size();
    const std::size_t nc = ck.configs.size();
    if (nb > kMaxCount || (nb != 0 && nc > kMaxCells / nb))
        failParse(IoErrc::ParseError, "implausible campaign size");

    for (const auto &v : arr(at(root, "utils_done")))
        ck.utils_done.push_back(num(v) != 0.0 ? 1 : 0);
    if (ck.utils_done.size() != nb)
        failParse(IoErrc::ParseError, "utils_done size mismatch");

    for (const auto &row : arr(at(root, "utils"))) {
        if (arr(row).size() != gpu::kNumComponents)
            failParse(IoErrc::ParseError, "bad utilization row");
        gpu::ComponentArray u{};
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            u[i] = num(row.array[i]);
        ck.utils.push_back(u);
    }
    if (ck.utils.size() != nb)
        failParse(IoErrc::ParseError, "utils size mismatch");

    for (const auto &row : arr(at(root, "power_done"))) {
        std::vector<char> flags;
        for (const auto &v : arr(row))
            flags.push_back(num(v) != 0.0 ? 1 : 0);
        if (flags.size() != nc)
            failParse(IoErrc::ParseError,
                      "power_done row size mismatch");
        ck.power_done.push_back(std::move(flags));
    }
    if (ck.power_done.size() != nb)
        failParse(IoErrc::ParseError, "power_done size mismatch");

    for (const auto &row : arr(at(root, "power_w"))) {
        std::vector<double> vals;
        for (const auto &v : arr(row))
            vals.push_back(num(v));
        if (vals.size() != nc)
            failParse(IoErrc::ParseError, "power row size mismatch");
        ck.power_w.push_back(std::move(vals));
    }
    if (ck.power_w.size() != nb)
        failParse(IoErrc::ParseError, "power size mismatch");

    const json::Value &r = at(root, "report");
    ck.report.cells_total = integer(at(r, "cells_total"));
    ck.report.cells_done = integer(at(r, "cells_done"));
    ck.report.cells_resumed = integer(at(r, "cells_resumed"));
    ck.report.cells_failed = integer(at(r, "cells_failed"));
    ck.report.faults_injected = integer(at(r, "faults_injected"));
    ck.report.totals.attempts = integer(at(r, "attempts"));
    ck.report.totals.retries = integer(at(r, "retries"));
    ck.report.totals.timeouts = integer(at(r, "timeouts"));
    ck.report.totals.call_failures = integer(at(r, "call_failures"));
    ck.report.totals.corrupt_samples =
            integer(at(r, "corrupt_samples"));
    ck.report.totals.outliers_rejected =
            integer(at(r, "outliers_rejected"));
    ck.report.totals.quarantined_calls =
            integer(at(r, "quarantined_calls"));
    ck.report.totals.backoff_total_s = num(at(r, "backoff_total_s"));
    for (const auto &v : arr(at(r, "quarantined")))
        ck.report.quarantined.push_back(configOf(v));
    for (const auto &v : arr(at(r, "benchmark_reports"))) {
        BenchmarkReport br;
        br.name = str(at(v, "name"));
        br.retries = integer(at(v, "retries"));
        br.call_failures = integer(at(v, "call_failures"));
        br.timeouts = integer(at(v, "timeouts"));
        br.outliers_rejected = integer(at(v, "outliers_rejected"));
        br.corrupt_samples = integer(at(v, "corrupt_samples"));
        br.faults_injected = integer(at(v, "faults_injected"));
        ck.report.benchmarks.push_back(std::move(br));
    }
    if (ck.report.benchmarks.size() != nb)
        failParse(IoErrc::ParseError, "benchmark report size mismatch");
    return ck;
}

// -- Scoreboard payload (JSON, schema gpupm_scoreboard_version 1) ----

obs::ScoreStats
scoreStatsOf(const json::Value &v)
{
    obs::ScoreStats st;
    const long n = integer(at(v, "samples"));
    if (n < 0 || static_cast<std::size_t>(n) > kMaxCells)
        failParse(IoErrc::ParseError, "implausible sample count ", n);
    st.samples = n;
    st.mae_pct = num(at(v, "mae_pct"));
    st.rmse_w = num(at(v, "rmse_w"));
    st.max_err_pct = num(at(v, "max_err_pct"));
    st.mean_measured_w = num(at(v, "mean_measured_w"));
    return st;
}

obs::Scoreboard
parseScoreboardPayload(const std::string &payload)
{
    const json::Value root = parseJson(payload);
    if (integer(at(root, "gpupm_scoreboard_version")) != 1)
        failParse(IoErrc::VersionMismatch,
                  "unsupported scoreboard schema version (this build "
                  "reads version 1)");

    obs::Scoreboard sb;
    const json::Value &prov = at(root, "provenance");
    sb.provenance.version = str(at(prov, "version"));
    sb.provenance.build_type = str(at(prov, "build_type"));
    sb.provenance.device = str(at(prov, "device"));
    sb.provenance.timestamp = str(at(prov, "timestamp"));
    // Optional: scoreboards written before the build-info extension
    // carry neither field.
    if (const json::Value *git = prov.find("git_sha"))
        sb.provenance.git_sha = str(*git);
    if (const json::Value *cxx = prov.find("compiler"))
        sb.provenance.compiler = str(*cxx);

    sb.device = static_cast<int>(
            deviceKindOf(integer(at(root, "device"))));
    sb.device_name = str(at(root, "device_name"));
    sb.reference = configOf(at(root, "reference"));
    sb.overall = scoreStatsOf(at(root, "summary"));

    const auto &apps = arr(at(root, "per_app"));
    if (apps.size() > kMaxCount)
        failParse(IoErrc::ParseError, "implausible per-app row count");
    for (const auto &v : apps)
        sb.per_app.push_back({str(at(v, "app")), scoreStatsOf(v)});

    const auto &cfgs = arr(at(root, "per_config"));
    if (cfgs.size() > kMaxCount)
        failParse(IoErrc::ParseError,
                  "implausible per-config row count");
    for (const auto &v : cfgs)
        sb.per_config.push_back(
                {gpu::FreqConfig{intOf(at(v, "core_mhz"), "core clock"),
                                 intOf(at(v, "mem_mhz"), "mem clock")},
                 scoreStatsOf(v)});

    for (const auto &[key, out] :
         {std::pair<const char *, std::vector<obs::MarginalScore> *>{
                  "core_marginal", &sb.core_marginal},
          std::pair<const char *, std::vector<obs::MarginalScore> *>{
                  "mem_marginal", &sb.mem_marginal}}) {
        const auto &rows = arr(at(root, key));
        if (rows.size() > kMaxCount)
            failParse(IoErrc::ParseError,
                      "implausible marginal row count");
        for (const auto &v : rows)
            out->push_back({intOf(at(v, "mhz"), "marginal clock"),
                            scoreStatsOf(v)});
    }

    const auto &bases = arr(at(root, "baselines"));
    if (bases.size() > kMaxCount)
        failParse(IoErrc::ParseError, "implausible baseline count");
    for (const auto &v : bases)
        sb.baselines.push_back(
                {str(at(v, "name")), num(at(v, "mae_pct"))});

    // Raw residuals are optional: golden scoreboards are summary-only.
    if (const json::Value *samples = root.find("samples")) {
        const auto &rows = arr(*samples);
        if (rows.size() > kMaxCells)
            failParse(IoErrc::ParseError,
                      "implausible residual count");
        for (const auto &v : rows) {
            obs::ResidualSample s;
            s.app = str(at(v, "app"));
            s.cfg = {intOf(at(v, "core_mhz"), "core clock"),
                     intOf(at(v, "mem_mhz"), "mem clock")};
            s.measured_w = num(at(v, "measured_w"));
            s.predicted_w = num(at(v, "predicted_w"));
            s.constant_w = num(at(v, "constant_w"));
            const auto &comp = arr(at(v, "component_w"));
            if (comp.size() != gpu::kNumComponents)
                failParse(IoErrc::ParseError,
                          "bad component vector size ", comp.size());
            for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
                s.component_w[i] = num(comp[i]);
            if (const json::Value *bw = v.find("baseline_w"))
                for (const auto &b : arr(*bw))
                    s.baseline_w.emplace_back(str(at(b, "name")),
                                              num(at(b, "w")));
            sb.samples.push_back(std::move(s));
        }
    }
    return sb;
}

// -- Shared load policy ----------------------------------------------

/**
 * The one place the loading policy lives: unwrap (or accept legacy),
 * parse, optionally validate, and convert the internal unwinding
 * channel into a typed result.
 */
template <typename T>
IoExpected<T>
parseWithPolicy(const std::string &text, FileKind want,
                const LoadOptions &opts,
                T (*parse_payload)(const std::string &),
                ValidationReport (*validate)(const T &))
{
    try {
        std::string payload;
        if (hasEnvelope(text)) {
            Envelope env = unwrapEnvelope(text);
            if (env.kind != want)
                failParse(IoErrc::ParseError, "file holds a ",
                          fileKindName(env.kind), ", expected a ",
                          fileKindName(want));
            payload = std::move(env.payload);
        } else {
            if (!opts.allow_legacy)
                failParse(IoErrc::VersionMismatch,
                          "legacy (pre-envelope) ",
                          fileKindName(want),
                          " file: no version or checksum to verify");
            payload = text;
        }
        // Payload errors name the artifact: "scoreboard: missing
        // field 'provenance'".
        T value = [&] {
            try {
                return parse_payload(payload);
            } catch (const ParseFail &f) {
                failParse(f.status.code, fileKindName(want), ": ",
                          f.status.message);
            }
        }();
        if (opts.validate) {
            GPUPM_TRACE_SPAN("io", "io.validate");
            const ValidationReport report = validate(value);
            if (!report.ok())
                failParse(IoErrc::ValidationError, report.summary());
        }
        return value;
    } catch (const ParseFail &f) {
        return f.status;
    } catch (const std::exception &e) {
        // A parser slipping through on hostile input (e.g. an assert
        // in a constructor) still surfaces as a typed error, never as
        // an aborted process.
        return IoStatus{IoErrc::ParseError, e.what()};
    }
}

template <typename T>
IoExpected<T>
loadWithPolicy(const std::string &path, FileKind want,
               const LoadOptions &opts,
               T (*parse_payload)(const std::string &),
               ValidationReport (*validate)(const T &))
{
    GPUPM_TRACE_SPAN_NAMED(span, "io", "io.load");
    span.arg("path", path);
    span.arg("kind", fileKindName(want));
    auto text = tryReadFile(path);
    if (!text.ok()) {
        obs::ioLoadFailuresTotal().inc();
        return text.error();
    }
    auto res = parseWithPolicy<T>(text.value(), want, opts,
                                  parse_payload, validate);
    if (!res.ok()) {
        obs::ioLoadFailuresTotal().inc();
        return IoStatus{res.error().code,
                        detail::concat("'", path, "': ",
                                       res.error().message)};
    }
    obs::ioLoadsTotal().inc();
    return res;
}

} // namespace

std::string
wrapEnvelope(FileKind kind, const std::string &payload)
{
    std::string out(kEnvelopeMagic);
    out += " ";
    out += fileKindName(kind);
    out += " v2 crc32 ";
    out += checksum::crc32Hex(checksum::crc32(payload));
    out += " bytes ";
    out += std::to_string(payload.size());
    out += "\n";
    out += payload;
    return out;
}

IoExpected<std::string>
tryUnwrapEnvelope(const std::string &text, FileKind want)
{
    try {
        Envelope env = unwrapEnvelope(text);
        if (env.kind != want)
            failParse(IoErrc::ParseError, "file holds a ",
                      fileKindName(env.kind), ", expected a ",
                      fileKindName(want));
        return std::move(env.payload);
    } catch (const ParseFail &f) {
        return f.status;
    } catch (const std::exception &e) {
        return IoStatus{IoErrc::ParseError, e.what()};
    }
}

IoExpected<std::string>
tryReadFileText(const std::string &path)
{
    return tryReadFile(path);
}

IoExpected<bool>
tryWriteFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    const auto written = tryWriteFile(tmp, text);
    if (!written.ok())
        return written;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        return IoStatus{IoErrc::IoError,
                        detail::concat("cannot move '", tmp,
                                       "' into place at '", path,
                                       "': ", ec.message())};
    return true;
}

IoExpected<FileKind>
detectFileKind(const std::string &text)
{
    try {
        if (hasEnvelope(text)) {
            const std::size_t eol = text.find('\n');
            const std::string header =
                    eol == std::string::npos ? text
                                             : text.substr(0, eol);
            TokenScanner s(header);
            s.expect(kEnvelopeMagic);
            return fileKindOf(s.next("artifact kind"));
        }
        if (text.rfind("gpupm-model", 0) == 0)
            return FileKind::Model;
        if (text.rfind("gpupm-campaign", 0) == 0)
            return FileKind::Campaign;
        const std::size_t first =
                text.find_first_not_of(" \t\r\n");
        if (first != std::string::npos && text[first] == '{') {
            // Both legacy JSON payloads start with '{'; a scoreboard
            // leads with its version key, a checkpoint with "format".
            const auto probe = text.find(
                    "\"gpupm_scoreboard_version\"", first);
            if (probe != std::string::npos && probe < first + 40)
                return FileKind::Scoreboard;
            return FileKind::Checkpoint;
        }
        failParse(IoErrc::ParseError,
                  "unrecognized file content (neither a v2 envelope "
                  "nor a legacy gpupm artifact)");
    } catch (const ParseFail &f) {
        return f.status;
    }
}

// -- Models ----------------------------------------------------------

std::string
serializeModel(const DvfsPowerModel &model)
{
    return wrapEnvelope(FileKind::Model, model.serialize());
}

IoExpected<DvfsPowerModel>
tryParseModel(const std::string &text, const LoadOptions &opts)
{
    return parseWithPolicy<DvfsPowerModel>(
            text, FileKind::Model, opts, parseModelPayload,
            validateModel);
}

IoExpected<DvfsPowerModel>
tryLoadModel(const std::string &path, const LoadOptions &opts)
{
    return loadWithPolicy<DvfsPowerModel>(
            path, FileKind::Model, opts, parseModelPayload,
            validateModel);
}

IoExpected<bool>
trySaveModel(const DvfsPowerModel &model, const std::string &path)
{
    return tryWriteFile(path, serializeModel(model));
}

void
saveModel(const DvfsPowerModel &model, const std::string &path)
{
    const auto res = trySaveModel(model, path);
    GPUPM_FATAL_IF(!res.ok(), res.error().message);
}

DvfsPowerModel
loadModel(const std::string &path)
{
    auto res = tryLoadModel(path);
    GPUPM_FATAL_IF(!res.ok(), "cannot load model [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

// -- Training campaigns ----------------------------------------------

std::string
serializeTrainingData(const TrainingData &data)
{
    std::ostringstream os;
    os << "gpupm-campaign v1\n";
    os << "device " << std::to_string(static_cast<int>(data.device))
       << "\n";
    os << "reference " << std::to_string(data.reference.core_mhz)
       << " " << std::to_string(data.reference.mem_mhz) << "\n";
    os << "configs " << std::to_string(data.configs.size()) << "\n";
    for (const auto &cfg : data.configs)
        os << std::to_string(cfg.core_mhz) << " "
           << std::to_string(cfg.mem_mhz) << "\n";
    os << "benchmarks " << std::to_string(data.utils.size()) << "\n";
    for (std::size_t b = 0; b < data.utils.size(); ++b) {
        for (double u : data.utils[b])
            os << numio::formatDouble(u) << " ";
        os << "\n";
        for (double p : data.power_w[b])
            os << numio::formatDouble(p) << " ";
        os << "\n";
    }
    return wrapEnvelope(FileKind::Campaign, os.str());
}

IoExpected<TrainingData>
tryParseTrainingData(const std::string &text, const LoadOptions &opts)
{
    return parseWithPolicy<TrainingData>(
            text, FileKind::Campaign, opts, parseCampaignPayload,
            validateTrainingData);
}

IoExpected<TrainingData>
tryLoadTrainingData(const std::string &path, const LoadOptions &opts)
{
    return loadWithPolicy<TrainingData>(
            path, FileKind::Campaign, opts, parseCampaignPayload,
            validateTrainingData);
}

IoExpected<bool>
trySaveTrainingData(const TrainingData &data, const std::string &path)
{
    return tryWriteFile(path, serializeTrainingData(data));
}

TrainingData
deserializeTrainingData(const std::string &text)
{
    auto res = tryParseTrainingData(text);
    GPUPM_FATAL_IF(!res.ok(), "cannot parse campaign [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

void
saveTrainingData(const TrainingData &data, const std::string &path)
{
    const auto res = trySaveTrainingData(data, path);
    GPUPM_FATAL_IF(!res.ok(), res.error().message);
}

TrainingData
loadTrainingData(const std::string &path)
{
    auto res = tryLoadTrainingData(path);
    GPUPM_FATAL_IF(!res.ok(), "cannot load campaign [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

// -- Campaign checkpoints --------------------------------------------

std::string
serializeCampaignCheckpoint(const CampaignCheckpoint &ck)
{
    std::ostringstream os;
    os << "{\n";
    os << "\"format\":\"gpupm-checkpoint\",\n\"version\":1,\n";
    os << "\"seed\":" << std::to_string(ck.seed) << ",\n";
    os << "\"device\":"
       << std::to_string(static_cast<int>(ck.device)) << ",\n";
    os << "\"reference\":";
    putConfig(os, ck.reference);
    os << ",\n\"configs\":[";
    for (std::size_t i = 0; i < ck.configs.size(); ++i) {
        if (i)
            os << ",";
        putConfig(os, ck.configs[i]);
    }
    os << "],\n\"benchmarks\":[";
    for (std::size_t i = 0; i < ck.benchmark_names.size(); ++i) {
        if (i)
            os << ",";
        os << '"' << json::escape(ck.benchmark_names[i]) << '"';
    }
    os << "],\n\"utils_done\":[";
    for (std::size_t i = 0; i < ck.utils_done.size(); ++i)
        os << (i ? "," : "") << (ck.utils_done[i] ? 1 : 0);
    os << "],\n\"utils\":[";
    for (std::size_t b = 0; b < ck.utils.size(); ++b) {
        os << (b ? ",[" : "[");
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
            if (i)
                os << ",";
            os << numio::formatDouble(ck.utils[b][i]);
        }
        os << "]";
    }
    os << "],\n\"power_done\":[";
    for (std::size_t b = 0; b < ck.power_done.size(); ++b) {
        os << (b ? ",[" : "[");
        for (std::size_t c = 0; c < ck.power_done[b].size(); ++c)
            os << (c ? "," : "") << (ck.power_done[b][c] ? 1 : 0);
        os << "]";
    }
    os << "],\n\"power_w\":[";
    for (std::size_t b = 0; b < ck.power_w.size(); ++b) {
        os << (b ? ",\n[" : "\n[");
        for (std::size_t c = 0; c < ck.power_w[b].size(); ++c) {
            if (c)
                os << ",";
            os << numio::formatDouble(ck.power_w[b][c]);
        }
        os << "]";
    }
    const CampaignReport &r = ck.report;
    os << "],\n\"report\":{";
    os << "\"cells_total\":" << r.cells_total << ",";
    os << "\"cells_done\":" << r.cells_done << ",";
    os << "\"cells_resumed\":" << r.cells_resumed << ",";
    os << "\"cells_failed\":" << r.cells_failed << ",";
    os << "\"faults_injected\":" << r.faults_injected << ",\n";
    os << "\"attempts\":" << r.totals.attempts << ",";
    os << "\"retries\":" << r.totals.retries << ",";
    os << "\"timeouts\":" << r.totals.timeouts << ",";
    os << "\"call_failures\":" << r.totals.call_failures << ",";
    os << "\"corrupt_samples\":" << r.totals.corrupt_samples << ",";
    os << "\"outliers_rejected\":" << r.totals.outliers_rejected
       << ",";
    os << "\"quarantined_calls\":" << r.totals.quarantined_calls
       << ",";
    os << "\"backoff_total_s\":"
       << numio::formatDouble(r.totals.backoff_total_s);
    os << ",\n\"quarantined\":[";
    for (std::size_t i = 0; i < r.quarantined.size(); ++i) {
        if (i)
            os << ",";
        putConfig(os, r.quarantined[i]);
    }
    os << "],\n\"benchmark_reports\":[";
    for (std::size_t b = 0; b < r.benchmarks.size(); ++b) {
        const BenchmarkReport &br = r.benchmarks[b];
        os << (b ? ",\n{" : "\n{");
        os << "\"name\":\"" << json::escape(br.name) << '"';
        os << ",\"retries\":" << br.retries;
        os << ",\"call_failures\":" << br.call_failures;
        os << ",\"timeouts\":" << br.timeouts;
        os << ",\"outliers_rejected\":" << br.outliers_rejected;
        os << ",\"corrupt_samples\":" << br.corrupt_samples;
        os << ",\"faults_injected\":" << br.faults_injected;
        os << "}";
    }
    os << "]}\n}\n";
    return wrapEnvelope(FileKind::Checkpoint, os.str());
}

IoExpected<CampaignCheckpoint>
tryParseCampaignCheckpoint(const std::string &text,
                           const LoadOptions &opts)
{
    return parseWithPolicy<CampaignCheckpoint>(
            text, FileKind::Checkpoint, opts, parseCheckpointPayload,
            validateCheckpoint);
}

IoExpected<CampaignCheckpoint>
tryLoadCampaignCheckpoint(const std::string &path,
                          const LoadOptions &opts)
{
    return loadWithPolicy<CampaignCheckpoint>(
            path, FileKind::Checkpoint, opts, parseCheckpointPayload,
            validateCheckpoint);
}

IoExpected<bool>
trySaveCampaignCheckpoint(const CampaignCheckpoint &ck,
                          const std::string &path)
{
    // Write-then-rename so an interrupted write never corrupts an
    // existing checkpoint (rename within a directory is atomic on
    // POSIX filesystems).
    return tryWriteFileAtomic(path, serializeCampaignCheckpoint(ck));
}

CampaignCheckpoint
deserializeCampaignCheckpoint(const std::string &text)
{
    auto res = tryParseCampaignCheckpoint(text);
    GPUPM_FATAL_IF(!res.ok(), "cannot parse checkpoint [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

void
saveCampaignCheckpoint(const CampaignCheckpoint &ck,
                       const std::string &path)
{
    const auto res = trySaveCampaignCheckpoint(ck, path);
    GPUPM_FATAL_IF(!res.ok(), res.error().message);
}

CampaignCheckpoint
loadCampaignCheckpoint(const std::string &path)
{
    auto res = tryLoadCampaignCheckpoint(path);
    GPUPM_FATAL_IF(!res.ok(), "cannot load checkpoint [",
                   ioErrcName(res.error().code), "]: ",
                   res.error().message);
    return res.value();
}

// -- Accuracy scoreboards --------------------------------------------

std::string
serializeScoreboard(const obs::Scoreboard &sb, bool include_samples)
{
    return wrapEnvelope(FileKind::Scoreboard,
                        sb.toJson(include_samples));
}

IoExpected<obs::Scoreboard>
tryParseScoreboard(const std::string &text, const LoadOptions &opts)
{
    return parseWithPolicy<obs::Scoreboard>(
            text, FileKind::Scoreboard, opts, parseScoreboardPayload,
            validateScoreboard);
}

IoExpected<obs::Scoreboard>
tryLoadScoreboard(const std::string &path, const LoadOptions &opts)
{
    return loadWithPolicy<obs::Scoreboard>(
            path, FileKind::Scoreboard, opts, parseScoreboardPayload,
            validateScoreboard);
}

IoExpected<bool>
trySaveScoreboard(const obs::Scoreboard &sb, const std::string &path,
                  bool include_samples)
{
    return tryWriteFile(path, serializeScoreboard(sb, include_samples));
}

} // namespace model
} // namespace gpupm
