#include "shard_io.hh"

#include <sstream>
#include <string_view>

#include "common/checksum.hh"
#include "common/numio.hh"

namespace gpupm
{
namespace fleet
{

namespace
{

using model::IoErrc;
using model::IoExpected;
using model::IoStatus;

constexpr std::string_view kPayloadMagic = "gpupm-fleetshard-v1";

std::string
deviceLine(const DeviceSpec &spec)
{
    std::ostringstream os;
    os << spec.id << ' ' << static_cast<int>(spec.kind) << ' '
       << spec.seed << ' ' << (spec.poison_nan ? 1 : 0) << ' '
       << (spec.poison_config ? 1 : 0);
    return os.str();
}

/** Shard checkpoints have no legacy form: no envelope, no trust. */
constexpr model::LoadOptions kEnvelopeOnly{.allow_legacy = false};

/** A parsed checkpoint's result, once it is known to be `shard`'s. */
IoExpected<ShardResult>
checked(const IoExpected<ShardCheckpoint> &parsed,
        const FleetOptions &opts, const ShardSpec &shard)
{
    if (!parsed.ok())
        return parsed.error();
    const ShardCheckpoint &ck = parsed.value();
    const auto mismatch = [](std::string message) {
        return IoStatus{IoErrc::ValidationError, std::move(message)};
    };
    if (ck.fingerprint != fleetFingerprint(opts, shard))
        return mismatch("checkpoint fingerprint does not match this "
                        "fleet configuration");
    if (ck.result.index != shard.index)
        return mismatch("checkpoint is for a different shard");
    if (ck.result.outcomes.size() != shard.devices.size())
        return mismatch("checkpoint device count does not match the "
                        "shard");
    for (std::size_t i = 0; i < shard.devices.size(); ++i)
    {
        const DeviceOutcome &o = ck.result.outcomes[i];
        const DeviceSpec &spec = shard.devices[i];
        if (o.id != spec.id || o.kind != spec.kind)
            return mismatch(detail::concat(
                    "checkpoint outcome ", i, " is device ", o.id,
                    " (kind ", static_cast<int>(o.kind),
                    "), the shard's is device ", spec.id, " (kind ",
                    static_cast<int>(spec.kind), ")"));
    }
    ShardResult result = ck.result;
    result.resumed = true;
    return result;
}

} // namespace

std::string
shardCheckpointPath(const std::string &dir, int index)
{
    return dir + "/shard-" + std::to_string(index) + ".ck";
}

std::string
fleetFingerprint(const FleetOptions &opts, const ShardSpec &shard)
{
    std::ostringstream os;
    os << "fleet-fingerprint-v1\n"
       << opts.seed << ' ' << numio::formatDouble(opts.jitter_frac)
       << ' ' << opts.power_repetitions << ' '
       << numio::formatDouble(opts.min_duration_s) << ' '
       << opts.suite_stride << ' ' << opts.max_configs << ' '
       << opts.validation_apps << ' ' << opts.validation_configs
       << '\n'
       << "shard " << shard.index << '\n';
    for (const DeviceSpec &spec : shard.devices)
        os << deviceLine(spec) << '\n';
    return checksum::crc32Hex(
            checksum::crc32(os.str()));
}

model::IoExpected<ShardResult>
tryParseShardResult(const std::string &text, const FleetOptions &opts,
                    const ShardSpec &shard)
{
    return checked(model::tryParse<ShardCheckpoint>(text, kEnvelopeOnly),
                   opts, shard);
}

model::IoExpected<ShardResult>
tryLoadShardResult(const std::string &path, const FleetOptions &opts,
                   const ShardSpec &shard)
{
    return checked(model::tryLoad<ShardCheckpoint>(path, kEnvelopeOnly),
                   opts, shard);
}

} // namespace fleet

namespace model
{

using fleet::DeviceFailKind;
using fleet::DeviceOutcome;
using fleet::ShardCheckpoint;

std::string
Codec<ShardCheckpoint>::write(const ShardCheckpoint &ck)
{
    const fleet::ShardResult &result = ck.result;
    std::ostringstream os;
    os << fleet::kPayloadMagic << '\n'
       << "fingerprint " << ck.fingerprint << '\n'
       << "shard " << result.index << " attempts " << result.attempts
       << " devices " << result.outcomes.size() << '\n';
    for (const DeviceOutcome &o : result.outcomes)
    {
        os << "device " << o.id << ' ' << static_cast<int>(o.kind)
           << ' ' << (o.ok ? 1 : 0) << ' '
           << deviceFailKindName(o.fail) << ' ' << o.stats.samples
           << ' ' << numio::formatDouble(o.stats.mae_pct)
           << ' ' << numio::formatDouble(o.stats.rmse_w)
           << ' '
           << numio::formatDouble(o.stats.max_err_pct) << ' '
           << numio::formatDouble(o.stats.mean_measured_w)
           << ' ' << numio::formatDouble(o.fit_rmse_w) << ' '
           << o.fit_iterations << '\n';
        os << "message " << o.message << '\n';
    }
    return os.str();
}

ShardCheckpoint
Codec<ShardCheckpoint>::parse(const std::string &payload)
{
    TokenScanner s(payload);
    s.expect(fleet::kPayloadMagic);
    ShardCheckpoint ck;
    s.expect("fingerprint");
    ck.fingerprint = s.next("fingerprint");
    s.expect("shard");
    ck.result.index = s.intValue("shard index");
    s.expect("attempts");
    ck.result.attempts = s.intValue("attempt count");
    s.expect("devices");
    ck.result.outcomes.resize(s.count("device count"));
    for (DeviceOutcome &o : ck.result.outcomes)
    {
        s.expect("device");
        o.id = s.integer("device id");
        o.kind = deviceKindOf(s.integer("device kind"));
        o.ok = s.count("ok flag", 1) == 1;
        const std::string_view fail = s.next("failure kind");
        o.fail = fleet::deviceFailKindOf(fail);
        if (fleet::deviceFailKindName(o.fail) != fail)
            failParse(IoErrc::ParseError, "unknown failure kind '",
                      fail, "'");
        if (o.ok != (o.fail == DeviceFailKind::None))
            failParse(IoErrc::ParseError, "device ", o.id,
                      o.ok ? " is ok" : " failed",
                      " but its failure kind is '", fail, "'");
        o.stats.samples = static_cast<long>(s.count("sample count"));
        o.stats.mae_pct = s.number("MAE");
        o.stats.rmse_w = s.number("RMSE");
        o.stats.max_err_pct = s.number("max error");
        o.stats.mean_measured_w = s.number("mean measured power");
        o.fit_rmse_w = s.number("fit RMSE");
        o.fit_iterations = static_cast<int>(s.count("fit iterations"));
        s.expect("message");
        o.message = s.restOfLine("device message");
    }
    if (!s.atEnd())
        failParse(IoErrc::ParseError,
                  "trailing content after the device list");
    return ck;
}

} // namespace model
} // namespace gpupm
