/**
 * @file
 * Deterministic parser fuzz smoke test.
 *
 * The file loaders are a trust boundary: a corrupt artifact must come
 * back as a typed error, never as a crash, an assertion abort, an OOM
 * from a fuzzed size field, or a sanitizer finding. This tool applies
 * N seeded mutations (truncation, bit flips, byte stomps, splices,
 * "nan" smuggling, deletions, garbage, nesting bombs) to golden copies
 * of every reader surface — the model_io formats in both the v2
 * envelope and the legacy payload form, fleet shard checkpoints, and
 * the shared JSON reader on bench telemetry, Chrome trace and
 * /api/traces documents — and feeds every mutant to the matching
 * reader and to detectFileKind. Any exception escaping the typed API
 * fails the run.
 *
 * Runs as a plain test and, via scripts/reproduce_all.sh, under the
 * ASan+UBSan build. Fully deterministic: fixed seed, no time or
 * environment dependence.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/provenance.hh"
#include "common/random.hh"
#include "core/model_io.hh"
#include "core/resilient.hh"
#include "core/validate.hh"
#include "fleet/shard_io.hh"
#include "obs/scoreboard.hh"
#include "obs/trace.hh"
#include "obs/trace_store.hh"

namespace
{

using namespace gpupm;

constexpr int kMutantsPerFormat = 1000;
constexpr std::uint64_t kSeed = 0xF0221u;

model::DvfsPowerModel
goldenModel()
{
    model::ModelParams p;
    p.beta0 = 52.0;
    p.beta1 = 10.5;
    p.beta2 = 15.0;
    p.beta3 = 7.25;
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        p.omega[i] = 3.0 + static_cast<double>(i);
    model::DvfsPowerModel m(gpu::DeviceKind::GtxTitanX, {975, 3505},
                            p);
    m.setVoltages({975, 3505}, {1.0, 1.0});
    m.setVoltages({595, 3505}, {0.85, 1.0});
    m.setVoltages({975, 810}, {1.0, 0.9});
    m.setVoltages({595, 810}, {0.85, 0.9});
    return m;
}

model::TrainingData
goldenCampaign()
{
    model::TrainingData data;
    data.device = gpu::DeviceKind::GtxTitanX;
    data.reference = {975, 3505};
    data.configs = {{975, 3505}, {595, 3505}, {975, 810},
                    {595, 810}};
    for (int b = 0; b < 3; ++b) {
        gpu::ComponentArray u{};
        for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
            u[i] = b == 0 ? 0.0 : 0.1 * static_cast<double>(b + i);
        data.utils.push_back(u);
        std::vector<double> row;
        for (std::size_t c = 0; c < data.configs.size(); ++c)
            row.push_back(80.0 + 10.0 * b +
                          5.0 * static_cast<double>(c));
        data.power_w.push_back(row);
    }
    return data;
}

model::CampaignCheckpoint
goldenCheckpoint()
{
    model::CampaignCheckpoint ck;
    ck.seed = 7;
    ck.device = gpu::DeviceKind::GtxTitanX;
    ck.reference = {975, 3505};
    ck.configs = {{975, 3505}, {595, 3505}};
    ck.benchmark_names = {"add-sweep", "dram-stream"};
    ck.utils_done.push_back(1);
    ck.utils_done.push_back(0);
    for (int b = 0; b < 2; ++b) {
        gpu::ComponentArray u{};
        u[0] = 0.5 * b;
        ck.utils.push_back(u);
        std::vector<char> done;
        done.push_back(1);
        done.push_back(b == 0 ? 1 : 0);
        ck.power_done.push_back(done);
        ck.power_w.push_back({120.5, b == 0 ? 97.25 : 0.0});
    }
    ck.report.cells_total = 4;
    ck.report.cells_done = 3;
    for (const auto &name : ck.benchmark_names) {
        model::BenchmarkReport br;
        br.name = name;
        ck.report.benchmarks.push_back(br);
    }
    return ck;
}

obs::Scoreboard
goldenScoreboard()
{
    std::vector<obs::ResidualSample> samples;
    for (const char *app : {"stream", "dgemm"})
        for (int core : {595, 975})
            for (int mem : {810, 3505}) {
                obs::ResidualSample s;
                s.app = app;
                s.cfg = {core, mem};
                s.measured_w = 100.0 + core * 0.05 + mem * 0.01;
                s.predicted_w = s.measured_w * 1.05;
                s.constant_w = 40.0;
                for (std::size_t i = 0; i < s.component_w.size(); ++i)
                    s.component_w[i] = 0.5 * static_cast<double>(i);
                s.baseline_w = {{"abe", s.measured_w * 1.15}};
                samples.push_back(std::move(s));
            }
    obs::Scoreboard sb = obs::Scoreboard::fromSamples(
            1, "GTX Titan X", {975, 3505}, std::move(samples));
    // Pin the provenance (version, build type, git sha, compiler,
    // clock) so every build and every run fuzzes the same bytes.
    sb.provenance = common::Provenance{};
    sb.provenance.timestamp = "2026-01-01T00:00:00Z";
    return sb;
}

/** A bench telemetry document in the BENCH_<name>.json schema. */
std::string
goldenBenchJson(const std::string &provenance)
{
    return "{\"gpupm_bench_version\":1,\n\"name\":\"fig7_validation\","
           "\n\"provenance\":" + provenance +
           ",\n\"wall_ms\":887.667375,\n\"phases_ms\":{\"estimator\":"
           "767.951,\"sim\":29.365},\n\"cpu\":{\"samples\":212,"
           "\"dropped\":0,\"attributed_pct\":97.64,\"categories\":{"
           "\"estimator\":{\"samples\":188,\"share_pct\":88.68}}},\n"
           "\"stats\":{\"mae_pct_titanx\":5.476810819336169}}\n";
}

/** A span with args through the Chrome-trace exporter. */
std::string
goldenChromeTrace(const std::string &provenance)
{
    obs::TraceEvent span;
    span.name = "fuzz.root";
    span.cat = "cli";
    span.dur_us = 40;
    span.trace_id = span.span_id = 0x1234;
    span.args = {{"path", "a \"quoted\"\\path\n"}, {"bytes", "42"}};
    auto &tracer = obs::Tracer::global();
    tracer.enable();
    tracer.record(span);
    std::string doc = tracer.renderChromeTrace();
    tracer.disable();
    tracer.clear();
    // Pin the run's own provenance so every run fuzzes the same bytes.
    doc.erase(doc.rfind(",\"provenance\":"));
    return doc + ",\"provenance\":" + provenance + "}\n";
}

/** An /api/traces response over two stored traces. */
std::string
goldenTraceStoreJson()
{
    obs::TraceStore store;
    for (const std::uint64_t id : {0x1234u, 0x5678u}) {
        obs::TraceEvent span;
        span.name = "monitor.tick";
        span.cat = "monitor";
        span.trace_id = span.span_id = id;
        span.args = {{"note", "tab\there"}};
        store.offer({.trace_id = id,
                     .root_name = span.name,
                     .root_cat = span.cat,
                     .error = id == 0x5678u,
                     .spans = {span}});
    }
    return store.renderJson(obs::TraceQuery{});
}

/** A two-device shard result: one healthy device, one failed. */
fleet::ShardResult
goldenShardResult()
{
    fleet::ShardResult result;
    result.index = 0;
    result.outcomes.resize(2);
    result.outcomes[0].id = 0;
    result.outcomes[1].id = 1;
    result.outcomes[0].ok = true;
    result.outcomes[0].stats.mae_pct = 7.25;
    result.outcomes[1].fail = fleet::DeviceFailKind::CorruptData;
    result.outcomes[1].message = "campaign produced non-finite samples";
    return result;
}

std::string
mutate(const std::string &orig, Rng &rng)
{
    std::string s = orig;
    switch (rng.next() % 8) {
      case 0: // truncate
        s = s.substr(0, rng.next() % (s.size() + 1));
        break;
      case 1: // single bit flip
        if (!s.empty())
            s[rng.next() % s.size()] ^=
                    static_cast<char>(1 << (rng.next() % 8));
        break;
      case 2: // byte stomp
        if (!s.empty())
            s[rng.next() % s.size()] =
                    static_cast<char>(rng.next() % 256);
        break;
      case 3: { // splice a block of the file over another
        if (s.size() >= 2) {
            const std::size_t len = 1 + rng.next() % (s.size() / 2);
            const std::size_t from =
                    rng.next() % (s.size() - len + 1);
            const std::size_t to = rng.next() % (s.size() - len + 1);
            s.replace(to, len, s.substr(from, len));
        }
        break;
      }
      case 4: { // NaN smuggling over an arbitrary position
        if (!s.empty()) {
            const std::size_t pos = rng.next() % s.size();
            s.replace(pos, std::min<std::size_t>(3, s.size() - pos),
                      rng.next() % 2 ? "nan" : "inf");
        }
        break;
      }
      case 5: { // delete a range
        if (!s.empty()) {
            const std::size_t a = rng.next() % s.size();
            const std::size_t len = 1 + rng.next() % (s.size() - a);
            s.erase(a, len);
        }
        break;
      }
      case 6: // empty or pure garbage
        if (rng.next() % 2) {
            s.clear();
        } else {
            s.assign(rng.next() % 64,
                     static_cast<char>(rng.next() % 256));
        }
        break;
      case 7: { // nesting bomb: openers just around the cap or far past
        const std::size_t depth =
                rng.next() % 2 ? json::kMaxDepth - 2 + rng.next() % 5
                               : 100000;
        const char *opener = rng.next() % 2 ? "[" : "{\"k\":";
        std::string bomb;
        for (std::size_t i = 0; i < depth; ++i)
            bomb += opener;
        s.insert(rng.next() % (s.size() + 1), bomb);
        break;
      }
    }
    return s;
}

/**
 * Feed mutants of one golden text to one typed parser. Returns 0 when
 * every mutant came back as a value or a typed error; 1 when anything
 * escaped as an exception.
 */
template <typename ParseFn, typename ValidateFn>
int
fuzzFormat(const char *name, const std::string &golden,
           ParseFn parse, ValidateFn validate)
{
    // The unmutated golden must parse.
    {
        auto res = parse(golden);
        if (!res.ok()) {
            std::fprintf(stderr, "%s: golden does not parse: %s\n",
                         name, res.error().message.c_str());
            return 1;
        }
    }

    Rng rng(kSeed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerFormat; ++i) {
        const std::string mutant = mutate(golden, rng);
        try {
            auto res = parse(mutant);
            if (res.ok()) {
                ++accepted;
                // A surviving mutant still goes through validation;
                // the report must build without throwing.
                (void)validate(res.value()).summary();
            }
            (void)model::detectFileKind(mutant);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "%s: mutant %d escaped the typed API: %s\n",
                         name, i, e.what());
            return 1;
        } catch (...) {
            std::fprintf(stderr,
                         "%s: mutant %d threw a non-std exception\n",
                         name, i);
            return 1;
        }
    }
    std::printf("%s: %d mutants, %d parsed clean\n", name,
                kMutantsPerFormat, accepted);
    return 0;
}

} // namespace

int
main()
{
    const auto model_text = model::serialize(goldenModel());
    const auto campaign_text = model::serialize(goldenCampaign());
    const auto checkpoint_text = model::serialize(goldenCheckpoint());
    const auto scoreboard_text = model::serialize(goldenScoreboard());
    // Legacy (pre-envelope) forms exercise the v0 compatibility path.
    const auto legacy_model =
            model_text.substr(model_text.find('\n') + 1);
    const auto legacy_campaign =
            campaign_text.substr(campaign_text.find('\n') + 1);
    const auto legacy_checkpoint =
            checkpoint_text.substr(checkpoint_text.find('\n') + 1);
    // A scoreboard's legacy form is the raw JSON payload (what
    // `gpupm audit --json` prints and bench/golden/ stores).
    const auto legacy_scoreboard = goldenScoreboard().toJson(true);

    const auto parse_model = [](const std::string &t) {
        return model::tryParse<model::DvfsPowerModel>(t);
    };
    const auto parse_campaign = [](const std::string &t) {
        return model::tryParse<model::TrainingData>(t);
    };
    const auto parse_checkpoint = [](const std::string &t) {
        return model::tryParse<model::CampaignCheckpoint>(t);
    };
    const auto parse_scoreboard = [](const std::string &t) {
        return model::tryParse<obs::Scoreboard>(t);
    };
    // The shared JSON reader and the shard loader have no validate
    // step; parsing is all there is to fuzz.
    const auto parse_json = [](const std::string &t)
            -> model::IoExpected<bool> {
        json::Value doc;
        json::Error err;
        if (!json::parse(t, doc, err))
            return model::IoStatus{model::IoErrc::ParseError,
                                   err.message()};
        return true;
    };
    const auto no_checks = [](const auto &) {
        return model::ValidationReport{};
    };
    const fleet::FleetOptions fleet_opts;
    fleet::ShardSpec shard;
    shard.devices.resize(2);
    shard.devices[1].id = 1;
    const auto parse_shard = [&](const std::string &t) {
        return fleet::tryParseShardResult(t, fleet_opts, shard);
    };
    // Mutated payloads re-wrapped in a valid envelope get past the
    // CRC check to the payload parser.
    const auto parse_shard_payload = [&](const std::string &t) {
        return parse_shard(
                model::wrapEnvelope(model::FileKind::FleetShard, t));
    };
    const auto shard_text = model::serialize(fleet::ShardCheckpoint{
            fleet::fleetFingerprint(fleet_opts, shard),
            goldenShardResult()});
    common::Provenance prov;
    prov.timestamp = "2026-01-01T00:00:00Z";
    const auto prov_json = common::toJson(prov);

    int rc = 0;
    rc |= fuzzFormat("model.v2", model_text, parse_model,
                     model::validateModel);
    rc |= fuzzFormat("model.legacy", legacy_model, parse_model,
                     model::validateModel);
    rc |= fuzzFormat("campaign.v2", campaign_text, parse_campaign,
                     model::validateTrainingData);
    rc |= fuzzFormat("campaign.legacy", legacy_campaign,
                     parse_campaign, model::validateTrainingData);
    rc |= fuzzFormat("checkpoint.v2", checkpoint_text,
                     parse_checkpoint, model::validateCheckpoint);
    rc |= fuzzFormat("checkpoint.legacy", legacy_checkpoint,
                     parse_checkpoint, model::validateCheckpoint);
    rc |= fuzzFormat("scoreboard.v2", scoreboard_text,
                     parse_scoreboard, model::validateScoreboard);
    rc |= fuzzFormat("scoreboard.legacy", legacy_scoreboard,
                     parse_scoreboard, model::validateScoreboard);
    rc |= fuzzFormat("fleetshard.v2", shard_text, parse_shard,
                     no_checks);
    rc |= fuzzFormat("fleetshard.payload",
                     shard_text.substr(shard_text.find('\n') + 1),
                     parse_shard_payload, no_checks);
    rc |= fuzzFormat("json.bench", goldenBenchJson(prov_json),
                     parse_json, no_checks);
    rc |= fuzzFormat("json.chrome_trace", goldenChromeTrace(prov_json),
                     parse_json, no_checks);
    rc |= fuzzFormat("json.api_traces", goldenTraceStoreJson(),
                     parse_json, no_checks);
    return rc;
}
