/**
 * @file
 * Tests of the NVML-style host facade: clock control, sampled power
 * measurement, TDP fallback, the measurement's model runs against a
 * three-run reference, and the one-step run mean against the
 * per-reading average it replaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "core/campaign.hh"
#include "nvml/device.hh"
#include "obs/standard.hh"
#include "ubench/suite.hh"

namespace
{

using namespace gpupm;

sim::KernelDemand
moderateKernel()
{
    sim::KernelDemand d;
    d.name = "moderate";
    d.warps_sp = 2e9;
    d.bytes_dram_rd = 2e9;
    d.bytes_l2_rd = 2e9;
    return d;
}

TEST(NvmlDevice, StartsAtReferenceClocks)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board);
    EXPECT_EQ(dev.currentClocks().core_mhz, 975);
    EXPECT_EQ(dev.currentClocks().mem_mhz, 3505);
}

TEST(NvmlDevice, SetApplicationClocksValidatesTable)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board);
    EXPECT_NO_THROW(dev.setApplicationClocks(810, 595));
    EXPECT_EQ(dev.currentClocks().core_mhz, 595);
    EXPECT_EQ(dev.currentClocks().mem_mhz, 810);
    // The NVIDIA driver rejects off-table requests.
    EXPECT_THROW(dev.setApplicationClocks(3505, 1000),
                 std::runtime_error);
    EXPECT_THROW(dev.setApplicationClocks(2000, 975),
                 std::runtime_error);
}

TEST(NvmlDevice, RefreshPeriodsMatchSecVA)
{
    sim::PhysicalGpu xp(gpu::DeviceKind::TitanXp);
    sim::PhysicalGpu tx(gpu::DeviceKind::GtxTitanX);
    sim::PhysicalGpu k40(gpu::DeviceKind::TeslaK40c);
    EXPECT_DOUBLE_EQ(nvml::Device(xp).refreshPeriodMs(), 35.0);
    EXPECT_DOUBLE_EQ(nvml::Device(tx).refreshPeriodMs(), 100.0);
    EXPECT_DOUBLE_EQ(nvml::Device(k40).refreshPeriodMs(), 15.0);
}

TEST(NvmlDevice, MeasurementTracksTruePower)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board, 11);
    const auto d = moderateKernel();
    const auto m = dev.measureKernelPower(d);
    const auto prof = board.execute(d, m.effective);
    const double truth = board.truePower(prof, m.effective).total_w;
    EXPECT_NEAR(m.power_w, truth, 0.05 * truth);
    EXPECT_GT(m.samples_per_run, 0);
    EXPECT_GE(m.run_duration_s, 0.9);
}

TEST(NvmlDevice, MeasurementRepeatsToMinimumDuration)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board, 11);
    const auto m = dev.measureKernelPower(moderateKernel(), 3, 2.0);
    EXPECT_GE(m.run_duration_s, 1.9);
}

TEST(NvmlDevice, IdlePowerMatchesGroundTruth)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board, 11);
    dev.setApplicationClocks(810, 595);
    const double idle = dev.measureIdlePower();
    const double truth = board.idlePower({595, 810}).total_w;
    EXPECT_NEAR(idle, truth, 0.05 * truth + 1.0);
}

TEST(NvmlDevice, TdpFallbackDownclocksHotKernel)
{
    // A kernel saturating every component at the top clocks exceeds
    // 250 W; the board must fall back to a lower core level
    // (the Fig. 9 footnote behaviour).
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto &desc = board.descriptor();
    sim::KernelDemand hot;
    hot.name = "hot";
    const gpu::FreqConfig top{desc.maxCoreMhz(), 4005};
    const double t = 0.01;
    hot.warps_sp = 0.95 * desc.peakWarpsPerSecond(gpu::Component::SP,
                                                  top.core_mhz) * t;
    hot.warps_int = 0.4 * desc.peakWarpsPerSecond(gpu::Component::Int,
                                                  top.core_mhz) * t;
    hot.warps_sf = 0.5 * desc.peakWarpsPerSecond(gpu::Component::SF,
                                                 top.core_mhz) * t;
    hot.bytes_dram_rd =
            0.9 * desc.peakBandwidth(gpu::Component::Dram, top) * t;
    hot.bytes_l2_rd =
            0.8 * desc.peakBandwidth(gpu::Component::L2, top) * t;
    hot.bytes_shared_ld =
            0.6 * desc.peakBandwidth(gpu::Component::Shared, top) * t;

    nvml::Device dev(board, 13);
    dev.setApplicationClocks(4005, desc.maxCoreMhz());
    const auto m = dev.measureKernelPower(hot, 3);
    EXPECT_TRUE(m.tdp_limited);
    EXPECT_LT(m.effective.core_mhz, desc.maxCoreMhz());
    // The effective configuration respects TDP.
    const auto prof = board.execute(hot, m.effective);
    EXPECT_LE(board.truePower(prof, m.effective).total_w,
              desc.tdp_w + 1e-6);
    // A gentle kernel at the same clocks is not limited.
    const auto gentle = dev.measureKernelPower(moderateKernel(), 3);
    EXPECT_FALSE(gentle.tdp_limited);
}

TEST(NvmlDevice, MeasuringEmptyKernelPanics)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board);
    EXPECT_THROW(dev.measureKernelPower(sim::KernelDemand{}),
                 std::logic_error);
}

TEST(NvmlDevice, MeasurementIsDeterministicPerSeed)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device a(board, 21), b(board, 21), c(board, 22);
    const auto d = moderateKernel();
    EXPECT_DOUBLE_EQ(a.measureKernelPower(d, 3).power_w,
                     b.measureKernelPower(d, 3).power_w);
    EXPECT_NE(a.measureKernelPower(d, 3).power_w,
              c.measureKernelPower(d, 3).power_w);
}

} // namespace

namespace
{

TEST(NvmlDevice, PowerLimitDefaultsToTdpAndValidatesRange)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board);
    EXPECT_DOUBLE_EQ(dev.powerLimit(), 250.0);
    EXPECT_NO_THROW(dev.setPowerLimit(180.0));
    EXPECT_DOUBLE_EQ(dev.powerLimit(), 180.0);
    EXPECT_THROW(dev.setPowerLimit(50.0), std::runtime_error);
    EXPECT_THROW(dev.setPowerLimit(400.0), std::runtime_error);
}

TEST(NvmlDevice, TrySettersReturnTypedStatusInsteadOfThrowing)
{
    // The recoverable driver rejections surface as NvmlStatus codes;
    // the throwing setters remain as fatal-on-error conveniences.
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board);

    EXPECT_EQ(dev.trySetApplicationClocks(810, 595),
              nvml::NvmlStatus::Success);
    EXPECT_EQ(dev.currentClocks().core_mhz, 595);
    EXPECT_EQ(dev.trySetApplicationClocks(3505, 1000),
              nvml::NvmlStatus::UnsupportedClocks);
    // A rejected request leaves the clocks untouched.
    EXPECT_EQ(dev.currentClocks().core_mhz, 595);
    EXPECT_EQ(dev.currentClocks().mem_mhz, 810);

    EXPECT_EQ(dev.trySetPowerLimit(180.0), nvml::NvmlStatus::Success);
    EXPECT_DOUBLE_EQ(dev.powerLimit(), 180.0);
    EXPECT_EQ(dev.trySetPowerLimit(50.0),
              nvml::NvmlStatus::PowerLimitOutOfRange);
    EXPECT_EQ(dev.trySetPowerLimit(400.0),
              nvml::NvmlStatus::PowerLimitOutOfRange);
    EXPECT_DOUBLE_EQ(dev.powerLimit(), 180.0);
}

TEST(NvmlDevice, StatusNamesAreStable)
{
    EXPECT_EQ(nvml::nvmlStatusName(nvml::NvmlStatus::Success),
              "Success");
    EXPECT_EQ(nvml::nvmlStatusName(
                      nvml::NvmlStatus::UnsupportedClocks),
              "UnsupportedClocks");
    EXPECT_EQ(nvml::nvmlStatusName(
                      nvml::NvmlStatus::PowerLimitOutOfRange),
              "PowerLimitOutOfRange");
}

TEST(NvmlDevice, LowerPowerLimitForcesDeeperClockFallback)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto &desc = board.descriptor();
    sim::KernelDemand warm = [] {
        sim::KernelDemand d;
        d.name = "warm";
        d.warps_sp = 4e9;
        d.warps_int = 1e9;
        d.bytes_dram_rd = 4e9;
        d.bytes_l2_rd = 5e9;
        d.bytes_shared_ld = 2e9;
        return d;
    }();

    nvml::Device dev(board, 17);
    dev.setApplicationClocks(desc.default_mem_mhz, desc.maxCoreMhz());
    const auto unlimited = dev.measureKernelPower(warm, 3);

    dev.setPowerLimit(150.0);
    const auto limited = dev.measureKernelPower(warm, 3);
    EXPECT_TRUE(limited.tdp_limited);
    EXPECT_LT(limited.effective.core_mhz,
              unlimited.effective.core_mhz);
    // The measured power honours the limit.
    EXPECT_LE(limited.power_w, 150.0 * 1.05);
}

} // namespace

namespace
{

/**
 * The measurement as it was before the TDP walk kept its profile: walk
 * down the core table running the kernel at each step, run it again at
 * the effective clocks, and run it at the fastest configuration to size
 * the repetitions. It sizes on every call, so it is also the reference
 * for the device's sizing memo. Only public PhysicalGpu calls, and the
 * device's own noise stream (Rng(seed).split(7)) and run-mean draw.
 */
struct ReferenceDevice
{
    const sim::PhysicalGpu &board;
    gpu::FreqConfig clocks;
    double power_limit_w;
    double refresh_ms;
    Rng noise;
    int last_walk_steps = 0; ///< kernel runs in the last TDP walk

    void reseed(std::uint64_t seed) { noise = Rng(seed).split(7); }

    double sensorMean(double true_power_w, int readings)
    {
        const double sigma = 0.006 * true_power_w + 0.3;
        return true_power_w +
               sigma / std::sqrt(readings) * noise.normal();
    }

    gpu::FreqConfig effectiveClocksFor(const sim::KernelDemand &demand)
    {
        const auto &table = board.descriptor().core_freqs_mhz;
        gpu::FreqConfig cfg = clocks;
        last_walk_steps = 0;
        for (auto it = std::find(table.rbegin(), table.rend(),
                                 cfg.core_mhz);
             it != table.rend(); ++it) {
            cfg.core_mhz = *it;
            ++last_walk_steps;
            const auto prof = board.execute(demand, cfg);
            if (board.truePower(prof, cfg).total_w <= power_limit_w)
                return cfg;
        }
        cfg.core_mhz = table.front();
        return cfg;
    }

    nvml::PowerMeasurement measure(const sim::KernelDemand &demand,
                                   int repetitions,
                                   double min_duration_s)
    {
        const auto &desc = board.descriptor();
        nvml::PowerMeasurement m;
        m.effective = effectiveClocksFor(demand);
        m.tdp_limited = m.effective.core_mhz != clocks.core_mhz;
        const auto prof = board.execute(demand, m.effective);
        m.kernel_time_s = prof.time_s;
        const double true_power =
                board.truePower(prof, m.effective).total_w;
        const gpu::FreqConfig fastest{desc.maxCoreMhz(),
                                      desc.mem_freqs_mhz.front()};
        const double t_fastest = board.execute(demand, fastest).time_s;
        const auto reps = static_cast<int>(
                std::ceil(min_duration_s / std::max(t_fastest, 1e-9)));
        m.run_duration_s = prof.time_s * reps;
        m.samples_per_run = std::max(
                1, static_cast<int>(m.run_duration_s /
                                    (refresh_ms / 1000.0)));
        std::vector<double> run_means;
        for (int r = 0; r < repetitions; ++r)
            run_means.push_back(sensorMean(true_power, m.samples_per_run));
        m.power_w = stats::median(run_means);
        return m;
    }
};

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Every field, bit for bit. */
void
expectSameMeasurement(const nvml::PowerMeasurement &got,
                      const nvml::PowerMeasurement &want)
{
    EXPECT_EQ(bits(got.power_w), bits(want.power_w));
    EXPECT_EQ(bits(got.kernel_time_s), bits(want.kernel_time_s));
    EXPECT_EQ(bits(got.run_duration_s), bits(want.run_duration_s));
    EXPECT_EQ(got.samples_per_run, want.samples_per_run);
    EXPECT_EQ(got.effective, want.effective);
    EXPECT_EQ(got.tdp_limited, want.tdp_limited);
}

double
executions()
{
    return obs::simKernelExecutionsTotal().value();
}

/**
 * Measure every non-idle kernel of the suite at every configuration of
 * the three boards, at power limits of TDP, 150 W and 100 W, reseeding
 * both devices before each call. `check` sees the device's and the
 * reference's measurement, the reference's walk length and the model
 * runs the device made.
 */
void
sweepAgainstReference(
        const std::function<void(const nvml::PowerMeasurement &,
                                 const nvml::PowerMeasurement &,
                                 int walk_steps, double runs)> &check)
{
    const auto suite = ubench::buildSuite();
    std::uint64_t seed = 1;
    for (auto kind : {gpu::DeviceKind::TitanXp,
                      gpu::DeviceKind::GtxTitanX,
                      gpu::DeviceKind::TeslaK40c}) {
        sim::PhysicalGpu board(kind);
        const auto &desc = board.descriptor();
        nvml::Device dev(board);
        ReferenceDevice ref{board, {}, 0.0, dev.refreshPeriodMs(),
                            Rng()};
        for (double limit : {desc.tdp_w, 150.0, 100.0}) {
            dev.setPowerLimit(limit);
            ref.power_limit_w = limit;
            for (const auto &cfg : desc.allConfigs()) {
                dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
                ref.clocks = cfg;
                for (const auto &mb : suite) {
                    if (mb.demand.empty())
                        continue;
                    dev.reseed(seed);
                    ref.reseed(seed);
                    ++seed;
                    const double before = executions();
                    const auto got = dev.measureKernelPower(mb.demand, 3);
                    const double runs = executions() - before;
                    const auto want = ref.measure(mb.demand, 3, 1.0);
                    check(got, want, ref.last_walk_steps, runs);
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}

TEST(NvmlDeviceReference, MeasurementMatchesThreeRunReference)
{
    int measurements = 0;
    sweepAgainstReference([&](const nvml::PowerMeasurement &got,
                              const nvml::PowerMeasurement &want, int,
                              double) {
        expectSameMeasurement(got, want);
        ++measurements;
    });
    EXPECT_GT(measurements, 10000);
}

TEST(NvmlDeviceReference, RunsTheModelOncePerWalkStepPlusOnce)
{
    int max_steps = 0, limited = 0;
    sweepAgainstReference([&](const nvml::PowerMeasurement &got,
                              const nvml::PowerMeasurement &,
                              int walk_steps, double runs) {
        // One run per walk step, plus the fastest-configuration run
        // that sizes the repetitions: 2 without a fallback.
        EXPECT_EQ(runs, walk_steps + 1.0);
        max_steps = std::max(max_steps, walk_steps);
        limited += got.tdp_limited;
    });
    // The sweep exercises walks of several steps, not only the
    // no-fallback case.
    EXPECT_GE(max_steps, 5);
    EXPECT_GT(limited, 1000);
}

TEST(NvmlDeviceReference, DemandMutatedInPlaceMatchesReference)
{
    // One demand object whose contents change between calls, as
    // cache_sweep's loop does: a result keyed on the object's address
    // would return the previous contents' measurement.
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto &desc = board.descriptor();
    nvml::Device dev(board);
    ReferenceDevice ref{board, {}, 180.0, dev.refreshPeriodMs(), Rng()};
    dev.setPowerLimit(180.0);
    dev.setApplicationClocks(desc.default_mem_mhz, desc.maxCoreMhz());
    ref.clocks = dev.currentClocks();
    sim::KernelDemand d = moderateKernel();
    for (int i = 0; i < 12; ++i) {
        d.warps_sp *= 1.5;
        d.bytes_l2_rd *= 1.3;
        d.bytes_dram_rd *= (i % 2) ? 0.5 : 2.5;
        dev.reseed(100 + i);
        ref.reseed(100 + i);
        const auto got = dev.measureKernelPower(d, 5);
        expectSameMeasurement(got, ref.measure(d, 5, 1.0));
    }
}

TEST(NvmlDeviceReference, SizesOneDemandOncePerGrid)
{
    // One kernel over a board's whole grid, as a fresh copy per cell:
    // a run per walk step per cell, and one fastest-configuration run
    // for the whole grid.
    for (auto kind : {gpu::DeviceKind::TitanXp,
                      gpu::DeviceKind::GtxTitanX,
                      gpu::DeviceKind::TeslaK40c}) {
        sim::PhysicalGpu board(kind);
        const auto &desc = board.descriptor();
        nvml::Device dev(board);
        ReferenceDevice ref{board, {}, 150.0, dev.refreshPeriodMs(),
                            Rng()};
        dev.setPowerLimit(150.0);
        double runs = 0.0, walk_steps = 0.0;
        std::uint64_t seed = 1;
        for (const auto &cfg : desc.allConfigs()) {
            dev.setApplicationClocks(cfg.mem_mhz, cfg.core_mhz);
            ref.clocks = cfg;
            dev.reseed(seed);
            ref.reseed(seed);
            ++seed;
            const sim::KernelDemand d = moderateKernel();
            const double before = executions();
            const auto got = dev.measureKernelPower(d, 3);
            runs += executions() - before;
            expectSameMeasurement(got, ref.measure(d, 3, 1.0));
            walk_steps += ref.last_walk_steps;
        }
        EXPECT_EQ(runs, walk_steps + 1.0) << desc.name;
        EXPECT_GT(walk_steps, static_cast<double>(
                                      desc.allConfigs().size()))
                << desc.name << ": no cell fell back";
    }
}

TEST(NvmlDeviceReference, PlainCampaignSizesEachBenchmarkOnce)
{
    // A Fig. 7 campaign (5 repetitions, no fallbacks): one run per
    // CUPTI profile and one per power cell, plus one sizing run per
    // benchmark. Sizing every cell made 7,624 / 10,692 / 739, and the
    // three-run measurement 11,232 / 15,940 / 1,067.
    const auto suite = ubench::buildSuite();
    const std::pair<gpu::DeviceKind, double> expected[] = {
            {gpu::DeviceKind::TitanXp, 4098},
            {gpu::DeviceKind::GtxTitanX, 5526},
            {gpu::DeviceKind::TeslaK40c, 493}};
    for (const auto &[kind, runs] : expected) {
        sim::PhysicalGpu board(kind);
        model::CampaignOptions opts;
        opts.power_repetitions = 5;
        const double before = executions();
        model::runTrainingCampaign(board, suite, opts);
        EXPECT_EQ(executions() - before, runs)
                << board.descriptor().name;
    }
}

} // namespace

namespace
{

/** Two-sample Kolmogorov-Smirnov statistic, sup |F_a(x) - F_b(x)|. */
double
ksStatistic(std::vector<double> a, std::vector<double> b)
{
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::size_t i = 0, j = 0;
    double d = 0.0;
    while (i < a.size() && j < b.size()) {
        const double x = std::min(a[i], b[j]);
        while (i < a.size() && a[i] <= x)
            ++i;
        while (j < b.size() && b[j] <= x)
            ++j;
        d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                                 static_cast<double>(j) / b.size()));
    }
    return d;
}

TEST(NvmlDeviceDraw, RunMeanMatchesPerReadingAverage)
{
    // The device draws the mean of a run's n readings in one step. The
    // reference averages n readings of the same noise, each quantized
    // to 1 mW and clamped at 0 W, as the sensor once read them. A
    // board whose idle power is exactly P feeds measureIdlePower(n).
    constexpr int kDraws = 100000;
    // Two-sample KS critical value at alpha = 1e-3, equal sizes.
    const double ks_critical = 1.949 * std::sqrt(2.0 / kDraws);
    const auto &desc =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    std::uint64_t seed = 1;
    for (double p : {30.0, 150.0, 250.0}) {
        sim::GroundTruth truth;
        truth.static_core_w = p;
        truth.core_voltage = sim::VoltageCurve::constant(1.0);
        const sim::PhysicalGpu board(desc, truth);
        const double sigma = 0.006 * p + 0.3;
        for (int n : {1, 10, 67, 200}) {
            SCOPED_TRACE(::testing::Message() << p << " W, n = " << n);
            nvml::Device dev(board, seed++);
            ASSERT_EQ(board.idlePower(dev.currentClocks()).total_w, p);
            Rng noise(seed++);
            std::vector<double> drawn(kDraws), averaged(kDraws);
            for (double &x : drawn)
                x = dev.measureIdlePower(n);
            for (double &x : averaged) {
                double sum = 0.0;
                for (int s = 0; s < n; ++s) {
                    const double mw = std::round(
                            (p + noise.normal(0.0, sigma)) * 1000.0);
                    sum += std::max(0.0, mw / 1000.0);
                }
                x = sum / n;
            }
            const double v_drawn = std::pow(stats::stddev(drawn), 2);
            const double v_avg = std::pow(stats::stddev(averaged), 2);
            // Standard errors of a mean and of a normal variance.
            const double mean_gap =
                    stats::mean(drawn) - stats::mean(averaged);
            EXPECT_LT(std::abs(mean_gap),
                      4.0 * std::sqrt((v_drawn + v_avg) / kDraws));
            EXPECT_LT(std::abs(v_drawn - v_avg),
                      4.0 * std::sqrt(2.0 * (v_drawn * v_drawn +
                                             v_avg * v_avg) /
                                      (kDraws - 1)));
            EXPECT_LT(ksStatistic(drawn, averaged), ks_critical);
        }
    }
}

} // namespace
