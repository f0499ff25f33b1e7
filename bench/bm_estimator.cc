/**
 * @file
 * Google-benchmark timings of the pipeline stages. The paper reports
 * the estimation converging in < 50 iterations, about 30 s on a 2013
 * laptop CPU; the anchor here is that model construction stays
 * interactive and prediction is effectively free (the property the
 * DVFS-management use case relies on).
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "common/numio.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

namespace
{

using namespace gpupm;

const model::TrainingData &
titanxData()
{
    static const model::TrainingData data = [] {
        sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
        model::CampaignOptions opts;
        opts.power_repetitions = 3;
        return model::runTrainingCampaign(board, ubench::buildSuite(),
                                          opts);
    }();
    return data;
}

void
BM_EstimatorFit(benchmark::State &state)
{
    const auto &data = titanxData();
    const model::ModelEstimator est;
    int iterations = 0;
    for (auto _ : state) {
        auto fit = est.estimate(data);
        iterations = fit.iterations;
        benchmark::DoNotOptimize(fit.rmse_w);
    }
    state.counters["iterations"] = iterations;
}
BENCHMARK(BM_EstimatorFit)->Unit(benchmark::kMillisecond);

void
BM_Prediction(benchmark::State &state)
{
    const auto &data = titanxData();
    static const model::EstimationResult fit =
            model::ModelEstimator().estimate(data);
    gpu::ComponentArray u{};
    u[1] = 0.5;
    u[6] = 0.7;
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &cfg = data.configs[i++ % data.configs.size()];
        benchmark::DoNotOptimize(
                fit.model.predict(u, cfg).total_w);
    }
}
BENCHMARK(BM_Prediction);

void
BM_FullVfSweep(benchmark::State &state)
{
    const auto &data = titanxData();
    static const model::EstimationResult fit =
            model::ModelEstimator().estimate(data);
    const model::Predictor pred(fit.model);
    gpu::ComponentArray u{};
    u[1] = 0.5;
    u[6] = 0.7;
    for (auto _ : state)
        benchmark::DoNotOptimize(pred.sweep(u).size());
}
BENCHMARK(BM_FullVfSweep)->Unit(benchmark::kMicrosecond);

void
BM_TrainingCampaign(benchmark::State &state)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto suite = ubench::buildSuite();
    model::CampaignOptions opts;
    opts.power_repetitions = 3;
    for (auto _ : state) {
        auto data = model::runTrainingCampaign(board, suite, opts);
        benchmark::DoNotOptimize(data.power_w.size());
    }
}
BENCHMARK(BM_TrainingCampaign)->Unit(benchmark::kMillisecond);

void
BM_ProfilerCollect(benchmark::State &state)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    cupti::Profiler prof(board, 1);
    const auto app = workloads::blackScholes();
    const auto cfg = board.descriptor().referenceConfig();
    for (auto _ : state)
        benchmark::DoNotOptimize(
                prof.profile(app.demand, cfg).acycles);
}
BENCHMARK(BM_ProfilerCollect);

void
BM_PerfModelExecute(benchmark::State &state)
{
    // The analytic model alone: BM_AnalyticExecute minus the span and
    // the two metrics PhysicalGpu::execute adds.
    const auto &desc =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    const sim::AnalyticPerfModel model;
    const auto app = workloads::blackScholes();
    const auto cfg = desc.referenceConfig();
    for (auto _ : state)
        benchmark::DoNotOptimize(
                model.execute(desc, app.demand, cfg).time_s);
}
BENCHMARK(BM_PerfModelExecute);

void
BM_AnalyticExecute(benchmark::State &state)
{
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    const auto app = workloads::blackScholes();
    const auto cfg = board.descriptor().referenceConfig();
    for (auto _ : state)
        benchmark::DoNotOptimize(
                board.execute(app.demand, cfg).time_s);
}
// Threads(4): the fleet workers run the simulator concurrently.
BENCHMARK(BM_AnalyticExecute)->Threads(1)->Threads(4);

// The per-operation costs of the instrumentation, tracer and profiler
// off, through the same calls the simulator makes per execution.

void
BM_SpanOffWithArgs(benchmark::State &state)
{
    const auto &desc =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    const auto cfg = desc.referenceConfig();
    for (auto _ : state) {
        GPUPM_TRACE_SPAN_NAMED(span, "sim", "sim.execute");
        if (span.armed()) {
            span.arg("device", desc.name);
            span.arg("config", numio::formatLong(cfg.core_mhz) + "/" +
                                       numio::formatLong(cfg.mem_mhz));
        }
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SpanOffWithArgs);

void
BM_CounterInc(benchmark::State &state)
{
    for (auto _ : state)
        obs::simKernelExecutionsTotal().inc();
}
BENCHMARK(BM_CounterInc);

void
BM_HistogramObserve(benchmark::State &state)
{
    double v = 0.0;
    for (auto _ : state) {
        obs::simKernelTimeSeconds().observe(v);
        v = v < 1.0 ? v + 1e-3 : 0.0;
    }
}
BENCHMARK(BM_HistogramObserve);

void
BM_MeasureKernelPower(benchmark::State &state)
{
    // One Fig. 7 power cell: 5 repetitions at the reference clocks.
    sim::PhysicalGpu board(gpu::DeviceKind::GtxTitanX);
    nvml::Device dev(board, 7);
    const auto app = workloads::blackScholes();
    for (auto _ : state)
        benchmark::DoNotOptimize(
                dev.measureKernelPower(app.demand, 5).power_w);
}
BENCHMARK(BM_MeasureKernelPower)->Unit(benchmark::kMicrosecond);

void
BM_SmCycleSim(benchmark::State &state)
{
    const auto &dev =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    const auto mb = ubench::makeArithmetic(ubench::Family::SP, 64);
    for (auto _ : state) {
        sim::SmCycleSim simr(dev, {975, 3505}, 32);
        benchmark::DoNotOptimize(simr.run(*mb.loop).cycles);
    }
}
BENCHMARK(BM_SmCycleSim)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
