/**
 * @file
 * Virtual power sensor use case (Sec. V-B "Use cases", item 1): GPUs
 * without an embedded power sensor — or guest VMs in a virtualized
 * deployment — can estimate their total and per-component power from
 * performance events alone, using a model built once on an
 * instrumented board.
 *
 * The example builds and serializes a model on a "lab" board (the one
 * with a sensor), then reloads it in a context where only the CUPTI
 * facade is available and estimates the power of short-lived kernels
 * that a 100 ms-refresh sensor could never time-resolve.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "core/campaign.hh"
#include "core/metrics.hh"
#include "core/model_io.hh"
#include "core/predictor.hh"
#include "workloads/workloads.hh"

int
main()
{
    using namespace gpupm;

    // --- In the lab: build and export the model. ------------------
    sim::PhysicalGpu lab_board(gpu::DeviceKind::GtxTitanX);
    std::printf("lab: building the model on %s...\n",
                lab_board.descriptor().name.c_str());
    const auto data = model::runTrainingCampaign(lab_board,
                                                 ubench::buildSuite());
    const auto fit = model::ModelEstimator().estimate(data);
    const std::string exported = model::serialize(fit.model);
    std::printf("lab: exported model (%zu bytes)\n", exported.size());

    // --- In the field: sensorless estimation from events only. ----
    const auto field_model =
            model::tryParse<model::DvfsPowerModel>(exported);
    if (!field_model.ok()) {
        std::fprintf(stderr, "field: cannot read the model: %s\n",
                     field_model.error().message.c_str());
        return 1;
    }
    model::Predictor predictor(field_model.value());

    sim::PhysicalGpu field_board(gpu::DeviceKind::GtxTitanX);
    const auto &desc = field_board.descriptor();
    cupti::Profiler profiler(field_board, 1234);

    TextTable t({"kernel", "time [ms]", "estimated [W]",
                 "true [W] (hidden)", "error [%]"});
    t.setTitle("\nfield: sensorless power estimates at the reference "
               "configuration");

    for (const auto &w : workloads::validationSet()) {
        // Short-lived kernel: a single launch, far below the sensor's
        // 100 ms refresh period.
        const auto rm =
                profiler.profile(w.demand, desc.referenceConfig());
        const auto util = model::utilizationsFromMetrics(
                rm, desc, desc.referenceConfig());
        const double est =
                predictor.at(util, desc.referenceConfig()).total_w;

        const auto prof = field_board.execute(
                w.demand, desc.referenceConfig());
        const double truth =
                field_board.truePower(prof, desc.referenceConfig())
                        .total_w;
        t.addRow({w.name, TextTable::num(1e3 * rm.time_s, 1),
                  TextTable::num(est, 1), TextTable::num(truth, 1),
                  TextTable::num(100.0 * (est - truth) / truth, 1)});
    }
    t.print(std::cout);

    // Per-component decomposition of one kernel — the estimate a
    // guest VM could use to attribute its own power.
    const auto app = workloads::blackScholes();
    const auto rm = profiler.profile(app.demand,
                                     desc.referenceConfig());
    const auto util = model::utilizationsFromMetrics(
            rm, desc, desc.referenceConfig());
    const auto p = predictor.at(util, desc.referenceConfig());
    std::printf("\nBlackScholes decomposition: constant %.1f W",
                p.constant_w);
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        std::printf(", %s %.1f W",
                    std::string(gpu::componentName(
                            static_cast<gpu::Component>(i))).c_str(),
                    p.component_w[i]);
    std::printf("  (total %.1f W)\n", p.total_w);
    return 0;
}
