#include "power_model.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"

namespace gpupm
{
namespace model
{

using gpu::Component;
using gpu::componentIndex;

DvfsPowerModel::DvfsPowerModel(gpu::DeviceKind kind,
                               gpu::FreqConfig reference,
                               ModelParams params)
    : kind_(kind), reference_(reference), params_(params)
{}

void
DvfsPowerModel::setVoltages(const gpu::FreqConfig &cfg, VoltagePair v)
{
    GPUPM_ASSERT(v.core > 0.0 && v.mem > 0.0, "non-positive voltage");
    voltages_[{cfg.core_mhz, cfg.mem_mhz}] = v;
}

VoltagePair
DvfsPowerModel::voltages(const gpu::FreqConfig &cfg) const
{
    auto it = voltages_.find({cfg.core_mhz, cfg.mem_mhz});
    GPUPM_ASSERT(it != voltages_.end(), "no fitted voltages for (",
                 cfg.core_mhz, ", ", cfg.mem_mhz, ") MHz");
    return it->second;
}

bool
DvfsPowerModel::hasVoltages(const gpu::FreqConfig &cfg) const
{
    return voltages_.count({cfg.core_mhz, cfg.mem_mhz}) > 0;
}

namespace
{

/** Linear interpolation of y(x) over sorted (x, y) samples, clamped
 *  at the ends. */
double
interp(const std::vector<std::pair<int, double>> &pts, int x)
{
    GPUPM_ASSERT(!pts.empty(), "empty interpolation table");
    if (x <= pts.front().first)
        return pts.front().second;
    if (x >= pts.back().first)
        return pts.back().second;
    for (std::size_t i = 1; i < pts.size(); ++i) {
        if (x <= pts[i].first) {
            const double t =
                    static_cast<double>(x - pts[i - 1].first) /
                    (pts[i].first - pts[i - 1].first);
            return pts[i - 1].second +
                   t * (pts[i].second - pts[i - 1].second);
        }
    }
    return pts.back().second;
}

} // namespace

VoltagePair
DvfsPowerModel::voltagesInterpolated(const gpu::FreqConfig &cfg) const
{
    GPUPM_ASSERT(!voltages_.empty(), "model has no fitted voltages");
    if (hasVoltages(cfg))
        return voltages(cfg);

    // Nearest fitted memory clock for the core-voltage row, nearest
    // fitted core clock for the memory-voltage column.
    int best_fm = voltages_.begin()->first.second;
    int best_fc = voltages_.begin()->first.first;
    for (const auto &[key, v] : voltages_) {
        if (std::abs(key.second - cfg.mem_mhz) <
            std::abs(best_fm - cfg.mem_mhz))
            best_fm = key.second;
        if (std::abs(key.first - cfg.core_mhz) <
            std::abs(best_fc - cfg.core_mhz))
            best_fc = key.first;
    }

    std::vector<std::pair<int, double>> core_row, mem_col;
    for (const auto &[key, v] : voltages_) {
        if (key.second == best_fm)
            core_row.emplace_back(key.first, v.core);
        if (key.first == best_fc)
            mem_col.emplace_back(key.second, v.mem);
    }
    std::sort(core_row.begin(), core_row.end());
    std::sort(mem_col.begin(), mem_col.end());

    VoltagePair out;
    out.core = interp(core_row, cfg.core_mhz);
    out.mem = interp(mem_col, cfg.mem_mhz);
    return out;
}

PowerPrediction
DvfsPowerModel::predictInterpolated(const gpu::ComponentArray &util,
                                    const gpu::FreqConfig &cfg) const
{
    return predictWithVoltages(util, cfg, voltagesInterpolated(cfg));
}

PowerPrediction
DvfsPowerModel::predictWithVoltages(const gpu::ComponentArray &util,
                                    const gpu::FreqConfig &cfg,
                                    const VoltagePair &v) const
{
    const double fc = 1e-3 * cfg.core_mhz; // GHz
    const double fm = 1e-3 * cfg.mem_mhz;  // GHz
    const double vc2fc = v.core * v.core * fc;
    const double vm2fm = v.mem * v.mem * fm;

    PowerPrediction p;
    p.constant_w = params_.beta0 * v.core + vc2fc * params_.beta1 +
                   params_.beta2 * v.mem + vm2fm * params_.beta3;

    for (std::size_t i = 0; i < gpu::kNumComponents; ++i) {
        const bool is_dram = i == componentIndex(Component::Dram);
        const double vsq_f = is_dram ? vm2fm : vc2fc;
        p.component_w[i] = vsq_f * params_.omega[i] * util[i];
    }

    p.core_w = params_.beta0 * v.core + vc2fc * params_.beta1;
    for (std::size_t i = 0; i < gpu::kNumComponents; ++i)
        if (i != componentIndex(Component::Dram))
            p.core_w += p.component_w[i];
    p.mem_w = params_.beta2 * v.mem + vm2fm * params_.beta3 +
              p.component_w[componentIndex(Component::Dram)];
    p.total_w = p.core_w + p.mem_w;
    return p;
}

PowerPrediction
DvfsPowerModel::predict(const gpu::ComponentArray &util,
                        const gpu::FreqConfig &cfg) const
{
    return predictWithVoltages(util, cfg, voltages(cfg));
}

} // namespace model
} // namespace gpupm
