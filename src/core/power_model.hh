/**
 * @file
 * The DVFS-aware GPU power model (Sec. III-A, Eqs. 6-7).
 *
 *   Pcore = b0*Vc + Vc^2*fcore*(b1 + sum_i w_i*U_i)
 *   Pmem  = b2*Vm + Vm^2*fmem *(b3 + w_mem*U_dram)
 *
 * Voltages are normalized to the reference configuration (Eq. 5) and
 * stored as a per-configuration table fitted by the estimator, so the
 * model can predict the power of any application at any supported V-F
 * configuration from utilizations measured at the reference
 * configuration only, and decompose it per component.
 */

#ifndef GPUPM_CORE_POWER_MODEL_HH
#define GPUPM_CORE_POWER_MODEL_HH

#include <map>

#include "gpu/device.hh"

namespace gpupm
{
namespace model
{

/** The fitted coefficient vector X of Sec. III-D. */
struct ModelParams
{
    double beta0 = 0.0; ///< core static coefficient, W
    double beta1 = 0.0; ///< core idle V^2 f coefficient, W/GHz
    double beta2 = 0.0; ///< memory static coefficient, W
    double beta3 = 0.0; ///< memory idle V^2 f coefficient, W/GHz
    /**
     * Dynamic coefficient per component, W/GHz; the DRAM slot is the
     * memory-domain w_mem of Eq. 7, the rest are the core-domain w_i
     * of Eq. 6.
     */
    gpu::ComponentArray omega{};
};

/** Normalized (Vc, Vm) pair at one configuration. */
struct VoltagePair
{
    double core = 1.0;
    double mem = 1.0;
};

/** Per-component power prediction. */
struct PowerPrediction
{
    double total_w = 0.0;
    double constant_w = 0.0;  ///< static + idle terms of both domains
    double core_w = 0.0;      ///< whole core domain (Eq. 6)
    double mem_w = 0.0;       ///< whole memory domain (Eq. 7)
    gpu::ComponentArray component_w{}; ///< dynamic part per component
};

/** Fitted DVFS-aware power model for one device. */
class DvfsPowerModel
{
  public:
    DvfsPowerModel() = default;

    /**
     * @param kind  device the model was fitted for.
     * @param reference  configuration the utilizations refer to.
     * @param params  fitted coefficients.
     */
    DvfsPowerModel(gpu::DeviceKind kind, gpu::FreqConfig reference,
                   ModelParams params);

    /** Set the fitted voltage pair of one configuration. */
    void setVoltages(const gpu::FreqConfig &cfg, VoltagePair v);

    /** Fitted voltages at a configuration (fatal when absent). */
    VoltagePair voltages(const gpu::FreqConfig &cfg) const;

    /** Whether a configuration has fitted voltages. */
    bool hasVoltages(const gpu::FreqConfig &cfg) const;

    /**
     * Voltages for an arbitrary (possibly off-table) configuration,
     * linearly interpolated from the fitted table: the core voltage
     * along fcore within the nearest fitted memory clock, the memory
     * voltage along fmem within the nearest fitted core clock
     * (clamped at the table edges). This supports the paper's
     * "fine-grained V-F perturbations" use case (Sec. V-B, item 4).
     */
    VoltagePair voltagesInterpolated(const gpu::FreqConfig &cfg) const;

    /** Predict at an off-table configuration via interpolation. */
    PowerPrediction predictInterpolated(const gpu::ComponentArray &util,
                                        const gpu::FreqConfig &cfg)
            const;

    /**
     * Predict the power of an application at a configuration from its
     * reference-configuration utilization vector (Eqs. 6-7).
     */
    PowerPrediction predict(const gpu::ComponentArray &util,
                            const gpu::FreqConfig &cfg) const;

    /** Predict with explicit voltages (used by the estimator). */
    PowerPrediction predictWithVoltages(const gpu::ComponentArray &util,
                                        const gpu::FreqConfig &cfg,
                                        const VoltagePair &v) const;

    const ModelParams &params() const { return params_; }
    ModelParams &params() { return params_; }
    gpu::FreqConfig reference() const { return reference_; }
    gpu::DeviceKind deviceKind() const { return kind_; }

    /** All fitted configurations with their voltage pairs. */
    const std::map<std::pair<int, int>, VoltagePair> &
    voltageTable() const
    {
        return voltages_;
    }

  private:
    gpu::DeviceKind kind_ = gpu::DeviceKind::GtxTitanX;
    gpu::FreqConfig reference_{};
    ModelParams params_{};
    std::map<std::pair<int, int>, VoltagePair> voltages_;
};

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_POWER_MODEL_HH
