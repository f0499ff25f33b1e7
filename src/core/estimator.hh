/**
 * @file
 * The Sec. III-D iterative model-estimation algorithm.
 *
 * Inputs: the training measurements of the microbenchmark suite — one
 * utilization vector per microbenchmark (profiled at the reference
 * configuration) and one measured average power per (microbenchmark,
 * V-F configuration) pair.
 *
 * The coefficients X and the per-configuration normalized voltages V̄
 * are coupled (Eqs. 6-7 are bilinear in them), so a single least
 * squares is rank-deficient; the algorithm alternates:
 *
 *  1. initialize X assuming V̄ = 1 on the reference configuration and
 *     two perturbed configurations (Eq. 11);
 *  2. per configuration, fit (V̄core, V̄mem) by exact coordinate steps
 *     (each is the global minimizer of a quartic built from weighted
 *     moment sums) with the monotonicity constraint V̄(f1) >= V̄(f2)
 *     for f1 > f2 (Eq. 12, enforced by pool-adjacent-violators);
 *  3. refit X by (non-negative, lightly ridged) least squares over all
 *     configurations with the voltages fixed, solved on the 11x11
 *     normal equations;
 *  4. iterate 2-3 until the fit converges or an iteration cap is hit
 *     (the paper observes convergence in < 50 iterations).
 *
 * Steps 1-3 work on per-fit sufficient statistics (FitStatistics), so
 * an iteration costs O(configurations) whatever the suite size; only
 * the exact SSE that decides convergence visits every cell.
 */

#ifndef GPUPM_CORE_ESTIMATOR_HH
#define GPUPM_CORE_ESTIMATOR_HH

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/expected.hh"
#include "core/power_model.hh"
#include "gpu/device.hh"
#include "linalg/lstsq.hh"
#include "obs/convergence.hh"

namespace gpupm
{
namespace model
{

/** Training measurements of one microbenchmark suite campaign. */
struct TrainingData
{
    gpu::DeviceKind device = gpu::DeviceKind::GtxTitanX;
    gpu::FreqConfig reference{};
    /** All measured configurations. */
    std::vector<gpu::FreqConfig> configs;
    /** Per-microbenchmark utilizations at the reference config. */
    std::vector<gpu::ComponentArray> utils;
    /** Measured power, power[b][c] for microbenchmark b, config c. */
    std::vector<std::vector<double>> power_w;

    /** Index of a configuration in configs; nullopt when absent. */
    std::optional<std::size_t>
    configIndex(const gpu::FreqConfig &cfg) const;
};

/** Estimation options (defaults reproduce the paper's setup). The
 *  ModelEstimator constructor panics on max_iterations < 1, a bad
 *  voltage range, a negative ridge or a non-positive idle weight. */
struct EstimatorOptions
{
    int max_iterations = 50;
    /** Relative SSE improvement below which iteration stops. */
    double tolerance = 2e-4;
    /** Ridge weight of the coefficient fit (resolves the static-term
     *  degeneracy of the V̄ = 1 initialization). */
    double ridge = 1e-3;
    /** Enforce non-negative coefficients (physical prior). */
    bool nonnegative = true;
    /** Fit per-configuration voltages (false = V̄ ≡ 1 ablation). */
    bool fit_voltages = true;
    /** Enforce the Eq. 12 monotonicity constraint. */
    bool monotonic_voltages = true;
    /** Allow the memory voltage to scale (false pins V̄mem = 1). */
    bool fit_mem_voltage = true;
    /** Voltage search range around the reference value (supply
     *  voltages cannot fall arbitrarily — boards keep a retention
     *  floor). */
    double v_min = 0.7;
    double v_max = 1.7;
    /**
     * Least-squares weight of the idle (all-zero-utilization)
     * microbenchmark rows. Idle power pins the per-V-F-level constant
     * terms exactly — it has no counter noise and no utilization drift
     * — so it earns more weight than one row among 83.
     */
    double idle_row_weight = 8.0;
    /**
     * Convergence-telemetry hook: receives one IterationRecord per
     * outer iteration (and the Eq. 11 initialization as iteration 0).
     * Not owned; may be null. The pointed-to observer must outlive
     * the estimate() call.
     */
    obs::EstimatorObserver *observer = nullptr;
};

/**
 * Failure taxonomy of the estimator. Only conditions where no sane
 * model exists are errors; plain non-convergence within the iteration
 * budget is reported in EstimationResult, not here.
 */
enum class FitErrc
{
    BadInput,         ///< malformed or non-finite training data
    DegenerateGrid,   ///< V-F grid cannot identify the bilinear system
    NumericalFailure, ///< NaN/Inf appeared while iterating
};

/** Display name of a fit error code. */
std::string_view fitErrcName(FitErrc code);

/** Typed failure description of a fit, with the iteration trace. */
struct FitError
{
    FitErrc code = FitErrc::BadInput;
    std::string message;
    /** SSE per completed iteration up to the failure point. */
    std::vector<double> sse_history;
    int iterations = 0;
};

/** Estimation outcome. */
struct EstimationResult
{
    DvfsPowerModel model;
    int iterations = 0;
    bool converged = false;
    double rmse_w = 0.0;         ///< final fit RMSE over all samples
    std::vector<double> sse_history;
    /**
     * Numerical-conditioning diagnostics of the final coefficient
     * design matrix (normal-equation conditioning is the square of
     * this): pivot-ratio condition estimate and effective rank from
     * the pivoted Cholesky of its Gram (linalg::GramCholesky).
     */
    double condition_number = 0.0;
    std::size_t design_rank = 0;
};

/** Value-or-typed-error result of a fit. */
using FitResult = Expected<EstimationResult, FitError>;

/**
 * Sufficient statistics of the Sec. III-D fit, built in one pass over
 * the (microbenchmark, configuration) cells.
 *
 * Every coefficient feature of Eqs. 5-7 is a configuration scalar —
 * V̄c, V̄c²fc, V̄m or V̄m²fm — times one entry of the microbenchmark
 * vector ũ_b = (1, U_INT, ..., U_L2, U_DRAM). With the idle-row
 * weights w_b, the statistics are M = Σ_b w_b ũ_b ũ_bᵀ and, per
 * configuration, r_c = Σ_b w_b P_bc ũ_b and q_c = Σ_b w_b P_bc². A
 * weighted Gram entry of steps 1/3 is then an entry of M times a sum
 * over configurations of two configuration scalars, AᵀWb a sum of
 * scaled r_c and bᵀWb a sum of q_c. The step-2 moments are quadratic
 * forms in M and dot products with r_c.
 */
class FitStatistics
{
  public:
    /** Entries of ũ_b: 1, then the components in gpu::Component order. */
    static constexpr std::size_t kDim = 1 + gpu::kNumComponents;
    /** Coefficients: β0..β3, then ω in gpu::Component order. */
    static constexpr std::size_t kNumFeatures = 4 + gpu::kNumComponents;

    /** One pass over `data`; idle rows weigh `idle_row_weight`. */
    FitStatistics(const TrainingData &data, double idle_row_weight);

    /**
     * The weighted normal equations of the coefficient fit over the
     * configurations in `subset` at `voltages`, written into `ne`
     * (order kNumFeatures): what NormalEquations::addRow gives over
     * those cells, in O(|subset|).
     */
    void normalEquations(const std::vector<VoltagePair> &voltages,
                         const std::vector<std::size_t> &subset,
                         linalg::NormalEquations &ne) const;

    /**
     * The weighted moments of step 2 at fixed coefficients. A_b =
     * β1 + Σ_core ω·U and B_b = β3 + ω_DRAM·U_DRAM are a
     * microbenchmark's core and memory aggregates, P_bc its power.
     */
    struct VoltageMoments
    {
        /** Σw, ΣwA, ΣwB, ΣwA², ΣwB², ΣwAB over the microbenchmarks. */
        double sw = 0.0, swa = 0.0, swb = 0.0, swaa = 0.0, swbb = 0.0,
               swab = 0.0;
        /** Per configuration: ΣwP, ΣwAP, ΣwBP. */
        std::vector<double> swp, swap, swbp;
    };

    /** The step-2 moments at `p` into `out`, reusing its storage. */
    void voltageMoments(const ModelParams &p, VoltageMoments &out) const;

  private:
    std::array<std::array<double, kDim>, kDim> m_{}; ///< M
    std::vector<std::array<double, kDim>> r_;          ///< r_c
    std::vector<double> q_;                           ///< q_c
    std::vector<double> fc_, fm_;                     ///< clocks, GHz
};

/** The iterative heuristic estimator. */
class ModelEstimator
{
  public:
    explicit ModelEstimator(EstimatorOptions opts = {});

    /**
     * Run the full Sec. III-D algorithm with typed error
     * propagation: malformed data, a grid too sparse to identify the
     * bilinear system, or a numerical breakdown mid-iteration all
     * come back as FitError — never as garbage coefficients.
     */
    FitResult tryEstimate(const TrainingData &data) const;

    /** tryEstimate, throwing on error (legacy convenience). */
    EstimationResult estimate(const TrainingData &data) const;

  private:
    EstimatorOptions opts_;
};

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_ESTIMATOR_HH
