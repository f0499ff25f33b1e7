/**
 * @file
 * Physical-plausibility validation of persisted artifacts.
 *
 * Campaign files and fitted models cross machines (the virtual-sensor
 * use case ships a model to hosts with no sensor; DVFS schedulers
 * consume fitted models they never trained), so a parseable file is
 * not yet a trustworthy one: a hand-edited campaign can smuggle
 * utilizations above 1, a bit-rotted model can carry a negative
 * leakage coefficient, a stale checkpoint can disagree with its own
 * bookkeeping. This subsystem checks the physics and the structure —
 * utilizations in [0, 1], non-negative finite power, a complete and
 * identifiable V-F grid, monotone fitted voltages — and reports every
 * finding in a structured ValidationReport instead of dying on the
 * first one.
 *
 * Severity policy: an *error* means downstream consumers (estimator,
 * predictor) would produce wrong or undefined results; a *warning*
 * means the artifact is usable but suspicious (e.g. a campaign with
 * no idle row, a voltage outside plausible silicon ranges).
 */

#ifndef GPUPM_CORE_VALIDATE_HH
#define GPUPM_CORE_VALIDATE_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hh"
#include "core/estimator.hh"
#include "core/power_model.hh"
#include "core/resilient.hh"
#include "obs/scoreboard.hh"

namespace gpupm
{
namespace model
{

/** How bad one validation finding is. */
enum class ValSeverity
{
    Warning, ///< usable but suspicious
    Error,   ///< downstream consumers would misbehave
};

/** Display name of a severity ("warning" / "error"). */
std::string_view valSeverityName(ValSeverity severity);

/** One validation finding. */
struct ValidationIssue
{
    ValSeverity severity = ValSeverity::Error;
    /** Stable kebab-case identifier, e.g. "util-out-of-range". */
    std::string code;
    /** Human-readable detail with offending values and locations. */
    std::string message;
};

/** Structured outcome of validating one artifact. */
struct ValidationReport
{
    /** What was validated ("model", "campaign", "checkpoint"). */
    std::string subject;
    std::vector<ValidationIssue> issues;

    void addError(std::string code, std::string message);
    void addWarning(std::string code, std::string message);

    std::size_t errorCount() const;
    std::size_t warningCount() const;

    /** True when no error-severity issue was found. */
    bool ok() const { return errorCount() == 0; }

    /** Human-readable multi-line report (one line per issue). */
    std::string summary() const;

    /** Machine-readable JSON form (for `gpupm validate --json`). */
    std::string toJson() const;
};

/**
 * Validate a training campaign: utilization ranges, power
 * plausibility, row completeness, grid structure/identifiability and
 * reference presence.
 */
ValidationReport validateTrainingData(const TrainingData &data);

/**
 * Validate a fitted model: finite non-negative coefficients, a
 * non-empty voltage table containing the reference pinned at (1, 1),
 * and the Eq. 12 monotonicity of V̄(f) along each clock domain.
 */
ValidationReport validateModel(const DvfsPowerModel &model);

/**
 * Validate a campaign checkpoint: internal bookkeeping consistency
 * (done flags vs. grid dimensions, report counters vs. cells).
 */
ValidationReport validateCheckpoint(const CampaignCheckpoint &ck);

/**
 * Validate an accuracy scoreboard: finite non-negative error
 * statistics, plausible clocks, per-app sample counts adding up to
 * the overall count, and — when raw residuals are present — the
 * stored summary agreeing with one recomputed from them (a
 * hand-edited MAE must not survive a --validate load).
 */
ValidationReport validateScoreboard(const obs::Scoreboard &sb);

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_VALIDATE_HH
