/**
 * @file
 * Alert rule engine over the embedded time-series store.
 *
 * Rules are evaluated once per sampler tick against tsdb windows:
 *
 *  - `Threshold`: the windowed mean of a series compared against a
 *    bound (`mean(series[now-window, now]) > threshold`, or `<`).
 *  - `Rate`: rate of change across the window, per second, compared
 *    against a bound — catches "MAE climbing fast" before a level
 *    threshold would.
 *  - `Drift`: a threshold rule with provenance — the bound is the
 *    paper's Fig. 7 per-device accuracy envelope (6.6% Titan Xp,
 *    5.5% GTX Titan X, 12.2% Tesla K40c) plus a tolerance in
 *    percentage points, optionally refreshed from a
 *    `bench/golden/BENCH_fig7_validation.json` golden. It watches the
 *    sampler's rolling-MAE series, so a deployed model drifting
 *    outside its validated envelope raises an alert online.
 *
 * Hysteresis prevents flapping: a rule whose condition holds is
 * `pending` until it has held for `for_us`, only then `firing`; a
 * firing rule whose condition clears is not resolved until the
 * condition has stayed clear for `cooldown_us`. Empty windows (probe
 * stalled, startup) freeze the state machine rather than resolving a
 * real alert on missing data; NaN samples never enter the store
 * (Tsdb::append drops them).
 *
 * Transitions increment `gpupm_alert_transitions_total`, flip the
 * `gpupm_alerts_firing{rule=...}` gauge and land in the flight
 * recorder (kind "alert"), with one NDJSON line for the monitor's
 * event log while the recorder has one open. DESIGN.md §14 documents
 * the rule grammar accepted by `--alert`.
 */

#ifndef GPUPM_OBS_ALERTS_HH
#define GPUPM_OBS_ALERTS_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/tsdb.hh"

namespace gpupm
{
namespace obs
{

enum class AlertKind { Threshold, Rate, Drift };
enum class AlertOp { Gt, Lt };

/** One rule; see the file doc for semantics. */
struct AlertRule
{
    std::string name;   ///< unique; labels the firing gauge
    std::string series; ///< tsdb series the rule watches
    AlertKind kind = AlertKind::Threshold;
    AlertOp op = AlertOp::Gt;
    double threshold = 0.0;    ///< bound (drift: envelope+tolerance)
    double envelope_pct = 0.0; ///< drift only: the Fig. 7 envelope
    double tolerance_pp = 0.0; ///< drift only: slack over the envelope
    std::int64_t window_us = 30'000'000;   ///< evaluation window
    std::int64_t for_us = 10'000'000;      ///< pending -> firing
    std::int64_t cooldown_us = 30'000'000; ///< clear -> resolved
    std::int64_t min_count = 1; ///< samples required in the window
};

enum class AlertState { Inactive, Pending, Firing, Resolved };

const char *alertStateName(AlertState s);

/**
 * The paper's Fig. 7 mean-absolute-error envelope for a device token
 * ("titanxp", "titanx", "k40c"); nullopt for unknown devices.
 */
std::optional<double> fig7EnvelopePct(const std::string &device);

/**
 * Built-in drift rule for `device`: watches
 * `gpupm_accuracy_rolling_mae_pct` against the Fig. 7 envelope plus
 * `tolerance_pp`. `envelope_override` (e.g. parsed from a
 * bench/golden fig7 file) replaces the hard-coded envelope when set.
 */
AlertRule makeDriftRule(const std::string &device, double tolerance_pp,
                        std::int64_t window_us, std::int64_t for_us,
                        std::int64_t cooldown_us,
                        std::optional<double> envelope_override = {});

/** One recorded state change of a rule. */
struct AlertTransition
{
    std::int64_t t_us = 0;
    AlertState state = AlertState::Inactive;
    double value = 0.0; ///< evaluated value at the transition
};

/** Live status of one rule, as reported by /alertz. */
struct AlertStatus
{
    AlertRule rule;
    AlertState state = AlertState::Inactive;
    std::int64_t since_us = 0; ///< when `state` was entered
    double last_value = 0.0;   ///< NaN until first non-empty window
    bool evaluated = false;    ///< any non-empty window seen yet
    std::deque<AlertTransition> history; ///< bounded, oldest first
};

/**
 * Evaluates rules against a Tsdb. evaluate() is expected from one
 * thread (the sampler tick); snapshots and renders may race it from
 * HTTP handlers — everything is mutex-guarded.
 */
class AlertEngine
{
  public:
    AlertEngine(const Tsdb &tsdb, std::vector<AlertRule> rules,
                FlightRecorder *recorder = nullptr);

    AlertEngine(const AlertEngine &) = delete;
    AlertEngine &operator=(const AlertEngine &) = delete;

    /** Evaluate every rule at `now_us`; called once per tick. */
    void evaluate(std::int64_t now_us);

    std::vector<AlertStatus> snapshot() const;

    /** Names of rules currently firing, rule order. */
    std::vector<std::string> firingRuleNames() const;

    bool anyFiring() const { return !firingRuleNames().empty(); }

    std::int64_t lastEvaluatedUs() const;

    /** /alertz JSON: deterministic key order, NaN rendered as null. */
    std::string renderJson(std::int64_t now_us) const;

    /** /alertz human text. */
    std::string renderText(std::int64_t now_us) const;

  private:
    struct RuleState
    {
        AlertRule rule;
        AlertState state = AlertState::Inactive;
        std::int64_t since_us = 0;
        std::int64_t cond_true_since_us = -1;
        std::int64_t cond_false_since_us = -1;
        double last_value = 0.0;
        bool evaluated = false;
        std::deque<AlertTransition> history;
    };

    void transition(RuleState &rs, AlertState to, std::int64_t now_us);

    /** Windowed value of `rule` at now; false when window is empty. */
    bool evaluateValue(const AlertRule &rule, std::int64_t now_us,
                      double &out) const;

    const Tsdb &tsdb_;
    FlightRecorder *recorder_ = nullptr;
    mutable std::mutex mu_;
    std::vector<RuleState> rules_;
    std::int64_t last_evaluated_us_ = -1;
};

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_ALERTS_HH
