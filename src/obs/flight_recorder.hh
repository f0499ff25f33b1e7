/**
 * @file
 * Fixed-capacity flight recorder.
 *
 * A lock-aware ring buffer retaining the last N spans/samples of a
 * long-running process (gpupm monitor), so the recent past is always
 * available — through `GET /tracez` while the process is alive, and
 * as a post-mortem dump on shutdown or fault. Unlike the Tracer
 * (trace.hh), which accumulates every span of a bounded batch run for
 * a complete Chrome trace, the recorder deliberately forgets: memory
 * stays constant no matter how long the daemon runs.
 *
 * Writers take one short mutex hold per record; records carry a
 * global sequence number so readers can detect wraparound (recorded()
 * minus capacity() records have been overwritten) and verify
 * ordering.
 *
 * The recorder is also the monitor's one event sink: once a caller
 * opens a log on it (openLog), every record that comes with an NDJSON
 * line — each sample and each alert transition — also appends that
 * line to the log, under the same lock, so the file holds the events
 * in the order the ring numbered them.
 */

#ifndef GPUPM_OBS_FLIGHT_RECORDER_HH
#define GPUPM_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gpupm
{
namespace obs
{

/** One retained event: a completed span, sample or lifecycle mark. */
struct FlightRecord
{
    std::int64_t seq = 0;    ///< global sequence, assigned on record()
    std::int64_t ts_us = 0;  ///< recorder-epoch timestamp, microseconds
    std::int64_t dur_us = 0; ///< duration when span-like, else 0
    std::string kind;        ///< "span" | "sample" | "event"
    std::string name;        ///< e.g. "monitor.sample", "http.request"
    std::string detail;      ///< freeform annotation (escaped on render)
    /** Correlating trace (trace.hh); stamped from the recording
     *  thread's context when left 0, so recorder entries join the
     *  trace store and the NDJSON event log on one ID. */
    std::uint64_t trace_id = 0;
};

/** Bounded, thread-safe ring of the most recent FlightRecords. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity);

    std::size_t capacity() const { return slots_.size(); }

    /** Records ever written (>= capacity() once wrapped). */
    std::int64_t recorded() const;

    /** Microseconds since this recorder was constructed. */
    std::int64_t nowUs() const;

    /**
     * Retain one record, overwriting the oldest once full. seq is
     * assigned here; a zero ts_us is stamped with nowUs(). A non-empty
     * `ndjson_line` is also appended to the log, when one is open.
     */
    void record(FlightRecord r, std::string_view ndjson_line = {});

    /**
     * Open the NDJSON event log at `path`, truncating it. Once a write
     * would take the file past `max_bytes` (0 = never), it rotates
     * first: `<path>.N-1` -> `<path>.N`, ..., `<path>` -> `<path>.1`,
     * keeping `max_files` generations, and a fresh `<path>` takes the
     * line. So a line is never split across generations. False and
     * *err when the file cannot be opened.
     */
    bool openLog(const std::string &path, long max_bytes = 0,
                 int max_files = 1, std::string *err = nullptr);

    /** Whether a log is open: callers build NDJSON lines only then. */
    bool logOpen() const { return log_open_.load(); }

    /** Log rotations so far. */
    long logRotations() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return log_rotations_;
    }

    /** Convenience: record a span-like entry. */
    void recordSpan(const std::string &name, std::int64_t dur_us,
                    std::string detail = "");

    /** Retained records, oldest first (sequence ascending). */
    std::vector<FlightRecord> snapshot() const;

    /**
     * JSON document for /tracez and the post-mortem dump:
     * {"capacity":..,"recorded":..,"dropped":..,"records":[...]}.
     */
    std::string renderJson() const;

    /** Drop everything retained (sequence numbering continues). */
    void clear();

  private:
    void writeLogLocked(std::string_view line);

    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<FlightRecord> slots_; ///< slot i holds seq % capacity
    std::int64_t next_seq_ = 0;       ///< guarded by mu_

    // The event log; guarded by mu_. log_open_ mirrors
    // log_.is_open() so that logOpen() takes no lock.
    std::atomic<bool> log_open_{false};
    std::ofstream log_;
    std::string log_path_;
    long log_max_bytes_ = 0;
    int log_max_files_ = 1;
    long log_bytes_ = 0; ///< written since the last (re)open
    long log_rotations_ = 0;
};

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_FLIGHT_RECORDER_HH
