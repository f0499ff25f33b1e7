/**
 * @file
 * In-process sampling CPU profiler with span-attributed stacks.
 *
 * The span tracer (trace.hh) answers "how long did phase X take" in
 * wall-clock; this profiler answers "which functions burned the CPU
 * inside it". A process-wide ITIMER_PROF timer delivers SIGPROF at a
 * fixed rate on whichever thread is consuming CPU; the async-signal-
 * safe handler walks the interrupted thread's frame-pointer chain
 * (starting from the ucontext PC/FP, so the capture skips the handler
 * itself) into a pre-allocated lock-free sample ring. Nothing is
 * symbolized, allocated or locked inside the handler — symbolization
 * (dladdr + demangling) and aggregation are deferred to collect(),
 * after the timer is disarmed.
 *
 * Every sample is tagged with the *active span* of the interrupted
 * thread: SpanGuard maintains a thread-local category/name stack
 * (pushed only while the profiler is running, so instrumented hot
 * paths stay free when it is off), and the handler copies the
 * innermost frame. A profile therefore reports CPU *self time per
 * span taxonomy category* (cli/campaign/backend/sim/estimator/io/...)
 * alongside per-function and per-thread attribution — the bridge
 * between the tracer's wall-clock table and an actual optimization
 * target.
 *
 * Output formats:
 *  - collapsed ("folded") stacks, one `cat;outer;...;leaf N` line per
 *    unique stack, directly consumable by flamegraph.pl / speedscope;
 *  - a JSON summary (total/dropped/attributed samples, per-category
 *    shares, per-thread counts, top functions by self time) embedded
 *    by BenchReporter as the `cpu` block of BENCH_<name>.json and
 *    gated by `gpupm_bench_check profile`.
 *
 * Frame-pointer capture requires -fno-omit-frame-pointer (set
 * project-wide; see the top-level CMakeLists.txt) and symbolization
 * of non-static functions requires -rdynamic. Both degrade
 * gracefully: missing frame pointers shorten stacks to the leaf PC,
 * a PC that dladdr places in an object but cannot name renders as
 * `<object>+0x<offset>` (e.g. `libm.so.6+0x702d0`, `gpupm+0x1230`),
 * and one it cannot place as a hex address — category attribution
 * needs neither.
 */

#ifndef GPUPM_OBS_PROFILER_HH
#define GPUPM_OBS_PROFILER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/**
 * The SIGPROF handler probes raw frame-pointer chains; frames from
 * code built without frame pointers (libc, libstdc++) can leave a
 * stale register that points at a stack redzone. The bounds checks
 * keep every load inside the thread's mapped stack, but sanitizers
 * must not second-guess them — so the handler and the copy helpers
 * it calls opt out.
 */
#if defined(__GNUC__)
#define GPUPM_PROFILER_NO_SANITIZE \
    [[gnu::no_sanitize("address", "thread", "undefined")]]
#else
#define GPUPM_PROFILER_NO_SANITIZE
#endif

namespace gpupm
{
namespace obs
{

/** Bounded depths/sizes of one raw sample (signal-handler side). */
constexpr std::size_t kProfilerMaxFrames = 24;
constexpr std::size_t kProfilerMaxSpanDepth = 24;
constexpr std::size_t kProfilerLeafNameBytes = 48;

/** One raw sample as captured inside the SIGPROF handler. */
struct RawCpuSample
{
    std::uint64_t tid = 0; ///< kernel thread id (gettid)
    std::uint32_t depth = 0;
    char category[16] = {0}; ///< active span category, "" = untagged
    char leaf[kProfilerLeafNameBytes] = {0}; ///< active span name
    void *pcs[kProfilerMaxFrames] = {nullptr};
};

struct ProfilerOptions
{
    /** Samples per second of process CPU time. Prime, so the timer
     *  cannot phase-lock with periodic work. */
    int hz = 997;
    /** Ring capacity; sampling drops (counted) once full. */
    std::size_t max_samples = 65536;
    /**
     * Sample wall-clock time (ITIMER_REAL/SIGALRM) instead of CPU
     * time (ITIMER_PROF/SIGPROF). CPU mode is right for benchmarks —
     * it never ticks while the process sleeps, so every sample is
     * real work. Wall mode is right for a live daemon diagnostic
     * (/profilez): a mostly-idle process still produces samples
     * showing where its threads sit. Wall samples land on whichever
     * thread the kernel picks for the process-directed signal, so
     * per-thread attribution is biased in this mode.
     */
    bool wall = false;
};

/** One symbolized aggregate line of a collected profile. */
struct ProfileStack
{
    std::string category; ///< "" when untagged
    std::vector<std::string> frames; ///< outermost first
    long samples = 0;
};

/** A collected, symbolized profile. */
struct CpuProfile
{
    int hz = 0;
    bool wall = false; ///< wall-clock run (see ProfilerOptions::wall)
    long samples = 0; ///< retained in the ring
    long dropped = 0; ///< lost to ring overflow
    std::vector<ProfileStack> stacks; ///< sorted, most samples first
    /** Span-category -> sample count ("" = untagged). */
    std::map<std::string, long> category_samples;
    /** tid -> sample count. */
    std::map<std::uint64_t, long> thread_samples;
    /** tid -> label (only threads that registered one). */
    std::map<std::uint64_t, std::string> thread_labels;

    /** Fraction of samples carrying a span category, in percent. */
    double attributedPct() const;

    /** Share of one category's samples, in percent of the total. */
    double categorySharePct(const std::string &cat) const;

    /**
     * Collapsed-stack text: `cat;frame;...;leaf count` per line,
     * outermost frame first — feed to flamegraph.pl or speedscope.
     */
    std::string renderFolded() const;

    /**
     * JSON summary: {"hz":..,"samples":..,"dropped":..,
     * "attributed_pct":..,"categories":{..},"threads":[..],
     * "top":[{"symbol":..,"self_samples":..,"self_pct":..}]}.
     */
    std::string renderJson(std::size_t top_n = 15) const;

    /** Write renderFolded() to a file; false on I/O failure. */
    bool writeFolded(const std::string &path) const;
};

/**
 * Process-global sampling profiler. One instance; start() installs
 * the SIGPROF handler and arms ITIMER_PROF, stop() disarms and
 * restores. start/stop/collect are NOT async-signal-safe and must be
 * called outside signal handlers; concurrent start() calls are
 * serialized, the loser gets false.
 */
class Profiler
{
  public:
    static Profiler &global();

    /**
     * Arm the timer and start sampling. False (with *err filled) when
     * already running or the timer/handler cannot be installed.
     */
    bool start(const ProfilerOptions &opts = {},
               std::string *err = nullptr);

    /** Disarm the timer, restore the previous SIGPROF disposition. */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /**
     * Symbolize and aggregate everything captured since start().
     * Call after stop(); collecting while running snapshots a prefix.
     */
    CpuProfile collect() const;

    /** Samples currently retained in the ring. */
    long sampleCount() const;

    /**
     * True while a profiling run wants span context maintained.
     * SpanGuard checks this one relaxed atomic on construction; when
     * false, instrumented code pays nothing for the profiler.
     */
    static bool contextEnabled()
    {
        return context_enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Label the calling thread for per-thread attribution (e.g.
     * "fleet.worker3"). Safe any time; retained across runs.
     */
    static void setThreadLabel(const std::string &label);

  private:
    Profiler() = default;

    GPUPM_PROFILER_NO_SANITIZE
    static void onSigprof(int sig, void *info, void *ucontext);

    static std::atomic<bool> context_enabled_;

    std::atomic<bool> running_{false};
    ProfilerOptions opts_;
    std::vector<RawCpuSample> ring_;

    // Handler-side state: claimed slot index and completed-slot count
    // (release RMW chain; collect() acquires to see slot contents).
    std::atomic<std::uint64_t> next_slot_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/**
 * One PC as a profile frame: the demangled symbol when dladdr names
 * it, `<object basename>+0x<pc - load base>` when dladdr places it
 * but cannot name it (a static function, a stripped library), and
 * `0x<pc>` when dladdr fails.
 */
std::string symbolize(const void *pc);

/**
 * Span-context maintenance, called by SpanGuard (trace.cc) while
 * Profiler::contextEnabled(). `cat` must be a string literal (it is
 * not copied on push; the handler copies bytes out on sample).
 */
void profilerPushSpan(const char *cat, std::string_view name);
void profilerPopSpan();

} // namespace obs
} // namespace gpupm

#endif // GPUPM_OBS_PROFILER_HH
