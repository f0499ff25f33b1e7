#include "profiler.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <cxxabi.h>
#include <dlfcn.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include "common/json.hh"

namespace gpupm
{
namespace obs
{

namespace
{

/**
 * Per-thread span-context stack. The SIGPROF handler interrupts the
 * thread that owns it and reads it in place, so no cross-thread
 * synchronization is needed — only signal fences, so the compiler
 * cannot reorder the frame-byte writes past the depth publication.
 * `depth` may exceed kProfilerMaxSpanDepth (overflow pushes are
 * counted but not stored); readers clamp.
 */
struct SpanCtxFrame
{
    char cat[16];
    char name[kProfilerLeafNameBytes];
};

struct SpanCtx
{
    volatile sig_atomic_t depth = 0;
    SpanCtxFrame frames[kProfilerMaxSpanDepth];
};

thread_local SpanCtx g_span_ctx;

/**
 * Bounded copy into a fixed char array, always NUL-terminated. The
 * SIGPROF handler calls both overloads, so they are exempt from
 * instrumentation as it is: ThreadSanitizer would otherwise see the
 * handler's writes to a ring slot but not the release that publishes
 * them, and report a race with collect().
 */
template <std::size_t N>
GPUPM_PROFILER_NO_SANITIZE void
copyBounded(char (&dst)[N], const char *src)
{
    std::size_t i = 0;
    for (; src != nullptr && src[i] != '\0' && i + 1 < N; ++i)
        dst[i] = src[i];
    dst[i] = '\0';
}

/** The same for a span name, which need not be NUL-terminated. */
template <std::size_t N>
GPUPM_PROFILER_NO_SANITIZE void
copyBounded(char (&dst)[N], std::string_view src)
{
    std::size_t i = 0;
    for (; i < src.size() && i + 1 < N; ++i)
        dst[i] = src[i];
    dst[i] = '\0';
}

std::uint64_t
currentTid()
{
    return static_cast<std::uint64_t>(::syscall(SYS_gettid));
}

/** tid -> label registry (written outside the handler path only). */
std::mutex &
labelMutex()
{
    static std::mutex mu;
    return mu;
}

std::map<std::uint64_t, std::string> &
labelMap()
{
    static std::map<std::uint64_t, std::string> labels;
    return labels;
}

/** Folded-format frame sanitization: ';' is the separator. */
std::string
foldSanitize(std::string s)
{
    for (char &c : s)
        if (c == ';' || c == '\n' || c == '\r')
            c = ':';
    return s;
}

std::string
formatPct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace

std::string
symbolize(const void *pc)
{
    Dl_info info{};
    const bool placed = dladdr(pc, &info) != 0;
    if (placed && info.dli_sname != nullptr) {
        int status = 0;
        char *dem = abi::__cxa_demangle(info.dli_sname, nullptr,
                                        nullptr, &status);
        if (status == 0 && dem != nullptr) {
            std::string out(dem);
            std::free(dem);
            return out;
        }
        return info.dli_sname;
    }
    char buf[32];
    if (!placed || info.dli_fname == nullptr || *info.dli_fname == '\0') {
        std::snprintf(buf, sizeof(buf), "0x%zx",
                      reinterpret_cast<std::size_t>(pc));
        return buf;
    }
    // Placed but unnamed (internal linkage, or a stripped library):
    // the object and the offset addr2line takes.
    const char *slash = std::strrchr(info.dli_fname, '/');
    std::snprintf(buf, sizeof(buf), "+0x%zx",
                  reinterpret_cast<std::size_t>(pc) -
                          reinterpret_cast<std::size_t>(info.dli_fbase));
    return (slash ? slash + 1 : info.dli_fname) + std::string(buf);
}

std::atomic<bool> Profiler::context_enabled_{false};

void
profilerPushSpan(const char *cat, std::string_view name)
{
    SpanCtx &ctx = g_span_ctx;
    const int d = ctx.depth;
    if (d >= 0 && d < static_cast<int>(kProfilerMaxSpanDepth)) {
        copyBounded(ctx.frames[d].cat, cat);
        copyBounded(ctx.frames[d].name, name);
    }
    // Publish the frame before the depth: a SIGPROF landing between
    // the two sees the old depth and a fully-written stack.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    ctx.depth = d + 1;
}

void
profilerPopSpan()
{
    SpanCtx &ctx = g_span_ctx;
    if (ctx.depth > 0)
        ctx.depth = ctx.depth - 1;
}

Profiler &
Profiler::global()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::onSigprof(int /*sig*/, void * /*info*/, void *ucontext)
{
    // Async-signal-safe: no allocation, no locks, no library calls
    // beyond the raw gettid syscall; errno is saved and restored.
    const int saved_errno = errno;
    Profiler &p = global();
    if (p.running_.load(std::memory_order_acquire)) {
        const std::uint64_t slot =
                p.next_slot_.fetch_add(1, std::memory_order_relaxed);
        if (slot >= p.ring_.size()) {
            p.dropped_.fetch_add(1, std::memory_order_relaxed);
        } else {
            RawCpuSample &s = p.ring_[slot];
            s.tid = currentTid();

            // The handler runs on the thread it interrupted, so the
            // thread-local span context is coherent by construction.
            const SpanCtx &ctx = g_span_ctx;
            int d = ctx.depth;
            if (d > static_cast<int>(kProfilerMaxSpanDepth))
                d = static_cast<int>(kProfilerMaxSpanDepth);
            if (d > 0) {
                copyBounded(s.category, ctx.frames[d - 1].cat);
                copyBounded(s.leaf, ctx.frames[d - 1].name);
            } else {
                s.category[0] = '\0';
                s.leaf[0] = '\0';
            }

            // Frame-pointer walk from the *interrupted* context (the
            // ucontext PC/FP), so the handler's own frames are never
            // captured. Each candidate fp is vetted before the
            // dereference: aligned, strictly increasing, and within a
            // stack-sized window above a handler local — the handler
            // runs on the interrupted thread's stack, so anything in
            // that window is mapped and the loads cannot fault.
            std::uintptr_t pc = 0, fp = 0;
            auto *uc = static_cast<ucontext_t *>(ucontext);
#if defined(__x86_64__)
            pc = static_cast<std::uintptr_t>(
                    uc->uc_mcontext.gregs[REG_RIP]);
            fp = static_cast<std::uintptr_t>(
                    uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
            pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
            fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
            (void)uc;
#endif
            char stack_anchor = 0;
            const std::uintptr_t stack_lo =
                    reinterpret_cast<std::uintptr_t>(&stack_anchor);
            const std::uintptr_t stack_hi =
                    stack_lo + (8u << 20); // 8 MiB default stack
            std::uint32_t n = 0;
            if (pc != 0)
                s.pcs[n++] = reinterpret_cast<void *>(pc);
            while (n < kProfilerMaxFrames && fp != 0) {
                if (fp < stack_lo ||
                    fp + 2 * sizeof(void *) > stack_hi)
                    break;
                if ((fp & (sizeof(void *) - 1)) != 0)
                    break;
                const std::uintptr_t *frame =
                        reinterpret_cast<const std::uintptr_t *>(fp);
                const std::uintptr_t next_fp = frame[0];
                const std::uintptr_t ret = frame[1];
                if (ret == 0)
                    break;
                // Return addresses point one past the call; step back
                // so the PC symbolizes to the calling function.
                s.pcs[n++] = reinterpret_cast<void *>(ret - 1);
                if (next_fp <= fp)
                    break;
                fp = next_fp;
            }
            s.depth = n;
            // Release-RMW chain: collect()'s acquire load of
            // completed_ makes every finished slot visible.
            p.completed_.fetch_add(1, std::memory_order_release);
        }
    }
    errno = saved_errno;
}

bool
Profiler::start(const ProfilerOptions &opts, std::string *err)
{
    static std::mutex start_mu;
    std::lock_guard<std::mutex> lock(start_mu);
    if (running_.load(std::memory_order_acquire)) {
        if (err != nullptr)
            *err = "profiler already running";
        return false;
    }

    opts_ = opts;
    if (opts_.hz < 1)
        opts_.hz = 1;
    if (opts_.hz > 10000)
        opts_.hz = 10000;
    if (opts_.max_samples < 64)
        opts_.max_samples = 64;
    ring_.assign(opts_.max_samples, RawCpuSample{});
    next_slot_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);

    const int signo = opts_.wall ? SIGALRM : SIGPROF;
    const int which = opts_.wall ? ITIMER_REAL : ITIMER_PROF;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sa.sa_sigaction = [](int sig, siginfo_t *info, void *uc) {
        onSigprof(sig, info, uc);
    };
    sigemptyset(&sa.sa_mask);
    if (sigaction(signo, &sa, nullptr) != 0) {
        if (err != nullptr)
            *err = std::string("sigaction(profiler signal): ") +
                   std::strerror(errno);
        return false;
    }

    // Publish the ring before arming the timer (handler acquires).
    running_.store(true, std::memory_order_release);
    context_enabled_.store(true, std::memory_order_relaxed);

    struct itimerval timer;
    std::memset(&timer, 0, sizeof(timer));
    const long period_us = 1000000L / opts_.hz;
    timer.it_interval.tv_sec = period_us / 1000000L;
    timer.it_interval.tv_usec = period_us % 1000000L;
    timer.it_value = timer.it_interval;
    if (setitimer(which, &timer, nullptr) != 0) {
        running_.store(false, std::memory_order_release);
        context_enabled_.store(false, std::memory_order_relaxed);
        if (err != nullptr)
            *err = std::string("setitimer(profiler timer): ") +
                   std::strerror(errno);
        return false;
    }
    return true;
}

void
Profiler::stop()
{
    static std::mutex stop_mu;
    std::lock_guard<std::mutex> lock(stop_mu);
    if (!running_.load(std::memory_order_acquire))
        return;

    struct itimerval timer;
    std::memset(&timer, 0, sizeof(timer));
    setitimer(opts_.wall ? ITIMER_REAL : ITIMER_PROF, &timer,
              nullptr);
    // The no-op handler stays installed: a SIGPROF already queued when
    // the timer was disarmed must not hit the default disposition
    // (which terminates the process). running_=false makes it inert.
    context_enabled_.store(false, std::memory_order_relaxed);
    running_.store(false, std::memory_order_release);

    // Quiesce: wait (bounded) for in-flight handlers on other threads
    // to finish their claimed slots, so collect() sees a full ring.
    const std::uint64_t claimed = std::min<std::uint64_t>(
            next_slot_.load(std::memory_order_relaxed), ring_.size());
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t done =
                completed_.load(std::memory_order_acquire);
        if (done >= claimed)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

long
Profiler::sampleCount() const
{
    return static_cast<long>(
            completed_.load(std::memory_order_acquire));
}

CpuProfile
Profiler::collect() const
{
    CpuProfile out;
    out.hz = opts_.hz;
    out.wall = opts_.wall;
    out.dropped = static_cast<long>(
            dropped_.load(std::memory_order_relaxed));

    // Snapshot the completion count once; the acquire pairs with the
    // release-RMW chain in the handler, so the first `done` slots are
    // fully written. While running, later slots are simply not read.
    std::uint64_t done = completed_.load(std::memory_order_acquire);
    const std::uint64_t claimed = std::min<std::uint64_t>(
            next_slot_.load(std::memory_order_relaxed), ring_.size());
    if (done > claimed)
        done = claimed;
    out.samples = static_cast<long>(done);

    std::unordered_map<void *, std::string> symcache;
    auto symbol = [&symcache](void *pc) -> const std::string & {
        auto it = symcache.find(pc);
        if (it == symcache.end())
            it = symcache.emplace(pc, foldSanitize(symbolize(pc)))
                         .first;
        return it->second;
    };

    // Aggregate identical (category, leaf, stack) tuples.
    struct Agg
    {
        ProfileStack stack;
    };
    std::map<std::string, Agg> aggregated;
    // Iterate claimed slots, keeping only completed ones: completion
    // order can differ from claim order across threads, but with the
    // timer disarmed (stop() quiesces) done == claimed and every slot
    // below is complete.
    for (std::uint64_t i = 0; i < done; ++i) {
        const RawCpuSample &s = ring_[i];
        const std::string cat = s.category;
        out.category_samples[cat] += 1;
        out.thread_samples[s.tid] += 1;

        std::string key = cat;
        key += '\0';
        key.append(s.leaf);
        key += '\0';
        key.append(reinterpret_cast<const char *>(s.pcs),
                   s.depth * sizeof(void *));
        auto it = aggregated.find(key);
        if (it == aggregated.end()) {
            Agg a;
            a.stack.category = cat;
            if (s.leaf[0] != '\0')
                a.stack.frames.push_back(foldSanitize(s.leaf));
            // Raw PCs are leaf-first; folded wants outermost first.
            for (std::uint32_t f = s.depth; f > 0; --f)
                a.stack.frames.push_back(symbol(s.pcs[f - 1]));
            it = aggregated.emplace(std::move(key), std::move(a))
                         .first;
        }
        it->second.stack.samples += 1;
    }

    out.stacks.reserve(aggregated.size());
    for (auto &kv : aggregated)
        out.stacks.push_back(std::move(kv.second.stack));
    std::sort(out.stacks.begin(), out.stacks.end(),
              [](const ProfileStack &a, const ProfileStack &b) {
                  if (a.samples != b.samples)
                      return a.samples > b.samples;
                  return a.category < b.category;
              });

    {
        std::lock_guard<std::mutex> lock(labelMutex());
        for (const auto &kv : out.thread_samples) {
            auto it = labelMap().find(kv.first);
            if (it != labelMap().end())
                out.thread_labels[kv.first] = it->second;
        }
    }
    return out;
}

void
Profiler::setThreadLabel(const std::string &label)
{
    std::lock_guard<std::mutex> lock(labelMutex());
    labelMap()[currentTid()] = label;
}

double
CpuProfile::attributedPct() const
{
    if (samples <= 0)
        return 0.0;
    long tagged = 0;
    for (const auto &kv : category_samples)
        if (!kv.first.empty())
            tagged += kv.second;
    return 100.0 * static_cast<double>(tagged) /
           static_cast<double>(samples);
}

double
CpuProfile::categorySharePct(const std::string &cat) const
{
    if (samples <= 0)
        return 0.0;
    const auto it = category_samples.find(cat);
    if (it == category_samples.end())
        return 0.0;
    return 100.0 * static_cast<double>(it->second) /
           static_cast<double>(samples);
}

std::string
CpuProfile::renderFolded() const
{
    std::ostringstream os;
    for (const ProfileStack &st : stacks) {
        os << (st.category.empty() ? "untagged" : st.category.c_str());
        for (const std::string &f : st.frames)
            os << ';' << f;
        os << ' ' << st.samples << '\n';
    }
    return os.str();
}

std::string
CpuProfile::renderJson(std::size_t top_n) const
{
    // Self-time per leaf symbol (innermost captured frame).
    std::map<std::string, long> self;
    for (const ProfileStack &st : stacks) {
        const std::string &leaf = st.frames.empty()
                                          ? st.category
                                          : st.frames.back();
        self[leaf] += st.samples;
    }
    std::vector<std::pair<std::string, long>> top(self.begin(),
                                                  self.end());
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (top.size() > top_n)
        top.resize(top_n);

    std::ostringstream os;
    os << "{\"hz\":" << hz << ",\"mode\":\""
       << (wall ? "wall" : "cpu") << "\",\"samples\":" << samples
       << ",\"dropped\":" << dropped << ",\"attributed_pct\":"
       << formatPct(attributedPct()) << ",\"categories\":{";
    bool first = true;
    for (const auto &kv : category_samples) {
        if (!first)
            os << ',';
        first = false;
        const std::string name =
                kv.first.empty() ? "untagged" : kv.first;
        os << '"' << json::escape(name) << "\":{\"samples\":"
           << kv.second << ",\"share_pct\":"
           << formatPct(categorySharePct(kv.first)) << '}';
    }
    os << "},\"threads\":[";
    first = true;
    for (const auto &kv : thread_samples) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"tid\":" << kv.first << ",\"samples\":" << kv.second;
        const auto it = thread_labels.find(kv.first);
        if (it != thread_labels.end())
            os << ",\"label\":\"" << json::escape(it->second) << '"';
        os << '}';
    }
    os << "],\"top\":[";
    first = true;
    for (const auto &kv : top) {
        if (!first)
            os << ',';
        first = false;
        const double pct =
                samples > 0 ? 100.0 * static_cast<double>(kv.second) /
                                      static_cast<double>(samples)
                            : 0.0;
        os << "{\"symbol\":\"" << json::escape(kv.first)
           << "\",\"self_samples\":" << kv.second
           << ",\"self_pct\":" << formatPct(pct) << '}';
    }
    os << "]}";
    return os.str();
}

bool
CpuProfile::writeFolded(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << renderFolded();
    return static_cast<bool>(out);
}

} // namespace obs
} // namespace gpupm
