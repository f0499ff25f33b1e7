#include "trace_store.hh"

#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "obs/standard.hh"

namespace gpupm
{
namespace obs
{

TraceStore::TraceStore(TraceStoreOptions opts) : opts_(opts) {}

std::size_t
TraceStore::footprint(const StoredTrace &trace)
{
    std::size_t bytes = sizeof(StoredTrace);
    bytes += trace.root_name.size() + trace.root_cat.size();
    for (const auto &s : trace.spans) {
        bytes += sizeof(TraceEvent);
        bytes += s.name.size() + s.cat.size();
        for (const auto &kv : s.args)
            bytes += sizeof(kv) + kv.first.size() +
                     kv.second.size();
    }
    return bytes;
}

void
TraceStore::offer(StoredTrace trace)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++offered_;
    if (trace.error)
        ++errors_offered_;
    trace.bytes = footprint(trace);
    if (trace.bytes > opts_.max_bytes) {
        // A single trace larger than the whole bound can never be
        // resident; dropping it at the door keeps the bound exact.
        ++evicted_;
        if (trace.error)
            ++errors_evicted_;
        publishLocked();
        return;
    }
    if (!trace.error) {
        // Rank the newcomer among the non-error residents, every one
        // older and so first on equal durations. Only arrivals change
        // the protected set: evicting an unprotected or error trace
        // leaves it as it was, and a protected one is evicted only
        // when no unprotected non-error trace is left.
        std::size_t ahead = 0;
        std::size_t held = 0;
        StoredTrace *last = nullptr; // last-ranked protected resident
        for (StoredTrace &r : traces_) {
            if (r.error)
                continue;
            ahead += r.dur_us >= trace.dur_us;
            if (r.slow) {
                ++held;
                if (!last || r.dur_us <= last->dur_us)
                    last = &r;
            }
        }
        trace.slow = ahead < opts_.slow_kept;
        if (trace.slow && held == opts_.slow_kept)
            last->slow = false;
    }
    bytes_ += trace.bytes;
    traces_.push_back(std::move(trace));
    while (bytes_ > opts_.max_bytes ||
           traces_.size() > opts_.max_traces)
        evictOneLocked();
    publishLocked();
}

void
TraceStore::evictOneLocked()
{
    // The oldest boring trace; failing that, the fastest protected
    // one (the newer on equal durations); failing that, the oldest.
    auto victim = traces_.end();
    for (auto it = traces_.begin(); it != traces_.end(); ++it) {
        if (it->error)
            continue;
        if (!it->slow) {
            victim = it;
            break;
        }
        if (victim == traces_.end() || it->dur_us <= victim->dur_us)
            victim = it;
    }
    if (victim == traces_.end())
        victim = traces_.begin();
    ++evicted_;
    if (victim->error)
        ++errors_evicted_;
    bytes_ -= victim->bytes;
    traces_.erase(victim);
}

void
TraceStore::publishLocked()
{
    traceStoreTraces().set(static_cast<double>(traces_.size()));
    traceStoreMemoryBytes().set(static_cast<double>(bytes_));
    traceStoreOfferedTotal().set(static_cast<double>(offered_));
    traceStoreEvictedTotal().set(static_cast<double>(evicted_));
}

std::vector<StoredTrace>
TraceStore::query(const TraceQuery &q) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<StoredTrace> out;
    // Newest first: walk arrival order backwards.
    for (auto it = traces_.rbegin();
         it != traces_.rend() && out.size() < q.limit; ++it) {
        const StoredTrace &t = *it;
        if (!q.category.empty() && t.root_cat != q.category)
            continue;
        if (t.dur_us < q.min_dur_us)
            continue;
        if (q.error_only && !t.error)
            continue;
        if (q.trace_id && t.trace_id != q.trace_id)
            continue;
        out.push_back(t);
    }
    return out;
}

std::string
TraceStore::renderJson(const TraceQuery &q) const
{
    const auto matches = query(q);
    std::ostringstream os;
    os << "{\"count\":" << matches.size();
    {
        std::lock_guard<std::mutex> lock(mu_);
        os << ",\"stored\":" << traces_.size()
           << ",\"offered\":" << offered_
           << ",\"evicted\":" << evicted_
           << ",\"errors_offered\":" << errors_offered_
           << ",\"errors_evicted\":" << errors_evicted_
           << ",\"memory_bytes\":" << bytes_
           << ",\"memory_bound_bytes\":" << opts_.max_bytes;
    }
    os << ",\"traces\":[";
    for (std::size_t i = 0; i < matches.size(); ++i) {
        const StoredTrace &t = matches[i];
        if (i)
            os << ",";
        os << "\n{\"trace_id\":\"" << traceIdHex(t.trace_id)
           << "\",\"root\":\"" << json::escape(t.root_name)
           << "\",\"cat\":\"" << json::escape(t.root_cat)
           << "\",\"start_us\":" << numio::formatLong(t.start_us)
           << ",\"dur_us\":" << numio::formatLong(t.dur_us)
           << ",\"error\":" << (t.error ? "true" : "false")
           << ",\"spans\":[";
        for (std::size_t k = 0; k < t.spans.size(); ++k) {
            const TraceEvent &s = t.spans[k];
            if (k)
                os << ",";
            os << "{\"name\":\"" << json::escape(s.name)
               << "\",\"cat\":\"" << json::escape(s.cat)
               << "\",\"span_id\":\"" << traceIdHex(s.span_id)
               << "\"";
            if (s.parent_span_id)
                os << ",\"parent_span_id\":\""
                   << traceIdHex(s.parent_span_id) << "\"";
            os << ",\"ts_us\":" << numio::formatLong(s.ts_us)
               << ",\"dur_us\":" << numio::formatLong(s.dur_us)
               << ",\"tid\":" << s.tid
               << ",\"error\":" << (s.error ? "true" : "false");
            writeArgsJson(os, s);
            os << "}";
        }
        os << "]}";
    }
    os << "\n]}\n";
    return os.str();
}

std::size_t
TraceStore::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

std::size_t
TraceStore::traceCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return traces_.size();
}

long
TraceStore::offeredTotal() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return offered_;
}

long
TraceStore::evictedTotal() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evicted_;
}

long
TraceStore::errorsOfferedTotal() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return errors_offered_;
}

long
TraceStore::errorsEvictedTotal() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return errors_evicted_;
}

void
TraceStore::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    traces_.clear();
    bytes_ = 0;
    publishLocked();
}

} // namespace obs
} // namespace gpupm
