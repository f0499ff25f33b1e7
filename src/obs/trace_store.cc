#include "trace_store.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "obs/standard.hh"
#include "obs/trace.hh"

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
        bytes += sizeof(StoredSpan);
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
    trace.seq = next_seq_++;
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
    // Protected set: per root category, the slow_per_cat slowest
    // non-error traces. Recomputed per eviction — the store holds at
    // most max_traces entries, so this stays cheap.
    std::vector<std::size_t> order;
    order.reserve(traces_.size());
    for (std::size_t i = 0; i < traces_.size(); ++i)
        if (!traces_[i].error)
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  if (traces_[a].dur_us != traces_[b].dur_us)
                      return traces_[a].dur_us > traces_[b].dur_us;
                  return traces_[a].seq < traces_[b].seq;
              });
    std::vector<bool> protected_slow(traces_.size(), false);
    {
        std::vector<std::pair<std::string, std::size_t>> per_cat;
        for (const std::size_t i : order) {
            std::size_t taken = 0;
            for (auto &pc : per_cat)
                if (pc.first == traces_[i].root_cat) {
                    taken = ++pc.second;
                    break;
                }
            if (taken == 0) {
                per_cat.emplace_back(traces_[i].root_cat, 1);
                taken = 1;
            }
            if (taken <= opts_.slow_per_cat)
                protected_slow[i] = true;
        }
    }

    std::size_t victim = traces_.size();
    // 1. Oldest boring trace (non-error, not protected-slow).
    for (std::size_t i = 0; i < traces_.size(); ++i)
        if (!traces_[i].error && !protected_slow[i]) {
            victim = i;
            break;
        }
    // 2. Fastest protected-slow trace.
    if (victim == traces_.size() && !order.empty())
        victim = order.back();
    // 3. Last resort: the oldest error trace.
    if (victim == traces_.size())
        victim = 0;

    ++evicted_;
    if (traces_[victim].error)
        ++errors_evicted_;
    bytes_ -= traces_[victim].bytes;
    traces_.erase(traces_.begin() +
                  static_cast<std::ptrdiff_t>(victim));
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
            const StoredSpan &s = t.spans[k];
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
            if (!s.args.empty()) {
                os << ",\"args\":{";
                for (std::size_t a = 0; a < s.args.size(); ++a) {
                    if (a)
                        os << ",";
                    os << "\"" << json::escape(s.args[a].first)
                       << "\":\"" << json::escape(s.args[a].second)
                       << "\"";
                }
                os << "}";
            }
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
