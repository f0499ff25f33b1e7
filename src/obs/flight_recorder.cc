#include "flight_recorder.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/numio.hh"
#include "obs/trace.hh"

namespace gpupm
{
namespace obs
{

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now())
{
    GPUPM_ASSERT(capacity > 0, "flight recorder needs capacity >= 1");
    slots_.resize(capacity);
    for (auto &s : slots_)
        s.seq = -1; // empty
}

std::int64_t
FlightRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
}

std::int64_t
FlightRecorder::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
}

void
FlightRecorder::record(FlightRecord r, std::string_view ndjson_line)
{
    if (r.ts_us == 0)
        r.ts_us = nowUs();
    if (r.trace_id == 0)
        r.trace_id = currentTraceContext().trace_id;
    std::lock_guard<std::mutex> lock(mu_);
    r.seq = next_seq_;
    slots_[static_cast<std::size_t>(next_seq_) % slots_.size()] =
            std::move(r);
    ++next_seq_;
    if (!ndjson_line.empty() && log_.is_open())
        writeLogLocked(ndjson_line);
}

bool
FlightRecorder::openLog(const std::string &path, long max_bytes,
                        int max_files, std::string *err)
{
    std::lock_guard<std::mutex> lock(mu_);
    log_path_ = path;
    log_max_bytes_ = max_bytes;
    log_max_files_ = std::max(max_files, 1);
    log_bytes_ = 0;
    log_.open(path, std::ios::binary | std::ios::trunc);
    log_open_.store(log_.is_open());
    if (!log_ && err)
        *err = "cannot open event log '" + path + "' for writing";
    return log_.is_open();
}

void
FlightRecorder::writeLogLocked(std::string_view line)
{
    const long size = static_cast<long>(line.size()) + 1;
    if (log_max_bytes_ > 0 && log_bytes_ > 0 &&
        log_bytes_ + size > log_max_bytes_) {
        log_.close();
        // Shift generations oldest-last: `.N-1` -> `.N`, ..., `.1` ->
        // `.2`, live -> `.1`. std::rename replaces an existing
        // destination atomically on POSIX — readers see either the
        // old or the new generation, never a missing one. The oldest
        // generation falls off the end.
        for (int g = log_max_files_; g >= 2; --g)
            std::rename((log_path_ + "." + std::to_string(g - 1)).c_str(),
                        (log_path_ + "." + std::to_string(g)).c_str());
        std::rename(log_path_.c_str(), (log_path_ + ".1").c_str());
        log_.open(log_path_, std::ios::binary | std::ios::trunc);
        log_bytes_ = 0;
        ++log_rotations_;
        if (!log_) {
            log_open_.store(false);
            warn("event-log rotation failed to reopen '", log_path_,
                 "'; event logging disabled");
            return;
        }
    }
    log_ << line << "\n";
    log_.flush();
    log_bytes_ += size;
}

void
FlightRecorder::recordSpan(const std::string &name,
                           std::int64_t dur_us, std::string detail)
{
    FlightRecord r;
    r.kind = "span";
    r.name = name;
    r.dur_us = dur_us;
    r.detail = std::move(detail);
    record(std::move(r));
}

std::vector<FlightRecord>
FlightRecorder::snapshot() const
{
    std::vector<FlightRecord> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out.reserve(slots_.size());
        for (const auto &s : slots_)
            if (s.seq >= 0)
                out.push_back(s);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::string
FlightRecorder::renderJson() const
{
    const auto records = snapshot();
    const std::int64_t total = recorded();
    const std::int64_t dropped =
            total - static_cast<std::int64_t>(records.size());
    std::ostringstream os;
    os << "{\"capacity\":" << slots_.size() << ",\"recorded\":"
       << total << ",\"dropped\":" << dropped << ",\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        if (i)
            os << ",";
        os << "\n{\"seq\":" << r.seq << ",\"ts_us\":" << r.ts_us
           << ",\"dur_us\":" << r.dur_us << ",\"kind\":\""
           << json::escape(r.kind) << "\",\"name\":\""
           << json::escape(r.name) << "\",\"detail\":\""
           << json::escape(r.detail) << "\",\"trace_id\":\""
           << traceIdHex(r.trace_id) << "\"}";
    }
    os << "]}\n";
    return os.str();
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &s : slots_)
        s.seq = -1;
}

} // namespace obs
} // namespace gpupm
