#include "tsdb.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>

#include "common/json.hh"
#include "common/numio.hh"
#include "obs/standard.hh"

namespace gpupm
{
namespace obs
{

void
TsBucket::add(double v)
{
    if (count == 0) {
        min = max = sum = v;
        count = 1;
        return;
    }
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
}

void
TsBucket::merge(const TsBucket &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        const std::int64_t keep = start_us;
        *this = other;
        start_us = keep;
        return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    count += other.count;
}

std::string
TsQueryResult::toJson(const std::string &series) const
{
    std::ostringstream os;
    os << "{\"series\":\"" << json::escape(series) << "\",\"ok\":"
       << (ok ? "true" : "false");
    if (!ok) {
        os << ",\"error\":\"" << json::escape(error) << "\"}";
        return os.str();
    }
    os << ",\"tier\":" << tier << ",\"start_us\":" << start_us
       << ",\"end_us\":" << end_us << ",\"step_us\":" << step_us
       << ",\"points\":[";
    bool first = true;
    for (const TsBucket &b : points) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"t_us\":" << b.start_us << ",\"min\":"
           << numio::formatDouble(b.min) << ",\"max\":"
           << numio::formatDouble(b.max) << ",\"avg\":"
           << numio::formatDouble(b.avg()) << ",\"count\":" << b.count
           << "}";
    }
    os << "]}";
    return os.str();
}

void
Tsdb::bucketInto(std::deque<TsBucket> &tier, std::int64_t res_us,
                 std::int64_t t_us, double value)
{
    const std::int64_t start =
            (t_us >= 0 ? t_us / res_us : (t_us - res_us + 1) / res_us) *
            res_us;
    if (!tier.empty() && tier.back().start_us == start) {
        tier.back().add(value);
        return;
    }
    if (!tier.empty() && start < tier.back().start_us)
        return; // late point: its bucket already sealed
    TsBucket b;
    b.start_us = start;
    b.add(value);
    tier.push_back(b);
    while (tier.size() > kTierCapacity)
        tier.pop_front();
}

Tsdb::Series *
Tsdb::appendLocked(const std::string &series, std::int64_t t_us,
                   double value)
{
    if (!std::isfinite(value)) {
        ++dropped_not_finite_;
        return nullptr;
    }
    auto it = series_.find(series);
    if (it == series_.end()) {
        if (series_.size() >= kMaxSeries) {
            // Evict the series written to least recently; ties break
            // towards the first in name order.
            const auto victim = std::min_element(
                    series_.begin(), series_.end(),
                    [](const auto &a, const auto &b) {
                        return a.second.last_write_us <
                               b.second.last_write_us;
                    });
            name_bytes_ -= victim->first.capacity();
            series_.erase(victim);
            slots_layout_ = {}; // a cached Series* may dangle
            ++evictions_;
            tsdbEvictionsTotal().inc();
        }
        it = series_.emplace(series, Series{}).first;
        it->second.raw.resize(kRawCapacity);
        name_bytes_ += it->first.capacity();
    }
    writeLocked(it->second, t_us, value);
    return &it->second;
}

void
Tsdb::writeLocked(Series &s, std::int64_t t_us, double value)
{
    const std::size_t slot = (s.raw_head + s.raw_size) % kRawCapacity;
    if (s.raw_size == kRawCapacity) {
        s.raw[s.raw_head] = {t_us, value};
        s.raw_head = (s.raw_head + 1) % kRawCapacity;
    } else {
        s.raw[slot] = {t_us, value};
        ++s.raw_size;
    }
    bucketInto(s.tier1, kTier1ResUs, t_us, value);
    bucketInto(s.tier2, kTier2ResUs, t_us, value);
    s.last_write_us = t_us;
    ++points_appended_;
    latest_us_ = std::max(latest_us_, t_us);
}

void
Tsdb::append(const std::string &series, std::int64_t t_us,
             double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    appendLocked(series, t_us, value);
}

void
Tsdb::fillLocked(const Registry &reg, std::int64_t t_us)
{
    // The by-name append, keeping each sample's series. An eviction
    // on the way clears slots_layout_ again, so the next tick refills.
    std::vector<std::string> names;
    slots_layout_ = reg.collectSamples(values_, &names);
    slots_.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        slots_[i] = appendLocked(names[i], t_us, values_[i]);
    ++fills_;
}

void
Tsdb::recordRegistry(const Registry &reg, std::int64_t t_us)
{
    // Refresh self-metrics first so this snapshot already carries
    // them; the counts lag one tick behind the appends below, which is
    // fine for trend series.
    tsdbSeriesCount().set(static_cast<double>(seriesCount()));
    tsdbMemoryBytes().set(static_cast<double>(memoryBytes()));
    std::uint64_t appended = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t before = points_appended_;
        bool resolved = reg.collectSamples(values_) == slots_layout_;
        // A sample the fill dropped has no series yet; once finite,
        // creating it (and maybe evicting) is the fill's job.
        for (std::size_t i = 0; resolved && i < slots_.size(); ++i)
            resolved = slots_[i] || !std::isfinite(values_[i]);
        if (!resolved) {
            fillLocked(reg, t_us);
        } else {
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                if (std::isfinite(values_[i]))
                    writeLocked(*slots_[i], t_us, values_[i]);
                else
                    ++dropped_not_finite_;
            }
        }
        appended = points_appended_ - before;
    }
    tsdbPointsTotal().inc(static_cast<double>(appended));
}

TsQueryResult
Tsdb::query(const TsQuery &q) const
{
    TsQueryResult res;
    res.start_us = q.start_us;
    res.end_us = q.end_us;
    res.step_us = q.step_us;
    if (q.step_us <= 0) {
        res.error = "step must be > 0";
        return res;
    }
    if (q.end_us < q.start_us) {
        res.error = "empty range (end < start)";
        return res;
    }
    // The result is built densely before empty buckets are stripped;
    // refuse queries whose bucket count dwarfs what the store could
    // even hold, so a hostile range/step pair cannot balloon memory.
    const std::int64_t span_buckets =
            (q.end_us - q.start_us) / q.step_us + 1;
    if (span_buckets > 100000) {
        res.error = "range/step yields too many buckets";
        return res;
    }

    std::lock_guard<std::mutex> lock(mu_);
    const auto it = series_.find(q.series);
    if (it == series_.end()) {
        res.error = "unknown series '" + q.series + "'";
        return res;
    }
    const Series *found = &it->second;

    // Coarsest tier whose native resolution still fits the step: the
    // query then reads the fewest stored buckets that can answer it,
    // and windows larger than raw retention transparently fall back
    // onto the downsampled history.
    const std::deque<TsBucket> *tier = nullptr;
    if (q.step_us >= kTier2ResUs) {
        tier = &found->tier2;
        res.tier = 2;
    } else if (q.step_us >= kTier1ResUs) {
        tier = &found->tier1;
        res.tier = 1;
    } else {
        res.tier = 0;
    }

    auto outBucketFor = [&](std::int64_t t_us) -> TsBucket * {
        if (t_us < q.start_us || t_us > q.end_us)
            return nullptr;
        const std::size_t idx = static_cast<std::size_t>(
                (t_us - q.start_us) / q.step_us);
        const std::int64_t start =
                q.start_us +
                static_cast<std::int64_t>(idx) * q.step_us;
        while (res.points.size() <= idx) {
            TsBucket b;
            b.start_us =
                    q.start_us +
                    static_cast<std::int64_t>(res.points.size()) *
                            q.step_us;
            res.points.push_back(b);
        }
        TsBucket &b = res.points[idx];
        b.start_us = start;
        return &b;
    };

    if (res.tier == 0) {
        for (std::size_t i = 0; i < found->raw_size; ++i) {
            const TsPoint &p =
                    found->raw[(found->raw_head + i) % kRawCapacity];
            if (TsBucket *b = outBucketFor(p.t_us))
                b->add(p.value);
        }
    } else {
        for (const TsBucket &src : *tier) {
            if (TsBucket *b = outBucketFor(src.start_us))
                b->merge(src);
        }
    }

    // Dense allocation above, sparse result out: callers only see
    // buckets that actually hold data.
    res.points.erase(std::remove_if(res.points.begin(),
                                    res.points.end(),
                                    [](const TsBucket &b) {
                                        return b.count == 0;
                                    }),
                     res.points.end());
    res.ok = true;
    return res;
}

std::vector<std::string>
Tsdb::seriesNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    for (const auto &entry : series_)
        names.push_back(entry.first);
    return names;
}

std::size_t
Tsdb::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return series_.size();
}

std::size_t
Tsdb::memoryBytes() const
{
    // Fixed accounting per live series: the preallocated raw ring,
    // both tiers at full capacity (deques overshoot slightly; we
    // charge the cap, which is what the soak gate bounds), the name,
    // and the map entry itself.
    const std::size_t per_series_fixed =
            kRawCapacity * sizeof(TsPoint) +
            2 * kTierCapacity * sizeof(TsBucket) +
            sizeof(decltype(series_)::value_type);
    std::lock_guard<std::mutex> lock(mu_);
    return sizeof(Tsdb) + series_.size() * per_series_fixed +
           name_bytes_;
}

} // namespace obs
} // namespace gpupm
