#include "events.hh"

#include "common/logging.hh"

namespace gpupm
{
namespace cupti
{

std::string_view
metricName(Metric m)
{
    switch (m) {
      case Metric::ActiveCycles: return "ACycles";
      case Metric::L2ReadQueries: return "L2RdQueries";
      case Metric::L2WriteQueries: return "L2WrQueries";
      case Metric::SharedLoadTrans: return "SharedLdTrans";
      case Metric::SharedStoreTrans: return "SharedStTrans";
      case Metric::DramReadSectors: return "DramRdSectors";
      case Metric::DramWriteSectors: return "DramWrSectors";
      case Metric::WarpsSpInt: return "WarpsSP/INT";
      case Metric::WarpsDp: return "WarpsDP";
      case Metric::WarpsSf: return "WarpsSF";
      case Metric::InstInt: return "InstINT";
      case Metric::InstSp: return "InstSP";
      default: return "?";
    }
}

namespace
{

/** Build a W-event descriptor: numeric id = prefix * 1000 + n. */
EventDesc
wEvent(std::uint64_t prefix, unsigned n)
{
    std::string name = "W";
    name += std::to_string(n);
    return {prefix * 1000 + n, std::move(name)};
}

/** Named (disclosed) event with a synthetic id in a separate space. */
EventDesc
named(std::uint64_t prefix, unsigned slot, std::string name)
{
    return {prefix * 1000 + 900 + slot, std::move(name)};
}

} // namespace

EventTable
EventTable::makeTitanXp()
{
    const std::uint64_t p = 352321;
    std::map<Metric, std::vector<EventDesc>> t;
    t[Metric::ActiveCycles] = {named(p, 0, "active_cycles")};
    t[Metric::L2ReadQueries] = {
        named(p, 1, "l2_subp0_total_read_sector_queries"),
        named(p, 2, "l2_subp1_total_read_sector_queries"),
    };
    t[Metric::L2WriteQueries] = {
        named(p, 3, "l2_subp0_total_write_sector_queries"),
        named(p, 4, "l2_subp1_total_write_sector_queries"),
    };
    t[Metric::SharedLoadTrans] = {
        named(p, 5, "shared_ld_transactions")};
    t[Metric::SharedStoreTrans] = {
        named(p, 6, "shared_st_transactions")};
    t[Metric::DramReadSectors] = {
        named(p, 7, "fb_subp0_read_sectors"),
        named(p, 8, "fb_subp1_read_sectors"),
    };
    t[Metric::DramWriteSectors] = {
        named(p, 9, "fb_subp0_write_sectors"),
        named(p, 10, "fb_subp1_write_sectors"),
    };
    t[Metric::WarpsSpInt] = {wEvent(p, 580), wEvent(p, 581)};
    t[Metric::WarpsDp] = {wEvent(p, 584)};
    t[Metric::WarpsSf] = {wEvent(p, 560)};
    t[Metric::InstInt] = {wEvent(p, 831)};
    t[Metric::InstSp] = {wEvent(p, 829)};
    return EventTable(p, std::move(t));
}

EventTable
EventTable::makeGtxTitanX()
{
    const std::uint64_t p = 335544;
    std::map<Metric, std::vector<EventDesc>> t;
    t[Metric::ActiveCycles] = {named(p, 0, "active_cycles")};
    t[Metric::L2ReadQueries] = {
        named(p, 1, "l2_subp0_total_read_sector_queries"),
        named(p, 2, "l2_subp1_total_read_sector_queries"),
    };
    t[Metric::L2WriteQueries] = {
        named(p, 3, "l2_subp0_total_write_sector_queries"),
        named(p, 4, "l2_subp1_total_write_sector_queries"),
    };
    t[Metric::SharedLoadTrans] = {
        named(p, 5, "shared_ld_transactions")};
    t[Metric::SharedStoreTrans] = {
        named(p, 6, "shared_st_transactions")};
    t[Metric::DramReadSectors] = {
        named(p, 7, "fb_subp0_read_sectors"),
        named(p, 8, "fb_subp1_read_sectors"),
    };
    t[Metric::DramWriteSectors] = {
        named(p, 9, "fb_subp0_write_sectors"),
        named(p, 10, "fb_subp1_write_sectors"),
    };
    t[Metric::WarpsSpInt] = {wEvent(p, 361), wEvent(p, 362)};
    t[Metric::WarpsDp] = {wEvent(p, 364)};
    t[Metric::WarpsSf] = {wEvent(p, 359)};
    t[Metric::InstInt] = {wEvent(p, 504)};
    t[Metric::InstSp] = {wEvent(p, 502)};
    return EventTable(p, std::move(t));
}

EventTable
EventTable::makeTeslaK40c()
{
    const std::uint64_t p = 318767;
    std::map<Metric, std::vector<EventDesc>> t;
    t[Metric::ActiveCycles] = {named(p, 0, "active_cycles")};
    // Kepler exposes four L2 subpartitions (Table I).
    t[Metric::L2ReadQueries] = {
        named(p, 1, "l2_subp0_total_read_sector_queries"),
        named(p, 2, "l2_subp1_total_read_sector_queries"),
        named(p, 3, "l2_subp2_total_read_sector_queries"),
        named(p, 4, "l2_subp3_total_read_sector_queries"),
    };
    t[Metric::L2WriteQueries] = {
        named(p, 5, "l2_subp0_total_write_sector_queries"),
        named(p, 6, "l2_subp1_total_write_sector_queries"),
        named(p, 7, "l2_subp2_total_write_sector_queries"),
        named(p, 8, "l2_subp3_total_write_sector_queries"),
    };
    t[Metric::SharedLoadTrans] = {
        named(p, 9, "l1_shared_ld_transactions")};
    t[Metric::SharedStoreTrans] = {
        named(p, 10, "l1_shared_st_transactions")};
    t[Metric::DramReadSectors] = {
        named(p, 11, "fb_subp0_read_sectors"),
        named(p, 12, "fb_subp1_read_sectors"),
    };
    t[Metric::DramWriteSectors] = {
        named(p, 13, "fb_subp0_write_sectors"),
        named(p, 14, "fb_subp1_write_sectors"),
    };
    // The K40c splits the combined SP/INT warp count over 4 events.
    t[Metric::WarpsSpInt] = {wEvent(p, 131), wEvent(p, 134),
                             wEvent(p, 136), wEvent(p, 137)};
    t[Metric::WarpsDp] = {wEvent(p, 141)};
    t[Metric::WarpsSf] = {wEvent(p, 133)};
    t[Metric::InstInt] = {wEvent(p, 205)};
    t[Metric::InstSp] = {wEvent(p, 203)};
    return EventTable(p, std::move(t));
}

const EventTable &
EventTable::get(gpu::DeviceKind kind)
{
    static const EventTable xp = makeTitanXp();
    static const EventTable tx = makeGtxTitanX();
    static const EventTable k40 = makeTeslaK40c();
    switch (kind) {
      case gpu::DeviceKind::TitanXp: return xp;
      case gpu::DeviceKind::GtxTitanX: return tx;
      case gpu::DeviceKind::TeslaK40c: return k40;
    }
    GPUPM_PANIC("unknown device kind");
}

const std::vector<EventDesc> &
EventTable::eventsFor(Metric m) const
{
    auto it = table_.find(m);
    GPUPM_ASSERT(it != table_.end(), "no events for metric ",
                 metricName(m));
    return it->second;
}

std::vector<EventDesc>
EventTable::allEvents() const
{
    std::vector<EventDesc> out;
    for (const auto &[metric, events] : table_)
        out.insert(out.end(), events.begin(), events.end());
    return out;
}

} // namespace cupti
} // namespace gpupm
