/**
 * @file
 * Reproduces Table II: summarized description of the used GPUs.
 */

#include <iostream>
#include <sstream>

#include "common/table.hh"
#include "gpu/device.hh"
#include "bench_common.hh"

int
main(int argc, char **argv)
{
    gpupm::bench::BenchReporter bench_report(argc, argv,
                                             "table2_devices");
    using namespace gpupm;

    TextTable t({"Characteristic", "Titan Xp", "GTX Titan X",
                 "Tesla K40c"});
    t.setTitle("Table II: Summarized description of the used GPUs");

    const auto &xp = gpu::DeviceDescriptor::get(gpu::DeviceKind::TitanXp);
    const auto &tx =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::GtxTitanX);
    const auto &k40 =
            gpu::DeviceDescriptor::get(gpu::DeviceKind::TeslaK40c);

    const auto row = [&](const std::string &name, auto get) {
        t.addRow({name, get(xp), get(tx), get(k40)});
    };
    const auto str = [](auto v) { return std::to_string(v); };

    row("Base architecture", [](const gpu::DeviceDescriptor &d) {
        return std::string(architectureName(d.architecture));
    });
    row("Compute capability", [](const gpu::DeviceDescriptor &d) {
        return d.compute_capability;
    });
    row("Memory frequencies (MHz)", [](const gpu::DeviceDescriptor &d) {
        std::ostringstream os;
        for (std::size_t i = 0; i < d.mem_freqs_mhz.size(); ++i)
            os << (i ? ", " : "") << d.mem_freqs_mhz[i];
        return os.str();
    });
    row("Core freq. range (MHz)", [&](const gpu::DeviceDescriptor &d) {
        std::ostringstream os;
        os << '[' << d.maxCoreMhz() << ':' << d.minCoreMhz() << ']';
        return os.str();
    });
    row("Number of core freq. levels",
        [&](const gpu::DeviceDescriptor &d) {
            return str(d.core_freqs_mhz.size());
        });
    row("Default Mem. Frequency", [&](const gpu::DeviceDescriptor &d) {
        return str(d.default_mem_mhz);
    });
    row("Default Core Frequency", [&](const gpu::DeviceDescriptor &d) {
        return str(d.default_core_mhz);
    });
    row("Threads per warp", [&](const gpu::DeviceDescriptor &d) {
        return str(d.warp_size);
    });
    row("Number of SMs", [&](const gpu::DeviceDescriptor &d) {
        return str(d.num_sms);
    });
    row("Memory Bus Width (B)", [&](const gpu::DeviceDescriptor &d) {
        return str(d.mem_bus_bytes);
    });
    row("Shared mem. banks", [&](const gpu::DeviceDescriptor &d) {
        return str(d.shared_banks);
    });
    row("SP/INT Units/SM", [&](const gpu::DeviceDescriptor &d) {
        return str(d.sp_int_units_per_sm);
    });
    row("DP Units/SM", [&](const gpu::DeviceDescriptor &d) {
        return str(d.dp_units_per_sm);
    });
    row("SF Units/SM", [&](const gpu::DeviceDescriptor &d) {
        return str(d.sf_units_per_sm);
    });
    row("TDP (W)", [&](const gpu::DeviceDescriptor &d) {
        return TextTable::num(d.tdp_w, 0);
    });
    row("V-F configurations", [&](const gpu::DeviceDescriptor &d) {
        return str(d.allConfigs().size());
    });

    t.print(std::cout);
    return 0;
}
