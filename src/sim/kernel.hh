/**
 * @file
 * Workload description consumed by the simulated GPU substrate.
 *
 * A KernelDemand is the device-wide resource demand of one kernel
 * launch: how many warp-instructions it issues to each execution-unit
 * class and how many bytes it moves at each memory level. Both the
 * microbenchmark suite (Sec. IV) and the validation applications
 * (Table III) are expressed this way; the performance model turns a
 * demand plus a V-F configuration into an execution time and true
 * component utilizations.
 */

#ifndef GPUPM_SIM_KERNEL_HH
#define GPUPM_SIM_KERNEL_HH

#include <string>

#include "gpu/components.hh"

namespace gpupm
{
namespace sim
{

/** Device-wide resource demand of a single kernel launch. */
struct KernelDemand
{
    std::string name;

    /** Warp-instructions retired by the INT units. */
    double warps_int = 0.0;
    /** Warp-instructions retired by the SP units. */
    double warps_sp = 0.0;
    /** Warp-instructions retired by the DP units. */
    double warps_dp = 0.0;
    /** Warp-instructions retired by the SF units. */
    double warps_sf = 0.0;
    /**
     * Other issued warp-instructions (control flow, moves, predicates,
     * texture). These consume issue slots and burn power, but no
     * Table I event observes them — they are the paper's "non-modelled
     * components" error source.
     */
    double warps_other = 0.0;

    /** Bytes read from / written to DRAM. */
    double bytes_dram_rd = 0.0;
    double bytes_dram_wr = 0.0;
    /** Bytes read from / written to the L2 cache. */
    double bytes_l2_rd = 0.0;
    double bytes_l2_wr = 0.0;
    /** Bytes loaded from / stored to shared memory. */
    double bytes_shared_ld = 0.0;
    double bytes_shared_st = 0.0;

    /**
     * Core-clock cycles of exposed dependent-chain latency that extra
     * parallelism cannot hide (low-occupancy kernels). Adds a floor to
     * the execution time that scales with 1/fcore.
     */
    double latency_cycles = 0.0;

    /**
     * Relative warp-counter distortion this kernel induces on devices
     * with fragile event semantics (replays from divergent memory
     * accesses, atomics, texture traffic — activity the register-only
     * microbenchmarks never exercise, so the model fit cannot calibrate
     * it away). Scaled per architecture by the CUPTI facade; ~0 for
     * synthetic microbenchmarks, up to +-0.3 for real applications.
     */
    double counter_distortion = 0.0;

    /** True when the demand carries no work at all (the Idle case). */
    bool empty() const;

    /** Demand scaled by a repetition factor (kernel run s times). */
    KernelDemand scaled(double s) const;

    /** Sum of all issued warp-instructions (incl. other). */
    double totalWarpInstructions() const;

    /** Field-by-field equality, name included. */
    bool operator==(const KernelDemand &) const = default;
};

} // namespace sim
} // namespace gpupm

#endif // GPUPM_SIM_KERNEL_HH
