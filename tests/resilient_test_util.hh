/**
 * @file
 * Helpers shared by the tests of the fault-tolerant campaign runner
 * (core/test_checkpoint_recovery.cc, integration/
 * test_faulty_campaign.cc).
 */

#ifndef GPUPM_TESTS_RESILIENT_TEST_UTIL_HH
#define GPUPM_TESTS_RESILIENT_TEST_UTIL_HH

#include "core/resilient.hh"

namespace gpupm
{
namespace testutil
{

/** True when a run left usable training data: neither error is set. */
inline bool
usable(const model::ResilientCampaignResult &res)
{
    return !res.checkpoint_error && !res.reference_error;
}

/**
 * `ck` as a run stopped after its first `k` done cells would have left
 * it: every later cell in the runner's order (the profile pass, then
 * the power cells benchmark by benchmark) is not done and reads zero.
 */
inline model::CampaignCheckpoint
checkpointPrefix(model::CampaignCheckpoint ck, long k)
{
    for (std::size_t b = 0; b < ck.utils_done.size(); ++b)
        if (ck.utils_done[b] && k-- <= 0) {
            ck.utils_done[b] = 0;
            ck.utils[b] = {};
        }
    for (std::size_t b = 0; b < ck.power_done.size(); ++b)
        for (std::size_t c = 0; c < ck.power_done[b].size(); ++c)
            if (ck.power_done[b][c] && k-- <= 0) {
                ck.power_done[b][c] = 0;
                ck.power_w[b][c] = 0.0;
            }
    return ck;
}

} // namespace testutil
} // namespace gpupm

#endif // GPUPM_TESTS_RESILIENT_TEST_UTIL_HH
