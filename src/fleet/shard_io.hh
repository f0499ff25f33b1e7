/**
 * @file
 * Crash-safe persistence of per-shard fleet results.
 *
 * Each completed shard is written as a v2 "fleetshard" envelope
 * (CRC32 + declared size) around a line-oriented text payload, via
 * write-to-temp + atomic rename — a killed writer can tear the
 * temporary file but never the checkpoint itself. A resumed fleet
 * campaign loads whatever shard checkpoints verify: a torn, corrupt
 * or stale file comes back as a typed IoStatus and the shard simply
 * re-runs; nothing aborts and nothing is double-counted.
 *
 * Stale checkpoints are rejected by fingerprint: a CRC32 over the
 * fleet seed, the per-device campaign constants and the shard's device
 * specs, stored in the file, so changing the fleet seed, a campaign
 * constant or the sharding invalidates old checkpoints instead of
 * silently merging them.
 */

#ifndef GPUPM_FLEET_SHARD_IO_HH
#define GPUPM_FLEET_SHARD_IO_HH

#include <string>

#include "core/model_io.hh"
#include "fleet/fleet.hh"

namespace gpupm
{
namespace fleet
{

/** Checkpoint path of one shard inside a fleet checkpoint dir. */
std::string shardCheckpointPath(const std::string &dir, int index);

/**
 * CRC32 fingerprint of everything that shapes this shard's outcomes:
 * the fleet seed, the per-device campaign constants of shard.hh
 * (jitter included), and the shard's device specs (ids, kinds, seeds,
 * poison flags).
 */
std::string fleetFingerprint(const FleetOptions &opts,
                             const ShardSpec &shard);

/** What a shard checkpoint file holds. */
struct ShardCheckpoint
{
    /** fleetFingerprint() of the run that wrote it. */
    std::string fingerprint;
    ShardResult result;
};

/**
 * Parse a shard checkpoint and check that it belongs to (opts,
 * shard). Typed errors throughout: ParseError / ChecksumMismatch /
 * VersionMismatch from the envelope and the payload, ValidationError
 * when the fingerprint, the shard index or any outcome's device id
 * and kind do not match. A file without its envelope is never
 * trusted.
 */
model::IoExpected<ShardResult>
tryParseShardResult(const std::string &text, const FleetOptions &opts,
                    const ShardSpec &shard);

/** Read a shard checkpoint file and check it as above. */
model::IoExpected<ShardResult>
tryLoadShardResult(const std::string &path, const FleetOptions &opts,
                   const ShardSpec &shard);

} // namespace fleet

namespace model
{

/** The fleet shard's row of the artifact table (see Codec). */
template <>
struct Codec<fleet::ShardCheckpoint>
{
    static constexpr FileKind kind = FileKind::FleetShard;
    static ValidationReport
    validate(const fleet::ShardCheckpoint &)
    {
        return {"fleetshard", {}};
    }
    static std::string write(const fleet::ShardCheckpoint &ck);
    static fleet::ShardCheckpoint parse(const std::string &payload);
};

} // namespace model
} // namespace gpupm

#endif // GPUPM_FLEET_SHARD_IO_HH
