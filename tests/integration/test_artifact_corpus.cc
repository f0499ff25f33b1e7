/**
 * @file
 * Byte stability of the artifact formats. One file of each kind sits
 * under tests/golden/artifacts/, written by an earlier build; each
 * must parse and serialize back to exactly the same bytes. The other
 * round-trip tests pair today's writer with today's reader, so only
 * this corpus notices a writer change that alters files already on
 * disk.
 *
 * How the corpus was written (Release build, default seeds):
 *   gpupm campaign k40c k40c.campaign
 *   gpupm fit k40c.campaign k40c.model
 *   gpupm audit k40c.model --scoreboard-out=k40c.scoreboard
 *   gpupm campaign k40c x.campaign --retries=1 --resume=k40c.checkpoint
 *   shard-1.ck: testResult() of tests/fleet/test_shard_io.cc, saved
 *   under its testOpts() and testShard().
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/model_io.hh"
#include "core/resilient.hh"
#include "fleet/shard_io.hh"

namespace
{

using namespace gpupm;

std::string
corpusFile(const char *name)
{
    std::ifstream in(std::string(GPUPM_REPO_DIR) +
                             "/tests/golden/artifacts/" + name,
                     std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

template <typename T>
void
expectSameBytes(const char *name)
{
    const std::string text = corpusFile(name);
    ASSERT_FALSE(text.empty()) << name << " is missing or empty";
    const auto parsed = model::tryParse<T>(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error().message;
    EXPECT_EQ(model::serialize(parsed.value()), text)
            << name << " no longer writes back byte for byte";
}

TEST(ArtifactCorpus, ModelWritesBackTheSameBytes)
{
    expectSameBytes<model::DvfsPowerModel>("k40c.model");
}

TEST(ArtifactCorpus, CampaignWritesBackTheSameBytes)
{
    expectSameBytes<model::TrainingData>("k40c.campaign");
}

TEST(ArtifactCorpus, CheckpointWritesBackTheSameBytes)
{
    expectSameBytes<model::CampaignCheckpoint>("k40c.checkpoint");
}

TEST(ArtifactCorpus, ScoreboardWritesBackTheSameBytes)
{
    expectSameBytes<obs::Scoreboard>("k40c.scoreboard");
}

TEST(ArtifactCorpus, FleetShardWritesBackTheSameBytes)
{
    expectSameBytes<fleet::ShardCheckpoint>("shard-1.ck");
}

} // namespace
