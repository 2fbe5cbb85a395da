/**
 * @file
 * Elastic-membership tests (PR: fault tolerance): scheduled node
 * crashes and rejoins on sim::Cluster. A rejoining node resyncs from
 * a healthy peer — newest checkpoint + retained decision tail — after
 * which every node's stream digest must equal the churn-free run's,
 * bit for bit; healthy nodes must never notice the churn. The same
 * resync path heals transiently corrupted (quarantined) replicas,
 * automatically when the injection window closes and manually via
 * ResyncQuarantined(). Misuse (bad fault plans, touching a crashed
 * node) is a typed rt::RuntimeUsageError; malformed checkpoint images
 * are a typed fault::CheckpointError.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "apps/htr.h"
#include "apps/s3d.h"
#include "fault/checkpoint.h"
#include "runtime/errors.h"
#include "sim/cluster.h"

namespace apo {
namespace {

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 400;
    config.multi_scale_factor = 50;
    return config;
}

sim::ClusterOptions BaseOptions(std::size_t nodes, bool streaming)
{
    sim::ClusterOptions options;
    options.coordination.nodes = nodes;
    options.coordination.seed = 7;
    options.coordination.mean_latency_tasks = 120.0;
    options.coordination.jitter = 0.6;
    options.config = SmallConfig();
    options.runtime_options.nodes = nodes;
    options.stream_logs = streaming;
    return options;
}

/** Drive `iterations` of App through the cluster; returns the total
 * issued task count (the coordinate fault plans are expressed in). */
template <typename App, typename Options>
std::uint64_t Drive(sim::Cluster& cluster, const Options& app_options,
                    std::size_t iterations)
{
    App app(app_options);
    app.Setup(cluster);
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        app.Iteration(cluster, iter, /*manual_tracing=*/false);
    }
    cluster.Flush();
    cluster.DrainLogStreams();
    return cluster.Stats().tasks_executed;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> DigestsOf(
    const sim::Cluster& cluster)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    for (std::size_t n = 0; n < cluster.Nodes(); ++n) {
        const sim::StreamDigest d = cluster.NodeDigest(n);
        digests.emplace_back(d.Value(), d.Count());
    }
    return digests;
}

/**
 * The headline property: crash node 1 a third of the way in, rejoin
 * it two thirds of the way in (peer resync = checkpoint install +
 * decision-tail replay) — and every node's final digest, including
 * the rejoiner's, is bit-identical to a churn-free run.
 */
template <typename App, typename Options>
void ExpectCrashRejoinMatchesChurnFree(const Options& app_options,
                                       std::size_t iterations,
                                       bool streaming)
{
    SCOPED_TRACE(streaming ? "streaming" : "retained");
    // Churn-free reference (no plan, no checkpoints).
    sim::Cluster reference(BaseOptions(3, streaming));
    const std::uint64_t total =
        Drive<App>(reference, app_options, iterations);
    ASSERT_GT(total, 600u);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, streaming);
    options.checkpoint_interval_tasks = 300;
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 3,
         .rejoin_at_task = 2 * total / 3});
    sim::Cluster churned(options);
    EXPECT_EQ(Drive<App>(churned, app_options, iterations), total);

    EXPECT_EQ(DigestsOf(churned), want);
    EXPECT_TRUE(churned.StreamDigestsAgree());
    EXPECT_FALSE(churned.NodeCrashed(1));
    const sim::FaultStats& fault = churned.FaultRecovery();
    EXPECT_EQ(fault.crashes, 1u);
    EXPECT_EQ(fault.rejoins, 1u);
    EXPECT_GE(fault.checkpoints_taken, 1u);
    EXPECT_GT(fault.last_checkpoint_bytes, 0u);
    EXPECT_GT(fault.tail_events_replayed, 0u);
    EXPECT_GT(fault.checkpoint_pause_tasks, 0.0);
    EXPECT_GT(fault.recovery_stall_tasks, 0.0);
}

TEST(ElasticMembership, S3dCrashRejoinRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 30, false);
}

TEST(ElasticMembership, S3dCrashRejoinStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 30, true);
}

TEST(ElasticMembership, HtrCrashRejoinRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 30, false);
}

TEST(ElasticMembership, HtrCrashRejoinStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 30, true);
}

TEST(ElasticMembership, MultipleStaggeredFailuresAllRecover)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(BaseOptions(3, false));
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, false);
    options.checkpoint_interval_tasks = 250;
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 4,
         .rejoin_at_task = total / 2});
    options.fault_plan.events.push_back(
        {.node = 2, .crash_at_task = total / 2,
         .rejoin_at_task = 3 * total / 4});
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    EXPECT_EQ(DigestsOf(churned), want);
    EXPECT_EQ(churned.FaultRecovery().crashes, 2u);
    EXPECT_EQ(churned.FaultRecovery().rejoins, 2u);
}

TEST(ElasticMembership, PermanentCrashLeavesNodeDownHealthyUnaffected)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(BaseOptions(3, false));
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, false);
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 3});  // never rejoins
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    EXPECT_TRUE(churned.NodeCrashed(1));
    EXPECT_THROW(churned.NodeRuntime(1), rt::RuntimeUsageError);
    EXPECT_EQ(churned.FaultRecovery().crashes, 1u);
    EXPECT_EQ(churned.FaultRecovery().rejoins, 0u);
    // The survivors never notice: their digests equal the churn-free
    // run's (the coordination schedule spans the full fixed roster).
    const auto got = DigestsOf(churned);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[2], want[2]);
    // The crashed node's digest is frozen at the crash point.
    EXPECT_LT(got[1].second, want[1].second);
}

TEST(ElasticMembership, NoCheckpointsEscapeHatchFallsBackToFullTailReplay)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(BaseOptions(3, false));
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, false);
    options.checkpoint_interval_tasks = 0;  // checkpoints off
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 3,
         .rejoin_at_task = 2 * total / 3});
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    // No images were ever written; the rejoiner replayed the full
    // decision tail from stream start — and still re-converged.
    EXPECT_EQ(churned.FaultRecovery().checkpoints_taken, 0u);
    EXPECT_TRUE(churned.CheckpointImage().empty());
    EXPECT_EQ(churned.FaultRecovery().rejoins, 1u);
    EXPECT_GT(churned.FaultRecovery().tail_events_replayed, 0u);
    EXPECT_EQ(DigestsOf(churned), want);
}

TEST(ElasticMembership, TransientCorruptionQuarantinesThenHeals)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    // The corrupted replica replays against templates recorded from
    // its corrupted stream; deviations must degrade, not throw
    // (Legion's fallback mode). Same policy in the reference run so
    // the two configurations differ only in the injection.
    sim::ClusterOptions reference_options = BaseOptions(3, false);
    reference_options.runtime_options.mismatch_policy =
        rt::MismatchPolicy::kFallback;
    sim::Cluster reference(reference_options);
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = reference_options;
    options.checkpoint_interval_tasks = 300;
    options.fault.enabled = true;
    options.fault.node = 1;
    options.fault.from_task = total / 4;
    options.fault.until_task = total / 2;
    options.fault.token_xor = 0xdeadbeefULL;
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    // The corrupted replica was detected (quarantined), then healed
    // by peer resync once the injection window closed — and the final
    // streams are the clean run's.
    EXPECT_GE(churned.FaultRecovery().heals, 1u);
    EXPECT_FALSE(churned.NodeQuarantined(1));
    EXPECT_EQ(DigestsOf(churned), want);
    EXPECT_TRUE(churned.StreamDigestsAgree());
}

TEST(ElasticMembership, ManualResyncHealsAQuarantinedNode)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::ClusterOptions reference_options = BaseOptions(3, false);
    reference_options.runtime_options.mismatch_policy =
        rt::MismatchPolicy::kFallback;  // see the transient test
    sim::Cluster reference(reference_options);
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    // A corruption window that never closes before end of stream:
    // no auto-heal, the node stays quarantined through Flush.
    sim::ClusterOptions options = reference_options;
    options.fault.enabled = true;
    options.fault.node = 1;
    options.fault.from_task = total / 4;
    options.fault.until_task = total * 10;
    options.fault.token_xor = 0xfeedULL;
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);
    ASSERT_TRUE(churned.NodeQuarantined(1));
    EXPECT_FALSE(churned.StreamDigestsAgree());

    // Operator-initiated recovery (no checkpoint interval: the full
    // decision tail from stream start carries the whole resync).
    churned.ResyncQuarantined(1);
    EXPECT_FALSE(churned.NodeQuarantined(1));
    EXPECT_EQ(churned.FaultRecovery().heals, 1u);
    EXPECT_EQ(DigestsOf(churned), want);
    EXPECT_TRUE(churned.StreamDigestsAgree());

    // Healthy nodes cannot be "resynced".
    EXPECT_THROW(churned.ResyncQuarantined(0), rt::RuntimeUsageError);
}

TEST(ElasticMembership, FaultPlanValidation)
{
    {
        sim::ClusterOptions options = BaseOptions(3, false);
        options.fault_plan.events.push_back({.node = 5, .crash_at_task = 10});
        EXPECT_THROW(sim::Cluster{options}, rt::RuntimeUsageError);
    }
    {
        sim::ClusterOptions options = BaseOptions(3, false);
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = 100, .rejoin_at_task = 100});
        EXPECT_THROW(sim::Cluster{options}, rt::RuntimeUsageError);
    }
    {
        // Fault tolerance rides the shared decision engine's tail.
        sim::ClusterOptions options = BaseOptions(3, false);
        options.config.shared_decisions = false;
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = 100, .rejoin_at_task = 200});
        EXPECT_THROW(sim::Cluster{options}, rt::RuntimeUsageError);
    }
}

TEST(ElasticMembership, CorruptClusterCheckpointImagesAreRejected)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    sim::ClusterOptions options = BaseOptions(3, false);
    options.checkpoint_interval_tasks = 200;
    sim::Cluster cluster(options);
    Drive<apps::S3dApplication>(
        cluster, apps::S3dOptions{.machine = machine}, 20);
    const std::vector<std::uint8_t> image = cluster.CheckpointImage();
    ASSERT_GT(cluster.FaultRecovery().checkpoints_taken, 0u);
    ASSERT_FALSE(image.empty());

    // The install path a rejoining node runs, on a fresh runtime.
    const auto install = [&](const std::vector<std::uint8_t>& bytes) {
        fault::CheckpointReader reader(bytes);
        reader.BeginSection(fault::SectionTag::kClusterNode);
        reader.U64();
        reader.U64();
        reader.U64();
        reader.EndSection();
        rt::Runtime fresh(options.runtime_options);
        fresh.LoadState(reader);
    };
    install(image);  // the intact image must install cleanly

    std::vector<std::uint8_t> truncated(
        image.begin(),
        image.begin() + static_cast<std::ptrdiff_t>(image.size() / 2));
    EXPECT_THROW(install(truncated), fault::CheckpointError);

    std::vector<std::uint8_t> flipped = image;
    flipped[flipped.size() * 3 / 4] ^= 0x01;
    EXPECT_THROW(install(flipped), fault::CheckpointError);
}

}  // namespace
}  // namespace apo
