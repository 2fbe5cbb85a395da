/**
 * @file
 * Tests of the finder's mining path (core::TraceFinder driving
 * strings::IncrementalMiner):
 *
 *  - the per-job oracle over every bundled application's issued
 *    stream: each job's candidate set equals MineSlice over its
 *    window, without a namespace, with one, and through a shared
 *    MiningCache, and every tier of the miner is exercised;
 *  - a steady stream is served by the identical-window tier, which
 *    hands out the kept candidate set without copying it, and which
 *    allocates nothing (this TU owns the counting allocator — see
 *    support/counting_allocator.h);
 *  - the per-tier counters threaded through AnalysisJob → FinderStats
 *    → ExperimentResult.
 */
#include "support/counting_allocator.h"

#include <gtest/gtest.h>

#include <vector>

#include "api/frontend.h"
#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/config.h"
#include "core/finder.h"
#include "mining_oracle.h"
#include "runtime/runtime.h"
#include "sim/harness.h"
#include "strings/incremental.h"

namespace apo {
namespace {

apps::MachineConfig SmallMachine()
{
    apps::MachineConfig m;
    m.nodes = 2;
    m.gpus_per_node = 2;
    return m;
}

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 10;
    config.batchsize = 1500;
    config.multi_scale_factor = 100;
    return config;
}

// ---------------------------------------------------------------------------
// Per-job oracle over the applications' issued streams.

/** The token stream `App` issues over `iters` iterations, untraced. */
template <typename App, typename Options>
std::vector<rt::TokenHash> IssuedStream(Options options, std::size_t iters)
{
    rt::Runtime runtime;
    api::UntracedFrontend sink(runtime);
    App app(options);
    app.Setup(sink);
    for (std::size_t i = 0; i < iters; ++i) {
        app.Iteration(sink, i, false);
    }
    sink.Flush();
    std::vector<rt::TokenHash> stream;
    stream.reserve(runtime.Log().size());
    for (std::size_t i = 0; i < runtime.Log().size(); ++i) {
        stream.push_back(runtime.Log()[i].token);
    }
    return stream;
}

std::vector<std::vector<rt::TokenHash>> AppStreams()
{
    apps::TorchSweOptions swe{.machine = SmallMachine()};
    swe.allocation_pool_budget = 150;
    return {
        IssuedStream<apps::S3dApplication>(
            apps::S3dOptions{.machine = SmallMachine()}, 60),
        IssuedStream<apps::HtrApplication>(
            apps::HtrOptions{.machine = SmallMachine()}, 50),
        IssuedStream<apps::CfdApplication>(
            apps::CfdOptions{.machine = SmallMachine()}, 120),
        IssuedStream<apps::TorchSweApplication>(swe, 80),
        IssuedStream<apps::FlexFlowApplication>(
            apps::FlexFlowOptions{.machine = SmallMachine()}, 40),
    };
}

TEST(FinderMiningOracle, EveryAppJobEqualsMineSlice)
{
    // Replay boundaries far enough apart that the doubling anchored
    // windows reach the batchsize cap, where they coincide with the
    // ruler's capped window (an identical window).
    const core::ApopheniaConfig config = SmallConfig();
    const std::size_t anchor_every = 4 * config.batchsize + 1;
    test::OracleTally plain;
    test::OracleTally namespaced;
    test::OracleTally shared;
    int app = 0;
    for (const std::vector<rt::TokenHash>& stream : AppStreams()) {
        SCOPED_TRACE("app " + std::to_string(app++));
        ASSERT_GT(stream.size(), config.batchsize);
        plain += test::ExpectEveryJobMatchesMineSlice(
            stream, config, test::OracleSetup::kPlain, anchor_every);
        namespaced += test::ExpectEveryJobMatchesMineSlice(
            stream, config, test::OracleSetup::kNamespaced, anchor_every);
        shared += test::ExpectEveryJobMatchesMineSlice(
            stream, config, test::OracleSetup::kSharedCache, anchor_every);
    }
    // Every tier of the miner served some job, and nothing else did.
    EXPECT_GT(plain.fast_path, 0u);
    EXPECT_GT(plain.repair, 0u);
    EXPECT_GT(plain.full, 0u);
    EXPECT_EQ(plain.cache_hits, 0u);
    EXPECT_EQ(plain.fast_path + plain.repair + plain.full, plain.jobs);
    // A namespaced window always mines canonically from scratch.
    EXPECT_EQ(namespaced.full, namespaced.jobs);
    EXPECT_EQ(namespaced.jobs, plain.jobs);
    // Two finders over one stream: the second adopts the first's
    // mining, which still goes through the miner's tiers. The cache
    // is probed first, so it also serves a window identical to one
    // just mined.
    EXPECT_EQ(shared.jobs, 2 * plain.jobs);
    EXPECT_GE(shared.cache_hits, plain.jobs + plain.fast_path);
    EXPECT_GT(shared.repair, 0u);
    EXPECT_GT(shared.full, 0u);
}

TEST(FinderMiningOracle, PooledWorkersShareOneMiner)
{
    // Jobs of one finder mined concurrently on pool workers take turns
    // on the finder's miner; each still equals MineSlice over its own
    // window (the TSan leg runs this race).
    const std::vector<rt::TokenHash> stream =
        IssuedStream<apps::S3dApplication>(
            apps::S3dOptions{.machine = SmallMachine()}, 40);
    support::PooledExecutor pool(3);
    for (const test::OracleSetup setup :
         {test::OracleSetup::kPlain, test::OracleSetup::kSharedCache}) {
        const test::OracleTally tally =
            test::ExpectEveryJobMatchesMineSlice(stream, SmallConfig(),
                                                 setup, 997, &pool, 6);
        EXPECT_GT(tally.jobs, 0u);
    }
}

// ---------------------------------------------------------------------------
// Tier counters.

TEST(FinderMining, TierCountersAccountForEveryIngestedJob)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = 60;
    options.machine = SmallMachine();
    options.auto_config = SmallConfig();
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const sim::ExperimentResult result = sim::RunExperiment(app, options);

    // Single node, no shared cache: every ingested job was served by
    // exactly one tier.
    EXPECT_EQ(result.mining_fast_path_hits + result.mining_repairs +
                  result.mining_full,
              result.apophenia_stats.jobs_ingested);
    ASSERT_GT(result.apophenia_stats.jobs_ingested, 0u);
}

TEST(FinderMining, SteadyStreamIsServedByTheFastPath)
{
    // A periodic stream whose period divides the analysis stride, so
    // every batched window after the first is content-identical. All
    // but the first job must take the miner's identical-window tier —
    // no suffix work, no repeat conversion — and share the candidate
    // set the first job built.
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 256;
    config.identifier_algorithm = core::IdentifierAlgorithm::kBatched;
    support::InlineExecutor executor;
    core::TraceFinder finder(config, executor);
    const std::vector<core::CandidateTrace>* kept = nullptr;
    std::uint64_t shared_sets = 0;
    const auto ingest = [&] {
        const core::AnalysisJob& job = finder.WaitOldestJob();
        if (kept == nullptr) {
            kept = &job.Results();
        } else if (&job.Results() == kept) {
            ++shared_sets;
        }
        finder.ReleaseOldestJob();
    };
    for (std::uint64_t i = 0; i < 256 * 20; ++i) {
        finder.Observe(i % 8, i);
        while (finder.OldestJobDone()) {
            ingest();
        }
    }
    while (finder.PendingJobCount() > 0) {
        ingest();
    }
    const core::FinderStats& stats = finder.Stats();
    ASSERT_EQ(stats.jobs_launched, 20u);
    EXPECT_EQ(stats.mining_fast_path_hits + stats.mining_repairs +
                  stats.mining_full,
              stats.jobs_launched);
    EXPECT_EQ(stats.mining_fast_path_hits, stats.jobs_launched - 1);
    EXPECT_EQ(shared_sets, stats.jobs_launched - 1);
}

TEST(FinderMining, IdenticalWindowTierAllocatesNothing)
{
    // The miner the finder drives, configured as the finder configures
    // it: once a window is mined, re-mining an identical window is a
    // verified compare that returns the kept repeats, and allocates
    // nothing.
    strings::IncrementalMiner miner(
        strings::RepeatOptions{.min_length = 8, .min_occurrences = 2});
    std::vector<rt::TokenHash> window(4096);
    for (std::size_t i = 0; i < window.size(); ++i) {
        window[i] = i % 64;
    }
    const std::vector<strings::Repeat>& kept = miner.Mine(window);
    ASSERT_FALSE(kept.empty());
    bool all_fast = true;
    const std::uint64_t before = support::AllocationCount();
    for (int i = 0; i < 1000; ++i) {
        all_fast = all_fast && &miner.Mine(window) == &kept &&
                   miner.LastTier() == strings::MiningTier::kFastPath;
    }
    EXPECT_EQ(support::AllocationCount() - before, 0u)
        << "identical-window tier allocated";
    EXPECT_TRUE(all_fast);
}

}  // namespace
}  // namespace apo
