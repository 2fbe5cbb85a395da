/**
 * @file
 * Section 4.2 microbenchmarks: the repeat-mining algorithm's
 * scaling, the suffix-array constructions, the quadratic
 * baseline for contrast — and the finder's application-thread launch
 * path, where the zero-copy history snapshots earn their keep.
 *
 * The paper requires the finder to scale to buffers of several
 * thousand tokens (real traces exceed 2000 tasks) *and* to never
 * stall the application (section 4.3). The launch-path measurement
 * drives TraceFinder::Observe on a mining-heavy configuration with
 * the per-job work discarded, isolating what the application thread
 * pays per token: with zero-copy snapshots that is O(slice/block)
 * reference bumps per job. The trie_match section measures the
 * replayer's other per-token cost, advancing every live match pointer
 * through the candidate trie, and the repeat_ranking section times the
 * mining job's candidate-ranking stage alone (FindRepeatsFromSa over a
 * prebuilt suffix array). The results are recorded to
 * BENCH_micro_repeats.json so successive PRs keep a perf trajectory.
 *
 * Usage:
 *   micro_repeats                      # launch-path record + JSON
 *   micro_repeats --benchmark_filter=. # also run the google benches
 *   micro_repeats --json=PATH          # JSON output path
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "api/launch.h"
#include "bench_util.h"
#include "core/apophenia.h"
#include "core/finder.h"
#include "runtime/oplog.h"
#include "sim/cluster.h"
#include "strings/identifiers.h"
#include "strings/incremental.h"
#include "strings/repeats.h"
#include "strings/suffix_array.h"
#include "support/executor.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/ruler.h"
#include "svc/workload.h"

#include "support/counting_allocator.h"

namespace {

using namespace apo;

/** A periodic token stream with occasional noise — the task-history
 * shape the finder actually sees. */
strings::Sequence AppLikeStream(std::size_t n)
{
    strings::Sequence s;
    s.reserve(n);
    std::uint64_t noise = 1u << 20;
    for (std::size_t i = 0; s.size() < n; ++i) {
        if (i % 97 == 96) {
            s.push_back(noise++);
        }
        s.push_back(i % 64);
    }
    s.resize(n);
    return s;
}

void BM_FindRepeats(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strings::FindRepeats(s, {.min_length = 25}));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindRepeats)->RangeMultiplier(2)->Range(512, 16384)->Complexity(
    benchmark::oNLogN);

void BM_SuffixArraySais(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strings::BuildSuffixArray(s, strings::SuffixAlgorithm::kSais));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SuffixArraySais)->RangeMultiplier(4)->Range(512, 32768);

void BM_SuffixArrayDoubling(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(strings::BuildSuffixArray(
            s, strings::SuffixAlgorithm::kPrefixDoubling));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SuffixArrayDoubling)->RangeMultiplier(4)->Range(512, 32768);

void BM_QuadraticBaseline(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strings::FindRepeatsQuadratic(s, 25));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_QuadraticBaseline)->RangeMultiplier(2)->Range(512, 4096);

// ---------------------------------------------------------------------------
// Finder launch-path throughput (the zero-copy claim).

/** Drops every job: the measurement sees only the application-thread
 * half of a launch (history append and snapshot). */
class DiscardExecutor final : public support::Executor {
  public:
    using Executor::Submit;
    void Submit(std::function<void()>) override {}
    void Drain() override {}
};

/** The mining-heavy configuration: a job every 32 tokens against a
 * 4096-token window. */
core::ApopheniaConfig MiningHeavyConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 4096;
    config.multi_scale_factor = 32;
    return config;
}

struct LaunchPathResult {
    double tokens_per_sec = 0.0;
    std::uint64_t jobs_launched = 0;
    std::uint64_t tokens_analyzed = 0;
};

LaunchPathResult MeasureLaunchPath(std::size_t tokens, int reps)
{
    const strings::Sequence stream = AppLikeStream(tokens);
    LaunchPathResult best;
    for (int rep = 0; rep < reps; ++rep) {
        const core::ApopheniaConfig config = MiningHeavyConfig();
        DiscardExecutor executor;
        core::TraceFinder finder(config, executor);
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t now = 0;
        for (const auto token : stream) {
            finder.Observe(token, ++now);
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > best.tokens_per_sec) {
            best.tokens_per_sec = rate;
            best.jobs_launched = finder.Stats().jobs_launched;
            best.tokens_analyzed = finder.Stats().tokens_analyzed;
        }
    }
    return best;
}

// ---------------------------------------------------------------------------
// Frontend issue-path throughput (the launch-view claim).
//
// Isolates what the application thread pays per launch at the API
// boundary, with the consumer discarded (the DiscardExecutor pattern
// above): the builder path reuses a caller-owned arena and carries
// the once-computed token on a view; the baseline reproduces the
// seed's per-launch cost — construct a TaskLaunch (one requirement
// vector), hash it at the consumer, and stage it through a pending
// buffer (one more vector copy), the way the pre-view Apophenia
// buffered every launch.

/** Consumes views without copying: the post-redesign contract. */
class DiscardFrontend final : public apo::api::Frontend {
  public:
    std::string_view Name() const override { return "discard"; }
    apo::rt::RegionId CreateRegion() override
    {
        return apo::rt::RegionId{++regions_};
    }
    void DestroyRegion(apo::rt::RegionId) override {}
    std::vector<apo::rt::RegionId> PartitionRegion(apo::rt::RegionId,
                                                   std::size_t) override
    {
        return {};
    }
    apo::rt::TokenHash Checksum() const { return checksum_; }

  protected:
    void DoExecuteTask(const apo::rt::TaskLaunchView& launch) override
    {
        checksum_ ^= launch.token;
    }
    bool DoBeginTrace(apo::rt::TraceId) override { return false; }
    bool DoEndTrace(apo::rt::TraceId) override { return false; }
    void DoFlush() override {}

  private:
    std::uint64_t regions_ = 0;
    apo::rt::TokenHash checksum_ = 0;
};

/** Stages every launch through a pending buffer — the seed's
 * per-launch requirement-vector copy. */
class BufferingDiscardFrontend final : public apo::api::Frontend {
  public:
    std::string_view Name() const override { return "discard-buffering"; }
    apo::rt::RegionId CreateRegion() override
    {
        return apo::rt::RegionId{++regions_};
    }
    void DestroyRegion(apo::rt::RegionId) override {}
    std::vector<apo::rt::RegionId> PartitionRegion(apo::rt::RegionId,
                                                   std::size_t) override
    {
        return {};
    }
    apo::rt::TokenHash Checksum() const { return checksum_; }

  protected:
    void DoExecuteTask(const apo::rt::TaskLaunchView& launch) override
    {
        pending_.push_back(launch.Materialize());
        checksum_ ^= launch.token;
        pending_.pop_front();
    }
    bool DoBeginTrace(apo::rt::TraceId) override { return false; }
    bool DoEndTrace(apo::rt::TraceId) override { return false; }
    void DoFlush() override {}

  private:
    std::uint64_t regions_ = 0;
    std::deque<apo::rt::TaskLaunch> pending_;
    apo::rt::TokenHash checksum_ = 0;
};

struct IssuePathResult {
    double launches_per_sec = 0.0;
    double allocs_per_launch = 0.0;
};

/** The measured stream: 8 task ids cycling over 3-requirement
 * stencil-shaped launches — the shape of the app skeletons' loops. */
template <typename IssueFn>
IssuePathResult MeasureIssuePath(std::size_t launches, int reps,
                                 IssueFn&& issue_one)
{
    IssuePathResult best;
    for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t allocs_before =
            apo::support::AllocationCount();
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < launches; ++i) {
            issue_one(i);
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const std::uint64_t allocs =
            apo::support::AllocationCount() - allocs_before;
        const double rate =
            static_cast<double>(launches) / elapsed.count();
        if (rate > best.launches_per_sec) {
            best.launches_per_sec = rate;
            best.allocs_per_launch = static_cast<double>(allocs) /
                                     static_cast<double>(launches);
        }
    }
    return best;
}

struct IssuePathRecord {
    IssuePathResult builder;
    IssuePathResult vector_copy;
    double improvement = 0.0;
};

IssuePathRecord RunIssuePathRecord()
{
    constexpr std::size_t kLaunches = 1u << 20;
    constexpr int kReps = 5;
    constexpr std::uint32_t kShards = 4;

    apo::rt::RegionRequirement reqs[3];
    auto requirement_of = [&](std::size_t i, std::uint32_t g) {
        reqs[0] = {apo::rt::RegionId{1 + (i % 5)},
                   g, apo::rt::Privilege::kReadOnly, 0};
        reqs[1] = {apo::rt::RegionId{1 + ((i + 1) % 5)},
                   g, apo::rt::Privilege::kReadOnly, 0};
        reqs[2] = {apo::rt::RegionId{1 + ((i + 2) % 5)},
                   g, apo::rt::Privilege::kWriteDiscard, 0};
    };

    IssuePathRecord record;
    {
        DiscardFrontend frontend;
        apo::api::LaunchBuilder builder;
        record.builder = MeasureIssuePath(
            kLaunches, kReps, [&](std::size_t i) {
                const std::uint32_t g =
                    static_cast<std::uint32_t>(i % kShards);
                requirement_of(i, g);
                builder.Start(static_cast<apo::rt::TaskId>(100 + i % 8),
                              g, 50.0);
                for (const auto& req : reqs) {
                    builder.Add(req);
                }
                builder.LaunchOn(frontend);
            });
        benchmark::DoNotOptimize(frontend.Checksum());
    }
    {
        BufferingDiscardFrontend frontend;
        record.vector_copy = MeasureIssuePath(
            kLaunches, kReps, [&](std::size_t i) {
                const std::uint32_t g =
                    static_cast<std::uint32_t>(i % kShards);
                requirement_of(i, g);
                apo::rt::TaskLaunch launch;  // the seed's per-launch
                launch.task =                // vector construction
                    static_cast<apo::rt::TaskId>(100 + i % 8);
                launch.shard = g;
                launch.execution_us = 50.0;
                launch.requirements.assign(reqs, reqs + 3);
                frontend.ExecuteTask(launch);  // hashes at the boundary
            });
        benchmark::DoNotOptimize(frontend.Checksum());
    }
    record.improvement =
        record.vector_copy.launches_per_sec > 0.0
            ? record.builder.launches_per_sec /
                  record.vector_copy.launches_per_sec
            : 0.0;

    std::printf("\n# frontend issue path (3-requirement launches, "
                "discard consumer, %zu launches)\n",
                kLaunches);
    std::printf("%-22s %14.0f launches/sec  (%.2f allocs/launch)\n",
                "launch-view builder", record.builder.launches_per_sec,
                record.builder.allocs_per_launch);
    std::printf("%-22s %14.0f launches/sec  (%.2f allocs/launch)\n",
                "vector-copy (seed)",
                record.vector_copy.launches_per_sec,
                record.vector_copy.allocs_per_launch);
    std::printf("%-22s %14.2fx\n", "improvement", record.improvement);
    return record;
}

// ---------------------------------------------------------------------------
// Runtime-log append throughput (the columnar-arena claim).
//
// Isolates what the runtime pays to *record* an already-analyzed
// launch. The baseline reproduces the seed's AoS log entry — an
// Operation struct owning a requirement vector and an edge vector,
// pushed onto a std::vector log (one or more allocations per launch).
// The arena path is rt::OperationLog in streaming-retire mode with a
// null consumer: blocks recycle, so the steady state allocates
// nothing and resident memory stays constant.

/** The seed's log entry, reproduced locally as the baseline. */
struct AosOperation {
    std::size_t index = 0;
    apo::rt::TaskLaunch launch;
    apo::rt::TokenHash token = 0;
    std::vector<apo::rt::Dependence> dependences;
    apo::rt::AnalysisMode mode = apo::rt::AnalysisMode::kAnalyzed;
    apo::rt::TraceId trace = 0;
    double analysis_cost_us = 0.0;
    bool replay_head = false;
};

struct LogAppendRecord {
    IssuePathResult arena;
    IssuePathResult aos;
    double improvement = 0.0;
};

LogAppendRecord RunLogAppendRecord()
{
    constexpr std::size_t kLaunches = 1u << 20;
    constexpr int kReps = 5;

    // A steady 3-requirement, 2-edge launch: the app skeletons' shape.
    apo::rt::TaskLaunch launch;
    launch.task = 42;
    launch.execution_us = 50.0;
    launch.requirements = {
        {apo::rt::RegionId{1}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{2}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{3}, 0, apo::rt::Privilege::kWriteDiscard, 0}};
    const apo::rt::TaskLaunchView view =
        apo::rt::TaskLaunchView::Of(launch);
    const apo::rt::Dependence edges[2] = {
        {5, 7, apo::rt::DependenceKind::kTrue},
        {6, 7, apo::rt::DependenceKind::kAnti}};

    LogAppendRecord record;
    {
        apo::rt::OperationLog log;
        log.EnableStreaming([](const apo::rt::OpView&) {});
        record.arena = MeasureIssuePath(
            kLaunches, kReps, [&](std::size_t) {
                log.Append(view, apo::rt::AnalysisMode::kAnalyzed, 0,
                           1.0, false, edges);
                log.SetRetireBound(log.size());
            });
        benchmark::DoNotOptimize(log.RetiredCount());
    }
    {
        // The seed's retained AoS log. Recycled wholesale every 64k
        // entries to keep the bench resident-bounded; clearing
        // destroys the per-entry vectors, so the per-launch
        // materialize-and-copy cost stays honest.
        std::vector<AosOperation> log;
        record.aos = MeasureIssuePath(
            kLaunches, kReps, [&](std::size_t) {
                if (log.size() == 65536) {
                    log.clear();
                }
                AosOperation op;
                op.index = log.size();
                view.MaterializeInto(op.launch);
                op.token = view.token;
                op.dependences.assign(edges, edges + 2);
                op.analysis_cost_us = 1.0;
                log.push_back(std::move(op));
            });
        benchmark::DoNotOptimize(log.size());
    }
    record.improvement =
        record.aos.launches_per_sec > 0.0
            ? record.arena.launches_per_sec / record.aos.launches_per_sec
            : 0.0;

    std::printf("\n# runtime-log append (3-requirement, 2-edge ops, "
                "%zu appends)\n",
                kLaunches);
    std::printf("%-22s %14.0f appends/sec   (%.2f allocs/launch)\n",
                "columnar arena log", record.arena.launches_per_sec,
                record.arena.allocs_per_launch);
    std::printf("%-22s %14.0f appends/sec   (%.2f allocs/launch)\n",
                "AoS vector log (seed)", record.aos.launches_per_sec,
                record.aos.allocs_per_launch);
    std::printf("%-22s %14.2fx\n", "improvement", record.improvement);
    return record;
}

// ---------------------------------------------------------------------------
// Stream-digest consume throughput (the incremental-agreement claim).
//
// The control-replication safety check used to be an all-pairs walk
// over retained logs; sim::StreamDigest replaces it with a rolling
// hash fed per issued call from the streaming-retire consumer. For
// that to ride the issue path of every node it must be O(1) amortized
// and allocation-free per operation — measured here over a log of the
// app skeletons' 3-requirement, 2-edge shape.

struct DigestRecord {
    IssuePathResult digest;  ///< consumes/sec, allocs/consume
    std::uint64_t checksum = 0;
};

DigestRecord RunDigestRecord()
{
    constexpr std::size_t kOps = 4096;
    constexpr std::size_t kConsumes = 1u << 20;
    constexpr int kReps = 5;

    apo::rt::OperationLog log;
    apo::rt::TaskLaunch launch;
    launch.execution_us = 50.0;
    launch.requirements = {
        {apo::rt::RegionId{1}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{2}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{3}, 0, apo::rt::Privilege::kWriteDiscard, 0}};
    for (std::size_t i = 0; i < kOps; ++i) {
        launch.task = static_cast<apo::rt::TaskId>(100 + i % 8);
        const apo::rt::Dependence edges[2] = {
            {i, i + 2, apo::rt::DependenceKind::kTrue},
            {i + 1, i + 2, apo::rt::DependenceKind::kAnti}};
        log.Append(apo::rt::TaskLaunchView::Of(launch),
                   apo::rt::AnalysisMode::kAnalyzed, 0, 1.0, false,
                   edges);
    }

    DigestRecord record;
    apo::sim::StreamDigest digest;
    record.digest = MeasureIssuePath(
        kConsumes, kReps,
        [&](std::size_t i) { digest.Consume(log[i % kOps]); });
    record.checksum = digest.Value();
    benchmark::DoNotOptimize(record.checksum);

    std::printf("\n# stream digest (3-requirement, 2-edge ops, %zu "
                "consumes)\n",
                kConsumes);
    std::printf("%-22s %14.0f consumes/sec  (%.2f allocs/consume)\n",
                "incremental digest", record.digest.launches_per_sec,
                record.digest.allocs_per_launch);
    return record;
}

// ---------------------------------------------------------------------------
// Steady-state mining throughput (the incremental-engine claim).
//
// Steady-state iteration loops hand the finder window after window of
// byte-identical content whenever the stream's period divides the
// analysis stride. The finder's incremental miner
// (strings/incremental.h) must serve those windows from its
// identical-window tier — one verify compare, no suffix-array work, no
// allocation — and must produce candidate sets byte-identical to
// from-scratch mining. The finder side is measured end to end through
// TraceFinder with an inline executor, so its tokens/sec include
// everything the finder pays per window: history append, job launch,
// mining, ingestion. The from-scratch side mines the same windows
// through core::MineSlice directly.

/** Fold of one candidate set into a running digest. */
void MixCandidates(std::uint64_t& digest,
                   const std::vector<core::CandidateTrace>& candidates)
{
    const auto mix = [&digest](std::uint64_t v) {
        digest = (digest ^ v) * 1099511628211ull;
    };
    for (const core::CandidateTrace& trace : candidates) {
        mix(trace.tokens.size());
        for (const auto token : trace.tokens) {
            mix(token);
        }
        mix(static_cast<std::uint64_t>(trace.occurrences * 1024.0));
    }
}

struct SteadyMiningRun {
    double tokens_per_sec = 0.0;
    double fast_path_hit_rate = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t digest = 0;  ///< fold of every window's candidate set
};

/** The steady workload: a pure period-64 stream mined in batched
 * 4096-token windows (64 divides the stride, so every window is
 * identical). */
constexpr std::size_t kSteadyWindow = 4096;

core::ApopheniaConfig SteadyMiningConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = kSteadyWindow;
    config.multi_scale_factor = 64;
    config.identifier_algorithm = core::IdentifierAlgorithm::kBatched;
    return config;
}

strings::Sequence SteadyStream(std::size_t tokens)
{
    strings::Sequence stream(tokens);
    for (std::size_t i = 0; i < tokens; ++i) {
        stream[i] = i % 64;
    }
    return stream;
}

/** Best-of-`reps` finder run over the steady stream. */
SteadyMiningRun MeasureFinderMining(std::size_t tokens, int reps)
{
    const strings::Sequence stream = SteadyStream(tokens);
    SteadyMiningRun best;
    for (int rep = 0; rep < reps; ++rep) {
        const core::ApopheniaConfig config = SteadyMiningConfig();
        support::InlineExecutor executor;
        core::TraceFinder finder(config, executor);
        std::uint64_t digest = 1469598103934665603ull;

        const auto start = std::chrono::steady_clock::now();
        std::uint64_t now = 0;
        for (const auto token : stream) {
            finder.Observe(token, ++now);
        }
        while (finder.PendingJobCount() > 0) {
            MixCandidates(digest, finder.WaitOldestJob().Results());
            finder.ReleaseOldestJob();
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        const core::FinderStats& stats = finder.Stats();
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > best.tokens_per_sec) {
            best.tokens_per_sec = rate;
            best.windows = stats.jobs_launched;
            best.fast_path_hit_rate =
                stats.jobs_launched > 0
                    ? static_cast<double>(stats.mining_fast_path_hits) /
                          static_cast<double>(stats.jobs_launched)
                    : 0.0;
            best.digest = digest;
        }
    }
    return best;
}

/** Best-of-`reps` from-scratch MineSlice over the finder's windows. */
SteadyMiningRun MeasureMineSlice(std::size_t tokens, int reps)
{
    const strings::Sequence stream = SteadyStream(tokens);
    const core::ApopheniaConfig config = SteadyMiningConfig();
    SteadyMiningRun best;
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t digest = 1469598103934665603ull;
        std::uint64_t windows = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t end = kSteadyWindow; end <= tokens;
             end += kSteadyWindow) {
            const std::vector<rt::TokenHash> window(
                stream.begin() + static_cast<std::ptrdiff_t>(
                                     end - kSteadyWindow),
                stream.begin() + static_cast<std::ptrdiff_t>(end));
            MixCandidates(digest, core::MineSlice(window, config));
            ++windows;
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > best.tokens_per_sec) {
            best.tokens_per_sec = rate;
            best.windows = windows;
            best.digest = digest;
        }
    }
    return best;
}

/** Allocations per window on the finder's identical-window path (its
 * incremental miner re-mining a hot window, configured as the finder
 * configures it): the contract is zero. */
double MeasureIdenticalWindowAllocs()
{
    const core::ApopheniaConfig config = SteadyMiningConfig();
    strings::IncrementalMiner miner(strings::RepeatOptions{
        .min_length = config.min_trace_length, .min_occurrences = 2});
    const strings::Sequence window = SteadyStream(kSteadyWindow);
    miner.Mine(window);  // the first window is mined in full

    constexpr std::uint64_t kWindows = 10000;
    bool all_fast = true;
    const std::uint64_t before = apo::support::AllocationCount();
    for (std::uint64_t i = 0; i < kWindows; ++i) {
        miner.Mine(window);
        all_fast = all_fast &&
                   miner.LastTier() == strings::MiningTier::kFastPath;
    }
    const std::uint64_t allocs = apo::support::AllocationCount() - before;
    if (!all_fast) {
        std::fprintf(stderr,
                     "steady_state_mining: an identical window missed "
                     "the fast path\n");
        return -1.0;
    }
    return static_cast<double>(allocs) / static_cast<double>(kWindows);
}

struct SteadyMiningRecord {
    SteadyMiningRun finder;
    SteadyMiningRun scratch;
    double allocs_per_window = 0.0;
    bool identical = false;
};

SteadyMiningRecord RunSteadyMiningRecord()
{
    constexpr std::size_t kTokens = 1u << 19;
    constexpr int kReps = 5;

    SteadyMiningRecord record;
    record.finder = MeasureFinderMining(kTokens, kReps);
    record.scratch = MeasureMineSlice(kTokens, kReps);
    record.allocs_per_window = MeasureIdenticalWindowAllocs();
    record.identical = record.finder.digest == record.scratch.digest &&
                       record.finder.windows == record.scratch.windows;

    std::printf("\n# steady-state mining (period-64 stream, batched "
                "4096-token windows, %zu tokens)\n",
                kTokens);
    std::printf("%-22s %14.0f tokens/sec    (fast-path hit rate %.3f)\n",
                "finder (incremental)", record.finder.tokens_per_sec,
                record.finder.fast_path_hit_rate);
    std::printf("%-22s %14.0f tokens/sec\n", "MineSlice per window",
                record.scratch.tokens_per_sec);
    std::printf("%-22s %14.3f allocs/window\n", "identical window",
                record.allocs_per_window);
    if (!record.identical) {
        std::fprintf(stderr,
                     "steady_state_mining: candidate sets DIFFER between "
                     "the finder and from-scratch MineSlice "
                     "(windows %llu vs %llu, digest %llx vs %llx)\n",
                     static_cast<unsigned long long>(record.finder.windows),
                     static_cast<unsigned long long>(record.scratch.windows),
                     static_cast<unsigned long long>(record.finder.digest),
                     static_cast<unsigned long long>(record.scratch.digest));
    }
    return record;
}

// ---------------------------------------------------------------------------
// Trie matching through the Apophenia front end (the flat-edge claim).
//
// The replayer advances every live match pointer one trie edge per
// issued token (paper section 4.3), so the front end's own cost per
// task grows with the number of overlapping candidates. Measured on a
// seeded S3D-like stream — a periodic 64-launch kernel over 4 GPUs,
// interrupted every 10th iteration the way S3D's Fortran hand-off
// interrupts it — through an Apophenia front end (artifact config,
// inline mining) whose trie was grown over a warm-up prefix. The
// tokens/sec figure is the whole issue path (mining, matching,
// replay, dependence analysis); live pointers per token is how many
// trie steps each token paid for.

/** Forwards to an Apophenia front end and samples its live match
 * pointers after every launch. */
class PointerSamplingFrontend final : public apo::api::Frontend {
  public:
    explicit PointerSamplingFrontend(apo::core::Apophenia& inner)
        : inner_(&inner)
    {
    }
    std::string_view Name() const override { return "pointer-sampling"; }
    apo::rt::RegionId CreateRegion() override
    {
        return inner_->CreateRegion();
    }
    void DestroyRegion(apo::rt::RegionId r) override
    {
        inner_->DestroyRegion(r);
    }
    std::vector<apo::rt::RegionId> PartitionRegion(
        apo::rt::RegionId parent, std::size_t count) override
    {
        return inner_->PartitionRegion(parent, count);
    }
    std::uint64_t PointerSum() const { return pointer_sum_; }

  protected:
    void DoExecuteTask(const apo::rt::TaskLaunchView& launch) override
    {
        inner_->ExecuteTask(launch);
        pointer_sum_ += inner_->ActivePointers();
    }
    bool DoBeginTrace(apo::rt::TraceId) override { return false; }
    bool DoEndTrace(apo::rt::TraceId) override { return false; }
    void DoFlush() override { inner_->Flush(); }

  private:
    apo::core::Apophenia* inner_;
    std::uint64_t pointer_sum_ = 0;
};

struct TrieMatchRecord {
    double tokens_per_sec = 0.0;
    double live_pointers_per_token = 0.0;
    std::uint64_t tokens = 0;
    std::size_t trie_nodes = 0;
    std::size_t trie_candidates = 0;
    std::uint64_t traces_fired = 0;
};

/** trie_match's stream, shared with the repeat_ranking record. */
constexpr std::size_t kWarmupIterations = 300;
constexpr std::size_t kIterations = 1500;

svc::SyntheticOptions S3dLikeStream()
{
    svc::SyntheticOptions stream;
    stream.machine = apps::MachineConfig{.nodes = 1, .gpus_per_node = 4};
    stream.seed = 2;
    stream.kernel_tasks = 64;
    stream.noise_interval = 10;
    return stream;
}

TrieMatchRecord RunTrieMatchRecord()
{
    constexpr int kReps = 5;
    const svc::SyntheticOptions stream = S3dLikeStream();

    TrieMatchRecord record;
    for (int rep = 0; rep < kReps; ++rep) {
        rt::Runtime runtime;
        runtime.EnableLogStreaming([](const rt::OpView&) {});
        core::Apophenia apophenia(runtime, bench::ArtifactConfig());
        PointerSamplingFrontend front(apophenia);
        svc::SyntheticWorkload app(stream);
        app.Setup(front);
        for (std::size_t iter = 0; iter < kWarmupIterations; ++iter) {
            app.Iteration(front, iter, false);
        }
        const std::uint64_t tokens_before = front.Stats().tasks_executed;
        const std::uint64_t pointers_before = front.PointerSum();
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t iter = kWarmupIterations;
             iter < kWarmupIterations + kIterations; ++iter) {
            app.Iteration(front, iter, false);
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        front.Flush();

        const std::uint64_t tokens =
            front.Stats().tasks_executed - tokens_before;
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > record.tokens_per_sec) {
            record.tokens_per_sec = rate;
        }
        // Everything below is deterministic: equal on every rep.
        record.tokens = tokens;
        record.live_pointers_per_token =
            static_cast<double>(front.PointerSum() - pointers_before) /
            static_cast<double>(tokens);
        record.trie_nodes = apophenia.Trie().NumNodes();
        record.trie_candidates = apophenia.Trie().NumCandidates();
        record.traces_fired = apophenia.Stats().traces_fired;
    }

    std::printf("\n# trie matching through Apophenia (seeded S3D-like "
                "stream, %zu warm-up + %zu iterations)\n",
                kWarmupIterations, kIterations);
    std::printf("%-22s %14.0f tokens/sec    (%.1f live pointers/token)\n",
                "issue path", record.tokens_per_sec,
                record.live_pointers_per_token);
    std::printf("%-22s %14zu nodes, %zu candidates\n", "final trie",
                record.trie_nodes, record.trie_candidates);
    return record;
}

std::string TrieMatchJson(const TrieMatchRecord& record)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "    %s,\n"
        "    \"stream\": \"synthetic S3D-like: 64-launch kernel, 1x4 "
        "gpus, burst every 10th iteration, seed 2, 300 warm-up + 1500 "
        "iterations\",\n"
        "    \"tokens\": %llu,\n"
        "    \"tokens_per_sec\": %.0f,\n"
        "    \"live_pointers_per_token\": %.3f,\n"
        "    \"trie_nodes\": %zu,\n"
        "    \"trie_candidates\": %zu,\n"
        "    \"traces_fired\": %llu\n"
        "  }",
        apo::bench::ConcurrencyJson().c_str(),
        static_cast<unsigned long long>(record.tokens),
        record.tokens_per_sec, record.live_pointers_per_token,
        record.trie_nodes, record.trie_candidates,
        static_cast<unsigned long long>(record.traces_fired));
    return buf;
}

// ---------------------------------------------------------------------------
// Repeat ranking alone (the linear-time ranking claim).
//
// strings::FindRepeatsFromSa — candidate generation, ranking and greedy
// selection — timed without suffix construction, over the windows the
// multi-scale finder mines under the artifact config (a window every
// 250 tokens, ruler-scheduled lengths up to 5000 tokens) on
// trie_match's seeded S3D-like stream. The digest folds every window's
// repeat set and must equal the from-scratch FindRepeats path's.

struct RepeatRankingRecord {
    double tokens_per_sec = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t tokens = 0;
    double repeats_per_window = 0.0;
    std::uint64_t digest = 0;
    bool identical = false;
};

/** Fold one window's repeat set (tokens and starts) into `digest`. */
std::uint64_t FoldRepeats(std::uint64_t digest,
                          const std::vector<strings::Repeat>& repeats)
{
    for (const strings::Repeat& r : repeats) {
        digest = support::HashCombine(digest, r.tokens.size());
        for (const strings::Symbol token : r.tokens) {
            digest = support::HashCombine(digest, token);
        }
        for (const std::size_t start : r.starts) {
            digest = support::HashCombine(digest, start);
        }
    }
    return support::HashCombine(digest, repeats.size());
}

RepeatRankingRecord RunRepeatRankingRecord()
{
    constexpr int kReps = 5;
    const core::ApopheniaConfig config = bench::ArtifactConfig();
    const strings::RepeatOptions options{
        .min_length = config.min_trace_length, .min_occurrences = 2};

    // The issued token stream, read off the runtime's retired log.
    std::vector<strings::Symbol> stream;
    {
        rt::Runtime runtime;
        runtime.EnableLogStreaming(
            [&](const rt::OpView& op) { stream.push_back(op.token); });
        api::UntracedFrontend front(runtime);
        svc::SyntheticWorkload app(S3dLikeStream());
        app.Setup(front);
        for (std::size_t iter = 0; iter < kWarmupIterations + kIterations;
             ++iter) {
            app.Iteration(front, iter, false);
        }
        front.Flush();
        runtime.DrainLogStream();
    }
    // The finder's multi-scale windows (anchored windows depend on
    // replay decisions and are left out).
    std::vector<std::span<const strings::Symbol>> windows;
    std::uint64_t k = 0;
    for (std::size_t end = config.multi_scale_factor; end <= stream.size();
         end += config.multi_scale_factor) {
        const std::size_t len = std::min(
            support::RulerSampleLength(++k, config.multi_scale_factor,
                                       config.batchsize),
            end);
        if (strings::RepeatsViable(len, options)) {
            windows.emplace_back(stream.data() + end - len, len);
        }
    }

    RepeatRankingRecord record;
    std::uint64_t reference = 0;
    std::uint64_t repeats = 0;
    for (const auto& window : windows) {
        const std::vector<strings::Repeat> found = strings::FindRepeats(
            strings::Sequence(window.begin(), window.end()), options);
        reference = FoldRepeats(reference, found);
        repeats += found.size();
        record.tokens += window.size();
    }
    record.windows = windows.size();
    record.repeats_per_window =
        static_cast<double>(repeats) / static_cast<double>(windows.size());

    strings::RepeatsScratch scratch;
    strings::SuffixWorkspace workspace;
    std::vector<std::size_t> sa, lcp, inverse;
    std::vector<strings::Repeat> out;
    for (int rep = 0; rep < kReps; ++rep) {
        std::uint64_t digest = 0;
        std::chrono::steady_clock::duration ranking{};
        for (const auto& window : windows) {
            strings::BuildSuffixArrayInto(window, sa, workspace);
            strings::ComputeLcpInto(window, sa, lcp, inverse);
            const auto start = std::chrono::steady_clock::now();
            strings::FindRepeatsFromSa(window, sa, lcp, options, scratch, out);
            ranking += std::chrono::steady_clock::now() - start;
            digest = FoldRepeats(digest, out);
        }
        const double rate =
            static_cast<double>(record.tokens) /
            std::chrono::duration<double>(ranking).count();
        record.tokens_per_sec = std::max(record.tokens_per_sec, rate);
        record.digest = digest;
    }
    record.identical = record.digest == reference;

    std::printf("\n# repeat ranking (FindRepeatsFromSa only, %llu "
                "multi-scale windows of the trie_match stream)\n",
                static_cast<unsigned long long>(record.windows));
    std::printf("%-22s %14.0f tokens/sec    (%.1f repeats/window)\n",
                "ranking + selection", record.tokens_per_sec,
                record.repeats_per_window);
    if (!record.identical) {
        std::fprintf(stderr,
                     "repeat_ranking: repeat sets DIFFER from the "
                     "from-scratch FindRepeats path (digest %llx vs "
                     "%llx)\n",
                     static_cast<unsigned long long>(record.digest),
                     static_cast<unsigned long long>(reference));
    }
    return record;
}

std::string RepeatRankingJson(const RepeatRankingRecord& record)
{
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "    %s,\n"
        "    \"windows\": \"the multi-scale windows (every 250 tokens, "
        "ruler lengths up to 5000, min length 25) of the trie_match "
        "stream\",\n"
        "    \"window_count\": %llu,\n"
        "    \"tokens\": %llu,\n"
        "    \"tokens_per_sec\": %.0f,\n"
        "    \"repeats_per_window\": %.3f,\n"
        "    \"digest\": \"%016llx\",\n"
        "    \"repeat_sets_identical\": %s\n"
        "  }",
        apo::bench::ConcurrencyJson().c_str(),
        static_cast<unsigned long long>(record.windows),
        static_cast<unsigned long long>(record.tokens),
        record.tokens_per_sec, record.repeats_per_window,
        static_cast<unsigned long long>(record.digest),
        record.identical ? "true" : "false");
    return buf;
}

int RunLaunchPathRecord(const std::string& json_path)
{
    constexpr std::size_t kTokens = 1u << 19;
    constexpr int kReps = 5;
    const LaunchPathResult snapshot = MeasureLaunchPath(kTokens, kReps);

    std::printf("# finder launch path (mining-heavy: batchsize 4096, "
                "scale 32, %zu tokens)\n",
                kTokens);
    std::printf("%-22s %14.0f tokens/sec\n", "zero-copy snapshots",
                snapshot.tokens_per_sec);
    std::printf("%-22s %14llu jobs, %llu tokens analyzed\n", "workload",
                static_cast<unsigned long long>(snapshot.jobs_launched),
                static_cast<unsigned long long>(snapshot.tokens_analyzed));

    const IssuePathRecord issue = RunIssuePathRecord();
    const LogAppendRecord oplog = RunLogAppendRecord();
    const DigestRecord stream_digest = RunDigestRecord();
    const SteadyMiningRecord steady = RunSteadyMiningRecord();
    const TrieMatchRecord trie_match = RunTrieMatchRecord();

    const RepeatRankingRecord ranking = RunRepeatRankingRecord();

    // This bench rewrites its own head members; every other section
    // of the record (the figure binaries' merges, and its own
    // sections, refreshed in place below) is carried over in order.
    const std::string existing =
        apo::bench::ReadFileOrEmpty(json_path);
    std::string preserved_member;
    for (const auto& [key, value] :
         apo::bench::TopLevelObjectMembers(existing)) {
        if (key != "config" && key != "issue_path" &&
            key != "oplog_append" && key != "stream_digest" &&
            key != "steady_state_mining") {
            preserved_member += ",\n  \"" + key + "\": " + value;
        }
    }

    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"micro_repeats/finder_launch_path\",\n"
        "  \"config\": {\"batchsize\": 4096, \"multi_scale_factor\": 32,"
        " \"min_trace_length\": 8, \"tokens\": %zu},\n"
        "  %s,\n"
        "  \"snapshot_tokens_per_sec\": %.0f,\n"
        "  \"jobs_launched\": %llu,\n"
        "  \"tokens_analyzed\": %llu,\n"
        "  \"issue_path\": {\n"
        "    \"builder_launches_per_sec\": %.0f,\n"
        "    \"vector_copy_launches_per_sec\": %.0f,\n"
        "    \"improvement\": %.3f,\n"
        "    \"builder_allocs_per_launch\": %.3f,\n"
        "    \"vector_copy_allocs_per_launch\": %.3f\n"
        "  },\n"
        "  \"oplog_append\": {\n"
        "    \"arena_appends_per_sec\": %.0f,\n"
        "    \"aos_appends_per_sec\": %.0f,\n"
        "    \"improvement\": %.3f,\n"
        "    \"arena_allocs_per_launch\": %.3f,\n"
        "    \"aos_allocs_per_launch\": %.3f\n"
        "  },\n"
        "  \"stream_digest\": {\n"
        "    \"consumes_per_sec\": %.0f,\n"
        "    \"allocs_per_consume\": %.3f\n"
        "  },\n"
        "  \"steady_state_mining\": {\n"
        "    %s,\n"
        "    \"incremental_tokens_per_sec\": %.0f,\n"
        "    \"from_scratch_tokens_per_sec\": %.0f,\n"
        "    \"fast_path_hit_rate\": %.3f,\n"
        "    \"allocs_per_window\": %.3f,\n"
        "    \"windows\": %llu,\n"
        "    \"candidate_sets_identical\": %s\n"
        "  }%s\n"
        "}\n",
        kTokens, apo::bench::ConcurrencyJson().c_str(),
        snapshot.tokens_per_sec,
        static_cast<unsigned long long>(snapshot.jobs_launched),
        static_cast<unsigned long long>(snapshot.tokens_analyzed),
        issue.builder.launches_per_sec,
        issue.vector_copy.launches_per_sec, issue.improvement,
        issue.builder.allocs_per_launch,
        issue.vector_copy.allocs_per_launch,
        oplog.arena.launches_per_sec, oplog.aos.launches_per_sec,
        oplog.improvement, oplog.arena.allocs_per_launch,
        oplog.aos.allocs_per_launch,
        stream_digest.digest.launches_per_sec,
        stream_digest.digest.allocs_per_launch,
        apo::bench::ConcurrencyJson().c_str(),
        steady.finder.tokens_per_sec, steady.scratch.tokens_per_sec,
        steady.finder.fast_path_hit_rate, steady.allocs_per_window,
        static_cast<unsigned long long>(steady.finder.windows),
        steady.identical ? "true" : "false", preserved_member.c_str());
    std::fclose(out);
    // Merged in place, so the section keeps its slot in the record.
    if (apo::bench::MergeIntoJson(json_path, "trie_match",
                                  TrieMatchJson(trie_match)) != 0 ||
        apo::bench::MergeIntoJson(json_path, "repeat_ranking",
                                  RepeatRankingJson(ranking)) != 0) {
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
    // The equality asserts: the record is only acceptable when the
    // finder's candidate sets match from-scratch mining bit for bit,
    // the identical-window path allocates nothing, and the ranking-only
    // path reproduces the from-scratch repeat sets.
    if (!steady.identical || steady.allocs_per_window != 0.0 ||
        !ranking.identical) {
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_micro_repeats.json";
    bool run_google_benches = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
            for (int j = i; j + 1 < argc; ++j) {
                argv[j] = argv[j + 1];
            }
            --argc;
            argv[argc] = nullptr;
            --i;
        } else if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
            run_google_benches = true;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (run_google_benches) {
        benchmark::RunSpecifiedBenchmarks();
    }
    return RunLaunchPathRecord(json_path);
}
