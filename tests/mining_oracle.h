/**
 * @file
 * The per-job mining oracle shared by core_incremental_test and
 * fuzz_differential_test.
 *
 * A mining job's candidate set must be a pure function of (window,
 * config): whichever path served it — the incremental miner's
 * identical-window, repair or full tier, a shared-cache adoption, or
 * a namespaced tenant's canonical mining — it must equal
 * core::MineSlice over that job's window. The oracle drives a
 * TraceFinder (under InlineExecutor unless told otherwise) and checks
 * each job against the window cut from the test's own copy of the
 * stream, so nothing the finder keeps is trusted.
 */
#ifndef APOPHENIA_TESTS_MINING_ORACLE_H
#define APOPHENIA_TESTS_MINING_ORACLE_H

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/finder.h"
#include "core/mining_cache.h"
#include "runtime/task.h"
#include "support/executor.h"

namespace apo::test {

/** How the finders under test are set up. */
enum class OracleSetup {
    kPlain,       ///< one finder, no namespace, no cache
    kNamespaced,  ///< one finder observing the stream under a namespace
    kSharedCache, ///< two finders over one stream sharing a MiningCache
};

/** Jobs checked, by the MiningPath that served them. */
struct OracleTally {
    std::uint64_t jobs = 0;
    std::uint64_t fast_path = 0;
    std::uint64_t repair = 0;
    std::uint64_t full = 0;
    std::uint64_t cache_hits = 0;  ///< kNone: adopted from the cache

    OracleTally& operator+=(const OracleTally& other)
    {
        jobs += other.jobs;
        fast_path += other.fast_path;
        repair += other.repair;
        full += other.full;
        cache_hits += other.cache_hits;
        return *this;
    }
};

inline ::testing::AssertionResult SameCandidates(
    const std::vector<core::CandidateTrace>& got,
    const std::vector<core::CandidateTrace>& want)
{
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
               << got.size() << " candidates, want " << want.size();
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (got[i].tokens != want[i].tokens ||
            got[i].occurrences != want[i].occurrences) {
            return ::testing::AssertionFailure()
                   << "candidate " << i << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Namespace the kNamespaced setup folds into the stream. */
inline constexpr rt::TokenHash kOracleNamespace = 0x5eed'f00d'0bad'cafeULL;

/**
 * Drive `setup`'s finder(s) over `stream` and check every job against
 * MineSlice over its window. A replay boundary is noted every
 * `anchor_every` tokens (0 = never), so anchored windows — which end
 * where a ruler window ends, and can equal it — are checked too.
 * Jobs run on `executor` (InlineExecutor when null); up to
 * `in_flight` of them per finder are left running while the stream
 * advances, so a concurrent executor races them on the finder's miner.
 */
inline OracleTally ExpectEveryJobMatchesMineSlice(
    const std::vector<rt::TokenHash>& stream,
    const core::ApopheniaConfig& base, OracleSetup setup,
    std::size_t anchor_every = 0, support::Executor* executor = nullptr,
    std::size_t in_flight = 0)
{
    core::ApopheniaConfig config = base;
    const rt::TokenHash ns =
        setup == OracleSetup::kNamespaced ? kOracleNamespace : 0;
    config.cache_namespace = ns;
    support::InlineExecutor inline_executor;
    if (executor == nullptr) {
        executor = &inline_executor;
    }
    core::MiningCache cache;
    core::MiningCache* shared =
        setup == OracleSetup::kSharedCache ? &cache : nullptr;
    std::vector<std::unique_ptr<core::TraceFinder>> finders;
    finders.push_back(
        std::make_unique<core::TraceFinder>(config, *executor, shared));
    if (shared != nullptr) {
        finders.push_back(
            std::make_unique<core::TraceFinder>(config, *executor, shared));
    }

    OracleTally tally;
    for (std::size_t i = 0; i <= stream.size(); ++i) {
        const bool end = i == stream.size();
        for (auto& finder : finders) {
            if (!end) {
                // The task counter is the stream position, so a job's
                // window ends at its issued_at.
                finder->Observe(rt::FoldNamespace(ns, stream[i]), i + 1);
                if (anchor_every != 0 && (i + 1) % anchor_every == 0) {
                    finder->NoteReplayBoundary(i + 1);
                }
            }
            while (finder->PendingJobCount() > (end ? 0 : in_flight)) {
                const core::AnalysisJob& job = finder->WaitOldestJob();
                const std::vector<rt::TokenHash> window(
                    stream.begin() + static_cast<std::ptrdiff_t>(
                                         job.issued_at - job.slice_length),
                    stream.begin() +
                        static_cast<std::ptrdiff_t>(job.issued_at));
                std::vector<core::CandidateTrace> want =
                    core::MineSlice(window, config);
                if (ns != 0) {
                    want = core::MiningCache::Rekey(want, ns);
                }
                EXPECT_TRUE(SameCandidates(job.Results(), want))
                    << "job " << job.id << " (path "
                    << static_cast<int>(job.mining_path) << ", length "
                    << job.slice_length << ", at " << job.issued_at << ")";
                ++tally.jobs;
                switch (job.mining_path) {
                  case core::MiningPath::kFastPath:
                    ++tally.fast_path;
                    break;
                  case core::MiningPath::kRepair:
                    ++tally.repair;
                    break;
                  case core::MiningPath::kFull:
                    ++tally.full;
                    break;
                  case core::MiningPath::kNone:
                    EXPECT_TRUE(job.cache_hit) << "job " << job.id;
                    ++tally.cache_hits;
                    break;
                }
                finder->ReleaseOldestJob();
            }
        }
    }
    return tally;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_MINING_ORACLE_H
