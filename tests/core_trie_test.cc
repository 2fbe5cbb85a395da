/**
 * @file
 * Tests for the candidate trie, trace scoring, and the trace finder's
 * sampling schedule and mining jobs.
 */
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/finder.h"
#include "core/trie.h"
#include "fault/checkpoint.h"
#include "support/executor.h"

namespace apo::core {
namespace {

std::vector<rt::TokenHash> Tokens(std::initializer_list<int> list)
{
    std::vector<rt::TokenHash> out;
    for (int v : list) {
        out.push_back(static_cast<rt::TokenHash>(v));
    }
    return out;
}

TEST(Trie, InsertAndStep)
{
    CandidateTrie trie;
    trie.Insert(Tokens({1, 2, 3}), 2.0, 0, 1e9);
    EXPECT_EQ(trie.NumCandidates(), 1u);
    const auto* n1 = trie.Step(nullptr, 1);
    ASSERT_NE(n1, nullptr);
    EXPECT_EQ(CandidateTrie::CandidateAt(n1), nullptr);
    const auto* n2 = trie.Step(n1, 2);
    const auto* n3 = trie.Step(n2, 3);
    ASSERT_NE(n3, nullptr);
    const CandidateStats* stats = CandidateTrie::CandidateAt(n3);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->length, 3u);
    EXPECT_DOUBLE_EQ(stats->count, 2.0);
    EXPECT_EQ(trie.Step(n3, 4), nullptr);
    EXPECT_EQ(trie.Step(nullptr, 9), nullptr);
}

TEST(Trie, SharedPrefixesShareNodes)
{
    CandidateTrie trie;
    trie.Insert(Tokens({1, 2, 3}), 1.0, 0, 1e9);
    trie.Insert(Tokens({1, 2, 4}), 1.0, 0, 1e9);
    trie.Insert(Tokens({1, 2}), 1.0, 0, 1e9);
    EXPECT_EQ(trie.NumCandidates(), 3u);
    // Root + nodes 1, 2, 3, 4 = 5 total.
    EXPECT_EQ(trie.NumNodes(), 5u);
    // {1,2} is a candidate at an interior node.
    const auto* n = trie.Step(trie.Step(nullptr, 1), 2);
    ASSERT_NE(CandidateTrie::CandidateAt(n), nullptr);
    EXPECT_EQ(CandidateTrie::CandidateAt(n)->length, 2u);
}

TEST(Trie, ReinsertionAccumulatesCount)
{
    CandidateTrie trie;
    auto& first = trie.Insert(Tokens({5, 6}), 2.0, 100, 1e9);
    auto& second = trie.Insert(Tokens({5, 6}), 3.0, 200, 1e9);
    EXPECT_EQ(&first, &second);
    // Huge half-life: decay over 100 tasks is negligible.
    EXPECT_NEAR(second.count, 5.0, 1e-6);
    EXPECT_EQ(second.last_seen, 200u);
    EXPECT_EQ(trie.NumCandidates(), 1u);
}

TEST(Trie, ReinsertionDecaysOldCount)
{
    CandidateTrie trie;
    trie.Insert(Tokens({5, 6}), 8.0, 0, /*half_life=*/100);
    // 100 tasks later the old count has halved.
    auto& stats = trie.Insert(Tokens({5, 6}), 1.0, 100, 100);
    EXPECT_DOUBLE_EQ(stats.count, 5.0);
}

// ---------------------------------------------------------------------------
// The two-level edge store: inline first edges plus the extra-edge table.

/** Walk `tokens` from the root; nullptr as soon as an edge is missing. */
const CandidateTrie::Node* Walk(const CandidateTrie& trie,
                                const std::vector<rt::TokenHash>& tokens)
{
    const CandidateTrie::Node* node = nullptr;
    for (const rt::TokenHash t : tokens) {
        node = trie.Step(node, t);
        if (node == nullptr) {
            return nullptr;
        }
    }
    return node;
}

TEST(TrieEdges, WideFanOutAtRootAndDeepNode)
{
    // 1,200 children under the root and under a depth-40 node: each
    // fan-out forces the extra-edge table through several doublings.
    constexpr int kFanOut = 1200;
    std::vector<rt::TokenHash> spine;
    for (int d = 0; d < 40; ++d) {
        spine.push_back(0x5000 + d);
    }
    CandidateTrie trie;
    for (int i = 0; i < kFanOut; ++i) {
        trie.Insert({static_cast<rt::TokenHash>(i)}, 1.0, 0, 1e9);
        std::vector<rt::TokenHash> deep = spine;
        deep.push_back(static_cast<rt::TokenHash>(i));
        trie.Insert(deep, 1.0, 0, 1e9);
    }
    // Root + kFanOut root leaves + 40 spine nodes + kFanOut deep
    // leaves; the spine's first token is one more root child.
    EXPECT_EQ(trie.NumNodes(), 1u + kFanOut + 40 + kFanOut);
    EXPECT_EQ(trie.NumCandidates(), 2u * kFanOut);
    EXPECT_EQ(trie.Root()->num_children, kFanOut + 1u);
    const CandidateTrie::Node* tip = Walk(trie, spine);
    ASSERT_NE(tip, nullptr);
    EXPECT_EQ(tip->num_children, static_cast<std::uint32_t>(kFanOut));
    EXPECT_EQ(tip->depth, 40u);
    for (int i = 0; i < kFanOut; ++i) {
        const auto t = static_cast<rt::TokenHash>(i);
        const auto* shallow = trie.Step(nullptr, t);
        const auto* deep = trie.Step(tip, t);
        ASSERT_NE(shallow, nullptr) << i;
        ASSERT_NE(deep, nullptr) << i;
        EXPECT_NE(shallow, deep);
        EXPECT_EQ(shallow->depth, 1u);
        EXPECT_EQ(deep->depth, 41u);
        EXPECT_EQ(CandidateTrie::CandidateAt(deep)->length, 41u);
        EXPECT_FALSE(deep->HasChildren());
    }
    EXPECT_EQ(trie.Step(nullptr, kFanOut), nullptr);
    EXPECT_EQ(trie.Step(tip, kFanOut), nullptr);
    EXPECT_EQ(trie.Step(tip, 0x5000), nullptr);
}

TEST(TrieEdges, SameTokenUnderDifferentParents)
{
    CandidateTrie trie;
    // Token 7 hangs off the root, off node 1 (first edge), and off
    // node 2 (an extra edge behind token 8).
    trie.Insert(Tokens({7, 1}), 1.0, 0, 1e9);
    trie.Insert(Tokens({1, 7}), 1.0, 0, 1e9);
    trie.Insert(Tokens({2, 8}), 1.0, 0, 1e9);
    trie.Insert(Tokens({2, 7}), 1.0, 0, 1e9);
    const auto* a = trie.Step(nullptr, 7);
    const auto* b = trie.Step(trie.Step(nullptr, 1), 7);
    const auto* c = trie.Step(trie.Step(nullptr, 2), 7);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
    EXPECT_EQ(CandidateTrie::CandidateAt(a), nullptr);
    EXPECT_EQ(CandidateTrie::CandidateAt(b)->length, 2u);
    EXPECT_EQ(CandidateTrie::CandidateAt(c)->length, 2u);
    EXPECT_EQ(trie.Step(trie.Step(nullptr, 2), 9), nullptr);
}

TEST(TrieEdges, SentinelLookalikeTokens)
{
    // Token 0 and ~0 are ordinary tokens, both as inline first edges
    // and as extra-table edges, at the root and below it.
    constexpr rt::TokenHash kMax = std::numeric_limits<rt::TokenHash>::max();
    CandidateTrie trie;
    EXPECT_EQ(trie.Step(nullptr, 0), nullptr);
    EXPECT_EQ(trie.Step(nullptr, kMax), nullptr);
    trie.Insert({0, 0, 0}, 1.0, 0, 1e9);
    trie.Insert({kMax, kMax}, 1.0, 0, 1e9);
    trie.Insert({0, kMax}, 1.0, 0, 1e9);
    trie.Insert({kMax, 0}, 1.0, 0, 1e9);
    EXPECT_EQ(trie.Root()->num_children, 2u);
    const auto* zero = trie.Step(nullptr, 0);
    const auto* max = trie.Step(nullptr, kMax);
    ASSERT_NE(zero, nullptr);
    ASSERT_NE(max, nullptr);
    EXPECT_NE(zero, max);
    EXPECT_EQ(zero->num_children, 2u);
    EXPECT_EQ(max->num_children, 2u);
    EXPECT_EQ(CandidateTrie::CandidateAt(Walk(trie, {0, 0, 0}))->length,
              3u);
    EXPECT_NE(CandidateTrie::CandidateAt(Walk(trie, {kMax, kMax})),
              nullptr);
    EXPECT_NE(CandidateTrie::CandidateAt(Walk(trie, {0, kMax})), nullptr);
    EXPECT_NE(CandidateTrie::CandidateAt(Walk(trie, {kMax, 0})), nullptr);
    EXPECT_EQ(CandidateTrie::CandidateAt(Walk(trie, {0, 0})), nullptr);
    EXPECT_EQ(Walk(trie, {0, 0, kMax}), nullptr);
    EXPECT_EQ(Walk(trie, {0, 0, 0, 0}), nullptr);
    EXPECT_EQ(Walk(trie, {kMax, kMax, 0}), nullptr);
    EXPECT_EQ(trie.Step(nullptr, 1), nullptr);
}

TEST(TrieEdges, MatchesMapReferenceOnRandomInsertsAndWalks)
{
    // Reference: one std::map edge per (parent, token) with ids handed
    // out in creation order, which is exactly the trie's pool order.
    std::mt19937_64 rng(20251019);
    const std::vector<rt::TokenHash> alphabet{
        0, 1, 2, 3, 4, 5, std::numeric_limits<rt::TokenHash>::max(),
        0x9e3779b97f4a7c15ULL, rng(), rng(), rng()};
    auto token = [&] {
        return alphabet[rng() % alphabet.size()];
    };
    CandidateTrie trie;
    std::map<std::pair<std::uint32_t, rt::TokenHash>, std::uint32_t> edges;
    std::map<std::uint32_t, std::uint32_t> fan_out;
    std::uint32_t next_id = 1;
    for (int round = 0; round < 400; ++round) {
        std::vector<rt::TokenHash> tokens(1 + rng() % 12);
        for (rt::TokenHash& t : tokens) {
            t = token();
        }
        trie.Insert(tokens, 1.0, 0, 1e9);
        std::uint32_t at = 0;
        for (const rt::TokenHash t : tokens) {
            const auto [it, added] = edges.try_emplace({at, t}, next_id);
            if (added) {
                ++next_id;
                ++fan_out[at];
            }
            at = it->second;
        }
        ASSERT_EQ(trie.NumNodes(), next_id);

        // A few random walks: every Step agrees with the reference.
        for (int walk = 0; walk < 8; ++walk) {
            const CandidateTrie::Node* node = nullptr;
            std::uint32_t ref = 0;
            for (int step = 0; step < 14; ++step) {
                const rt::TokenHash t = token();
                const auto it = edges.find({ref, t});
                node = trie.Step(node, t);
                if (it == edges.end()) {
                    ASSERT_EQ(node, nullptr);
                    break;
                }
                ASSERT_NE(node, nullptr);
                ASSERT_EQ(node->id, it->second);
                ref = it->second;
                ASSERT_EQ(node->num_children, fan_out[ref]);
            }
        }
    }
    EXPECT_EQ(trie.Root()->num_children, alphabet.size());
}

/** A branching trie with candidates at interior nodes and leaves,
 * and with nonzero trace ids and replay counts. */
CandidateTrie BranchingTrie()
{
    CandidateTrie trie;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 300; ++i) {
        std::vector<rt::TokenHash> tokens(2 + rng() % 9);
        for (rt::TokenHash& t : tokens) {
            t = rng() % 6 == 0 ? rng() : rng() % 5;
        }
        CandidateStats& stats = trie.Insert(
            tokens, 1.0 + static_cast<double>(rng() % 7), rng() % 1000,
            250.0);
        if (rng() % 3 == 0) {
            stats.trace_id = rng() % 50;
            stats.replays = rng() % 4;
        }
    }
    return trie;
}

/** Random walks over tokens 0..4 take the same steps in `a` and `b`
 * and meet equal node shapes and candidate stats. */
void ExpectSameWalks(const CandidateTrie& a, const CandidateTrie& b,
                     std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (int walk = 0; walk < 500; ++walk) {
        const CandidateTrie::Node* x = nullptr;
        const CandidateTrie::Node* y = nullptr;
        for (int step = 0; step < 12; ++step) {
            const rt::TokenHash t = rng() % 5;
            x = a.Step(x, t);
            y = b.Step(y, t);
            ASSERT_EQ(x == nullptr, y == nullptr);
            if (x == nullptr) {
                break;
            }
            ASSERT_EQ(x->num_children, y->num_children);
            ASSERT_EQ(x->depth, y->depth);
            const CandidateStats* cx = CandidateTrie::CandidateAt(x);
            const CandidateStats* cy = CandidateTrie::CandidateAt(y);
            ASSERT_EQ(cx == nullptr, cy == nullptr);
            if (cx != nullptr) {
                EXPECT_EQ(cx->id, cy->id);
                EXPECT_EQ(cx->length, cy->length);
                EXPECT_EQ(cx->count, cy->count);
                EXPECT_EQ(cx->last_seen, cy->last_seen);
                EXPECT_EQ(cx->trace_id, cy->trace_id);
                EXPECT_EQ(cx->replays, cy->replays);
            }
        }
    }
}

TEST(TrieCheckpoint, BranchingRoundTripIsExact)
{
    const CandidateTrie original = BranchingTrie();
    ASSERT_GT(original.Root()->num_children, 1u);
    fault::CheckpointWriter writer;
    original.SaveState(writer);
    const std::vector<std::uint8_t> image = writer.TakeImage();

    CandidateTrie restored;
    fault::CheckpointReader reader(image);
    restored.LoadState(reader);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored.NumNodes(), original.NumNodes());
    EXPECT_EQ(restored.NumCandidates(), original.NumCandidates());
    ExpectSameWalks(original, restored, 11);

    fault::CheckpointWriter again;
    restored.SaveState(again);
    EXPECT_EQ(again.Image(), image);

    // A freshly inserted candidate gets the same id on both sides.
    CandidateTrie original_copy = BranchingTrie();
    EXPECT_EQ(original_copy.Insert(Tokens({4, 4, 4, 4, 4, 4, 4, 4, 4, 4}),
                                   1.0, 0, 1e9)
                  .id,
              restored.Insert(Tokens({4, 4, 4, 4, 4, 4, 4, 4, 4, 4}), 1.0,
                              0, 1e9)
                  .id);
}

TEST(TrieCheckpoint, ImageLayoutIsPoolOrderPaths)
{
    // The image is the id counter, the candidate count, then each
    // candidate in pool order: its token path and its statistics.
    CandidateTrie trie;
    trie.Insert(Tokens({1, 2, 3}), 2.0, 10, 1e9);
    trie.Insert(Tokens({1, 4}), 1.0, 20, 1e9).trace_id = 9;
    trie.Insert(Tokens({1, 2}), 3.0, 30, 1e9).replays = 2;
    trie.Insert(Tokens({5}), 4.0, 40, 1e9);
    fault::CheckpointWriter actual;
    trie.SaveState(actual);

    struct Row {
        std::vector<rt::TokenHash> path;
        CandidateStats stats;
    };
    // Pool order: 1, 1-2, 1-2-3, 1-4, 5.
    const std::vector<Row> rows{
        {Tokens({1, 2}), *CandidateTrie::CandidateAt(Walk(trie, Tokens({1, 2})))},
        {Tokens({1, 2, 3}),
         *CandidateTrie::CandidateAt(Walk(trie, Tokens({1, 2, 3})))},
        {Tokens({1, 4}), *CandidateTrie::CandidateAt(Walk(trie, Tokens({1, 4})))},
        {Tokens({5}), *CandidateTrie::CandidateAt(Walk(trie, Tokens({5})))},
    };
    fault::CheckpointWriter expected;
    expected.BeginSection(fault::SectionTag::kCandidateTrie);
    expected.U64(5);  // next candidate id
    expected.U64(4);
    for (const Row& row : rows) {
        expected.VecU64(row.path);
        expected.U64(row.stats.id);
        expected.U64(row.stats.length);
        expected.F64(row.stats.count);
        expected.U64(row.stats.last_seen);
        expected.U64(row.stats.trace_id);
        expected.U64(row.stats.replays);
    }
    expected.EndSection();
    EXPECT_EQ(actual.Image(), expected.Image());
}

TEST(Scorer, PrefersLongTraces)
{
    ApopheniaConfig config;
    TraceScorer scorer(config);
    CandidateStats short_trace{.id = 1, .length = 10, .count = 4,
                               .last_seen = 0};
    CandidateStats long_trace{.id = 2, .length = 100, .count = 4,
                              .last_seen = 0};
    EXPECT_GT(scorer.Score(long_trace, 0), scorer.Score(short_trace, 0));
}

TEST(Scorer, CountIsCapped)
{
    ApopheniaConfig config;
    config.score_count_cap = 16.0;
    TraceScorer scorer(config);
    CandidateStats a{.id = 1, .length = 10, .count = 16, .last_seen = 0};
    CandidateStats b{.id = 2, .length = 10, .count = 1000, .last_seen = 0};
    EXPECT_DOUBLE_EQ(scorer.Score(a, 0), scorer.Score(b, 0));
}

TEST(Scorer, CountDecaysWithInactivity)
{
    ApopheniaConfig config;
    config.score_decay_half_life = 1000.0;
    TraceScorer scorer(config);
    CandidateStats c{.id = 1, .length = 10, .count = 8, .last_seen = 0};
    const double fresh = scorer.Score(c, 0);
    const double stale = scorer.Score(c, 2000);  // two half-lives
    EXPECT_DOUBLE_EQ(stale, fresh / 4.0);
}

TEST(Scorer, ReplayedTraceGetsBonus)
{
    ApopheniaConfig config;
    TraceScorer scorer(config);
    CandidateStats a{.id = 1, .length = 10, .count = 4, .last_seen = 0};
    CandidateStats b = a;
    b.replays = 1;
    EXPECT_GT(scorer.Score(b, 0), scorer.Score(a, 0));
    EXPECT_NEAR(scorer.Score(b, 0),
                scorer.Score(a, 0) * config.score_replayed_bonus, 1e-9);
}

TEST(Finder, LaunchesJobsOnRulerSchedule)
{
    ApopheniaConfig config;
    config.min_trace_length = 2;
    config.multi_scale_factor = 10;
    config.batchsize = 80;
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    // 80 tokens of a 4-periodic stream.
    for (std::uint64_t i = 1; i <= 80; ++i) {
        finder.Observe(i % 4, i);
    }
    // Sampling points at 10,20,...,80 with slice lengths
    // 10,20,10,40,10,20,10,80.
    EXPECT_EQ(finder.Stats().jobs_launched, 8u);
    const std::vector<std::size_t> expected{10, 20, 10, 40, 10, 20, 10, 80};
    ASSERT_EQ(finder.PendingJobCount(), 8u);
    std::vector<PendingJobInfo> jobs;
    finder.VisitPendingJobs(
        0, [&](const PendingJobInfo& info) { jobs.push_back(info); });
    ASSERT_EQ(jobs.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(jobs[i].id, i);
        EXPECT_EQ(jobs[i].slice_length, expected[i]) << i;
        EXPECT_TRUE(jobs[i].done);
    }
    EXPECT_EQ(finder.Stats().tokens_analyzed, 10u + 20 + 10 + 40 + 10 + 20 +
                                                  10 + 80);
}

TEST(Finder, SliceIsCappedByBatchsize)
{
    ApopheniaConfig config;
    config.min_trace_length = 2;
    config.multi_scale_factor = 10;
    config.batchsize = 40;  // window smaller than the stream
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    for (std::uint64_t i = 1; i <= 400; ++i) {
        finder.Observe(i % 4, i);
    }
    finder.VisitPendingJobs(0, [](const PendingJobInfo& job) {
        EXPECT_LE(job.slice_length, 40u);
    });
}

TEST(Finder, BatchedModeAnalyzesOnlyFullBuffers)
{
    ApopheniaConfig config;
    config.min_trace_length = 2;
    config.identifier_algorithm = IdentifierAlgorithm::kBatched;
    config.batchsize = 50;
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    for (std::uint64_t i = 1; i <= 149; ++i) {
        finder.Observe(i % 4, i);
    }
    EXPECT_EQ(finder.Stats().jobs_launched, 2u);  // at 50 and 100
    finder.VisitPendingJobs(0, [](const PendingJobInfo& job) {
        EXPECT_EQ(job.slice_length, 50u);
    });
}

TEST(Finder, TinySlicesAreSkipped)
{
    ApopheniaConfig config;
    config.min_trace_length = 20;  // a 10-token slice can't repeat it
    config.multi_scale_factor = 10;
    config.batchsize = 80;
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    for (std::uint64_t i = 1; i <= 30; ++i) {
        finder.Observe(i % 4, i);
    }
    // Slices of 10 and 20 are below 2*min_trace_length = 40: skipped.
    EXPECT_EQ(finder.Stats().jobs_launched, 0u);
}

TEST(MineSlice, FindsLoopAndFiltersSingletons)
{
    ApopheniaConfig config;
    config.min_trace_length = 3;
    std::vector<rt::TokenHash> slice;
    for (int i = 0; i < 60; ++i) {
        slice.push_back(i % 6);
    }
    const auto candidates = MineSlice(slice, config);
    ASSERT_FALSE(candidates.empty());
    for (const auto& c : candidates) {
        EXPECT_GE(c.tokens.size(), config.min_trace_length);
        EXPECT_GE(c.occurrences, 2.0);
    }
}

TEST(MineSlice, ChunksLongCandidatesToMaxLength)
{
    ApopheniaConfig config;
    config.min_trace_length = 3;
    config.max_trace_length = 10;
    std::vector<rt::TokenHash> slice;
    for (int rep = 0; rep < 2; ++rep) {
        for (int i = 0; i < 25; ++i) {
            slice.push_back(100 + i);  // 25-token body, twice
        }
    }
    const auto candidates = MineSlice(slice, config);
    ASSERT_FALSE(candidates.empty());
    std::size_t total = 0;
    for (const auto& c : candidates) {
        EXPECT_LE(c.tokens.size(), 10u);
        total += c.tokens.size();
    }
    // 25 = 10 + 10 + 5: all three chunks are viable (5 >= min 3).
    EXPECT_EQ(total, 25u);
}

TEST(MineSlice, DropsChunkTailBelowMinLength)
{
    ApopheniaConfig config;
    config.min_trace_length = 4;
    config.max_trace_length = 8;
    std::vector<rt::TokenHash> slice;
    for (int rep = 0; rep < 2; ++rep) {
        for (int i = 0; i < 11; ++i) {  // 11 = 8 + 3; tail 3 < min 4
            slice.push_back(100 + i);
        }
    }
    const auto candidates = MineSlice(slice, config);
    std::size_t total = 0;
    for (const auto& c : candidates) {
        total += c.tokens.size();
    }
    EXPECT_EQ(total, 8u);
}

}  // namespace
}  // namespace apo::core
