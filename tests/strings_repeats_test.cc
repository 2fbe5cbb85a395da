/**
 * @file
 * Tests for the non-overlapping repeated substring miner (paper
 * Algorithm 2). Includes the paper's worked example (figure 4),
 * structural invariants, randomized property sweeps against the
 * exact DP coverage oracle, and a differential oracle pinning the
 * linear-time candidate ranking to the comparison-sort reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <tuple>

#include "strings/identifiers.h"
#include "strings/incremental.h"
#include "strings/repeats.h"
#include "support/intervals.h"
#include "support/rng.h"
#include "test_util.h"

namespace apo::strings {
namespace {

using apo::test::PeriodicSeq;
using apo::test::RandomSeq;
using apo::test::Seq;
using apo::test::Str;

/** Check the structural invariants every FindRepeats result must obey:
 * every reported occurrence really matches, lengths respect the
 * minimum, all selected intervals are pairwise disjoint, and contents
 * are deduplicated. */
void CheckInvariants(const Sequence& s, const std::vector<Repeat>& repeats,
                     std::size_t min_length)
{
    support::IntervalSet all;
    std::set<Sequence> contents;
    for (const Repeat& r : repeats) {
        EXPECT_GE(r.Length(), min_length);
        EXPECT_FALSE(r.starts.empty());
        EXPECT_TRUE(contents.insert(r.tokens).second)
            << "duplicate repeat content";
        EXPECT_TRUE(std::is_sorted(r.starts.begin(), r.starts.end()));
        for (std::size_t start : r.starts) {
            ASSERT_LE(start + r.Length(), s.size());
            EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(),
                                   s.begin() + start))
                << "occurrence does not match content";
            EXPECT_TRUE(all.InsertIfDisjoint(start, start + r.Length()))
                << "overlapping selected occurrences";
        }
    }
}

TEST(FindRepeats, PaperFigure4Example)
{
    // Figure 4: FindRepeats("aabcbcbaa") with min length 2 yields
    // {aa, bc} with two occurrences each.
    const Sequence s = Seq("aabcbcbaa");
    const auto repeats = FindRepeats(s, {.min_length = 2});
    CheckInvariants(s, repeats, 2);
    ASSERT_EQ(repeats.size(), 2u);
    std::set<std::string> found;
    for (const auto& r : repeats) {
        found.insert(Str(r.tokens));
        EXPECT_EQ(r.starts.size(), 2u);
    }
    EXPECT_TRUE(found.count("aa"));
    EXPECT_TRUE(found.count("bc"));
}

TEST(FindRepeats, EmptyAndTinyInputs)
{
    EXPECT_TRUE(FindRepeats({}, {.min_length = 2}).empty());
    EXPECT_TRUE(FindRepeats(Seq("a"), {.min_length = 2}).empty());
    EXPECT_TRUE(FindRepeats(Seq("ab"), {.min_length = 2}).empty());
    EXPECT_TRUE(FindRepeats(Seq("abc"), {.min_length = 2}).empty());
}

TEST(FindRepeats, NoRepeatsInAllDistinctStream)
{
    Sequence s(100);
    for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = i;
    }
    EXPECT_TRUE(FindRepeats(s, {.min_length = 2}).empty());
}

TEST(FindRepeats, PureTandemLoopIsFullyCovered)
{
    // A perfectly iterative program: loop body of 5 tasks, 20 times.
    const Sequence s = PeriodicSeq(100, 5);
    const auto repeats = FindRepeats(s, {.min_length = 2});
    CheckInvariants(s, repeats, 2);
    EXPECT_EQ(TotalCoverage(repeats), 100u);
    // All coverage should come from a small trace set (the loop body
    // or a small multiple of it), not from many fragments.
    EXPECT_LE(repeats.size(), 3u);
}

TEST(FindRepeats, FindsLoopDespiteConvergenceChecks)
{
    // The paper's motivation for relaxing tandem repeats: a repetitive
    // main loop interrupted by irregular one-off operations.
    const Sequence s = PeriodicSeq(400, 10, 35);
    const auto repeats = FindRepeats(s, {.min_length = 5});
    CheckInvariants(s, repeats, 5);
    // The loop body must still be discovered with high coverage.
    EXPECT_GE(TotalCoverage(repeats), s.size() * 3 / 4);
}

TEST(FindRepeats, MinLengthFiltersShortRepeats)
{
    const Sequence s = Seq("abab" "xy" "abab");
    const auto repeats = FindRepeats(s, {.min_length = 4});
    CheckInvariants(s, repeats, 4);
    for (const auto& r : repeats) {
        EXPECT_GE(r.Length(), 4u);
    }
    // "abab" repeats disjointly (positions 0 and 6).
    ASSERT_FALSE(repeats.empty());
    EXPECT_EQ(Str(repeats.front().tokens), "abab");
}

TEST(FindRepeats, MinOccurrencesFilter)
{
    const Sequence s = Seq("aabbaabb");
    const auto all = FindRepeats(s, {.min_length = 2, .min_occurrences = 2});
    CheckInvariants(s, all, 2);
    for (const auto& r : all) {
        EXPECT_GE(r.starts.size(), 2u);
    }
}

TEST(FindRepeats, OverlappingPeriodicRepeatIsSplit)
{
    // "ababab": "abab" overlaps itself; algorithm should emit "ab"-
    // periodic pieces that tile the string (paper's overlap case).
    const Sequence s = Seq("ababab");
    const auto repeats = FindRepeats(s, {.min_length = 2});
    CheckInvariants(s, repeats, 2);
    ASSERT_FALSE(repeats.empty());
    EXPECT_EQ(TotalCoverage(repeats), 6u);
}

struct RepeatCase {
    std::size_t n;
    std::uint64_t sigma;
    std::size_t min_length;
    std::uint64_t seed;
};

class FindRepeatsProperty : public ::testing::TestWithParam<RepeatCase> {};

TEST_P(FindRepeatsProperty, InvariantsHoldOnRandomInput)
{
    const auto [n, sigma, min_length, seed] = GetParam();
    support::Rng rng(seed);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto repeats = FindRepeats(s, {.min_length = min_length});
    CheckInvariants(s, repeats, min_length);
}

TEST_P(FindRepeatsProperty, CoverageIsBoundedByExactOptimum)
{
    const auto [n, sigma, min_length, seed] = GetParam();
    if (n > 160) {
        GTEST_SKIP() << "DP oracle is cubic; small inputs only";
    }
    support::Rng rng(seed ^ 0xabcdef);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto repeats = FindRepeats(s, {.min_length = min_length});
    CheckInvariants(s, repeats, min_length);
    EXPECT_LE(TotalCoverage(repeats), OptimalCoverage(s, min_length));
}

TEST_P(FindRepeatsProperty, CoverageIsCompetitiveWithOptimum)
{
    const auto [n, sigma, min_length, seed] = GetParam();
    if (n > 160) {
        GTEST_SKIP() << "DP oracle is cubic; small inputs only";
    }
    support::Rng rng(seed ^ 0x123456);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto repeats = FindRepeats(s, {.min_length = min_length});
    const std::size_t optimal = OptimalCoverage(s, min_length);
    // The algorithm trades optimality for O(n log n); the paper claims
    // "good" solutions. Empirically it stays well above half of the
    // exact optimum on random inputs; enforce that as a regression
    // floor.
    EXPECT_GE(2 * TotalCoverage(repeats) + 1, optimal);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FindRepeatsProperty,
    ::testing::Values(RepeatCase{32, 2, 2, 1}, RepeatCase{64, 2, 2, 2},
                      RepeatCase{64, 2, 4, 3}, RepeatCase{100, 3, 2, 4},
                      RepeatCase{100, 3, 5, 5}, RepeatCase{150, 4, 3, 6},
                      RepeatCase{150, 2, 6, 7}, RepeatCase{500, 2, 4, 8},
                      RepeatCase{1000, 3, 5, 9},
                      RepeatCase{2000, 8, 10, 10}));

TEST(FindRepeats, SaisAndDoublingBackendsAgree)
{
    support::Rng rng(31337);
    for (int round = 0; round < 10; ++round) {
        const Sequence s = RandomSeq(rng, 300, 3);
        const auto a = FindRepeats(
            s, {.min_length = 3,
                .suffix_algorithm = SuffixAlgorithm::kSais});
        const auto b = FindRepeats(
            s, {.min_length = 3,
                .suffix_algorithm = SuffixAlgorithm::kPrefixDoubling});
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].tokens, b[i].tokens);
            EXPECT_EQ(a[i].starts, b[i].starts);
        }
    }
}

TEST(FindRepeats, LongTraceInLargeBufferIsFound)
{
    // The paper notes real traces exceed 2000 tasks, requiring buffers
    // of at least twice that size. Simulate: one 2048-token body
    // repeated twice plus noise tail.
    support::Rng rng(5);
    Sequence body = RandomSeq(rng, 2048, 1 << 30);
    Sequence s;
    s.insert(s.end(), body.begin(), body.end());
    s.insert(s.end(), body.begin(), body.end());
    for (int i = 0; i < 100; ++i) {
        s.push_back(rng.UniformInt(1u << 31, (1ull << 32)));
    }
    const auto repeats = FindRepeats(s, {.min_length = 100});
    CheckInvariants(s, repeats, 100);
    ASSERT_FALSE(repeats.empty());
    EXPECT_GE(repeats.front().Length(), 2048u);
}

/**
 * Reference candidate ranking: a comparison sort whose comparator
 * answers content questions with a sparse-table range-minimum query
 * over the LCP array, and greedy grouping by the same query. This is
 * the definition the linear-time ranking in FindRepeatsFromSa must
 * reproduce candidate for candidate. `overlap_candidates`, if given,
 * counts candidates emitted by the periodic (overlapping) case.
 */
std::vector<Repeat>
ReferenceRepeatsFromSa(const Sequence& s, const std::vector<std::size_t>& sa,
                       const std::vector<std::size_t>& lcp,
                       const RepeatOptions& options,
                       std::size_t* overlap_candidates = nullptr)
{
    const std::size_t n = s.size();
    const std::size_t min_len = std::max<std::size_t>(options.min_length, 1);
    std::vector<std::size_t> rank(n);
    for (std::size_t i = 0; i < n; ++i) {
        rank[sa[i]] = i;
    }
    std::vector<std::vector<std::size_t>> table;
    if (!lcp.empty()) {
        table.push_back(lcp);
        for (std::size_t span = 2; span <= lcp.size(); span *= 2) {
            const std::vector<std::size_t>& prev = table.back();
            std::vector<std::size_t> level(lcp.size() - span + 1);
            for (std::size_t i = 0; i < level.size(); ++i) {
                level[i] = std::min(prev[i], prev[i + span / 2]);
            }
            table.push_back(std::move(level));
        }
    }
    auto common_prefix = [&](std::size_t a, std::size_t b) -> std::size_t {
        if (a == b) {
            return n - a;
        }
        const auto [lo, hi] = std::minmax(rank[a], rank[b]);
        const unsigned j = std::bit_width(hi - lo) - 1;
        return std::min(table[j][lo], table[j][hi - (std::size_t{1} << j)]);
    };

    std::vector<RepeatCandidate> candidates;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::size_t p = lcp[i];
        if (p < min_len) {
            continue;
        }
        std::size_t s1 = sa[i], s2 = sa[i + 1];
        if (s1 > s2) {
            std::swap(s1, s2);
        }
        if (s1 + p <= s2) {
            candidates.push_back({p, s1});
            candidates.push_back({p, s2});
        } else {
            const std::size_t d = s2 - s1;
            std::size_t l = (p + d) / 2;
            l -= l % d;
            if (l >= min_len) {
                candidates.push_back({l, s1});
                candidates.push_back({l, s1 + l});
                if (overlap_candidates != nullptr) {
                    *overlap_candidates += 2;
                }
            }
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](const RepeatCandidate& a, const RepeatCandidate& b) {
                  if (a.length != b.length) {
                      return a.length > b.length;
                  }
                  if (a.start != b.start &&
                      common_prefix(a.start, b.start) < a.length) {
                      return rank[a.start] < rank[b.start];
                  }
                  return a.start < b.start;
              });

    std::vector<Repeat> out;
    support::IntervalSet chosen;
    std::vector<std::size_t> group_starts;
    const RepeatCandidate* group_head = nullptr;
    auto flush_group = [&] {
        if (group_head != nullptr &&
            group_starts.size() >= options.min_occurrences) {
            std::sort(group_starts.begin(), group_starts.end());
            group_starts.erase(
                std::unique(group_starts.begin(), group_starts.end()),
                group_starts.end());
            Repeat r;
            r.tokens.assign(s.begin() + group_head->start,
                            s.begin() + group_head->start + group_head->length);
            r.starts = group_starts;
            out.push_back(std::move(r));
        }
        group_starts.clear();
    };
    for (const RepeatCandidate& c : candidates) {
        if (group_head != nullptr &&
            !(c.length == group_head->length &&
              (c.start == group_head->start ||
               common_prefix(c.start, group_head->start) >= c.length))) {
            flush_group();
            group_head = nullptr;
        }
        if (group_head == nullptr) {
            group_head = &c;
        }
        if (chosen.InsertIfDisjoint(c.start, c.start + c.length)) {
            group_starts.push_back(c.start);
        }
    }
    flush_group();
    return out;
}

/** Reference repeats of `s` from a freshly built suffix array. */
std::vector<Repeat>
ReferenceRepeats(const Sequence& s, const RepeatOptions& options,
                 std::size_t* overlap_candidates = nullptr)
{
    const std::vector<std::size_t> sa = BuildSuffixArray(s);
    return ReferenceRepeatsFromSa(s, sa, ComputeLcp(s, sa), options,
                                  overlap_candidates);
}

/** Exact equality: same repeats, same order, same tokens and starts. */
void
ExpectSameRepeats(const std::vector<Repeat>& got,
                  const std::vector<Repeat>& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].tokens, want[i].tokens) << what << " repeat " << i;
        EXPECT_EQ(got[i].starts, want[i].starts) << what << " repeat " << i;
    }
}

/** Input families for the differential oracle. */
enum class Family { kRandom, kTandem, kNearPeriodic, kAllEqual, kPowers };

/** A seeded input of the given family, 2..~200 tokens long. */
Sequence
MakeInput(Family family, support::Rng& rng)
{
    const std::size_t n = rng.UniformInt(2, 200);
    switch (family) {
    case Family::kRandom:
        return RandomSeq(rng, n, rng.UniformInt(1, 4));
    case Family::kTandem:
        return PeriodicSeq(n, rng.UniformInt(1, 9));
    case Family::kNearPeriodic: {
        Sequence s = PeriodicSeq(n, rng.UniformInt(2, 12));
        for (Symbol& v : s) {
            if (rng.Bernoulli(0.04)) {
                // Half the perturbations reuse the loop's alphabet,
                // half are fresh one-off tasks.
                v = rng.Bernoulli(0.5) ? rng.UniformInt(0, 3)
                                       : rng.UniformInt(100, 110);
            }
        }
        return s;
    }
    case Family::kAllEqual:
        return Sequence(n, 7);
    case Family::kPowers: {
        // Short words raised to powers, separated by single tokens:
        // adjacent suffixes overlap, so the periodic case fires.
        Sequence s;
        while (s.size() < n) {
            const Sequence word = RandomSeq(rng, rng.UniformInt(1, 3), 2);
            for (std::size_t k = rng.UniformInt(2, 6); k > 0; --k) {
                s.insert(s.end(), word.begin(), word.end());
            }
            s.push_back(rng.UniformInt(2, 3));
        }
        return s;
    }
    }
    return {};
}

TEST(RankingOracle, LinearRankingMatchesComparisonSortReference)
{
    const Family families[] = {Family::kRandom, Family::kTandem,
                               Family::kNearPeriodic, Family::kAllEqual,
                               Family::kPowers};
    // One scratch across every input and size: buffers must not carry
    // state from one window to the next.
    RepeatsScratch scratch;
    std::vector<Repeat> from_sa;
    std::size_t compared = 0;
    for (const Family family : families) {
        support::Rng rng(0x5eed + static_cast<std::uint64_t>(family));
        std::size_t overlap_candidates = 0;
        for (int round = 0; round < 60; ++round) {
            const Sequence s = MakeInput(family, rng);
            const std::vector<std::size_t> sa = BuildSuffixArray(s);
            const std::vector<std::size_t> lcp = ComputeLcp(s, sa);
            for (std::size_t min_length = 1; min_length <= 4; ++min_length) {
                for (std::size_t min_occurrences = 1; min_occurrences <= 3;
                     ++min_occurrences) {
                    const RepeatOptions options{
                        .min_length = min_length,
                        .min_occurrences = min_occurrences};
                    if (!RepeatsViable(s.size(), options)) {
                        continue;
                    }
                    const std::string what =
                        "family " + std::to_string(static_cast<int>(family)) +
                        " round " + std::to_string(round) + " min_length " +
                        std::to_string(min_length) + " min_occurrences " +
                        std::to_string(min_occurrences);
                    const std::vector<Repeat> want = ReferenceRepeatsFromSa(
                        s, sa, lcp, options, &overlap_candidates);
                    ExpectSameRepeats(FindRepeats(s, options), want,
                                      what + " FindRepeats");
                    FindRepeatsFromSa(s, sa, lcp, options, scratch, from_sa);
                    ExpectSameRepeats(from_sa, want,
                                      what + " FindRepeatsFromSa");
                    ++compared;
                }
            }
        }
        if (family == Family::kTandem || family == Family::kAllEqual ||
            family == Family::kPowers) {
            EXPECT_GT(overlap_candidates, 0u)
                << "family " << static_cast<int>(family)
                << " never reached the overlapping-period case";
        }
    }
    EXPECT_GT(compared, 3000u);
}

TEST(RankingOracle, LargeWindowsMatchReference)
{
    // Window sizes the trace finder mines (hundreds to thousands of
    // tokens): long runs of equal content and deep LCP chains.
    support::Rng rng(77);
    const RepeatOptions options{.min_length = 3, .min_occurrences = 2};
    for (const Sequence& s :
         {PeriodicSeq(4000, 25, 97), PeriodicSeq(3000, 1), RandomSeq(rng, 2500, 2),
          PeriodicSeq(5000, 60, 7)}) {
        ExpectSameRepeats(FindRepeats(s, options),
                          ReferenceRepeats(s, options),
                          "n=" + std::to_string(s.size()));
    }
}

TEST(RankingOracle, IncrementalMinerRepairedWindowsMatchReference)
{
    // A near-periodic stream whose perturbations reuse the loop's
    // alphabet: each window extends the previous one with known
    // symbols, so the miner serves it from a repaired suffix array.
    support::Rng rng(2024);
    Sequence stream = PeriodicSeq(1200, 9);
    for (std::size_t i = 0; i < stream.size(); i += 1 + rng.UniformInt(0, 80)) {
        stream[i] = rng.UniformInt(0, 8);
    }
    const RepeatOptions options{.min_length = 3, .min_occurrences = 2};
    IncrementalMiner miner(options);
    std::size_t repaired = 0;
    for (std::size_t end = 100; end <= stream.size(); end += 100) {
        const std::span<const Symbol> window(stream.data(), end);
        const std::vector<Repeat>& got = miner.Mine(window);
        repaired += miner.LastTier() == MiningTier::kRepair ? 1 : 0;
        ExpectSameRepeats(got,
                          ReferenceRepeats(Sequence(window.begin(),
                                                    window.end()),
                                           options),
                          "window end " + std::to_string(end));
    }
    EXPECT_GT(repaired, 0u);
    EXPECT_EQ(miner.Stats().repairs, repaired);
}

}  // namespace
}  // namespace apo::strings
