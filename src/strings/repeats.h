/**
 * @file
 * Non-overlapping repeated substring mining (paper Algorithm 2,
 * "quick_matching_of_substrings" in the artifact).
 *
 * Given the tokenized task history, find a set of repeated substrings
 * together with non-overlapping occurrence positions that achieve high
 * coverage of the buffer (paper section 3's optimization problem). The
 * algorithm makes one pass over the suffix array to generate at most
 * two candidate occurrences per adjacent suffix pair, ranks candidates
 * by decreasing length (then by substring and start position), and
 * greedily selects occurrences that do not overlap previously selected
 * ones.
 *
 * Ranking needs no comparison sort. Stable counting passes order the
 * candidates by suffix rank, then by decreasing length. Equal-content
 * candidates of length L occupy one maximal SA-rank interval with
 * lcp >= L, so a union-find over SA ranks, uniting i and i + 1 for each
 * lcp[i] >= L as the length buckets are visited in decreasing order,
 * names each candidate's content class; a last counting pass by start
 * orders each (length, class) run. Ranking costs O(n α(n)); the
 * interval set of the greedy selection costs O(log n) per candidate.
 *
 * FindRepeats is the convenience entry point; FindRepeatsInto /
 * FindRepeatsFromSa are the scratch-reusing layers (see
 * suffix_array.h's note on the two API layers). FindRepeatsFromSa
 * additionally lets a caller that already owns a suffix array + LCP —
 * the incremental miner repairing structures across windows — run just
 * the candidate-selection stage.
 */
#ifndef APOPHENIA_STRINGS_REPEATS_H
#define APOPHENIA_STRINGS_REPEATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "strings/suffix_array.h"

namespace apo::strings {

/** A repeated substring and its selected non-overlapping occurrences. */
struct Repeat {
    /** The repeated token subsequence itself. */
    Sequence tokens;
    /** Start positions of the selected pairwise-disjoint occurrences,
     * in increasing order. */
    std::vector<std::size_t> starts;

    std::size_t Length() const { return tokens.size(); }
    /** Positions of the input covered by this repeat's occurrences. */
    std::size_t Coverage() const { return tokens.size() * starts.size(); }
};

/** Options for FindRepeats. */
struct RepeatOptions {
    /** Minimum repeat length to emit (paper constraint 1: traces must
     * be longer than a minimum length so the constant replay cost can
     * be amortized). */
    std::size_t min_length = 2;
    /** Drop repeats whose selected occurrence count is below this
     * (1 keeps everything; tracing candidates typically want >= 2). */
    std::size_t min_occurrences = 1;
    /** Suffix-array construction to use. */
    SuffixAlgorithm suffix_algorithm = SuffixAlgorithm::kSais;
};

/** FindRepeats' viability guard: inputs shorter than two minimum-length
 * occurrences cannot contain a selectable repeat and yield the empty
 * set without building any suffix structures. Shared with the
 * incremental miner so both paths agree on the degenerate case. */
inline bool
RepeatsViable(std::size_t n, const RepeatOptions& options)
{
    return n >= 2 * std::max<std::size_t>(options.min_length, 1);
}

/** A candidate occurrence: `length` tokens starting at `start`. */
struct RepeatCandidate {
    std::size_t length = 0;
    std::size_t start = 0;
};

/** Index type of the ranking buffers: candidate positions (< 2n) and
 * SA ranks fit in 32 bits, halving the buffers' footprint. */
using RankIndex = std::uint32_t;

/** Longest input FindRepeatsFromSa accepts (its 2n candidate positions
 * must fit in RankIndex); longer inputs throw std::length_error. */
inline constexpr std::size_t kMaxRankedTokens = std::size_t{1} << 31;

/**
 * Reusable buffers for FindRepeatsInto / FindRepeatsFromSa. Contents
 * are internal staging only — nothing outlives the call that filled
 * it. Every buffer is O(n), so a steady stream of same-sized windows
 * allocates nothing here. One scratch per thread.
 */
struct RepeatsScratch {
    /** Suffix construction (FindRepeatsInto only). */
    SuffixWorkspace suffix;
    std::vector<std::size_t> sa;
    std::vector<std::size_t> lcp;
    std::vector<std::size_t> inverse;
    /** rank[p]: SA position of the suffix starting at p. */
    std::vector<std::size_t> rank;
    /** Generated candidates; later in (length, rank) order. */
    std::vector<RepeatCandidate> candidates;
    /** Counting-pass target; ends in the final ranked order. */
    std::vector<RepeatCandidate> ranked;
    /** Counting-pass buckets; at the end, the per-run fill cursors. */
    std::vector<RankIndex> counts;
    /** LCP indices by decreasing value while classes are assigned, then
     * candidate positions by increasing start. */
    std::vector<RankIndex> order;
    /** Union-find over SA ranks: parent links and set sizes. */
    std::vector<RankIndex> parent;
    std::vector<RankIndex> set_size;
    /** Per ranked candidate: position of the first candidate of its
     * (length, content class) run, i.e. of its dedup group. */
    std::vector<RankIndex> run_head;
    /** Selected starts of the group being assembled. */
    std::vector<std::size_t> group_starts;
};

/**
 * Find repeated substrings of `s` with high non-overlapping coverage.
 *
 * The returned repeats are deduplicated (each distinct substring
 * appears once) and their selected occurrence sets are disjoint across
 * *all* returned repeats, satisfying constraint 2 of the paper's
 * optimization problem. Ordered by decreasing length, then by content.
 */
std::vector<Repeat> FindRepeats(const Sequence& s,
                                const RepeatOptions& options = {});

/** Scratch-reusing FindRepeats: bit-identical output into `out`. */
void FindRepeatsInto(std::span<const Symbol> s, const RepeatOptions& options,
                     RepeatsScratch& scratch, std::vector<Repeat>& out);

/**
 * Candidate generation + greedy selection over a caller-provided
 * suffix array and LCP array for `s` (which must satisfy
 * RepeatsViable(|s|, options)). This is everything FindRepeats does
 * after suffix construction, so callers that repair sa/lcp
 * incrementally still produce bit-identical repeat sets.
 * @throws std::length_error if |s| > kMaxRankedTokens.
 */
void FindRepeatsFromSa(std::span<const Symbol> s,
                       const std::vector<std::size_t>& sa,
                       const std::vector<std::size_t>& lcp,
                       const RepeatOptions& options, RepeatsScratch& scratch,
                       std::vector<Repeat>& out);

/** Sum of Coverage() over a repeat set (the paper's coverage(T, f)). */
std::size_t TotalCoverage(const std::vector<Repeat>& repeats);

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_REPEATS_H
