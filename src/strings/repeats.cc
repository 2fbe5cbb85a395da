#include "strings/repeats.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "support/intervals.h"

namespace apo::strings {

namespace {

/**
 * Stable counting sort of the items 0..m-1 by key(i) in [0, range):
 * calls place(i, slot) with each item's slot in the sorted order.
 * `counts` is caller-owned bucket storage (range + 1 entries).
 */
template <class Key, class Place>
void
CountingSort(std::size_t m, std::size_t range, std::vector<RankIndex>& counts,
             Key key, Place place)
{
    counts.assign(range + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
        ++counts[key(i) + 1];
    }
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    for (std::size_t i = 0; i < m; ++i) {
        place(i, counts[key(i)]++);
    }
}

/** Union-find root of `x` with path halving. */
RankIndex
FindRoot(std::vector<RankIndex>& parent, RankIndex x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/** Union by size of the sets holding `a` and `b`. */
void
Unite(std::vector<RankIndex>& parent, std::vector<RankIndex>& size,
      RankIndex a, RankIndex b)
{
    a = FindRoot(parent, a);
    b = FindRoot(parent, b);
    if (a == b) {
        return;
    }
    if (size[a] < size[b]) {
        std::swap(a, b);
    }
    parent[b] = a;
    size[a] += size[b];
}

}  // namespace

void
FindRepeatsFromSa(std::span<const Symbol> s, const std::vector<std::size_t>& sa,
                  const std::vector<std::size_t>& lcp,
                  const RepeatOptions& options, RepeatsScratch& scratch,
                  std::vector<Repeat>& out)
{
    out.clear();
    const std::size_t n = s.size();
    const std::size_t min_len = std::max<std::size_t>(options.min_length, 1);
    assert(RepeatsViable(n, options));
    if (n > kMaxRankedTokens) {
        throw std::length_error("FindRepeatsFromSa: input exceeds 2^31 tokens");
    }

    scratch.rank.resize(n);
    std::vector<std::size_t>& rank = scratch.rank;
    for (std::size_t i = 0; i < n; ++i) {
        rank[sa[i]] = i;
    }

    // Candidate generation: one pass over adjacent suffix-array pairs
    // (paper Algorithm 2, lines 4-14).
    std::vector<RepeatCandidate>& candidates = scratch.candidates;
    candidates.clear();
    candidates.reserve(2 * n);
    std::size_t max_len = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::size_t p = lcp[i];
        if (p < min_len) {
            continue;
        }
        std::size_t s1 = sa[i], s2 = sa[i + 1];
        if (s1 > s2) {
            std::swap(s1, s2);  // the overlap case assumes s1 < s2
        }
        if (s1 + p <= s2) {
            // The two occurrences of the shared prefix do not overlap.
            candidates.push_back({p, s1});
            candidates.push_back({p, s2});
            max_len = std::max(max_len, p);
        } else {
            // Overlapping occurrences: the shared prefix is periodic
            // with period d = s2 - s1. Emit two adjacent, disjoint
            // copies of the longest usable multiple of the period.
            const std::size_t d = s2 - s1;
            std::size_t l = (p + d) / 2;
            l -= l % d;
            if (l >= min_len) {
                candidates.push_back({l, s1});
                candidates.push_back({l, s1 + l});
                max_len = std::max(max_len, l);
            }
        }
    }
    const std::size_t m = candidates.size();
    if (m == 0) {
        return;
    }

    // Rank candidates by decreasing length, then by substring content
    // (lexicographic, which is suffix-rank order), then by increasing
    // start. Two stable counting passes give (length, rank) order.
    std::vector<RepeatCandidate>& ranked = scratch.ranked;
    std::vector<RankIndex>& counts = scratch.counts;
    ranked.resize(m);
    CountingSort(
        m, n, counts, [&](std::size_t i) { return rank[candidates[i].start]; },
        [&](std::size_t i, std::size_t slot) { ranked[slot] = candidates[i]; });
    CountingSort(
        m, max_len + 1, counts,
        [&](std::size_t i) { return max_len - ranked[i].length; },
        [&](std::size_t i, std::size_t slot) { candidates[slot] = ranked[i]; });

    // Content classes. Suffixes sharing their first L tokens form a
    // maximal SA-rank interval with lcp >= L, so walking the length
    // buckets in decreasing order while uniting ranks i and i + 1 for
    // every lcp[i] >= L keeps one union-find set per length-L class.
    // Equal-content candidates are thus one contiguous (length, class)
    // run; run_head[k] is the position of its first candidate.
    std::vector<RankIndex>& order = scratch.order;
    std::vector<RankIndex>& parent = scratch.parent;
    std::vector<RankIndex>& set_size = scratch.set_size;
    std::vector<RankIndex>& run_head = scratch.run_head;
    const std::size_t num_lcp = n - 1;
    order.resize(num_lcp);
    CountingSort(
        num_lcp, max_len + 1, counts,
        [&](std::size_t i) { return max_len - std::min(lcp[i], max_len); },
        [&](std::size_t i, std::size_t slot) {
            order[slot] = static_cast<RankIndex>(i);
        });
    parent.resize(n);
    std::iota(parent.begin(), parent.end(), RankIndex{0});
    set_size.assign(n, 1);
    run_head.resize(m);
    std::size_t united = 0;
    RankIndex prev_class = 0;
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t len = candidates[k].length;
        const bool new_length = k == 0 || len != candidates[k - 1].length;
        if (new_length) {
            for (; united < num_lcp && lcp[order[united]] >= len; ++united) {
                Unite(parent, set_size, order[united], order[united] + 1);
            }
        }
        const RankIndex cls = FindRoot(
            parent, static_cast<RankIndex>(rank[candidates[k].start]));
        run_head[k] = !new_length && cls == prev_class
                          ? run_head[k - 1]
                          : static_cast<RankIndex>(k);
        prev_class = cls;
    }

    // Order each run by start: visit the candidates by increasing start
    // and append each to its run, whose slots [head, head + size) do
    // not move. `counts` becomes the per-run fill cursor.
    order.resize(m);
    CountingSort(
        m, n, counts, [&](std::size_t k) { return candidates[k].start; },
        [&](std::size_t k, std::size_t slot) {
            order[slot] = static_cast<RankIndex>(k);
        });
    counts.resize(m);
    std::iota(counts.begin(), counts.end(), RankIndex{0});
    for (std::size_t j = 0; j < m; ++j) {
        const std::size_t k = order[j];
        ranked[counts[run_head[k]]++] = candidates[k];
    }

    // Greedy selection of non-overlapping occurrences (lines 16-20),
    // one group per (length, class) run so that each distinct
    // substring is emitted once (the deduplication step). Within a run
    // starts increase and a repeated start overlaps itself, so the
    // selected starts come out sorted and unique.
    support::IntervalSet chosen;
    std::vector<std::size_t>& group_starts = scratch.group_starts;
    group_starts.clear();
    const RepeatCandidate* group_head = nullptr;
    auto flush_group = [&] {
        if (group_head == nullptr ||
            group_starts.size() < options.min_occurrences) {
            group_starts.clear();
            return;
        }
        assert(std::is_sorted(group_starts.begin(), group_starts.end()));
        Repeat r;
        r.tokens.assign(s.begin() + group_head->start,
                        s.begin() + group_head->start + group_head->length);
        r.starts.assign(group_starts.begin(), group_starts.end());
        out.push_back(std::move(r));
        group_starts.clear();
    };
    for (std::size_t k = 0; k < m; ++k) {
        const RepeatCandidate& c = ranked[k];
        if (run_head[k] == k) {
            flush_group();
            group_head = &c;
        }
        if (chosen.InsertIfDisjoint(c.start, c.start + c.length)) {
            group_starts.push_back(c.start);
        }
    }
    flush_group();
}

void
FindRepeatsInto(std::span<const Symbol> s, const RepeatOptions& options,
                RepeatsScratch& scratch, std::vector<Repeat>& out)
{
    out.clear();
    if (!RepeatsViable(s.size(), options)) {
        return;
    }
    BuildSuffixArrayInto(s, scratch.sa, scratch.suffix,
                         options.suffix_algorithm);
    ComputeLcpInto(s, scratch.sa, scratch.lcp, scratch.inverse);
    FindRepeatsFromSa(s, scratch.sa, scratch.lcp, options, scratch, out);
}

std::vector<Repeat>
FindRepeats(const Sequence& s, const RepeatOptions& options)
{
    thread_local RepeatsScratch scratch;
    std::vector<Repeat> result;
    FindRepeatsInto(s, options, scratch, result);
    return result;
}

std::size_t
TotalCoverage(const std::vector<Repeat>& repeats)
{
    std::size_t total = 0;
    for (const Repeat& r : repeats) {
        total += r.Coverage();
    }
    return total;
}

}  // namespace apo::strings
