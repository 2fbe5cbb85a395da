/**
 * @file
 * Incremental steady-state repeat mining: reuse suffix structures
 * across overlapping analysis windows.
 *
 * The analysis loop (core::TraceFinder) mines a window every
 * `multi_scale_factor` tokens, and consecutive windows overlap heavily
 * — in the ruler-function schedule a window that grows by one stride
 * keeps its entire previous content as a prefix, and steady-state
 * applications re-issue near-identical token streams for thousands of
 * windows. A from-scratch FindRepeats pays the full rank-compression
 * sort and SA-IS construction every time anyway. IncrementalMiner
 * keeps the previous window's compressed sequence, suffix array, LCP
 * array, and result set alive and classifies each new window into one
 * of three tiers:
 *
 *  1. **Fast path** (MiningTier::kFastPath): the window is token-for-
 *     token identical to the previous one (verified with a wide
 *     compare, never assumed from a fingerprint). The cached repeat
 *     set is returned with zero suffix-array work and zero
 *     allocations.
 *  2. **Repair** (MiningTier::kRepair): the window shares a prefix
 *     with the previous one and introduces no new symbols. The
 *     persistent order-preserving RankTable makes per-symbol ranks
 *     stable across calls, so the compressed prefix is *spliced* —
 *     only the changed tail is recompressed — and SA-IS + Kasai rerun
 *     entirely inside preallocated scratch.
 *  3. **Full** (MiningTier::kFull): novel content (new symbols, or no
 *     usable prefix). Everything is recomputed into the same scratch
 *     buffers.
 *
 * Allocation: only the fast path is allocation-free. On the repair
 * and full tiers, compression, SA-IS, LCP and the candidate ranking
 * reuse scratch whose capacity persists across windows, but the
 * greedy selection in FindRepeatsFromSa still allocates per window —
 * a node per selected occurrence in its support::IntervalSet, and
 * fresh token and start vectors for every Repeat of the result.
 *
 * Bit-identity guarantee: every tier produces exactly the repeat set
 * FindRepeats would. Tier 1 only returns a result that was computed
 * for a verified-equal window; tiers 2/3 run the same candidate
 * selection over a suffix array that is provably equal to the
 * from-scratch one (suffix order depends only on the relative order
 * of symbols, which the RankTable preserves — see suffix_array.h).
 */
#ifndef APOPHENIA_STRINGS_INCREMENTAL_H
#define APOPHENIA_STRINGS_INCREMENTAL_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "strings/repeats.h"
#include "strings/suffix_array.h"

namespace apo::strings {

/** Which tier served a Mine call (cheapest first). */
enum class MiningTier : std::uint8_t {
    kFastPath,  ///< verified-identical window; cached result returned
    kRepair,    ///< rank prefix spliced; SA-IS rerun in scratch
    kFull,      ///< full recompression + construction (scratch-reusing)
};

/** Monotone counters over a miner's lifetime. */
struct IncrementalMinerStats {
    std::uint64_t windows = 0;
    std::uint64_t fast_path_hits = 0;
    std::uint64_t repairs = 0;
    std::uint64_t full_rebuilds = 0;
    /** Alphabet-hygiene resets of the persistent rank table. */
    std::uint64_t table_resets = 0;
};

/**
 * Persistent repeat miner for a stream of overlapping windows.
 * Equivalent to calling FindRepeats(window, options) per window, but
 * amortizes suffix-structure work across calls. Not thread-safe; the
 * core layer serializes access per finder.
 */
class IncrementalMiner {
  public:
    explicit IncrementalMiner(const RepeatOptions& options = {});

    /**
     * Mine `window`, reusing previous-window structures where sound.
     * The returned reference is owned by the miner and valid until the
     * next Mine/Reset call. Output is bit-identical to
     * FindRepeats(window, options).
     */
    const std::vector<Repeat>& Mine(std::span<const Symbol> window);

    /** Tier that served the most recent Mine call. */
    MiningTier LastTier() const { return last_tier_; }

    const IncrementalMinerStats& Stats() const { return stats_; }

    const RepeatOptions& Options() const { return options_; }

    /** Drop all persistent state (buffers keep their capacity). */
    void Reset();

  private:
    RepeatOptions options_;
    RankTable table_;
    Sequence prev_;                        ///< previous window's tokens
    std::vector<std::uint32_t> compressed_;  ///< prev_ ranks + 0 sentinel
    bool compressed_valid_ = false;
    bool have_prev_ = false;
    std::vector<std::size_t> sa_;
    std::vector<std::size_t> lcp_;
    RepeatsScratch scratch_;
    std::vector<Repeat> result_;
    MiningTier last_tier_ = MiningTier::kFull;
    IncrementalMinerStats stats_;
};

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_INCREMENTAL_H
