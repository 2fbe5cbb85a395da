/**
 * @file
 * The trace finder (paper sections 4.2 and 4.4).
 *
 * The finder accumulates the hash-token stream into a sliding history
 * window of `batchsize` tokens and launches asynchronous mining jobs
 * over slices of it. Slice sizes follow the ruler-function schedule:
 * at the k'th sampling point (every `multi_scale_factor` tasks) the
 * last multi_scale_factor * 2^ruler(k) tokens are analyzed, so short
 * traces are discovered quickly while the full buffer is still mined
 * periodically for long traces. Each job runs the configured repeat
 * mining algorithm (Algorithm 2 by default) and emits candidate
 * traces, chunked to the configured maximum trace length.
 *
 * Launching a job is zero-copy: the history lives in shared
 * append-only blocks (history.h) and a job holds a refcounted
 * HistorySnapshot of its slice, materializing it on the worker thread.
 * Jobs are recycled through a free pool, and completion is signalled
 * through the executor's per-job completion callback rather than by
 * the caller polling job state. Ingestion remains strictly in launch
 * order — the deterministic stream-position ingestion contract the
 * control-replicated cluster front-end (sim/cluster.h) depends on.
 */
#ifndef APOPHENIA_CORE_FINDER_H
#define APOPHENIA_CORE_FINDER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/history.h"
#include "fault/checkpoint.h"
#include "runtime/task.h"
#include "strings/incremental.h"
#include "support/executor.h"

namespace apo::core {

class MiningCache;

/** A candidate trace produced by a mining job. */
struct CandidateTrace {
    std::vector<rt::TokenHash> tokens;
    /** Non-overlapping occurrences observed in the analyzed slice. */
    double occurrences = 0.0;
};

/** Checkpoint helpers for candidate sets (used by the finder's
 * in-flight jobs and the mining cache). */
void SaveCandidates(fault::CheckpointWriter& writer,
                    const std::vector<CandidateTrace>& candidates);
std::vector<CandidateTrace> LoadCandidates(fault::CheckpointReader& reader);

/** Which tier of the finder's strings::IncrementalMiner served a job
 * (kNone = the shared mining cache served it; nothing was mined). */
enum class MiningPath : std::uint8_t {
    kNone = 0,
    kFastPath,  ///< verified-identical window: the kept candidate set
    kRepair,    ///< suffix structures reused/repaired across windows
    kFull,      ///< full rebuild (scratch-reusing), a baseline
                ///< algorithm, or a namespaced window
};

/** One asynchronous history-mining job. Owned and recycled by the
 * finder; workers receive a raw pointer valid until the job is
 * released (the finder drains its executor before destruction). */
struct AnalysisJob {
    /** Stable id (launch order). */
    std::uint64_t id = 0;
    /** Task counter at which the job was launched. */
    std::uint64_t issued_at = 0;
    /** Number of tokens analyzed. */
    std::size_t slice_length = 0;
    /** Zero-copy view of the analyzed slice. */
    HistorySnapshot snapshot;
    /** Worker-side materialization buffer, reused across jobs. */
    std::vector<rt::TokenHash> slice;
    /** The job's candidate set. Shared: a shared-cache hit reads the
     * first finisher's published set in place, and an identical
     * window reads the finder's kept set (no per-job copy). Shared
     * ownership keeps it alive past cache eviction. */
    std::shared_ptr<const std::vector<CandidateTrace>> results;
    /** Which incremental-mining tier produced Results(). */
    MiningPath mining_path = MiningPath::kNone;
    /** Set by the worker when the shared mining cache served this
     * job (folded into FinderStats at release, off the worker
     * thread); `cache_cross` additionally marks a hit published
     * under a different token namespace (another tenant's mining). */
    bool cache_hit = false;
    bool cache_cross = false;
    /** Completion flag, set (release) by the executor's completion
     * callback once `results` is published. */
    std::atomic<bool> done{false};

    const std::vector<CandidateTrace>& Results() const
    {
        static const std::vector<CandidateTrace> kNoResults;
        return results != nullptr ? *results : kNoResults;
    }
};

/** Introspection record for one launched-but-not-ingested job. */
struct PendingJobInfo {
    std::uint64_t id = 0;
    std::uint64_t issued_at = 0;
    std::size_t slice_length = 0;
    bool done = false;
};

/** Finder statistics. */
struct FinderStats {
    std::uint64_t tokens_observed = 0;
    std::uint64_t jobs_launched = 0;
    std::uint64_t tokens_analyzed = 0;
    std::uint64_t candidates_produced = 0;
    /** Jobs recycled from the free pool (vs freshly allocated). */
    std::uint64_t jobs_recycled = 0;
    /** Incremental-mining tier counters over ingested jobs (see
     * MiningPath; shared-cache hits count in none of them). A
     * fast-path hit did no suffix work and converted no repeats. */
    std::uint64_t mining_fast_path_hits = 0;
    std::uint64_t mining_repairs = 0;
    std::uint64_t mining_full = 0;
    /** Shared-mining-cache outcomes of *this* finder's jobs (all zero
     * without an attached cache): probes served by a published entry,
     * and the subset published under a different token namespace —
     * this tenant adopting another tenant's mining. */
    std::uint64_t mining_cache_hits = 0;
    std::uint64_t mining_cache_cross_hits = 0;
    /** Jobs the overload watchdog gave up on (AbandonJobsOlderThan):
     * removed from the ingestion queue without ever being ingested. */
    std::uint64_t jobs_abandoned = 0;
};

/** See file comment. */
class TraceFinder {
  public:
    /** `mining_cache` (optional, shared, thread-safe) memoizes mining
     * results under the slice's content address — the cluster
     * front-end passes one cache to all of its nodes' finders so an
     * identical window is mined once cluster-wide (mining_cache.h). */
    TraceFinder(const ApopheniaConfig& config, support::Executor& executor,
                MiningCache* mining_cache = nullptr);

    /** Waits for in-flight jobs: no worker may outlive the jobs. */
    ~TraceFinder();

    TraceFinder(const TraceFinder&) = delete;
    TraceFinder& operator=(const TraceFinder&) = delete;

    /** Record one token; launches mining jobs per the sampling
     * schedule. `now` is the global task counter. */
    void Observe(rt::TokenHash token, std::uint64_t now);

    /**
     * Note that a trace replay ended at stream position `pos` (tasks
     * before `pos` have been issued). Subsequent analyses include
     * windows *anchored* at this boundary, so candidates aligned with
     * the not-yet-covered remainder of the stream (the "gap" between
     * replays) are discovered. Without this, a sub-period trace can
     * lock the replayer out of ever seeing candidates at the phases
     * it leaves uncovered — the long cuPyNumeric warmups of the
     * paper's figure 9 are this effect.
     */
    void NoteReplayBoundary(std::uint64_t pos);

    // -- Job introspection and ingestion (launch order) ---------------------

    /** Launched-but-not-ingested jobs. */
    std::size_t PendingJobCount() const { return inflight_.size(); }

    /** True iff a job is pending and the oldest one has completed. */
    bool OldestJobDone() const
    {
        return !inflight_.empty() &&
               inflight_.front()->done.load(std::memory_order_acquire);
    }

    /** Visit pending jobs with id >= `first_id`, oldest first. */
    void VisitPendingJobs(
        std::uint64_t first_id,
        const std::function<void(const PendingJobInfo&)>& visit) const;

    /** Block until the oldest pending job (which must exist) has
     * completed, pumping the executor as needed, and return it. The
     * reference stays valid until ReleaseOldestJob(). */
    const AnalysisJob& WaitOldestJob();

    /** Recycle the oldest pending job after its results have been
     * consumed. Must follow WaitOldestJob(). */
    void ReleaseOldestJob();

    /**
     * Overload watchdog: drop every not-yet-completed in-flight job
     * issued before task counter `cutoff` from the ingestion queue.
     * Abandoned jobs' candidates are never ingested; their workers
     * (which may be stuck on a slow executor) keep the job storage
     * alive on an orphan list and are reaped back into the free pool
     * once done. Completed jobs are never abandoned — their results
     * are already paid for. Returns the number of jobs abandoned.
     * Ingestion order of the surviving jobs is preserved.
     */
    std::size_t AbandonJobsOlderThan(std::uint64_t cutoff);

    const FinderStats& Stats() const { return stats_; }

    /** Checkpoint hooks: sampling cursors, anchors, stats, the
     * history ring, and every in-flight job as a completed result
     * (id, issue position, candidates, tier) — every job must have
     * completed (drain the executor first); throws
     * fault::CheckpointError otherwise. LoadState restores onto a
     * fresh finder built with an identical config, and parses the
     * whole image before it changes anything, so a rejected image
     * leaves the finder fresh. The incremental miner restarts cold:
     * mining is a pure function of (window, config), so restored
     * decisions stay bit-identical; only the tier counters of later
     * jobs can differ from an uninterrupted run. */
    void SaveState(fault::CheckpointWriter& writer) const;
    void LoadState(fault::CheckpointReader& reader);

  private:
    void LaunchAnalysis(std::size_t slice_length, std::uint64_t now);
    AnalysisJob* AcquireJob();
    /** Worker side of a job: adopt a shared-cache result, or
     * materialize the slice and Mine it (publishing to the cache). */
    void RunJob(AnalysisJob& job);
    /** Mine the materialized `job.slice` into job.results and
     * job.mining_path. */
    void Mine(AnalysisJob& job);

    const ApopheniaConfig* config_;
    support::Executor* executor_;
    MiningCache* mining_cache_;  ///< nullptr = always mine locally
    /** Guards miner_ and last_mined_: workers of one finder may race
     * under a pooled executor. */
    std::mutex miner_mutex_;
    /** Mines un-namespaced windows, reusing the previous window's
     * suffix structures (strings/incremental.h). */
    strings::IncrementalMiner miner_;
    /** Candidate set of the miner's previous window, returned again
     * when the miner reports a verified-identical window. */
    std::shared_ptr<const std::vector<CandidateTrace>> last_mined_;
    HistoryRing history_;  ///< sliding window, <= batchsize tokens
    std::uint64_t sample_counter_ = 0;  ///< k of the ruler schedule
    /** Launch-order FIFO of jobs awaiting ingestion. */
    std::deque<std::unique_ptr<AnalysisJob>> inflight_;
    /** Recycled job storage (snapshot spans, slice and result
     * buffers keep their capacity). */
    std::vector<std::unique_ptr<AnalysisJob>> free_jobs_;
    /** Abandoned jobs whose workers may still be running; reaped into
     * free_jobs_ once done (see AbandonJobsOlderThan). */
    std::vector<std::unique_ptr<AnalysisJob>> orphaned_;
    FinderStats stats_;
    /** Latest replay boundary, and the anchored-window length that
     * triggers the next anchored analysis (doubles each launch to
     * preserve the O(n log n) total analysis budget). */
    std::uint64_t anchor_ = 0;
    std::uint64_t anchor_next_len_ = 0;
};

/**
 * Run the configured repeat-mining algorithm over `slice` and convert
 * the repeats into candidate traces: filter to >= 2 occurrences and
 * min_trace_length, and chunk anything longer than max_trace_length.
 * Exposed for testing and for the ablation benches.
 */
std::vector<CandidateTrace> MineSlice(
    const std::vector<rt::TokenHash>& slice, const ApopheniaConfig& config);

/**
 * The post-mining half of MineSlice: filter repeats to >= 2
 * occurrences, chunk to max_trace_length, and apply speculative
 * period completion. Factored out so the incremental engine's repeat
 * sets convert through exactly the code path MineSlice uses.
 */
std::vector<CandidateTrace> RepeatsToCandidates(
    const std::vector<strings::Repeat>& repeats,
    std::span<const rt::TokenHash> slice, const ApopheniaConfig& config);

}  // namespace apo::core

#endif  // APOPHENIA_CORE_FINDER_H
