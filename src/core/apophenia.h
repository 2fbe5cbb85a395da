/**
 * @file
 * The Apophenia front-end: automatic tracing for the task runtime.
 *
 * Apophenia sits between the application and the runtime (paper
 * figure 3 / algorithm 1) and implements the api::Frontend issue
 * surface. Applications call ExecuteTask() here instead of on the
 * runtime; Apophenia takes each launch's token (hashed once at the
 * API boundary and carried with the launch view), feeds the token
 * stream to the trace finder's asynchronous mining jobs, matches the
 * stream against the candidate trie, and forwards a — possibly
 * different — sequence of calls to the runtime: untraced tasks, plus
 * BeginTrace/tasks/EndTrace groups for fragments it decided to
 * memoize or replay.
 *
 * Design points carried over from the paper:
 *  - No speculation (section 5.2): a candidate's tasks are buffered
 *    until the whole candidate has arrived, then issued as a trace;
 *    tasks that can no longer be part of any candidate are forwarded
 *    immediately so the runtime pipeline stays busy. Forwarding is
 *    zero-copy: a launch is materialized off its caller-owned arena
 *    into the (pooled) pending buffer only when some still-growing
 *    match could actually hold it — the steady-state untraced forward
 *    path allocates nothing.
 *  - Exploration/exploitation (section 4.3): completed candidates are
 *    scored by length × capped, decayed appearance count, with a bias
 *    toward already-replayed traces.
 *  - Deterministic ingestion (section 5.1): analysis results are
 *    ingested at task-stream positions only, in launch order; the
 *    IngestMode (config.h) picks those positions, and the cluster
 *    front-end (sim/cluster.h) coordinates them across nodes.
 */
#ifndef APOPHENIA_CORE_APOPHENIA_H
#define APOPHENIA_CORE_APOPHENIA_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "api/frontend.h"
#include "core/config.h"
#include "core/finder.h"
#include "core/mining_cache.h"
#include "core/trie.h"
#include "fault/checkpoint.h"
#include "runtime/runtime.h"
#include "support/executor.h"

namespace apo::core {

/**
 * One broadcastable decision of the decision engine: the exact
 * runtime-bound call an Apophenia front-end made for its stream,
 * tagged with enough context to re-apply it to any runtime that
 * received the byte-identical input stream (see
 * core/decision_engine.h). The encoding mirrors the issue surface:
 *
 *  - kTask outside a Begin/End pair — the launch at input index
 *    `value` was forwarded untraced (analyze / passthrough);
 *  - kBegin(recording=true) … kTask* … kEnd — the enclosed launches
 *    were recorded as trace `value`;
 *  - kBegin(recording=false) … kTask* … kEnd — the enclosed launches
 *    replayed trace `value`.
 *
 * POD, 16 bytes, held in a recycled vector: recording and applying
 * decisions allocates nothing in steady state.
 */
struct Decision {
    enum class Kind : std::uint8_t {
        kTask,   ///< forward the input launch at absolute index `value`
        kBegin,  ///< BeginTrace(value)
        kEnd,    ///< EndTrace(value)
    };
    Kind kind = Kind::kTask;
    bool recording = false;  ///< kBegin only: record (vs replay)
    std::uint64_t value = 0;
};

/** Front-end statistics. */
struct ApopheniaStats {
    std::uint64_t tasks_observed = 0;
    std::uint64_t tasks_forwarded_traced = 0;
    std::uint64_t tasks_forwarded_untraced = 0;
    /** Tasks issued on the degraded (untraced, unmined) path — a
     * subset of tasks_forwarded_untraced. See SetDegraded(). */
    std::uint64_t tasks_degraded = 0;
    std::uint64_t traces_fired = 0;     ///< Begin/End pairs issued
    std::uint64_t trace_records = 0;    ///< fires that recorded
    std::uint64_t trace_replays = 0;    ///< fires that replayed
    std::uint64_t jobs_ingested = 0;
    std::uint64_t candidates_ingested = 0;
    std::uint64_t forced_flushes = 0;   ///< pending-bound overflows
    /** Launches copied off the caller's arena into the pending
     * buffer (zero while no candidate match is in progress). */
    std::uint64_t launches_buffered = 0;
    std::size_t pending_high_water = 0;
};

/** See file comment. */
class Apophenia final : public api::Frontend {
  public:
    /**
     * @param runtime the runtime to forward calls into.
     * @param config  front-end tuning; config.enabled == false makes
     *                this class a transparent pass-through.
     * @param executor runs mining jobs; defaults to an internal
     *                inline executor (deterministic, synchronous).
     * @param mining_cache optional shared memo of mining results,
     *                content-addressed by the mined slice (see
     *                mining_cache.h); the cluster front-end shares one
     *                across all nodes so identical windows are mined
     *                once. Behaviour-invariant: on or off, the issued
     *                stream is bit-identical.
     */
    Apophenia(rt::Runtime& runtime, ApopheniaConfig config,
              support::Executor* executor = nullptr,
              MiningCache* mining_cache = nullptr);

    // -- api::Frontend: regions (pass-through) ------------------------------

    std::string_view Name() const override { return "apophenia"; }
    rt::RegionId CreateRegion() override { return runtime_->CreateRegion(); }
    void DestroyRegion(rt::RegionId r) override
    {
        runtime_->DestroyRegion(r);
    }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        return runtime_->PartitionRegion(parent, count);
    }

    // -- Analysis-ingestion control (replication support) -------------------

    /** Override the configured ingestion mode (see IngestMode); the
     * cluster front-end switches its nodes to kManual. */
    void SetIngestMode(IngestMode mode) { ingest_mode_ = mode; }
    IngestMode GetIngestMode() const { return ingest_mode_; }

    /** Launched-but-not-ingested mining jobs. */
    std::size_t PendingJobCount() const
    {
        return finder_.PendingJobCount();
    }

    /** True iff a job is pending and the oldest one has completed. */
    bool OldestJobDone() const { return finder_.OldestJobDone(); }

    /** Visit pending jobs with id >= `first_id`, oldest first. */
    void VisitPendingJobs(
        std::uint64_t first_id,
        const std::function<void(const PendingJobInfo&)>& visit) const
    {
        finder_.VisitPendingJobs(first_id, visit);
    }

    /** Ingest the oldest pending job's candidates into the trie,
     * waiting for its completion if necessary. The job must exist. */
    void IngestOldestJob();

    // -- Overload control (serving support) ---------------------------------

    /**
     * Graceful degradation switch: while degraded, ExecuteTask issues
     * straight to the runtime — no mining, no matching, no replay.
     * Entering degrade first resolves every in-progress match exactly
     * as DoFlush would (fire profitable held matches, forward the
     * rest), so no launch is stranded in the pending buffer. Degraded
     * tokens are kept out of the finder's history ring, its miner
     * and the trie entirely: re-enabling later is bit-safe — the
     * finder state equals that of a stream that simply never
     * contained the degraded window. Counted in
     * ApopheniaStats::tasks_degraded. No-op when already in the
     * requested state. Checkpointing a degraded front-end is not
     * supported (degrade is a transient overload posture, not
     * decision state).
     */
    void SetDegraded(bool degraded);
    bool Degraded() const { return degraded_; }

    /**
     * Watchdog hook: abandon every in-flight analysis job older than
     * `max_age_tasks` observed tasks that has not completed. The
     * finder forgets the job (its candidates are never ingested);
     * its worker keeps running harmlessly in the background and is
     * reaped once done. Returns the number of jobs abandoned. Pair
     * with MiningCache::AbandonInProgress() so cache waiters blocked
     * on the stuck window are released too.
     */
    std::size_t AbandonStaleAnalyses(std::uint64_t max_age_tasks);

    // -- Decision broadcast (shared decision engine support) ----------------

    /** Attach a decision sink: every runtime-bound call this front-end
     * makes is additionally recorded as a Decision event, in issue
     * order, so a decision engine can fan the stream's decisions out
     * to replicated runtimes (core/decision_engine.h). The sink must
     * outlive the front-end or be detached with nullptr; the caller
     * owns clearing it between broadcast rounds. */
    void SetDecisionSink(std::vector<Decision>* sink)
    {
        decisions_ = sink;
    }

    // -- Introspection -------------------------------------------------------

    const ApopheniaStats& Stats() const { return stats_; }
    /** Live match pointers: in-progress candidate matches, each one
     * trie step per issued token. */
    std::size_t ActivePointers() const { return active_.size(); }
    const FinderStats& Finder() const { return finder_.Stats(); }
    const CandidateTrie& Trie() const { return trie_; }
    /** Rolling digest of every ingested candidate (tokens +
     * occurrences, ingestion order): equal digests ⇔ the two
     * front-ends ingested identical candidate sets at identical
     * stream positions. */
    std::uint64_t CandidateDigest() const { return candidate_digest_; }
    rt::Runtime& Target() { return *runtime_; }
    const ApopheniaConfig& Config() const { return config_; }
    std::size_t PendingTasks() const { return pending_.size(); }

    // -- Checkpoint/restore --------------------------------------------------

    /**
     * Serialize the front-end's complete decision state: replay
     * cursors (task counter, pending buffer with its buffered
     * launches, active match pointers, held matches, next trace id),
     * stats, the candidate digest, the finder (history ring and
     * completed in-flight jobs) and the candidate trie. The
     * target runtime is NOT included — checkpoint it separately with
     * rt::Runtime::SaveState. Every in-flight mining job must have
     * completed (guaranteed under the inline executor; otherwise
     * drain first). @throws fault::CheckpointError on undone jobs.
     */
    void SaveState(fault::CheckpointWriter& writer) const;

    /** Restore onto a freshly constructed front-end with an identical
     * config (and a runtime restored to the matching stream
     * position). Active pointers and held matches are rebuilt by
     * re-walking the restored trie over the buffered tokens, so the
     * restored replayer continues bit-identically. The image is
     * parsed and checked before any state changes, so a rejected one
     * leaves the front end fresh.
     * @throws fault::CheckpointError on a used front-end or a
     *   malformed image. */
    void LoadState(fault::CheckpointReader& reader);

  protected:
    // -- api::Frontend: the intercepted issue path --------------------------

    /** Issue a task through the front-end (paper algorithm 1,
     * ExecuteTask). */
    void DoExecuteTask(const rt::TaskLaunchView& launch) override;

    /** Apophenia inserts its own trace markers; the application's are
     * dropped — counted in the uniform FrontendStats by the NVI
     * base (annotations_ignored). */
    bool DoBeginTrace(rt::TraceId) override { return false; }
    bool DoEndTrace(rt::TraceId) override { return false; }

    /**
     * End-of-stream: fire any profitable completed candidate, then
     * forward all still-buffered tasks untraced. Called once when the
     * application finishes (or at a synchronization point).
     */
    void DoFlush() override;

  private:
    /** A buffered launch: materialized off the caller's arena, with
     * the boundary-computed token carried along so forwarding never
     * re-hashes. Pooled — see pending_pool_. */
    struct PendingTask {
        rt::TaskLaunch launch;
        rt::TokenHash token = 0;
    };

    /** An in-progress match: a trie position whose path equals the
     * pending-task suffix starting at absolute index `start`. */
    struct ActivePointer {
        const CandidateTrie::Node* node = nullptr;
        std::uint64_t start = 0;
    };

    /** A fully matched candidate awaiting the replay decision. */
    struct CompletedMatch {
        CandidateStats* stats = nullptr;
        std::uint64_t start = 0;
        std::uint64_t end = 0;  ///< exclusive absolute index
    };

    void EmitTask(std::uint64_t index)
    {
        if (decisions_ != nullptr) {
            decisions_->push_back(
                Decision{Decision::Kind::kTask, false, index});
        }
    }
    void EmitMarker(Decision::Kind kind, rt::TraceId trace,
                    bool recording)
    {
        if (decisions_ != nullptr) {
            decisions_->push_back(Decision{kind, recording, trace});
        }
    }

    void IngestReadyJobs();
    void AdvancePointers(rt::TokenHash token);
    void ConsiderCompleted(const std::vector<CompletedMatch>& completed);
    void Buffer(const rt::TaskLaunchView& launch);
    void ForwardFront();
    void MaybeFire();
    void Fire(const CompletedMatch& match);
    void FlushPrefixBelow(std::uint64_t keep_from);

    rt::Runtime* runtime_;
    ApopheniaConfig config_;
    support::InlineExecutor default_executor_;
    support::Executor* executor_;
    TraceFinder finder_;
    CandidateTrie trie_;
    TraceScorer scorer_;

    IngestMode ingest_mode_;
    std::uint64_t counter_ = 0;  ///< tasks observed (absolute index + 1)
    std::deque<PendingTask> pending_;
    /** Recycled PendingTask storage: requirement vectors keep their
     * capacity, so buffering is allocation-free in steady state. */
    std::vector<PendingTask> pending_pool_;
    std::uint64_t pending_base_ = 0;  ///< absolute index of pending_[0]
    std::vector<ActivePointer> active_;
    /** Scratch buffers reused every token so the match-advance step
     * allocates nothing in steady state. */
    std::vector<ActivePointer> active_scratch_;
    std::vector<CompletedMatch> completed_scratch_;
    /** Completed, pairwise-disjoint matches awaiting replay, in
     * stream order. The front is fired once no still-growing match
     * could supersede it. */
    std::deque<CompletedMatch> held_;
    rt::TraceId next_trace_id_ = 1;
    bool degraded_ = false;
    ApopheniaStats stats_;
    std::uint64_t candidate_digest_ = 0x5eed;
    std::vector<Decision>* decisions_ = nullptr;
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_APOPHENIA_H
