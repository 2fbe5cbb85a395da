#include "core/apophenia.h"

#include <algorithm>
#include <cassert>

namespace apo::core {

Apophenia::Apophenia(rt::Runtime& runtime, ApopheniaConfig config,
                     support::Executor* executor,
                     MiningCache* mining_cache)
    : runtime_(&runtime),
      config_(config),
      executor_(executor != nullptr ? executor : &default_executor_),
      finder_(config_, *executor_, mining_cache),
      scorer_(config_),
      ingest_mode_(config_.ingest_mode)
{
}

void
Apophenia::DoExecuteTask(const rt::TaskLaunchView& launch)
{
    if (!config_.enabled) {
        runtime_->ExecuteTask(launch);
        return;
    }
    if (degraded_) {
        // Overload posture: issue straight through. The token is NOT
        // shown to the finder — the degraded window never enters the
        // history ring, the finder's miner or (via mining) the trie, so
        // leaving degrade later is bit-safe. SetDegraded(true) already
        // drained the pending buffer and match state.
        ++counter_;
        stats_.tasks_observed += 1;
        stats_.tasks_degraded += 1;
        stats_.tasks_forwarded_untraced += 1;
        runtime_->ExecuteTask(launch);
        EmitTask(counter_ - 1);
        pending_base_ = counter_;
        return;
    }
    // The launch's dependence-analysis token was hashed at the API
    // boundary and rides on the view. Untraceable operations get a
    // unique *mining* token per occurrence, so they can never appear
    // inside a repeated fragment: no candidate will contain them,
    // matches break across them, and the pending prefix flushing
    // forwards them promptly. The unique token is a finder-side
    // fiction only — the runtime still logs the real one.
    const rt::TokenHash mining_token =
        launch.traceable
            ? launch.token
            : support::SplitMix64(~counter_ ^ 0xfeedface12345678ULL);
    ++counter_;
    stats_.tasks_observed += 1;
    finder_.Observe(mining_token, counter_);
    IngestReadyJobs();
    AdvancePointers(mining_token);
    if (active_.empty() && held_.empty()) {
        // Fast path: no still-growing match and no queued replay can
        // cover this launch, so it is forwarded straight off the
        // caller's arena — no materialization, no allocation. Any
        // leftover pending tasks (matches that just died) go first to
        // preserve stream order.
        FlushPrefixBelow(counter_ - 1);
        runtime_->ExecuteTask(launch);
        EmitTask(counter_ - 1);
        pending_base_ = counter_;
        stats_.tasks_forwarded_untraced += 1;
        return;
    }
    Buffer(launch);
    stats_.pending_high_water =
        std::max(stats_.pending_high_water, pending_.size());
    MaybeFire();
}

void
Apophenia::Buffer(const rt::TaskLaunchView& launch)
{
    PendingTask task;
    if (!pending_pool_.empty()) {
        task = std::move(pending_pool_.back());
        pending_pool_.pop_back();
    }
    launch.MaterializeInto(task.launch);
    task.token = launch.token;
    pending_.push_back(std::move(task));
    stats_.launches_buffered += 1;
}

/** Forward the oldest buffered launch untraced and recycle its
 * storage. */
void
Apophenia::ForwardFront()
{
    PendingTask& front = pending_.front();
    runtime_->ExecuteTask(
        rt::TaskLaunchView::Of(front.launch, front.token));
    pending_pool_.push_back(std::move(front));
    pending_.pop_front();
}

void
Apophenia::IngestReadyJobs()
{
    switch (ingest_mode_) {
      case IngestMode::kManual:
        return;
      case IngestMode::kEagerDrain:
        // Deterministic under any executor: wait for everything in
        // flight, then ingest it all, exactly as InlineExecutor would
        // have at this stream position.
        if (finder_.PendingJobCount() > 0) {
            executor_->Drain();
        }
        break;
      case IngestMode::kOnCompletion:
        // Event-driven: deliver any buffered completions, then ingest
        // the completed prefix of the launch-order queue.
        executor_->Pump();
        break;
    }
    while (finder_.OldestJobDone()) {
        IngestOldestJob();
    }
}

void
Apophenia::AdvancePointers(rt::TokenHash token)
{
    const std::uint64_t index = counter_ - 1;  // this task's absolute index
    // One pass: advance each pointer (survivors keep their order, the
    // root pointer starting here goes last, so active_ stays sorted by
    // start) and note every candidate a pointer just completed.
    active_scratch_.clear();
    completed_scratch_.clear();
    const auto advance = [&](const CandidateTrie::Node* from,
                             std::uint64_t start) {
        const CandidateTrie::Node* child = trie_.Step(from, token);
        if (child == nullptr) {
            return;
        }
        active_scratch_.push_back(ActivePointer{child, start});
        if (CandidateStats* c = CandidateTrie::CandidateAt(child)) {
            // A live appearance: refresh the decayed count.
            c->count = c->Appearances(counter_,
                                      config_.score_decay_half_life) +
                       1.0;
            c->last_seen = counter_;
            completed_scratch_.push_back(
                CompletedMatch{c, start, index + 1});
        }
    };
    for (const ActivePointer& p : active_) {
        advance(p.node, p.start);
    }
    advance(nullptr, index);
    std::swap(active_, active_scratch_);
    assert(std::is_sorted(active_.begin(), active_.end(),
                          [](const ActivePointer& a, const ActivePointer& b) {
                              return a.start < b.start;
                          }));
    ConsiderCompleted(completed_scratch_);
}

void
Apophenia::ConsiderCompleted(const std::vector<CompletedMatch>& completed)
{
    for (const CompletedMatch& m : completed) {
        if (held_.empty() || m.start >= held_.back().end) {
            held_.push_back(m);  // disjoint successor: queue it
            continue;
        }
        // Overlapping: `m` ends at the newest token, so it overlaps a
        // suffix of the held queue. Replace that suffix only if `m`
        // outscores the whole of it (SelectReplayTrace's heuristic).
        std::size_t first_overlap = held_.size();
        double displaced_score = 0.0;
        while (first_overlap > 0 &&
               held_[first_overlap - 1].end > m.start) {
            --first_overlap;
            displaced_score += scorer_.Score(
                *held_[first_overlap].stats, counter_);
        }
        if (scorer_.Score(*m.stats, counter_) > displaced_score) {
            held_.erase(held_.begin() + first_overlap, held_.end());
            held_.push_back(m);
        }
    }
}

void
Apophenia::MaybeFire()
{
    // Fire queued matches from the front, stopping at the first one a
    // still-growing match (an active pointer that started at or
    // before it and can still advance) might supersede. active_ is
    // sorted by start, so only its prefix up to the match is scanned.
    while (!held_.empty()) {
        const CompletedMatch front = held_.front();
        bool blocked = false;
        for (const ActivePointer& p : active_) {
            if (p.start > front.start) {
                break;
            }
            if (p.node->HasChildren()) {
                blocked = true;
                break;
            }
        }
        if (blocked) {
            break;
        }
        held_.pop_front();
        Fire(front);
    }

    // Forward every task no in-progress match could still cover.
    // Nothing matches before the next token, or the oldest pointer.
    std::uint64_t keep_from =
        active_.empty() ? counter_ : active_.front().start;
    if (!held_.empty()) {
        keep_from = std::min(keep_from, held_.front().start);
    }
    FlushPrefixBelow(keep_from);

    // Bound the pending buffer (exploration must not hoard memory).
    if (pending_.size() > config_.max_pending) {
        stats_.forced_flushes += 1;
        if (!held_.empty()) {
            const CompletedMatch front = held_.front();
            held_.pop_front();
            Fire(front);
        } else {
            const std::uint64_t target =
                pending_base_ + pending_.size() / 2;
            std::erase_if(active_, [&](const ActivePointer& p) {
                return p.start < target;
            });
            FlushPrefixBelow(target);
        }
    }
}

void
Apophenia::Fire(const CompletedMatch& match)
{
    FlushPrefixBelow(match.start);
    CandidateStats* stats = match.stats;
    if (stats->trace_id == rt::kNoTrace) {
        stats->trace_id = next_trace_id_++;
    }
    const bool recording = !runtime_->HasTrace(stats->trace_id);
    runtime_->BeginTrace(stats->trace_id);
    EmitMarker(Decision::Kind::kBegin, stats->trace_id, recording);
    for (std::uint64_t i = match.start; i < match.end; ++i) {
        PendingTask& front = pending_.front();
        runtime_->ExecuteTask(
            rt::TaskLaunchView::Of(front.launch, front.token));
        EmitTask(i);
        pending_pool_.push_back(std::move(front));
        pending_.pop_front();
    }
    pending_base_ = match.end;
    runtime_->EndTrace(stats->trace_id);
    EmitMarker(Decision::Kind::kEnd, stats->trace_id, recording);
    stats->replays += 1;
    stats_.traces_fired += 1;
    stats_.tasks_forwarded_traced += match.end - match.start;
    if (recording) {
        stats_.trace_records += 1;
    } else {
        stats_.trace_replays += 1;
    }
    // Matches overlapping the consumed range can no longer happen.
    std::erase_if(active_, [&](const ActivePointer& p) {
        return p.start < match.end;
    });
    // Future analyses include windows anchored here, so candidates
    // covering whatever follows this replay get discovered.
    finder_.NoteReplayBoundary(match.end);
}

void
Apophenia::FlushPrefixBelow(std::uint64_t keep_from)
{
    while (pending_base_ < keep_from && !pending_.empty()) {
        ForwardFront();
        EmitTask(pending_base_);
        pending_base_ += 1;
        stats_.tasks_forwarded_untraced += 1;
    }
}

void
Apophenia::DoFlush()
{
    if (!config_.enabled) {
        return;
    }
    while (!held_.empty()) {
        const CompletedMatch front = held_.front();
        held_.pop_front();
        Fire(front);
    }
    FlushPrefixBelow(pending_base_ + pending_.size());
    active_.clear();
}

void
Apophenia::SetDegraded(bool degraded)
{
    if (degraded == degraded_ || !config_.enabled) {
        return;
    }
    if (degraded) {
        // Resolve every in-progress match before going dark, exactly
        // as DoFlush does at end-of-stream: profitable held matches
        // still fire (their tasks were already admitted), everything
        // else forwards untraced, and no active pointer survives into
        // the degraded window.
        while (!held_.empty()) {
            const CompletedMatch front = held_.front();
            held_.pop_front();
            Fire(front);
        }
        FlushPrefixBelow(pending_base_ + pending_.size());
        active_.clear();
    }
    degraded_ = degraded;
}

std::size_t
Apophenia::AbandonStaleAnalyses(std::uint64_t max_age_tasks)
{
    const std::uint64_t cutoff =
        counter_ > max_age_tasks ? counter_ - max_age_tasks : 0;
    return finder_.AbandonJobsOlderThan(cutoff);
}

void
Apophenia::IngestOldestJob()
{
    const AnalysisJob& job = finder_.WaitOldestJob();
    const std::vector<CandidateTrace>& results = job.Results();
    for (const CandidateTrace& c : results) {
        trie_.Insert(c.tokens, c.occurrences, counter_,
                     config_.score_decay_half_life);
        // Rolling identity of the full ingested candidate sequence
        // (tokens and occurrence counts, in ingestion order): two
        // front-ends that mined and ingested the same candidates at
        // the same stream positions report equal digests. The cheap
        // cross-run "candidate sets identical" check, like the
        // stream digest is for issued streams.
        candidate_digest_ =
            support::HashCombine(candidate_digest_, c.tokens.size());
        for (const rt::TokenHash token : c.tokens) {
            candidate_digest_ =
                support::HashCombine(candidate_digest_, token);
        }
        candidate_digest_ = support::HashCombine(
            candidate_digest_,
            static_cast<std::uint64_t>(c.occurrences * 4096.0));
    }
    stats_.jobs_ingested += 1;
    stats_.candidates_ingested += results.size();
    finder_.ReleaseOldestJob();
}

void
Apophenia::SaveState(fault::CheckpointWriter& writer) const
{
    writer.BeginSection(fault::SectionTag::kApophenia);
    writer.U64(counter_);
    writer.U64(pending_base_);
    writer.U64(next_trace_id_);
    writer.U64(candidate_digest_);
    writer.U64(stats_.tasks_observed);
    writer.U64(stats_.tasks_forwarded_traced);
    writer.U64(stats_.tasks_forwarded_untraced);
    writer.U64(stats_.traces_fired);
    writer.U64(stats_.trace_records);
    writer.U64(stats_.trace_replays);
    writer.U64(stats_.jobs_ingested);
    writer.U64(stats_.candidates_ingested);
    writer.U64(stats_.forced_flushes);
    writer.U64(stats_.launches_buffered);
    writer.U64(stats_.pending_high_water);
    writer.U64(pending_.size());
    for (const PendingTask& task : pending_) {
        writer.U64(task.token);
        writer.U64(task.launch.task);
        writer.U64(task.launch.requirements.size());
        for (const rt::RegionRequirement& req :
             task.launch.requirements) {
            writer.U64(req.region.value);
            writer.U64(req.field);
            writer.U64(static_cast<std::uint64_t>(req.privilege));
            writer.U64(req.redop);
        }
        writer.F64(task.launch.execution_us);
        writer.U64(task.launch.shard);
        writer.Bool(task.launch.blocking);
        writer.Bool(task.launch.traceable);
    }
    // Match state re-walks out of the restored trie: a pointer is its
    // start index (its node is the unique trie walk over the buffered
    // tokens from there), a held match its [start, end) range.
    writer.U64(active_.size());
    for (const ActivePointer& p : active_) {
        writer.U64(p.start);
    }
    writer.U64(held_.size());
    for (const CompletedMatch& m : held_) {
        writer.U64(m.start);
        writer.U64(m.end);
    }
    writer.EndSection();
    finder_.SaveState(writer);
    trie_.SaveState(writer);
}

void
Apophenia::LoadState(fault::CheckpointReader& reader)
{
    if (counter_ != 0 || !pending_.empty() || !active_.empty() ||
        !held_.empty()) {
        throw fault::CheckpointError(
            "Apophenia::LoadState requires a fresh front-end");
    }
    // The whole image is parsed and checked before any member changes,
    // so a rejected image leaves this front end fresh. The front end's
    // own state and the trie are read into locals; the finder (which
    // cannot be built aside and moved in) first restores a scratch
    // finder, and only then re-reads the same bytes into finder_.
    reader.BeginSection(fault::SectionTag::kApophenia);
    const std::uint64_t counter = reader.U64();
    const std::uint64_t pending_base = reader.U64();
    const rt::TraceId next_trace_id = reader.U64();
    const std::uint64_t candidate_digest = reader.U64();
    ApopheniaStats stats = stats_;
    stats.tasks_observed = reader.U64();
    stats.tasks_forwarded_traced = reader.U64();
    stats.tasks_forwarded_untraced = reader.U64();
    stats.traces_fired = reader.U64();
    stats.trace_records = reader.U64();
    stats.trace_replays = reader.U64();
    stats.jobs_ingested = reader.U64();
    stats.candidates_ingested = reader.U64();
    stats.forced_flushes = reader.U64();
    stats.launches_buffered = reader.U64();
    stats.pending_high_water = reader.U64();
    std::deque<PendingTask> pending(reader.U64());
    for (PendingTask& task : pending) {
        task.token = reader.U64();
        task.launch.task = reader.U64();
        const std::uint64_t reqs = reader.U64();
        task.launch.requirements.reserve(reqs);
        for (std::uint64_t r = 0; r < reqs; ++r) {
            rt::RegionRequirement req;
            req.region = rt::RegionId{reader.U64()};
            req.field = static_cast<rt::FieldId>(reader.U64());
            req.privilege = static_cast<rt::Privilege>(reader.U64());
            req.redop = static_cast<rt::ReductionOpId>(reader.U64());
            task.launch.requirements.push_back(req);
        }
        task.launch.execution_us = reader.F64();
        task.launch.shard = static_cast<std::uint32_t>(reader.U64());
        task.launch.blocking = reader.Bool();
        task.launch.traceable = reader.Bool();
    }
    std::vector<std::uint64_t> active_starts(reader.U64());
    for (std::uint64_t& start : active_starts) {
        start = reader.U64();
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> held_ranges(
        reader.U64());
    for (auto& [start, end] : held_ranges) {
        start = reader.U64();
        end = reader.U64();
    }
    reader.EndSection();
    fault::CheckpointReader finder_reader = reader;
    {
        TraceFinder scratch_finder(config_, default_executor_);
        scratch_finder.LoadState(reader);
    }
    CandidateTrie trie;
    trie.LoadState(reader);

    // Re-walk a restored trie over the buffered tokens. Every live
    // match spans traceable launches only (an untraceable launch's
    // unique per-occurrence mining token kills every pointer), so the
    // buffered real tokens are exactly the tokens the pointers were
    // advanced with.
    const auto restore_matches = [&](const CandidateTrie& restored,
                                     std::vector<ActivePointer>& active,
                                     std::deque<CompletedMatch>& held) {
        const auto walk = [&](std::uint64_t from, std::uint64_t to) {
            if (from < pending_base || from >= to ||
                to - pending_base > pending.size()) {
                throw fault::CheckpointError(
                    "checkpoint match range lies outside the buffered "
                    "tasks");
            }
            const CandidateTrie::Node* node = nullptr;
            for (std::uint64_t i = from; i < to; ++i) {
                node = restored.Step(node, pending[i - pending_base].token);
                if (node == nullptr) {
                    throw fault::CheckpointError(
                        "checkpoint match state does not re-walk the "
                        "restored trie");
                }
            }
            return node;
        };
        for (const std::uint64_t start : active_starts) {
            // MaybeFire relies on active_ being sorted by start.
            if (!active.empty() && start <= active.back().start) {
                throw fault::CheckpointError(
                    "checkpoint match pointers are not in start order");
            }
            active.push_back(ActivePointer{walk(start, counter), start});
        }
        for (const auto& [start, end] : held_ranges) {
            CandidateStats* candidate =
                CandidateTrie::CandidateAt(walk(start, end));
            if (candidate == nullptr) {
                throw fault::CheckpointError(
                    "checkpoint held match has no candidate in the "
                    "restored trie");
            }
            held.push_back(CompletedMatch{candidate, start, end});
        }
    };
    {
        std::vector<ActivePointer> active;
        std::deque<CompletedMatch> held;
        restore_matches(trie, active, held);
    }

    // The image is valid: commit. The finder re-reads bytes the
    // scratch finder accepted, and the walks repeat ones that passed.
    finder_.LoadState(finder_reader);
    counter_ = counter;
    pending_base_ = pending_base;
    next_trace_id_ = next_trace_id;
    candidate_digest_ = candidate_digest;
    stats_ = stats;
    trie_ = std::move(trie);
    restore_matches(trie_, active_, held_);
    pending_ = std::move(pending);
}

}  // namespace apo::core
