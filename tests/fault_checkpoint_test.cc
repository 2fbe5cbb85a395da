/**
 * @file
 * Tests for the fault:: checkpoint/restore substrate (PR: fault
 * tolerance): a mid-stream crash + restore-from-checkpoint must
 * re-converge to bit-identical replay decisions — same stream digest,
 * same candidate digest, same suffix rows — pinned across two
 * applications and both log modes (retained and streaming-retire);
 * truncated or bit-flipped images must be rejected with a typed
 * fault::CheckpointError before any state is mutated (the front end
 * and the finder alike); and the shared MiningCache round-trips its
 * published windows.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/frontend.h"
#include "apps/cfd.h"
#include "apps/s3d.h"
#include "core/apophenia.h"
#include "core/finder.h"
#include "core/mining_cache.h"
#include "fault/checkpoint.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "support/executor.h"

namespace apo {
namespace {

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 400;
    config.multi_scale_factor = 50;
    return config;
}

/** One recorded front-end call, with virtual region ids. */
struct RecordedCall {
    enum class Kind { kCreate, kDestroy, kPartition, kTask };
    Kind kind = Kind::kTask;
    rt::RegionId region;  ///< kCreate result / kDestroy / kPartition parent
    std::size_t count = 0;              ///< kPartition
    std::vector<rt::RegionId> results;  ///< kPartition virtual children
    rt::TaskLaunch launch;              ///< kTask (virtual region ids)
};

/** An api::Frontend that records the application's calls instead of
 * executing them, so the identical stream can be replayed into any
 * number of real front ends — including one restored mid-stream. */
class RecordingFrontend final : public api::Frontend {
  public:
    std::string_view Name() const override { return "recorder"; }

    rt::RegionId CreateRegion() override
    {
        const rt::RegionId id{next_++};
        RecordedCall call;
        call.kind = RecordedCall::Kind::kCreate;
        call.region = id;
        calls_.push_back(std::move(call));
        return id;
    }

    void DestroyRegion(rt::RegionId r) override
    {
        RecordedCall call;
        call.kind = RecordedCall::Kind::kDestroy;
        call.region = r;
        calls_.push_back(std::move(call));
    }

    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        RecordedCall call;
        call.kind = RecordedCall::Kind::kPartition;
        call.region = parent;
        call.count = count;
        for (std::size_t i = 0; i < count; ++i) {
            call.results.push_back(rt::RegionId{next_++});
        }
        calls_.push_back(std::move(call));
        return calls_.back().results;
    }

    std::vector<RecordedCall> Take() { return std::move(calls_); }

  protected:
    void DoExecuteTask(const rt::TaskLaunchView& launch) override
    {
        RecordedCall call;
        call.kind = RecordedCall::Kind::kTask;
        launch.MaterializeInto(call.launch);
        calls_.push_back(std::move(call));
    }
    bool DoBeginTrace(rt::TraceId) override { return false; }
    bool DoEndTrace(rt::TraceId) override { return false; }
    void DoFlush() override {}

  private:
    std::vector<RecordedCall> calls_;
    std::uint64_t next_ = 1;
};

/** Replays a recorded call list one call at a time, mapping virtual
 * region ids to the target's real ones. Rebind() switches the target
 * mid-stream (the virtual→real map survives — the restored front
 * end's deterministic allocator reproduces the same real ids). */
class CallReplayer {
  public:
    CallReplayer(api::Frontend& fe, const std::vector<RecordedCall>& calls)
        : fe_(&fe), calls_(&calls)
    {
    }

    bool Done() const { return at_ >= calls_->size(); }
    std::size_t Position() const { return at_; }
    void Rebind(api::Frontend& fe) { fe_ = &fe; }

    void Step()
    {
        const RecordedCall& call = (*calls_)[at_++];
        switch (call.kind) {
          case RecordedCall::Kind::kCreate:
            map_[call.region.value] = fe_->CreateRegion();
            break;
          case RecordedCall::Kind::kDestroy:
            fe_->DestroyRegion(map_.at(call.region.value));
            map_.erase(call.region.value);
            break;
          case RecordedCall::Kind::kPartition: {
            const std::vector<rt::RegionId> real =
                fe_->PartitionRegion(map_.at(call.region.value),
                                     call.count);
            for (std::size_t i = 0; i < call.results.size(); ++i) {
                map_[call.results[i].value] = real[i];
            }
            break;
          }
          case RecordedCall::Kind::kTask: {
            rt::TaskLaunch launch = call.launch;
            for (rt::RegionRequirement& req : launch.requirements) {
                req.region = map_.at(req.region.value);
            }
            fe_->ExecuteTask(launch);
            break;
          }
        }
    }

  private:
    api::Frontend* fe_;
    const std::vector<RecordedCall>* calls_;
    std::size_t at_ = 0;
    std::unordered_map<std::uint64_t, rt::RegionId> map_;
};

/** Record `iterations` main-loop iterations of App as a call list. */
template <typename App, typename Options>
std::vector<RecordedCall> RecordProgram(const Options& app_options,
                                        std::size_t iterations)
{
    RecordingFrontend recorder;
    App app(app_options);
    app.Setup(recorder);
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        app.Iteration(recorder, iter, /*manual_tracing=*/false);
    }
    return recorder.Take();
}

/** One traced stack plus its (optional) streaming digest. */
struct Stack {
    std::unique_ptr<rt::Runtime> runtime;
    std::unique_ptr<core::Apophenia> apophenia;
    sim::StreamDigest digest;  ///< streaming mode only

    Stack(const rt::RuntimeOptions& rt_options,
          const core::ApopheniaConfig& config, bool streaming)
        : runtime(std::make_unique<rt::Runtime>(rt_options))
    {
        if (streaming) {
            // Attach before any launch (and, on a restore, before
            // LoadState — the restored log must already stream).
            runtime->EnableLogStreaming(
                [this](const rt::OpView& op) { digest.Consume(op); });
        }
        apophenia =
            std::make_unique<core::Apophenia>(*runtime, config);
    }
};

/**
 * The crash+restore property: drive an app to a mid-stream quiescent
 * cut, checkpoint runtime + front end, destroy both, restore onto a
 * fresh pair, finish the program — the full-stream digest, candidate
 * digest and (retained mode) every post-cut log row must be
 * bit-identical to an uninterrupted run.
 */
template <typename App, typename Options>
void ExpectCrashRestoreBitIdentical(const Options& app_options,
                                    std::size_t iterations,
                                    bool streaming,
                                    std::string_view label)
{
    SCOPED_TRACE(std::string(label) +
                 (streaming ? " (streaming)" : " (retained)"));
    const std::vector<RecordedCall> program =
        RecordProgram<App>(app_options, iterations);
    ASSERT_GT(program.size(), 40u);

    rt::RuntimeOptions rt_options;
    rt_options.nodes = app_options.machine.nodes;
    const core::ApopheniaConfig config = SmallConfig();

    // Uninterrupted reference run.
    Stack reference(rt_options, config, streaming);
    CallReplayer ref_replayer(*reference.apophenia, program);
    while (!ref_replayer.Done()) {
        ref_replayer.Step();
    }
    reference.apophenia->Flush();
    if (streaming) {
        reference.runtime->DrainLogStream();
    } else {
        reference.digest = sim::StreamDigest::Of(reference.runtime->Log());
    }

    // Crash run: stop at (or just past) the midpoint, at the first
    // quiescent point (Runtime::SaveState is illegal mid-trace).
    auto crashed =
        std::make_unique<Stack>(rt_options, config, streaming);
    CallReplayer replayer(*crashed->apophenia, program);
    const std::size_t cut = program.size() / 2;
    while (replayer.Position() < cut) {
        replayer.Step();
    }
    while (!crashed->runtime->Quiescent() && !replayer.Done()) {
        replayer.Step();
    }
    ASSERT_TRUE(crashed->runtime->Quiescent());
    ASSERT_FALSE(replayer.Done()) << "cut swallowed the whole program";

    fault::CheckpointWriter writer;
    crashed->runtime->SaveState(writer);
    crashed->apophenia->SaveState(writer);
    const std::vector<std::uint8_t> image = writer.TakeImage();
    ASSERT_FALSE(image.empty());
    const std::size_t cut_ops = crashed->runtime->Log().size();
    sim::StreamDigest prefix = streaming
                                   ? crashed->digest
                                   : sim::StreamDigest::Of(
                                         crashed->runtime->Log());
    crashed.reset();  // the crash: the process (and its state) is gone

    // Restore onto a fresh pair and finish the program.
    Stack restored(rt_options, config, streaming);
    restored.digest = prefix;  // streaming consumer continues the fold
    fault::CheckpointReader reader(image);
    restored.runtime->LoadState(reader);
    restored.apophenia->LoadState(reader);
    EXPECT_TRUE(reader.AtEnd());
    replayer.Rebind(*restored.apophenia);
    while (!replayer.Done()) {
        replayer.Step();
    }
    restored.apophenia->Flush();
    sim::StreamDigest final_digest = prefix;
    if (streaming) {
        restored.runtime->DrainLogStream();
        final_digest = restored.digest;
    } else {
        const rt::OperationLog& log = restored.runtime->Log();
        for (std::size_t at = cut_ops; at < log.size(); ++at) {
            final_digest.Consume(log[at]);
        }
    }

    // Bit-identical re-convergence.
    EXPECT_EQ(final_digest.Value(), reference.digest.Value());
    EXPECT_EQ(final_digest.Count(), reference.digest.Count());
    EXPECT_EQ(restored.apophenia->CandidateDigest(),
              reference.apophenia->CandidateDigest());
    EXPECT_EQ(restored.runtime->Log().size(),
              reference.runtime->Log().size());
    if (!streaming) {
        const rt::OperationLog& got = restored.runtime->Log();
        const rt::OperationLog& want = reference.runtime->Log();
        for (std::size_t i = cut_ops; i < got.size(); ++i) {
            ASSERT_EQ(got[i].token, want[i].token)
                << "stream diverged at op " << i;
            ASSERT_EQ(got[i].mode, want[i].mode)
                << "analysis mode diverged at op " << i;
            ASSERT_EQ(got[i].trace, want[i].trace)
                << "trace decision diverged at op " << i;
            ASSERT_EQ(got[i].dependences, want[i].dependences)
                << "graph diverged at op " << i;
        }
    }
    // Cumulative accounting re-converges too (saved + resumed).
    EXPECT_EQ(restored.runtime->Stats().tasks_replayed,
              reference.runtime->Stats().tasks_replayed);
    EXPECT_EQ(restored.runtime->Stats().traces_recorded,
              reference.runtime->Stats().traces_recorded);
    EXPECT_EQ(restored.runtime->Stats().trace_mismatches, 0u);
    EXPECT_EQ(restored.apophenia->Stats().traces_fired,
              reference.apophenia->Stats().traces_fired);
    EXPECT_EQ(restored.apophenia->Stats().jobs_ingested,
              reference.apophenia->Stats().jobs_ingested);
}

TEST(CheckpointRestore, S3dRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRestoreBitIdentical<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 40, false, "s3d");
}

TEST(CheckpointRestore, S3dStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRestoreBitIdentical<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 40, true, "s3d");
}

TEST(CheckpointRestore, CfdRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRestoreBitIdentical<apps::CfdApplication>(
        apps::CfdOptions{.machine = machine}, 80, false, "cfd");
}

TEST(CheckpointRestore, CfdStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRestoreBitIdentical<apps::CfdApplication>(
        apps::CfdOptions{.machine = machine}, 80, true, "cfd");
}

// ---------------------------------------------------------------------------
// Corruption detection: every malformed image is a typed error.

std::vector<std::uint8_t> SampleImage()
{
    // A real (small) image: an s3d prefix through runtime + front end.
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const std::vector<RecordedCall> program =
        RecordProgram<apps::S3dApplication>(
            apps::S3dOptions{.machine = machine}, 10);
    rt::RuntimeOptions rt_options;
    rt_options.nodes = machine.nodes;
    Stack stack(rt_options, SmallConfig(), /*streaming=*/false);
    CallReplayer replayer(*stack.apophenia, program);
    while (!replayer.Done()) {
        replayer.Step();
    }
    stack.apophenia->Flush();  // closes any open trace: quiescent
    fault::CheckpointWriter writer;
    stack.runtime->SaveState(writer);
    stack.apophenia->SaveState(writer);
    return writer.TakeImage();
}

void ExpectRejected(const std::vector<std::uint8_t>& image)
{
    // The restore must throw the typed error and must not be reported
    // as success on any partially-valid prefix.
    EXPECT_THROW(
        {
            rt::RuntimeOptions rt_options;
            rt_options.nodes = 2;
            rt::Runtime runtime(rt_options);
            core::Apophenia apophenia(runtime, SmallConfig());
            fault::CheckpointReader reader(image);
            runtime.LoadState(reader);
            apophenia.LoadState(reader);
        },
        fault::CheckpointError);
}

TEST(CheckpointCorruption, TruncatedImagesAreRejected)
{
    const std::vector<std::uint8_t> image = SampleImage();
    ASSERT_GT(image.size(), 64u);
    // Cut inside the header, inside a section frame, and inside the
    // trailing payload.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{15},
          image.size() / 3, image.size() / 2, image.size() - 1}) {
        SCOPED_TRACE("keep " + std::to_string(keep));
        ExpectRejected(std::vector<std::uint8_t>(
            image.begin(),
            image.begin() + static_cast<std::ptrdiff_t>(keep)));
    }
}

TEST(CheckpointCorruption, BitFlippedImagesAreRejected)
{
    const std::vector<std::uint8_t> image = SampleImage();
    // Flip one bit in the magic, the version, a section frame, and
    // several payload positions: the checksum (or header check) must
    // catch every one of them.
    for (const std::size_t at :
         {std::size_t{3}, std::size_t{12}, std::size_t{24},
          image.size() / 4, image.size() / 2, image.size() - 9}) {
        SCOPED_TRACE("flip at " + std::to_string(at));
        std::vector<std::uint8_t> corrupt = image;
        corrupt[at] ^= 0x20;
        ExpectRejected(corrupt);
    }
}

TEST(CheckpointCorruption, WrongSectionTagIsRejected)
{
    fault::CheckpointWriter writer;
    writer.BeginSection(fault::SectionTag::kCandidateTrie);
    writer.U64(42);
    writer.EndSection();
    fault::CheckpointReader reader(writer.Image());
    EXPECT_THROW(reader.BeginSection(fault::SectionTag::kTraceCache),
                 fault::CheckpointError);
}

TEST(CheckpointCorruption, SaveRequiresQuiescentRuntime)
{
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    runtime.BeginTrace(7);
    runtime.ExecuteTask(rt::TaskLaunch{
        1, {{r, 0, rt::Privilege::kReadWrite, 0}}});
    EXPECT_FALSE(runtime.Quiescent());
    fault::CheckpointWriter writer;
    EXPECT_THROW(runtime.SaveState(writer), fault::CheckpointError);
}

/** A front end stepped through an s3d prefix until at least two
 * match pointers are live, saved alone (its own, finder and trie
 * sections). */
std::vector<std::uint8_t> MidMatchFrontEndImage()
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const std::vector<RecordedCall> program =
        RecordProgram<apps::S3dApplication>(
            apps::S3dOptions{.machine = machine}, 30);
    rt::RuntimeOptions rt_options;
    rt_options.nodes = machine.nodes;
    Stack stack(rt_options, SmallConfig(), /*streaming=*/false);
    CallReplayer replayer(*stack.apophenia, program);
    while (!replayer.Done() && stack.apophenia->ActivePointers() < 2) {
        replayer.Step();
    }
    EXPECT_GE(stack.apophenia->ActivePointers(), 2u);
    fault::CheckpointWriter writer;
    stack.apophenia->SaveState(writer);
    return writer.TakeImage();
}

/** Rewrite the first two match-pointer starts of the front end's
 * (first) section with `edit`, re-sealing the section checksum so
 * only the match state is wrong. */
template <typename Edit>
std::vector<std::uint8_t> EditPointerStarts(std::vector<std::uint8_t> image,
                                            Edit edit)
{
    // Image header (16 bytes), then the section's tag, length and
    // checksum words, then its payload of 64-bit words.
    constexpr std::size_t kPayload = 16 + 24;
    const auto word = [&](std::size_t i) {
        std::uint64_t v = 0;
        std::memcpy(&v, image.data() + kPayload + 8 * i, 8);
        return v;
    };
    const auto set = [&](std::size_t i, std::uint64_t v) {
        std::memcpy(image.data() + kPayload + 8 * i, &v, 8);
    };
    // 15 counters/stats, then the pending tasks: token, task,
    // requirement count, 4 words a requirement, execution time,
    // shard, blocking, traceable.
    std::size_t at = 15;
    const std::uint64_t pending = word(at++);
    for (std::uint64_t t = 0; t < pending; ++t) {
        at += 3 + 4 * word(at + 2) + 4;
    }
    EXPECT_GE(word(at), 2u);  // the active-pointer count
    std::uint64_t first = word(at + 1);
    std::uint64_t second = word(at + 2);
    edit(first, second, word(1));  // word 1: the pending base
    set(at + 1, first);
    set(at + 2, second);
    std::uint64_t length = 0;
    std::memcpy(&length, image.data() + 24, 8);
    const std::uint64_t checksum = fault::ChecksumBytes(
        std::span<const std::uint8_t>(image.data() + kPayload, length));
    std::memcpy(image.data() + 32, &checksum, 8);
    return image;
}

void ExpectFrontEndRejects(const std::vector<std::uint8_t>& image)
{
    rt::Runtime runtime;
    core::Apophenia apophenia(runtime, SmallConfig());
    fault::CheckpointReader reader(image);
    EXPECT_THROW(apophenia.LoadState(reader), fault::CheckpointError);
}

TEST(CheckpointCorruption, MatchPointersMustBeOrderedAndBuffered)
{
    const std::vector<std::uint8_t> image = MidMatchFrontEndImage();
    {
        // The unedited image restores.
        rt::Runtime runtime;
        core::Apophenia apophenia(runtime, SmallConfig());
        fault::CheckpointReader reader(image);
        apophenia.LoadState(reader);
        EXPECT_GE(apophenia.ActivePointers(), 2u);
    }
    ExpectFrontEndRejects(EditPointerStarts(
        image, [](std::uint64_t& a, std::uint64_t& b, std::uint64_t) {
            std::swap(a, b);  // out of start order
        }));
    ExpectFrontEndRejects(EditPointerStarts(
        image, [](std::uint64_t& a, std::uint64_t&, std::uint64_t base) {
            a = base - 1;  // before the buffered tasks
        }));
}

TEST(CheckpointCorruption, RejectedImageLeavesFrontEndFresh)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const std::vector<RecordedCall> program =
        RecordProgram<apps::S3dApplication>(
            apps::S3dOptions{.machine = machine}, 30);
    rt::RuntimeOptions rt_options;
    rt_options.nodes = machine.nodes;
    const core::ApopheniaConfig config = SmallConfig();

    Stack reference(rt_options, config, /*streaming=*/false);
    CallReplayer ref_replayer(*reference.apophenia, program);
    while (!ref_replayer.Done()) {
        ref_replayer.Step();
    }
    reference.apophenia->Flush();

    // Cut at a quiescent point with at least two live match pointers,
    // saving the runtime and the front end as separate images.
    auto crashed = std::make_unique<Stack>(rt_options, config, false);
    CallReplayer replayer(*crashed->apophenia, program);
    while (!replayer.Done() &&
           (replayer.Position() < program.size() / 3 ||
            !crashed->runtime->Quiescent() ||
            crashed->apophenia->ActivePointers() < 2)) {
        replayer.Step();
    }
    ASSERT_FALSE(replayer.Done());
    fault::CheckpointWriter runtime_writer;
    crashed->runtime->SaveState(runtime_writer);
    const std::vector<std::uint8_t> runtime_image =
        runtime_writer.TakeImage();
    fault::CheckpointWriter front_writer;
    crashed->apophenia->SaveState(front_writer);
    const std::vector<std::uint8_t> front_image = front_writer.TakeImage();
    const std::size_t cut_ops = crashed->runtime->Log().size();
    crashed.reset();

    Stack restored(rt_options, config, /*streaming=*/false);
    fault::CheckpointReader runtime_reader(runtime_image);
    restored.runtime->LoadState(runtime_reader);
    // A match range before the buffered tasks is only caught after the
    // front end's section, the finder and the trie have been parsed.
    const std::vector<std::uint8_t> bad = EditPointerStarts(
        front_image, [](std::uint64_t& a, std::uint64_t&, std::uint64_t base) {
            a = base - 1;
        });
    {
        fault::CheckpointReader reader(bad);
        EXPECT_THROW(restored.apophenia->LoadState(reader),
                     fault::CheckpointError);
    }
    const core::Apophenia& front = *restored.apophenia;
    EXPECT_EQ(front.Stats().tasks_observed, 0u);
    EXPECT_EQ(front.Finder().tokens_observed, 0u);
    EXPECT_EQ(front.PendingTasks(), 0u);
    EXPECT_EQ(front.ActivePointers(), 0u);
    EXPECT_EQ(front.Trie().NumCandidates(), 0u);
    EXPECT_EQ(front.Trie().NumNodes(), 1u);
    {
        rt::Runtime runtime;
        const core::Apophenia fresh(runtime, config);
        EXPECT_EQ(front.CandidateDigest(), fresh.CandidateDigest());
    }

    // The untouched front end then takes the valid image and finishes
    // the program bit-identically with the uninterrupted run.
    fault::CheckpointReader reader(front_image);
    restored.apophenia->LoadState(reader);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_GE(restored.apophenia->ActivePointers(), 2u);
    replayer.Rebind(*restored.apophenia);
    while (!replayer.Done()) {
        replayer.Step();
    }
    restored.apophenia->Flush();
    EXPECT_EQ(restored.apophenia->CandidateDigest(),
              reference.apophenia->CandidateDigest());
    const rt::OperationLog& got = restored.runtime->Log();
    const rt::OperationLog& want = reference.runtime->Log();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = cut_ops; i < got.size(); ++i) {
        ASSERT_EQ(got[i].token, want[i].token) << "op " << i;
        ASSERT_EQ(got[i].mode, want[i].mode) << "op " << i;
        ASSERT_EQ(got[i].trace, want[i].trace) << "op " << i;
    }
    EXPECT_EQ(restored.runtime->Stats().trace_mismatches, 0u);
}

TEST(CheckpointCorruption, LoadRequiresFreshTargets)
{
    const std::vector<std::uint8_t> image = SampleImage();
    // A used runtime must refuse to restore over itself.
    rt::RuntimeOptions rt_options;
    rt_options.nodes = 2;
    rt::Runtime used(rt_options);
    const rt::RegionId r = used.CreateRegion();
    used.ExecuteTask(rt::TaskLaunch{
        1, {{r, 0, rt::Privilege::kReadWrite, 0}}});
    fault::CheckpointReader reader(image);
    EXPECT_THROW(used.LoadState(reader), fault::CheckpointError);
}

// ---------------------------------------------------------------------------
// MiningCache round-trip.

TEST(MiningCacheCheckpoint, PublishedWindowsRoundTrip)
{
    core::MiningCache cache;
    const std::vector<rt::TokenHash> window{11, 22, 33, 11, 22, 33};
    const core::MiningCache::Key key = core::MiningCache::KeyOf(
        std::span<const rt::TokenHash>(window));
    core::MiningCache::Claim claim = cache.AcquireOrBegin(
        key, std::span<const rt::TokenHash>(window));
    ASSERT_TRUE(claim.miner);
    cache.Publish(key, std::span<const rt::TokenHash>(window),
                  {core::CandidateTrace{{11, 22, 33}, 2.0}});

    fault::CheckpointWriter writer;
    cache.SaveState(writer);

    core::MiningCache restored;
    fault::CheckpointReader reader(writer.Image());
    restored.LoadState(reader);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored.Size(), cache.Size());
    // A restored entry still serves hits, with identical contents.
    const core::MiningCache::Claim hit = restored.AcquireOrBegin(
        key, std::span<const rt::TokenHash>(window));
    ASSERT_NE(hit.results, nullptr);
    EXPECT_FALSE(hit.miner);
    ASSERT_EQ(hit.results->size(), 1u);
    EXPECT_EQ(hit.results->front().tokens,
              (std::vector<rt::TokenHash>{11, 22, 33}));
    // Counters carried over (plus the probe above).
    EXPECT_EQ(restored.Snapshot().windows, cache.Snapshot().windows);
    EXPECT_EQ(restored.Snapshot().misses, cache.Snapshot().misses);
    EXPECT_EQ(restored.Snapshot().hits, cache.Snapshot().hits + 1);
}

TEST(MiningCacheCheckpoint, InProgressMinerBlocksSave)
{
    core::MiningCache cache;
    const std::vector<rt::TokenHash> window{5, 6, 7};
    const core::MiningCache::Key key = core::MiningCache::KeyOf(
        std::span<const rt::TokenHash>(window));
    const core::MiningCache::Claim claim = cache.AcquireOrBegin(
        key, std::span<const rt::TokenHash>(window));
    ASSERT_TRUE(claim.miner);  // un-published: the cache is not quiescent
    fault::CheckpointWriter writer;
    EXPECT_THROW(cache.SaveState(writer), fault::CheckpointError);
    cache.Abandon(key);
}

TEST(MiningCacheCheckpoint, LoadRequiresFreshCache)
{
    core::MiningCache cache;
    const std::vector<rt::TokenHash> window{1, 2, 3};
    const core::MiningCache::Key key = core::MiningCache::KeyOf(
        std::span<const rt::TokenHash>(window));
    core::MiningCache::Claim claim = cache.AcquireOrBegin(
        key, std::span<const rt::TokenHash>(window));
    ASSERT_TRUE(claim.miner);
    cache.Publish(key, std::span<const rt::TokenHash>(window),
                  {core::CandidateTrace{{1, 2, 3}, 2.0}});
    fault::CheckpointWriter writer;
    cache.SaveState(writer);
    fault::CheckpointReader reader(writer.Image());
    EXPECT_THROW(cache.LoadState(reader), fault::CheckpointError);
}

/** Run `fn`, expect a CheckpointError, and assert its message
 * contains every needle — the diagnostics contract: name the failing
 * section (by name and tag) and the byte offset, and keep truncation
 * distinguishable from corruption. */
template <typename Fn>
void ExpectErrorMentions(Fn&& fn,
                         std::initializer_list<std::string_view> needles)
{
    try {
        fn();
        ADD_FAILURE() << "expected a fault::CheckpointError";
    } catch (const fault::CheckpointError& error) {
        const std::string what = error.what();
        for (const std::string_view needle : needles) {
            EXPECT_NE(what.find(needle), std::string::npos)
                << "missing \"" << needle << "\" in: " << what;
        }
    }
}

TEST(CheckpointDiagnostics, MessagesNameSectionTagAndOffset)
{
    // Image layout: 16-byte header, 24-byte section frame (tag at
    // offset 16), 16 payload bytes at offset 40 — 56 bytes total.
    fault::CheckpointWriter writer;
    writer.BeginSection(fault::SectionTag::kTraceCache);
    writer.U64(1);
    writer.U64(2);
    writer.EndSection();
    const std::vector<std::uint8_t> image = writer.Image();
    ASSERT_EQ(image.size(), 56u);

    // Wrong tag: both sections named, with numbers, at the frame's
    // offset.
    ExpectErrorMentions(
        [&] {
            fault::CheckpointReader reader(image);
            reader.BeginSection(fault::SectionTag::kMiningCache);
        },
        {"tag mismatch", "'mining-cache' (tag 13)",
         "'trace-cache' (tag 5)", "byte offset 16"});

    // Truncated payload: the claimed length vs what remains, called
    // truncation (a crashed writer) — not a checksum mismatch.
    ExpectErrorMentions(
        [&] {
            const std::vector<std::uint8_t> cut(image.begin(),
                                                image.end() - 8);
            fault::CheckpointReader reader(cut);
            reader.BeginSection(fault::SectionTag::kTraceCache);
        },
        {"'trace-cache' (tag 5)", "truncated", "claims 16 bytes",
         "8 remain", "byte offset 40"});

    // A flipped payload bit: a checksum mismatch (bit rot), not a
    // truncation.
    ExpectErrorMentions(
        [&] {
            std::vector<std::uint8_t> corrupt = image;
            corrupt[55] ^= 0x01;
            fault::CheckpointReader reader(corrupt);
            reader.BeginSection(fault::SectionTag::kTraceCache);
        },
        {"'trace-cache' (tag 5)", "checksum mismatch",
         "16 payload bytes", "byte offset 40"});

    // Over-read: the section is named with both the read position and
    // the section end.
    ExpectErrorMentions(
        [&] {
            fault::CheckpointReader reader(image);
            reader.BeginSection(fault::SectionTag::kTraceCache);
            reader.U64();
            reader.U64();
            reader.U64();
        },
        {"past the end", "'trace-cache' (tag 5)", "byte offset 56",
         "ends at 56"});

    // Under-read: EndSection names the section and where the reader
    // stopped.
    ExpectErrorMentions(
        [&] {
            fault::CheckpointReader reader(image);
            reader.BeginSection(fault::SectionTag::kTraceCache);
            reader.U64();
            reader.EndSection();
        },
        {"not fully consumed", "'trace-cache' (tag 5)",
         "byte offset 48", "ends at 56"});
}

TEST(CheckpointDiagnostics, SectionNamesCoverEveryTag)
{
    for (std::uint64_t raw = 1; raw <= 14; ++raw) {
        if (raw == 9) {
            continue;  // retired with checkpoint version 1
        }
        EXPECT_NE(
            fault::SectionName(static_cast<fault::SectionTag>(raw)),
            "unknown")
            << "tag " << raw;
    }
    EXPECT_EQ(fault::SectionName(static_cast<fault::SectionTag>(9)),
              "unknown");
    EXPECT_EQ(fault::SectionName(static_cast<fault::SectionTag>(99)),
              "unknown");
}

TEST(CheckpointDiagnostics, VersionOneImagesAreRejected)
{
    // Version 1 images carried the retired per-finder mining ring; the
    // reader refuses them up front, naming the version.
    std::vector<std::uint8_t> image = SampleImage();
    const std::uint64_t version = 1;
    std::memcpy(image.data() + 8, &version, 8);
    ExpectErrorMentions([&] { fault::CheckpointReader reader(image); },
                        {"unsupported checkpoint version 1"});
}

// ---------------------------------------------------------------------------
// TraceFinder restore is atomic: a rejected image leaves it fresh.

/** A finder fed a noisy periodic stream, with completed jobs still
 * awaiting ingestion. */
void FeedFinder(core::TraceFinder& finder, std::uint64_t from,
                std::uint64_t to)
{
    for (std::uint64_t i = from; i < to; ++i) {
        finder.Observe(i % 37 == 0 ? 1000 + i : i % 12, i + 1);
        // Ingest all but the last few jobs, so some stay in flight.
        while (finder.PendingJobCount() > 3) {
            finder.WaitOldestJob();
            finder.ReleaseOldestJob();
        }
    }
}

std::vector<std::uint8_t> FinderImage(const core::TraceFinder& finder)
{
    fault::CheckpointWriter writer;
    finder.SaveState(writer);
    return writer.TakeImage();
}

TEST(FinderCheckpoint, RejectedImageLeavesFinderFreshForRetry)
{
    const core::ApopheniaConfig config = SmallConfig();
    support::InlineExecutor executor;
    core::TraceFinder original(config, executor);
    FeedFinder(original, 0, 1500);
    ASSERT_GT(original.PendingJobCount(), 0u);
    const std::vector<std::uint8_t> image = FinderImage(original);

    // The finder's own section comes first, then the history ring's:
    // cuts and flips in either must leave the target untouched.
    std::vector<std::vector<std::uint8_t>> bad;
    for (const std::size_t keep :
         {std::size_t{20}, image.size() / 3, image.size() / 2,
          image.size() - 9, image.size() - 1}) {
        bad.emplace_back(image.begin(),
                         image.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    for (const std::size_t at :
         {std::size_t{44}, image.size() / 3, image.size() / 2,
          image.size() - 9}) {
        bad.push_back(image);
        bad.back()[at] ^= 0x10;
    }
    core::TraceFinder target(config, executor);
    for (std::size_t i = 0; i < bad.size(); ++i) {
        SCOPED_TRACE("bad image " + std::to_string(i));
        EXPECT_THROW(
            {
                fault::CheckpointReader reader(bad[i]);
                target.LoadState(reader);
            },
            fault::CheckpointError);
        EXPECT_EQ(target.Stats().tokens_observed, 0u);
        EXPECT_EQ(target.Stats().jobs_launched, 0u);
        EXPECT_EQ(target.PendingJobCount(), 0u);
    }

    // The same finder then takes the valid image bit-identically...
    fault::CheckpointReader reader(image);
    target.LoadState(reader);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(FinderImage(target), image);

    // ...and mines the rest of the stream exactly as the original.
    FeedFinder(original, 1500, 3000);
    FeedFinder(target, 1500, 3000);
    ASSERT_EQ(target.PendingJobCount(), original.PendingJobCount());
    while (original.PendingJobCount() > 0) {
        const core::AnalysisJob& want = original.WaitOldestJob();
        const core::AnalysisJob& got = target.WaitOldestJob();
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.slice_length, want.slice_length);
        ASSERT_EQ(got.Results().size(), want.Results().size());
        for (std::size_t c = 0; c < want.Results().size(); ++c) {
            EXPECT_EQ(got.Results()[c].tokens, want.Results()[c].tokens);
            EXPECT_EQ(got.Results()[c].occurrences,
                      want.Results()[c].occurrences);
        }
        original.ReleaseOldestJob();
        target.ReleaseOldestJob();
    }
    EXPECT_EQ(target.Stats().candidates_produced,
              original.Stats().candidates_produced);
}

}  // namespace
}  // namespace apo
