/**
 * @file
 * Randomized differential testing of the whole front-end.
 *
 * A seeded generator builds random programs that combine everything at
 * once: nested loop structures with random bodies, dynamic region
 * allocation and destruction (allocator recycling), partitioned
 * regions with parent- and child-level accesses, reductions with
 * mixed operators, fills/copies, untraceable operations, and noise.
 * Each program runs through Apophenia and untraced; the forwarded
 * stream and the dependence graph must be identical, under several
 * Apophenia configurations, for every seed.
 *
 * This is the repository's broadest safety net: any replayer
 * bookkeeping bug (wrong flush order, stale pointer, bad template
 * boundary) shows up as a diff here long before it would be
 * diagnosable in an application.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include <unordered_map>

#include "core/apophenia.h"
#include "fault/checkpoint.h"
#include "mining_oracle.h"
#include "runtime/graph.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "support/executor.h"
#include "support/rng.h"
#include "svc/service.h"

namespace apo {
namespace {

/** A random but *deterministic per seed* program issuing structured,
 * partially repetitive task streams. */
class RandomProgram {
  public:
    explicit RandomProgram(std::uint64_t seed) : seed_(seed) {}

    /** Issue the program against a front-end-ish target (Apophenia or
     * the runtime itself through a thin adapter). */
    template <typename Target>
    void Run(Target& target)
    {
        support::Rng rng(seed_);
        // Long-lived regions plus a partitioned grid.
        std::vector<rt::RegionId> regions;
        for (int i = 0; i < 6; ++i) {
            regions.push_back(target.CreateRegion());
        }
        const rt::RegionId grid = target.CreateRegion();
        const auto shards = target.PartitionRegion(grid, 4);

        // Random loop nest: outer phases, each with its own body.
        const int phases = static_cast<int>(rng.UniformInt(1, 3));
        for (int phase = 0; phase < phases; ++phase) {
            const int body = static_cast<int>(rng.UniformInt(3, 12));
            const int iters = static_cast<int>(rng.UniformInt(10, 60));
            // A fixed random body for this phase (repetition!).
            support::Rng body_rng(seed_ * 131 + phase);
            std::vector<rt::TaskLaunch> body_tasks;
            for (int b = 0; b < body; ++b) {
                body_tasks.push_back(
                    RandomTask(body_rng, regions, shards, grid, phase));
            }
            for (int it = 0; it < iters; ++it) {
                for (const auto& t : body_tasks) {
                    target.ExecuteTask(t);
                }
                // Occasional irregularities.
                if (rng.Bernoulli(0.1)) {
                    target.ExecuteTask(
                        RandomTask(rng, regions, shards, grid, phase));
                }
                if (rng.Bernoulli(0.05)) {
                    rt::TaskLaunch io = RandomTask(rng, regions, shards,
                                                   grid, phase);
                    io.traceable = false;
                    target.ExecuteTask(io);
                }
                // Dynamic region churn: cuPyNumeric-style scratch.
                if (rng.Bernoulli(0.15)) {
                    const rt::RegionId scratch = target.CreateRegion();
                    target.ExecuteTask(rt::TaskLaunch{
                        777,
                        {{scratch, 0, rt::Privilege::kWriteDiscard, 0},
                         {regions[0], 0, rt::Privilege::kReadOnly, 0}}});
                    target.DestroyRegion(scratch);
                }
            }
        }
    }

  private:
    static rt::TaskLaunch RandomTask(
        support::Rng& rng, const std::vector<rt::RegionId>& regions,
        const std::vector<rt::RegionId>& shards, rt::RegionId grid,
        int phase)
    {
        rt::TaskLaunch t;
        t.task = rng.UniformInt(1, 30) + 1000ull * phase;
        const int reqs = static_cast<int>(rng.UniformInt(1, 3));
        for (int q = 0; q < reqs; ++q) {
            rt::RegionRequirement req;
            const auto pick = rng.UniformInt(0, 9);
            if (pick < 6) {
                req.region = regions[pick % regions.size()];
            } else if (pick < 9) {
                req.region = shards[pick - 6];
            } else {
                req.region = grid;  // parent-level access
            }
            req.field = static_cast<rt::FieldId>(rng.UniformInt(0, 1));
            req.privilege =
                static_cast<rt::Privilege>(rng.UniformInt(0, 3));
            req.redop = req.privilege == rt::Privilege::kReduce
                            ? static_cast<rt::ReductionOpId>(
                                  rng.UniformInt(1, 2))
                            : 0;
            t.requirements.push_back(req);
        }
        t.shard = static_cast<std::uint32_t>(rng.UniformInt(0, 3));
        if (rng.Bernoulli(0.3)) {
            // Occasionally a fill or copy instead of a task.
            return rng.Bernoulli(0.5)
                       ? rt::FillLaunch(t.requirements[0].region,
                                        t.requirements[0].field, t.shard)
                       : rt::CopyLaunch(
                             t.requirements[0].region,
                             t.requirements[0].field,
                             regions[rng.UniformInt(
                                 0, regions.size() - 1)],
                             0, t.shard);
        }
        return t;
    }

    std::uint64_t seed_;
};

/** Adapter so RandomProgram can also drive the bare runtime. */
class BareTarget {
  public:
    explicit BareTarget(rt::Runtime& rt) : rt_(&rt) {}
    rt::RegionId CreateRegion() { return rt_->CreateRegion(); }
    void DestroyRegion(rt::RegionId r) { rt_->DestroyRegion(r); }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId p,
                                              std::size_t n)
    {
        return rt_->PartitionRegion(p, n);
    }
    void ExecuteTask(const rt::TaskLaunch& t) { rt_->ExecuteTask(t); }

  private:
    rt::Runtime* rt_;
};

struct FuzzCase {
    std::uint64_t seed;
    std::size_t min_trace_length;
    std::size_t max_trace_length;
    std::size_t batchsize;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DifferentialFuzz, TracedEqualsUntraced)
{
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime traced_rt;
    core::Apophenia fe(traced_rt, config);
    RandomProgram(fuzz.seed).Run(fe);
    fe.Flush();

    rt::Runtime bare_rt;
    BareTarget bare(bare_rt);
    RandomProgram(fuzz.seed).Run(bare);

    ASSERT_EQ(traced_rt.Log().size(), bare_rt.Log().size());
    for (std::size_t i = 0; i < traced_rt.Log().size(); ++i) {
        ASSERT_EQ(traced_rt.Log()[i].token, bare_rt.Log()[i].token)
            << "stream diverged at op " << i << " (seed " << fuzz.seed
            << ")";
        ASSERT_EQ(traced_rt.Log()[i].dependences,
                  bare_rt.Log()[i].dependences)
            << "graph diverged at op " << i << " (seed " << fuzz.seed
            << ")";
    }
    // No mismatches may ever be raised by automatic tracing.
    EXPECT_EQ(traced_rt.Stats().trace_mismatches, 0u);
    // Untraceable operations never appear inside traces.
    for (const auto& op : traced_rt.Log()) {
        if (!op.launch.traceable) {
            ASSERT_EQ(op.trace, rt::kNoTrace);
        }
    }
}

TEST_P(DifferentialFuzz, PooledEagerDrainMatchesInlineDecisions)
{
    // The zero-copy pipeline's determinism contract: with eager-drain
    // ingestion, a pooled executor (jobs actually mined on background
    // worker threads) must reproduce the InlineExecutor's replay
    // decisions exactly — same analysis modes, same trace ids, at the
    // same stream positions.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime inline_rt;
    core::Apophenia inline_fe(inline_rt, config);
    RandomProgram(fuzz.seed).Run(inline_fe);
    inline_fe.Flush();

    core::ApopheniaConfig pooled_config = config;
    pooled_config.ingest_mode = core::IngestMode::kEagerDrain;
    rt::Runtime pooled_rt;
    support::PooledExecutor pool(3);
    core::Apophenia pooled_fe(pooled_rt, pooled_config, &pool);
    RandomProgram(fuzz.seed).Run(pooled_fe);
    pooled_fe.Flush();

    ASSERT_EQ(pooled_rt.Log().size(), inline_rt.Log().size());
    for (std::size_t i = 0; i < pooled_rt.Log().size(); ++i) {
        ASSERT_EQ(pooled_rt.Log()[i].token, inline_rt.Log()[i].token)
            << "stream diverged at op " << i << " (seed " << fuzz.seed
            << ")";
        ASSERT_EQ(pooled_rt.Log()[i].mode, inline_rt.Log()[i].mode)
            << "analysis mode diverged at op " << i << " (seed "
            << fuzz.seed << ")";
        ASSERT_EQ(pooled_rt.Log()[i].trace, inline_rt.Log()[i].trace)
            << "trace decision diverged at op " << i << " (seed "
            << fuzz.seed << ")";
        ASSERT_EQ(pooled_rt.Log()[i].dependences,
                  inline_rt.Log()[i].dependences)
            << "graph diverged at op " << i << " (seed " << fuzz.seed
            << ")";
    }
    EXPECT_EQ(pooled_fe.Stats().traces_fired,
              inline_fe.Stats().traces_fired);
    EXPECT_EQ(pooled_fe.Stats().jobs_ingested,
              inline_fe.Stats().jobs_ingested);
}

TEST(DifferentialFuzzPooled, OnCompletionIngestionIsStillSafe)
{
    // Throughput mode: with on-completion ingestion, *when* candidates
    // arrive depends on worker timing, so replay decisions are free to
    // differ from inline — but the forwarded stream and the dependence
    // graph must still match the untraced program exactly.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        core::ApopheniaConfig config;
        config.min_trace_length = 5;
        config.max_trace_length = 5000;
        config.batchsize = 800;
        config.multi_scale_factor = 50;

        rt::Runtime traced_rt;
        support::PooledExecutor pool(3);
        {
            core::Apophenia fe(traced_rt, config, &pool);
            RandomProgram(seed).Run(fe);
            fe.Flush();
        }

        rt::Runtime bare_rt;
        BareTarget bare(bare_rt);
        RandomProgram(seed).Run(bare);

        ASSERT_EQ(traced_rt.Log().size(), bare_rt.Log().size());
        for (std::size_t i = 0; i < traced_rt.Log().size(); ++i) {
            ASSERT_EQ(traced_rt.Log()[i].token, bare_rt.Log()[i].token)
                << "stream diverged at op " << i << " (seed " << seed
                << ")";
            ASSERT_EQ(traced_rt.Log()[i].dependences,
                      bare_rt.Log()[i].dependences)
                << "graph diverged at op " << i << " (seed " << seed
                << ")";
        }
        EXPECT_EQ(traced_rt.Stats().trace_mismatches, 0u);
    }
}

TEST_P(DifferentialFuzz, EveryMiningJobEqualsMineSlice)
{
    // The finder's mining contract over the whole fuzz corpus: every
    // job's candidate set — whichever tier of the incremental miner,
    // the shared cache or a namespaced tenant's canonical mining
    // served it — equals from-scratch MineSlice over the job's window.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime bare_rt;
    BareTarget bare(bare_rt);
    RandomProgram(fuzz.seed).Run(bare);
    std::vector<rt::TokenHash> stream;
    for (std::size_t i = 0; i < bare_rt.Log().size(); ++i) {
        stream.push_back(bare_rt.Log()[i].token);
    }

    const std::size_t anchor_every = 4 * config.batchsize + 1;
    const test::OracleTally plain = test::ExpectEveryJobMatchesMineSlice(
        stream, config, test::OracleSetup::kPlain, anchor_every);
    const test::OracleTally namespaced =
        test::ExpectEveryJobMatchesMineSlice(
            stream, config, test::OracleSetup::kNamespaced, anchor_every);
    const test::OracleTally shared = test::ExpectEveryJobMatchesMineSlice(
        stream, config, test::OracleSetup::kSharedCache, anchor_every);
    ASSERT_GT(plain.jobs, 0u);
    EXPECT_EQ(plain.fast_path + plain.repair + plain.full, plain.jobs);
    EXPECT_EQ(namespaced.full, plain.jobs);
    EXPECT_EQ(shared.jobs, 2 * plain.jobs);
    EXPECT_GE(shared.cache_hits, plain.jobs);
}

TEST_P(DifferentialFuzz, WindowedReductionMatchesRetained)
{
    // The streaming-aware windowed transitive reduction must produce
    // edge sets identical to the retained clone-and-reduce transform
    // on every corpus program — including programs with replayed
    // fragments, whose template-sourced edges are the interesting
    // input shape.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime traced_rt;
    core::Apophenia fe(traced_rt, config);
    RandomProgram(fuzz.seed).Run(fe);
    fe.Flush();

    for (const std::size_t window : {64u, 30000u}) {
        SCOPED_TRACE("window " + std::to_string(window));
        rt::OperationLog retained = traced_rt.Log().Clone();
        const std::size_t removed =
            rt::TransitiveReduction(retained, window);

        rt::WindowedTransitiveReducer reducer(window);
        std::vector<rt::Dependence> scratch;
        for (std::size_t i = 0; i < traced_rt.Log().size(); ++i) {
            scratch.assign(traced_rt.Log()[i].dependences.begin(),
                           traced_rt.Log()[i].dependences.end());
            reducer.Reduce(i, scratch);
            ASSERT_EQ(retained[i].dependences, scratch)
                << "reduced edges diverged at op " << i << " (seed "
                << fuzz.seed << ")";
        }
        EXPECT_EQ(reducer.RemovedEdges(), removed);
    }
}

// ---------------------------------------------------------------------------
// The multi-tenant service leg: an M-tenant *interleaved* service run
// must be bit-identical, per tenant, to M independent single-tenant
// runs — over the same random corpus every other differential check
// uses. RandomProgram issues in one shot, so the corpus programs are
// first recorded as virtual-region op lists and then replayed in
// round-robin chunks through the tenants' sessions.

/** One recorded front-end call, with virtual region ids. */
struct RecordedOp {
    enum class Kind { kCreate, kDestroy, kPartition, kTask };
    Kind kind = Kind::kTask;
    rt::RegionId region;  ///< kCreate result / kDestroy / kPartition parent
    std::size_t count = 0;               ///< kPartition
    std::vector<rt::RegionId> results;   ///< kPartition virtual children
    rt::TaskLaunch launch;               ///< kTask (virtual region ids)
};

/** A RandomProgram target that records instead of executing. */
class RecordingTarget {
  public:
    rt::RegionId CreateRegion()
    {
        const rt::RegionId id{next_++};
        RecordedOp op;
        op.kind = RecordedOp::Kind::kCreate;
        op.region = id;
        ops_.push_back(std::move(op));
        return id;
    }

    void DestroyRegion(rt::RegionId r)
    {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kDestroy;
        op.region = r;
        ops_.push_back(std::move(op));
    }

    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t n)
    {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kPartition;
        op.region = parent;
        op.count = n;
        for (std::size_t i = 0; i < n; ++i) {
            op.results.push_back(rt::RegionId{next_++});
        }
        ops_.push_back(std::move(op));
        return ops_.back().results;
    }

    void ExecuteTask(const rt::TaskLaunch& t)
    {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kTask;
        op.launch = t;
        ops_.push_back(std::move(op));
    }

    std::vector<RecordedOp> Take() { return std::move(ops_); }

  private:
    std::vector<RecordedOp> ops_;
    std::uint64_t next_ = 1;
};

/** Replays a recorded op list against a front end one op at a time,
 * mapping virtual region ids to the target's real ones. */
class OpReplayer {
  public:
    OpReplayer(api::Frontend& fe, const std::vector<RecordedOp>& ops)
        : fe_(&fe), ops_(&ops)
    {
    }

    bool Done() const { return at_ >= ops_->size(); }
    std::size_t Position() const { return at_; }

    /** Point subsequent Steps at another front end. The virtual→real
     * region map carries over: a restored front end's deterministic
     * allocator reproduces the same real ids the crashed one held. */
    void Rebind(api::Frontend& fe) { fe_ = &fe; }

    void Step()
    {
        const RecordedOp& op = (*ops_)[at_++];
        switch (op.kind) {
          case RecordedOp::Kind::kCreate:
            map_[op.region.value] = fe_->CreateRegion();
            break;
          case RecordedOp::Kind::kDestroy:
            fe_->DestroyRegion(map_.at(op.region.value));
            map_.erase(op.region.value);
            break;
          case RecordedOp::Kind::kPartition: {
            const std::vector<rt::RegionId> real =
                fe_->PartitionRegion(map_.at(op.region.value), op.count);
            for (std::size_t i = 0; i < op.results.size(); ++i) {
                map_[op.results[i].value] = real[i];
            }
            break;
          }
          case RecordedOp::Kind::kTask: {
            rt::TaskLaunch launch = op.launch;
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
    const std::vector<RecordedOp>* ops_;
    std::size_t at_ = 0;
    std::unordered_map<std::uint64_t, rt::RegionId> map_;
};

TEST_P(DifferentialFuzz, MultiTenantServiceEqualsIndependentRuns)
{
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    // Three tenants; tenants 0 and 2 run the *same* program under
    // different namespaces, so the shared mining cache's cross-tenant
    // adoption path is active during the differential check.
    const std::uint64_t seeds[3] = {fuzz.seed, fuzz.seed + 100,
                                    fuzz.seed};
    std::vector<std::vector<RecordedOp>> programs;
    for (const std::uint64_t seed : seeds) {
        RecordingTarget recorder;
        RandomProgram(seed).Run(recorder);
        programs.push_back(recorder.Take());
    }

    svc::ServiceOptions service_options;
    service_options.config = config;
    svc::TraceService service(service_options);
    for (std::size_t t = 0; t < programs.size(); ++t) {
        svc::TenantOptions tenant;
        tenant.name = "fuzz" + std::to_string(t);
        service.AddTenant(tenant);
    }
    {
        std::vector<OpReplayer> replayers;
        for (std::size_t t = 0; t < programs.size(); ++t) {
            replayers.emplace_back(service.Session(t), programs[t]);
        }
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t t = 0; t < replayers.size(); ++t) {
                const bool was_done = replayers[t].Done();
                for (int k = 0; k < 7 && !replayers[t].Done(); ++k) {
                    replayers[t].Step();
                    progress = true;
                }
                if (!was_done && replayers[t].Done()) {
                    service.Session(t).Flush();
                }
            }
        }
    }

    for (std::size_t t = 0; t < programs.size(); ++t) {
        SCOPED_TRACE("tenant " + std::to_string(t) + " (seed " +
                     std::to_string(seeds[t]) + ")");
        // The independent reference: a single-tenant service pinned to
        // the same namespace, running the same program alone.
        svc::TraceService solo(service_options);
        svc::TenantOptions tenant;
        tenant.name = "solo";
        tenant.name_space = service.TenantNamespace(t);
        solo.AddTenant(tenant);
        OpReplayer replayer(solo.Session(0), programs[t]);
        while (!replayer.Done()) {
            replayer.Step();
        }
        solo.Session(0).Flush();

        const rt::OperationLog& interleaved = service.TenantRuntime(t).Log();
        const rt::OperationLog& alone = solo.TenantRuntime(0).Log();
        ASSERT_EQ(interleaved.size(), alone.size());
        for (std::size_t i = 0; i < interleaved.size(); ++i) {
            ASSERT_EQ(interleaved[i].token, alone[i].token)
                << "stream diverged at op " << i;
            ASSERT_EQ(interleaved[i].mode, alone[i].mode)
                << "analysis mode diverged at op " << i;
            ASSERT_EQ(interleaved[i].trace, alone[i].trace)
                << "trace decision diverged at op " << i;
            ASSERT_EQ(interleaved[i].dependences, alone[i].dependences)
                << "graph diverged at op " << i;
        }
        // The finders mined/adopted identical candidate sets — shared-
        // cache adoption in the interleaved run is bit-identical to
        // mining alone.
        EXPECT_EQ(service.TenantEngine(t).CandidateDigest(),
                  solo.TenantEngine(0).CandidateDigest());
        EXPECT_EQ(service.TenantEngine(t).Stats().traces_fired,
                  solo.TenantEngine(0).Stats().traces_fired);
        EXPECT_EQ(service.TenantEngine(t).Stats().jobs_ingested,
                  solo.TenantEngine(0).Stats().jobs_ingested);
    }
}

TEST_P(DifferentialFuzz, CheckpointRestartAtRandomCutIsBitIdentical)
{
    // The fault:: round-trip property over the whole differential
    // corpus: crash the front end at a seeded random cut point,
    // checkpoint, restore onto a fresh runtime + Apophenia, finish
    // the program — tokens, modes, trace ids, dependence edges and
    // the candidate digest must equal the uninterrupted run's.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    RecordingTarget recorder;
    RandomProgram(fuzz.seed).Run(recorder);
    const std::vector<RecordedOp> program = recorder.Take();
    ASSERT_GT(program.size(), 8u);

    // Uninterrupted reference run.
    rt::Runtime ref_rt;
    core::Apophenia ref_fe(ref_rt, config);
    {
        OpReplayer replayer(ref_fe, program);
        while (!replayer.Done()) {
            replayer.Step();
        }
        ref_fe.Flush();
    }
    const sim::StreamDigest want = sim::StreamDigest::Of(ref_rt.Log());

    // Crash run: a seeded random cut, advanced to the next quiescent
    // point (Runtime::SaveState is illegal mid-trace).
    support::Rng cut_rng(fuzz.seed * 9176 + 11);
    const std::size_t cut = static_cast<std::size_t>(cut_rng.UniformInt(
        program.size() / 4, (3 * program.size()) / 4));
    auto crashed_rt = std::make_unique<rt::Runtime>();
    auto crashed_fe =
        std::make_unique<core::Apophenia>(*crashed_rt, config);
    OpReplayer replayer(*crashed_fe, program);
    while (replayer.Position() < cut) {
        replayer.Step();
    }
    while (!crashed_rt->Quiescent() && !replayer.Done()) {
        replayer.Step();
    }
    ASSERT_TRUE(crashed_rt->Quiescent());

    fault::CheckpointWriter writer;
    crashed_rt->SaveState(writer);
    crashed_fe->SaveState(writer);
    const std::vector<std::uint8_t> image = writer.TakeImage();
    const std::size_t cut_ops = crashed_rt->Log().size();
    sim::StreamDigest digest = sim::StreamDigest::Of(crashed_rt->Log());
    crashed_fe.reset();
    crashed_rt.reset();

    // Restore and finish.
    rt::Runtime restored_rt;
    core::Apophenia restored_fe(restored_rt, config);
    fault::CheckpointReader reader(image);
    restored_rt.LoadState(reader);
    restored_fe.LoadState(reader);
    EXPECT_TRUE(reader.AtEnd());
    replayer.Rebind(restored_fe);
    while (!replayer.Done()) {
        replayer.Step();
    }
    restored_fe.Flush();

    ASSERT_EQ(restored_rt.Log().size(), ref_rt.Log().size());
    for (std::size_t i = cut_ops; i < restored_rt.Log().size(); ++i) {
        ASSERT_EQ(restored_rt.Log()[i].token, ref_rt.Log()[i].token)
            << "stream diverged at op " << i << " (seed " << fuzz.seed
            << ", cut " << cut_ops << ")";
        ASSERT_EQ(restored_rt.Log()[i].mode, ref_rt.Log()[i].mode)
            << "analysis mode diverged at op " << i;
        ASSERT_EQ(restored_rt.Log()[i].trace, ref_rt.Log()[i].trace)
            << "trace decision diverged at op " << i;
        ASSERT_EQ(restored_rt.Log()[i].dependences,
                  ref_rt.Log()[i].dependences)
            << "graph diverged at op " << i;
    }
    for (std::size_t at = cut_ops; at < restored_rt.Log().size(); ++at) {
        digest.Consume(restored_rt.Log()[at]);
    }
    EXPECT_EQ(digest.Value(), want.Value());
    EXPECT_EQ(digest.Count(), want.Count());
    EXPECT_EQ(restored_fe.CandidateDigest(), ref_fe.CandidateDigest());
    EXPECT_EQ(restored_rt.Stats().trace_mismatches, 0u);
}

std::vector<FuzzCase> MakeCases()
{
    std::vector<FuzzCase> cases;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        cases.push_back(FuzzCase{seed, 5, 5000, 800});
    }
    // Stressier configurations on a few seeds.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cases.push_back(FuzzCase{seed, 2, 7, 200});     // tiny traces
        cases.push_back(FuzzCase{seed, 30, 5000, 300}); // long min
        cases.push_back(FuzzCase{seed, 5, 5000, 64});   // tiny buffer
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace apo
