#include "sim/harness.h"

#include <algorithm>
#include <memory>
#include <span>

#include "runtime/errors.h"

namespace apo::sim {

std::string_view
ModeName(TracingMode mode)
{
    switch (mode) {
      case TracingMode::kUntraced:
        return "untraced";
      case TracingMode::kManual:
        return "manual";
      case TracingMode::kAuto:
        return "auto";
    }
    return "?";
}

namespace {

/** The harness-owned front end plus everything behind it. */
struct FrontendStack {
    std::unique_ptr<rt::Runtime> runtime;  ///< single-runtime modes
    std::unique_ptr<support::PooledExecutor> pool;
    std::unique_ptr<core::Apophenia> apophenia;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<api::Frontend> wrapper;  ///< direct/untraced
    api::Frontend* front = nullptr;
};

FrontendStack
BuildFrontend(const ExperimentOptions& options)
{
    FrontendStack stack;
    rt::RuntimeOptions runtime_options;
    runtime_options.costs = options.costs;
    runtime_options.nodes = options.machine.nodes;
    runtime_options.mismatch_policy = options.mismatch_policy;
    runtime_options.max_trace_templates = options.max_trace_templates;
    runtime_options.log_config = options.log_config;

    if (options.replicas > 1) {
        if (options.mode == TracingMode::kManual) {
            throw rt::RuntimeUsageError(
                "RunExperiment: TracingMode::kManual is incompatible "
                "with ExperimentOptions::replicas > 1 — the replicated "
                "cluster front end drops manual trace annotations; use "
                "TracingMode::kAuto or TracingMode::kUntraced");
        }
        ClusterOptions cluster_options;
        cluster_options.coordination = options.replication;
        cluster_options.coordination.nodes = options.replicas;
        cluster_options.skew = options.skew;
        cluster_options.config = options.auto_config;
        cluster_options.config.enabled =
            options.mode == TracingMode::kAuto;
        cluster_options.runtime_options = runtime_options;
        cluster_options.stream_logs =
            options.log_mode == LogMode::kStreaming;
        cluster_options.jobs = options.cluster_jobs;
        cluster_options.share_mining_cache = options.share_mining_cache;
        stack.cluster = std::make_unique<Cluster>(cluster_options);
        stack.front = stack.cluster.get();
        return stack;
    }

    stack.runtime = std::make_unique<rt::Runtime>(runtime_options);
    switch (options.mode) {
      case TracingMode::kUntraced:
        stack.wrapper =
            std::make_unique<api::UntracedFrontend>(*stack.runtime);
        stack.front = stack.wrapper.get();
        break;
      case TracingMode::kManual:
        stack.wrapper =
            std::make_unique<api::DirectFrontend>(*stack.runtime);
        stack.front = stack.wrapper.get();
        break;
      case TracingMode::kAuto:
        if (options.executor_mode == ExecutorMode::kPooled) {
            stack.pool = std::make_unique<support::PooledExecutor>(
                options.pool_threads);
        }
        stack.apophenia = std::make_unique<core::Apophenia>(
            *stack.runtime, options.auto_config, stack.pool.get());
        stack.front = stack.apophenia.get();
        break;
    }
    return stack;
}

}  // namespace

LogObserver::LogObserver(LogMode mode, const apps::MachineConfig& machine,
                         const rt::CostModel& costs,
                         const core::ApopheniaConfig& config,
                         bool apophenia_front_end, const SkewModel& skew)
    : streaming_(mode == LogMode::kStreaming)
{
    pipeline_.machine = machine;
    pipeline_.costs = costs;
    pipeline_.apophenia_front_end = apophenia_front_end;
    pipeline_.window = config.window;
    pipeline_.inline_transitive_reduction =
        config.inline_transitive_reduction;
    // The skew that perturbs a cluster's coordination timing stretches
    // the simulated makespan too (kNone = exactly 1.0 factors).
    pipeline_.skew = skew;
    if (!streaming_) {
        return;
    }
    if (config.inline_transitive_reduction) {
        if (config.window == 0) {
            throw rt::RuntimeUsageError(
                "LogObserver: the inline transitive reduction over a "
                "streaming log needs a bounded window (-lg:window > 0); "
                "an unbounded reduction is a whole-log transform");
        }
        // The retained-path log transform streams through the windowed
        // reducer instead: same edges, O(window) resident state.
        reducer_.emplace(config.window);
    }
    PipelineOptions sim_options = pipeline_;
    sim_options.inline_transitive_reduction = false;
    sim_.emplace(sim_options);
}

void
LogObserver::Attach(rt::Runtime& runtime)
{
    runtime_ = &runtime;
    if (streaming_) {
        runtime.EnableLogStreaming(
            [this](const rt::OpView& op) { Consume(op); });
    }
}

void
LogObserver::Attach(Cluster& cluster)
{
    cluster_ = &cluster;
    if (streaming_) {
        cluster.AddLogConsumer(
            0, [this](const rt::OpView& op) { Consume(op); });
    }
}

void
LogObserver::Consume(const rt::OpView& op)
{
    traced_.Consume(op);
    if (cluster_ == nullptr) {
        // A cluster digests node 0 itself (Finish reads NodeDigest).
        digest_.Consume(op);
    }
    if (!reducer_) {
        sim_->Consume(op);
        return;
    }
    reduce_scratch_.assign(op.dependences.begin(), op.dependences.end());
    reducer_->Reduce(op.index, reduce_scratch_);
    rt::OpView reduced = op;
    reduced.dependences = rt::DependenceSpan(
        std::span<const rt::Dependence>(reduce_scratch_));
    sim_->Consume(reduced);
}

ObservedLog
LogObserver::Finish()
{
    const rt::OperationLog& log = cluster_ != nullptr
                                      ? cluster_->NodeRuntime(0).Log()
                                      : runtime_->Log();
    ObservedLog observed;
    if (streaming_) {
        if (cluster_ != nullptr) {
            cluster_->DrainLogStreams();
        } else {
            runtime_->DrainLogStream();
        }
        observed.sim = sim_->Finish();
        observed.traced = std::move(traced_);
    } else {
        observed.sim = SimulatePipeline(log, pipeline_);
        observed.traced = TracedFlags::Of(log);
    }
    // A replicated run's identity is the cluster's own node-0 digest.
    observed.digest = cluster_ != nullptr ? cluster_->NodeDigest(0)
                      : streaming_        ? digest_
                                          : StreamDigest::Of(log);
    return observed;
}

ExperimentResult
Summarize(const ObservedLog& observed,
          const std::vector<std::size_t>& boundaries,
          const rt::Runtime& runtime, const api::FrontendStats& frontend,
          const core::Apophenia* engine, const Cluster* cluster)
{
    ExperimentResult result;
    result.iterations_per_second =
        SteadyThroughput(IterationEndTimes(observed.sim, boundaries));
    result.makespan_us = observed.sim.makespan_us;
    result.warmup_iterations = WarmupIterations(observed.traced, boundaries);
    result.total_tasks = runtime.Log().size();
    result.runtime_stats = runtime.Stats();
    result.replayed_fraction = runtime.Stats().ReplayedFraction();
    result.trace_cache_evictions = runtime.Stats().traces_evicted;
    result.frontend_stats = frontend;
    result.log_peak_resident_bytes = runtime.Log().PeakResidentBytes();
    result.log_retired_ops = runtime.Log().RetiredCount();
    result.stream_digest = observed.digest.Value();
    result.stream_digest_ops = observed.digest.Count();
    const bool per_node = cluster != nullptr && !cluster->SharedDecisions();
    auto add_finder_stats = [&result](const core::FinderStats& finder) {
        result.mining_fast_path_hits += finder.mining_fast_path_hits;
        result.mining_repairs += finder.mining_repairs;
        result.mining_full += finder.mining_full;
        result.mining_cache_hits += finder.mining_cache_hits;
        result.mining_cache_cross_hits += finder.mining_cache_cross_hits;
    };
    if (engine != nullptr) {
        result.apophenia_stats = engine->Stats();
        result.candidate_digest = engine->CandidateDigest();
        if (!per_node) {
            add_finder_stats(engine->Finder());
        }
    }
    if (cluster == nullptr) {
        return result;
    }
    result.streams_identical = cluster->StreamDigestsAgree();
    result.coordination = cluster->Coordination();
    result.node_metrics = cluster->PerNode();
    for (std::size_t n = 0; n < cluster->Nodes(); ++n) {
        result.log_peak_resident_bytes = std::max(
            result.log_peak_resident_bytes,
            cluster->NodeRuntime(n).Log().PeakResidentBytes());
        if (engine != nullptr && per_node) {
            add_finder_stats(cluster->Node(n).Finder());
        }
    }
    const core::MiningCache::Stats cache = cluster->MiningCacheStats();
    result.mining_cache_misses = cache.misses;
    result.mining_cache_windows = cache.windows;
    result.mining_cache_evictions = cache.evictions;
    const DecisionStats decisions = cluster->DecisionCost();
    result.shared_decisions = decisions.shared;
    result.decision_ns = decisions.decision_ns;
    result.decision_apply_ns = decisions.apply_ns;
    result.decision_batches = decisions.batches;
    result.decisions_broadcast = decisions.decisions;
    result.decision_fallbacks = decisions.fallbacks;
    return result;
}

ExperimentResult
RunExperiment(apps::Application& app, const ExperimentOptions& options)
{
    LogObserver observer(options.log_mode, options.machine, options.costs,
                         options.auto_config,
                         options.mode == TracingMode::kAuto, options.skew);
    FrontendStack stack = BuildFrontend(options);
    api::Frontend& front = *stack.front;
    if (stack.cluster != nullptr) {
        observer.Attach(*stack.cluster);
    } else {
        observer.Attach(*stack.runtime);
    }

    // Iteration boundaries are measured on the issued stream (the
    // uniform frontend counter), which Apophenia forwards verbatim.
    app.Setup(front);
    std::vector<std::size_t> boundaries;
    boundaries.reserve(options.iterations);
    const bool manual = options.mode == TracingMode::kManual;
    for (std::size_t iter = 0; iter < options.iterations; ++iter) {
        app.Iteration(front, iter, manual);
        boundaries.push_back(
            static_cast<std::size_t>(front.Stats().tasks_executed));
    }
    front.Flush();

    // Replicated, node 0's log and the deciding engine describe the
    // run (the stream agreement makes them representative).
    const Cluster* cluster = stack.cluster.get();
    const core::Apophenia* engine = stack.apophenia.get();
    if (cluster != nullptr && options.mode == TracingMode::kAuto) {
        engine = &cluster->Engine();
    }
    const ObservedLog observed = observer.Finish();
    ExperimentResult result = Summarize(
        observed, boundaries,
        cluster != nullptr ? cluster->NodeRuntime(0) : *stack.runtime,
        front.Stats(), engine, cluster);
    if (options.keep_coverage_series) {
        result.coverage_series = TracedCoverageSeries(
            observed.traced, options.coverage_window,
            options.coverage_stride);
    }
    return result;
}

}  // namespace apo::sim
