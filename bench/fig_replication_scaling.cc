/**
 * @file
 * Replication scaling sweep: node counts {2, 8, 64} under every skew
 * model, streaming logs throughout — the experiment the paper's
 * section 5.1 stops short of. For each (nodes, skew) cell the sweep
 * reports simulated steady-state throughput, wall-clock, the
 * agreed-slack trajectory endpoints, agreement misses, the worst
 * per-node stall and the worst node's resident-log high water
 * (bounded by the streaming-retire mode no matter the node count).
 *
 * A second sweep ("cluster_parallel") measures the execution engine
 * itself at 8 no-skew nodes: the serial PR-4 configuration (jobs = 1,
 * no shared mining cache) against the parallel engine with the
 * content-addressed mining cache at jobs ∈ {1, 4, hardware}. Every
 * configuration is verified to produce identical results — the rows
 * differ in wall-clock and cache hit rate only. The sweep pins
 * per-node decision engines (the thing it measures); one appended
 * shared-decision row cross-checks bit-identity against them.
 *
 * A third sweep ("decision_cost") is the shared-decision-engine
 * acceptance cell: for N ∈ {2, 8, 64, 256} no-skew nodes it times the
 * decision path in both modes — the shared core::DecisionEngine's
 * decider nanoseconds stay ~flat in N (the whole cluster decides each
 * task once) while the per-node-engine baseline's summed engine
 * nanoseconds grow ~linearly — and verifies the two modes produce
 * bit-identical streams, digests and coordination at every N.
 *
 * The results merge into BENCH_micro_repeats.json (next to the
 * finder/issue-path/oplog records) under the "replication_scaling",
 * "cluster_parallel" and "decision_cost" keys, so successive PRs keep
 * a scaling trajectory. Run micro_repeats first; this bench preserves
 * whatever else is in the file.
 *
 * Usage:
 *   fig_replication_scaling                    # tables + JSON merge
 *   fig_replication_scaling --json=PATH        # merge target
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/s3d.h"
#include "bench_util.h"
#include "sim/cluster.h"
#include "sim/harness.h"

namespace {

using namespace apo;

struct Row {
    std::size_t nodes = 0;
    sim::SkewKind skew = sim::SkewKind::kNone;
    sim::ExperimentResult result;
    double max_stall_tasks = 0.0;
    double wall_ms = 0.0;
    /** Cluster-wide decision nanoseconds per issued task (the shared
     * decider's under shared decisions — ~flat in the node count). */
    double decision_ns_per_task = 0.0;
};

/** DecisionStats::decision_ns normalized by the issued-stream length:
 * the cluster-wide cost of *deciding* each task (shared mode: the one
 * decider; per-node mode: every node's engine summed). */
double DecisionNsPerTask(const sim::ExperimentResult& result)
{
    const double tasks =
        static_cast<double>(result.frontend_stats.tasks_executed);
    return tasks > 0.0
               ? static_cast<double>(result.decision_ns) / tasks
               : 0.0;
}

double MillisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

sim::SkewModel SkewOf(sim::SkewKind kind)
{
    sim::SkewModel skew;
    skew.kind = kind;
    skew.jitter_amplitude = 0.3;
    skew.straggler_node = 0;
    skew.straggler_factor = 4.0;
    skew.burst_period_tasks = 1024;
    skew.burst_duration_tasks = 256;
    skew.burst_factor = 8.0;
    skew.burst_stagger_tasks = 128;
    return skew;
}

Row RunCell(std::size_t nodes, sim::SkewKind kind)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = 40;
    options.machine.nodes = 2;
    options.machine.gpus_per_node = 2;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 1500;
    options.auto_config.multi_scale_factor = 100;
    options.replicas = nodes;
    options.replication.seed = 7;
    options.replication.mean_latency_tasks = 120.0;
    options.replication.jitter = 0.6;
    options.skew = SkewOf(kind);
    options.log_mode = sim::LogMode::kStreaming;

    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    Row row;
    row.nodes = nodes;
    row.skew = kind;
    const auto start = std::chrono::steady_clock::now();
    row.result = sim::RunExperiment(app, options);
    row.wall_ms = MillisSince(start);
    row.decision_ns_per_task = DecisionNsPerTask(row.result);
    for (const sim::NodeMetrics& node : row.result.node_metrics) {
        row.max_stall_tasks =
            std::max(row.max_stall_tasks, node.max_stall_tasks);
    }
    return row;
}

std::string SectionOf(const std::vector<Row>& rows)
{
    std::ostringstream json;
    json << "{\n"
         << "    \"bench\": \"fig_replication_scaling\",\n"
         << "    \"app\": \"s3d\", \"iterations\": 40, "
         << "\"log_mode\": \"streaming\",\n"
         << "    " << bench::ConcurrencyJson() << ",\n"
         << "    \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        char buffer[640];
        // Full-precision rate plus the measured wall-clock: the
        // simulated throughput is (intentionally) nearly flat across
        // node counts, so the node-count cost lives in wall_ms.
        std::snprintf(
            buffer, sizeof buffer,
            "      {\"nodes\": %zu, \"skew\": \"%.*s\", "
            "\"iterations_per_second\": %.6f, "
            "\"wall_ms\": %.3f, "
            "\"final_slack\": %llu, \"peak_slack\": %llu, "
            "\"late_jobs\": %llu, \"jobs_coordinated\": %llu, "
            "\"max_stall_tasks\": %.0f, "
            "\"worst_node_log_peak_bytes\": %zu, "
            "\"decision_ns_per_task\": %.1f, "
            "\"streams_identical\": %s}%s\n",
            row.nodes,
            static_cast<int>(sim::SkewName(row.skew).size()),
            sim::SkewName(row.skew).data(),
            row.result.iterations_per_second, row.wall_ms,
            static_cast<unsigned long long>(
                row.result.coordination.final_slack),
            static_cast<unsigned long long>(
                row.result.coordination.peak_slack),
            static_cast<unsigned long long>(
                row.result.coordination.late_jobs),
            static_cast<unsigned long long>(
                row.result.coordination.jobs_coordinated),
            row.max_stall_tasks, row.result.log_peak_resident_bytes,
            row.decision_ns_per_task,
            row.result.streams_identical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
        json << buffer;
    }
    json << "    ]\n  }";
    return json.str();
}

// -- The execution-engine sweep (the "cluster_parallel" record) -------------

constexpr std::size_t kEngineNodes = 8;
constexpr std::size_t kEngineIterations = 50;
/** Wall-clock is min-of-N: robust against co-tenant noise. */
constexpr int kEngineRepeats = 3;

struct EngineRow {
    std::size_t jobs = 0;
    bool cache = false;
    bool shared = false;  ///< shared decision engine (cross-check row)
    double wall_ms = 0.0;
    sim::ExperimentResult result;
};

EngineRow RunEngineCell(std::size_t jobs, bool cache, bool shared = false)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = kEngineIterations;
    // A mining-dominated cell — the cost the engine deduplicates and
    // parallelizes is the asynchronous mining, so the cell is shaped
    // after the issue's premise that mining dominates a replicated
    // run: a Perlmutter-node-sized machine (the ~264-task iteration
    // body gives the 8000-token windows a highly repetitive stream),
    // a long min_trace_length to keep the per-node trie lean, and the
    // tandem-repeat miner, whose window cost makes the N-fold mining
    // redundancy ~90% of serial wall-clock. The configuration is
    // recorded in the JSON so the speedup is never read out of
    // context.
    options.machine.nodes = 4;
    options.machine.gpus_per_node = 4;
    options.auto_config.min_trace_length = 100;
    options.auto_config.batchsize = 8000;
    options.auto_config.multi_scale_factor = 50;
    options.auto_config.repeats_algorithm =
        core::RepeatsAlgorithm::kTandem;
    options.replicas = kEngineNodes;
    options.replication.seed = 7;
    options.replication.mean_latency_tasks = 120.0;
    options.replication.jitter = 0.6;
    options.log_mode = sim::LogMode::kStreaming;
    options.cluster_jobs = jobs;
    options.share_mining_cache = cache;
    // This sweep measures the *per-node* engine fan-out, so the rows
    // pin per-node decisions; the one shared = true row cross-checks
    // the shared decision engine's bit-identity against them.
    options.auto_config.shared_decisions = shared;

    EngineRow row;
    row.jobs = jobs;
    row.cache = cache;
    row.shared = shared;
    row.wall_ms = 1e300;
    for (int rep = 0; rep < kEngineRepeats; ++rep) {
        apps::S3dApplication app(
            apps::S3dOptions{.machine = options.machine});
        const auto start = std::chrono::steady_clock::now();
        row.result = sim::RunExperiment(app, options);
        row.wall_ms = std::min(row.wall_ms, MillisSince(start));
    }
    return row;
}

/** Every engine configuration must produce the very same experiment —
 * the rows may differ in wall-clock and cache counters only. The
 * stream digest is the load-bearing check: it certifies the issued
 * streams themselves, not just coordination-level counters. */
bool EngineRowsAgree(const std::vector<EngineRow>& rows)
{
    const sim::ExperimentResult& reference = rows.front().result;
    for (const EngineRow& row : rows) {
        const sim::ExperimentResult& r = row.result;
        if (!r.streams_identical ||
            r.stream_digest != reference.stream_digest ||
            r.stream_digest_ops != reference.stream_digest_ops ||
            r.iterations_per_second != reference.iterations_per_second ||
            r.makespan_us != reference.makespan_us ||
            r.total_tasks != reference.total_tasks ||
            r.coordination.final_slack !=
                reference.coordination.final_slack ||
            r.coordination.late_jobs != reference.coordination.late_jobs) {
            std::fprintf(stderr,
                         "engine divergence at jobs=%zu cache=%d — the "
                         "parallel engine is not result-identical\n",
                         row.jobs, row.cache ? 1 : 0);
            return false;
        }
    }
    return true;
}

double HitRate(const sim::ExperimentResult& r)
{
    const double total = static_cast<double>(r.mining_cache_hits +
                                             r.mining_cache_misses);
    return total > 0.0
               ? static_cast<double>(r.mining_cache_hits) / total
               : 0.0;
}

/** Of the probes left after each window's one unavoidable first miss,
 * the fraction served from the cache (1.0 == "each window mined once,
 * every other node adopted"). */
double HitRateAfterFirstMiner(const sim::ExperimentResult& r)
{
    const double repeat_probes = static_cast<double>(
        r.mining_cache_hits +
        (r.mining_cache_misses - r.mining_cache_windows));
    return repeat_probes > 0.0
               ? static_cast<double>(r.mining_cache_hits) / repeat_probes
               : 0.0;
}

std::string EngineSectionOf(const std::vector<EngineRow>& rows,
                            double speedup_jobs4, double speedup_hw,
                            double speedup_jobs4_vs_cached)
{
    std::ostringstream json;
    char buffer[768];
    // speedup_*_vs_serial measures the whole engine (cache + fan-out)
    // against the PR-4 schedule; speedup_jobs4_vs_jobs1_cached
    // isolates the thread fan-out alone — on a single-core host it is
    // <= 1 and the vs-serial gain is entirely the mining cache's, so
    // both are recorded (with the host's hardware_concurrency) to
    // keep the attribution readable.
    std::snprintf(
        buffer, sizeof buffer,
        "{\n"
        "    \"bench\": \"fig_replication_scaling/cluster_parallel\",\n"
        "    \"app\": \"s3d\", \"nodes\": %zu, \"skew\": \"none\", "
        "\"log_mode\": \"streaming\", \"iterations\": %zu,\n"
        "    \"config\": {\"machine\": \"4x4\", \"batchsize\": 8000, "
        "\"multi_scale_factor\": 50, \"min_trace_length\": 100, "
        "\"repeats_algorithm\": \"tandem\"},\n"
        "    \"serial_baseline\": \"jobs=1, no mining cache\",\n"
        "    %s,\n"
        "    \"speedup_jobs4_vs_serial\": %.3f,\n"
        "    \"speedup_hw_vs_serial\": %.3f,\n"
        "    \"speedup_jobs4_vs_jobs1_cached\": %.3f,\n"
        "    \"rows\": [\n",
        kEngineNodes, kEngineIterations,
        bench::ConcurrencyJson().c_str(), speedup_jobs4, speedup_hw,
        speedup_jobs4_vs_cached);
    json << buffer;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const EngineRow& row = rows[i];
        std::snprintf(
            buffer, sizeof buffer,
            "      {\"jobs\": %zu, \"mining_cache\": %s, "
            "\"shared_decisions\": %s, "
            "\"wall_ms\": %.3f, "
            "\"cache_hits\": %llu, \"cache_misses\": %llu, "
            "\"cache_windows\": %zu, "
            "\"hit_rate\": %.4f, \"hit_rate_after_first_miner\": %.4f, "
            "\"streams_identical\": %s, "
            "\"stream_digest\": %llu}%s\n",
            row.jobs, row.cache ? "true" : "false",
            row.shared ? "true" : "false", row.wall_ms,
            static_cast<unsigned long long>(
                row.result.mining_cache_hits),
            static_cast<unsigned long long>(
                row.result.mining_cache_misses),
            row.result.mining_cache_windows, HitRate(row.result),
            HitRateAfterFirstMiner(row.result),
            row.result.streams_identical ? "true" : "false",
            static_cast<unsigned long long>(row.result.stream_digest),
            i + 1 < rows.size() ? "," : "");
        json << buffer;
    }
    json << "    ]\n  }";
    return json.str();
}

// -- The decision-cost sweep (the "decision_cost" record) -------------------
//
// The shared-decision-engine acceptance cell (ISSUE 8 / ROADMAP item
// 1): one S3D stream replicated across N no-skew nodes, timed twice —
// shared decision engine on, then per-node engines — at jobs = 1 so
// every decision nanosecond is attributable. The shared decider's
// cost per issued task should be ~independent of N (the cluster
// decides each task once); the baseline's summed per-node engine cost
// grows ~linearly (every node re-decides the same stream). Both modes
// must be bit-identical in streams, digests and coordination.

constexpr std::size_t kDecisionIterations = 30;

struct DecisionRow {
    std::size_t nodes = 0;
    std::uint64_t tasks = 0;
    /** Shared mode: the decider's ns per issued task (flat in N). */
    double shared_ns_per_task = 0.0;
    /** Shared mode: node-side broadcast-apply ns per task per node. */
    double apply_ns_per_task_per_node = 0.0;
    /** Per-node mode: summed engine ns per issued task (~linear). */
    double baseline_ns_per_task = 0.0;
    bool identical = false;  ///< shared vs per-node bit-identity
};

sim::ExperimentResult RunDecisionCell(std::size_t nodes, bool shared)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = kDecisionIterations;
    options.machine.nodes = 2;
    options.machine.gpus_per_node = 2;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 1500;
    options.auto_config.multi_scale_factor = 100;
    options.replicas = nodes;
    options.replication.seed = 7;
    options.replication.mean_latency_tasks = 120.0;
    options.replication.jitter = 0.6;
    options.log_mode = sim::LogMode::kStreaming;
    options.cluster_jobs = 1;
    options.auto_config.shared_decisions = shared;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    return sim::RunExperiment(app, options);
}

bool DecisionModesIdentical(const sim::ExperimentResult& shared,
                            const sim::ExperimentResult& baseline)
{
    return shared.streams_identical && baseline.streams_identical &&
           shared.stream_digest == baseline.stream_digest &&
           shared.stream_digest_ops == baseline.stream_digest_ops &&
           shared.candidate_digest == baseline.candidate_digest &&
           shared.iterations_per_second ==
               baseline.iterations_per_second &&
           shared.makespan_us == baseline.makespan_us &&
           shared.total_tasks == baseline.total_tasks &&
           shared.coordination.final_slack ==
               baseline.coordination.final_slack &&
           shared.coordination.peak_slack ==
               baseline.coordination.peak_slack &&
           shared.coordination.late_jobs ==
               baseline.coordination.late_jobs &&
           shared.coordination.jobs_coordinated ==
               baseline.coordination.jobs_coordinated;
}

DecisionRow RunDecisionRow(std::size_t nodes)
{
    // min-of-repeats on the internally measured decision clocks (the
    // same robustness the wall-clock rows use); identity is checked
    // on every repeat — it is exact, not statistical.
    const int repeats = nodes >= 64 ? 2 : 3;
    DecisionRow row;
    row.nodes = nodes;
    row.identical = true;
    double shared_ns = 1e300;
    double apply_ns = 1e300;
    double baseline_ns = 1e300;
    for (int rep = 0; rep < repeats; ++rep) {
        const sim::ExperimentResult shared = RunDecisionCell(nodes, true);
        const sim::ExperimentResult baseline =
            RunDecisionCell(nodes, false);
        row.tasks = shared.frontend_stats.tasks_executed;
        const double tasks = static_cast<double>(row.tasks);
        shared_ns = std::min(
            shared_ns, static_cast<double>(shared.decision_ns) / tasks);
        apply_ns = std::min(
            apply_ns, static_cast<double>(shared.decision_apply_ns) /
                          tasks / static_cast<double>(nodes));
        baseline_ns = std::min(
            baseline_ns,
            static_cast<double>(baseline.decision_ns) / tasks);
        row.identical =
            row.identical && DecisionModesIdentical(shared, baseline);
    }
    row.shared_ns_per_task = shared_ns;
    row.apply_ns_per_task_per_node = apply_ns;
    row.baseline_ns_per_task = baseline_ns;
    return row;
}

std::string DecisionSectionOf(const std::vector<DecisionRow>& rows,
                              double shared_n64_vs_n2)
{
    std::ostringstream json;
    char buffer[640];
    std::snprintf(
        buffer, sizeof buffer,
        "{\n"
        "    \"bench\": \"fig_replication_scaling/decision_cost\",\n"
        "    \"app\": \"s3d\", \"skew\": \"none\", "
        "\"log_mode\": \"streaming\", \"iterations\": %zu, "
        "\"jobs\": 1,\n"
        "    %s,\n"
        "    \"shared_n64_vs_n2_ratio\": %.3f,\n"
        "    \"rows\": [\n",
        kDecisionIterations, bench::ConcurrencyJson().c_str(),
        shared_n64_vs_n2);
    json << buffer;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const DecisionRow& row = rows[i];
        std::snprintf(
            buffer, sizeof buffer,
            "      {\"nodes\": %zu, \"tasks\": %llu, "
            "\"shared_decision_ns_per_task\": %.1f, "
            "\"apply_ns_per_task_per_node\": %.1f, "
            "\"baseline_engine_ns_per_task\": %.1f, "
            "\"baseline_over_shared_ratio\": %.2f, "
            "\"identical\": %s}%s\n",
            row.nodes, static_cast<unsigned long long>(row.tasks),
            row.shared_ns_per_task, row.apply_ns_per_task_per_node,
            row.baseline_ns_per_task,
            row.shared_ns_per_task > 0.0
                ? row.baseline_ns_per_task / row.shared_ns_per_task
                : 0.0,
            row.identical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
        json << buffer;
    }
    json << "    ]\n  }";
    return json.str();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_micro_repeats.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        }
    }

    const std::size_t node_counts[] = {2, 8, 64};
    const sim::SkewKind kinds[] = {
        sim::SkewKind::kNone, sim::SkewKind::kJitter,
        sim::SkewKind::kStraggler, sim::SkewKind::kInterference};

    std::printf("# replication scaling (s3d, streaming logs, "
                "40 iterations)\n");
    std::printf("%6s %-13s %12s %9s %11s %10s %10s %12s %10s\n",
                "nodes", "skew", "iters/sec", "wall_ms", "final_slck",
                "late_jobs", "max_stall", "log_peak_B", "identical");
    std::vector<Row> rows;
    for (const std::size_t nodes : node_counts) {
        for (const sim::SkewKind kind : kinds) {
            Row row = RunCell(nodes, kind);
            std::printf(
                "%6zu %-13.*s %12.4f %9.1f %11llu %10llu %10.0f "
                "%12zu %10s\n",
                row.nodes,
                static_cast<int>(sim::SkewName(kind).size()),
                sim::SkewName(kind).data(),
                row.result.iterations_per_second, row.wall_ms,
                static_cast<unsigned long long>(
                    row.result.coordination.final_slack),
                static_cast<unsigned long long>(
                    row.result.coordination.late_jobs),
                row.max_stall_tasks,
                row.result.log_peak_resident_bytes,
                row.result.streams_identical ? "yes" : "NO");
            if (!row.result.streams_identical) {
                std::fprintf(stderr,
                             "stream divergence at %zu nodes (%s)\n",
                             row.nodes,
                             std::string(sim::SkewName(kind)).c_str());
                return 1;
            }
            rows.push_back(std::move(row));
        }
    }

    // The engine sweep: serial PR-4 baseline, then the parallel
    // engine + shared mining cache at jobs {1, 4, hardware}.
    const std::size_t hw = bench::HardwareConcurrency();
    std::vector<EngineRow> engine;
    engine.push_back(RunEngineCell(1, /*cache=*/false));
    engine.push_back(RunEngineCell(1, /*cache=*/true));
    engine.push_back(RunEngineCell(4, /*cache=*/true));
    if (hw != 4) {
        engine.push_back(RunEngineCell(hw, /*cache=*/true));
    }
    const double serial_ms = engine[0].wall_ms;
    const double speedup_jobs4 = serial_ms / engine[2].wall_ms;
    const double speedup_hw = serial_ms / engine.back().wall_ms;
    const double speedup_jobs4_vs_cached =
        engine[1].wall_ms / engine[2].wall_ms;
    // The shared-decision cross-check row rides along at the end (the
    // speedup_* members above index the per-node rows, so it must not
    // shift them): same digests, same coordination, one decider.
    engine.push_back(RunEngineCell(1, /*cache=*/true, /*shared=*/true));
    if (!EngineRowsAgree(engine)) {
        return 1;
    }
    std::printf("\n# cluster engine (s3d, %zu no-skew nodes, "
                "streaming logs)\n",
                kEngineNodes);
    std::printf("%6s %6s %7s %9s %9s %12s %10s\n", "jobs", "cache",
                "shared", "wall_ms", "speedup", "hits/misses",
                "adopt_rate");
    for (const EngineRow& row : engine) {
        std::printf(
            "%6zu %6s %7s %9.1f %9.2f %6llu/%-5llu %10.4f\n", row.jobs,
            row.cache ? "yes" : "no", row.shared ? "yes" : "no",
            row.wall_ms, serial_ms / row.wall_ms,
            static_cast<unsigned long long>(
                row.result.mining_cache_hits),
            static_cast<unsigned long long>(
                row.result.mining_cache_misses),
            HitRateAfterFirstMiner(row.result));
    }

    // The decision-cost acceptance sweep.
    const std::size_t decision_nodes[] = {2, 8, 64, 256};
    std::vector<DecisionRow> decisions;
    std::printf("\n# decision cost (s3d, no-skew, jobs=1, shared "
                "decider vs per-node engines)\n");
    std::printf("%6s %8s %14s %14s %14s %10s %10s\n", "nodes", "tasks",
                "shared_ns/task", "apply_ns/n/t", "base_ns/task",
                "base/shared", "identical");
    for (const std::size_t nodes : decision_nodes) {
        DecisionRow row = RunDecisionRow(nodes);
        std::printf("%6zu %8llu %14.1f %14.1f %14.1f %10.2f %10s\n",
                    row.nodes,
                    static_cast<unsigned long long>(row.tasks),
                    row.shared_ns_per_task,
                    row.apply_ns_per_task_per_node,
                    row.baseline_ns_per_task,
                    row.shared_ns_per_task > 0.0
                        ? row.baseline_ns_per_task / row.shared_ns_per_task
                        : 0.0,
                    row.identical ? "yes" : "NO");
        if (!row.identical) {
            std::fprintf(stderr,
                         "decision-mode divergence at %zu nodes — the "
                         "shared decision engine is not bit-identical\n",
                         nodes);
            return 1;
        }
        decisions.push_back(row);
    }
    const double shared_n64_vs_n2 =
        decisions[0].shared_ns_per_task > 0.0
            ? decisions[2].shared_ns_per_task /
                  decisions[0].shared_ns_per_task
            : 0.0;
    std::printf("shared decider ns/task, N=64 vs N=2: %.3fx\n",
                shared_n64_vs_n2);

    int rc = bench::MergeIntoJson(json_path, "replication_scaling",
                                  SectionOf(rows));
    if (rc == 0) {
        rc = bench::MergeIntoJson(
            json_path, "cluster_parallel",
            EngineSectionOf(engine, speedup_jobs4, speedup_hw,
                            speedup_jobs4_vs_cached));
    }
    if (rc == 0) {
        rc = bench::MergeIntoJson(
            json_path, "decision_cost",
            DecisionSectionOf(decisions, shared_n64_vs_n2));
    }
    if (rc == 0) {
        std::printf("merged into %s\n", json_path.c_str());
    }
    return rc;
}
