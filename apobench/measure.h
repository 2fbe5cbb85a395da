/**
 * @file
 * The benchmark's measurement helpers: the in-memory span log and its
 * self-time rule, the tail-percentile rule, and the metric tables the
 * benchmark prints. Header-only so apobench_test can check them
 * without running a workload.
 */
#ifndef APOBENCH_MEASURE_H
#define APOBENCH_MEASURE_H

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace apobench {

inline std::int64_t NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layer a span times. The benchmark opens each span around one
 * call into the stack, so the layer is the callee's. */
enum class Layer : std::uint8_t {
    kIteration,      ///< apps: Application::Iteration
    kFrontend,       ///< api/core: Frontend::ExecuteTask and Flush
    kMining,         ///< strings/core finder: one mining job
    kSim,            ///< sim: streaming consumer and log drain
    kSimFinish,      ///< sim: PipelineSimulator::Finish
    kTwinAnalyze,    ///< runtime twin: analyzed or recorded call
    kTwinReplay,     ///< runtime twin: call inside a replayed trace
    kBench,          ///< the benchmark's own bookkeeping
};

constexpr std::uint32_t kNoParent = UINT32_MAX;

/** One timed call: [begin_ns, end_ns) on the steady clock, the span
 * open around it (kNoParent at top level), and the application
 * iteration it belongs to. */
struct Span {
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t iteration = 0;
    Layer layer = Layer::kBench;
};

/** Spans of one thread, kept in memory in opening order. Opening a
 * span makes it the parent of the spans opened before it closes. */
class SpanLog {
  public:
    std::uint32_t Open(Layer layer, std::uint32_t iteration)
    {
        Span span;
        span.parent = open_;
        span.iteration = iteration;
        span.layer = layer;
        const auto index = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back(span);
        open_ = index;
        spans_[index].begin_ns = NowNs();
        return index;
    }

    void Close(std::uint32_t index)
    {
        spans_[index].end_ns = NowNs();
        open_ = spans_[index].parent;
    }

    const std::vector<Span>& Spans() const { return spans_; }
    void Clear()
    {
        spans_.clear();
        open_ = kNoParent;
    }

  private:
    std::vector<Span> spans_;
    std::uint32_t open_ = kNoParent;
};

/** Opens a span on construction and closes it on destruction; a null
 * log records nothing. */
class ScopedSpan {
  public:
    ScopedSpan(SpanLog* log, Layer layer, std::uint32_t iteration)
        : log_(log), index_(log != nullptr ? log->Open(layer, iteration) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr) {
            log_->Close(index_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog* log_;
    std::uint32_t index_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover. Overlapping children are
 * merged first, and each child is clipped to its parent, so no
 * nanosecond is subtracted twice. A grandchild is charged to its own
 * parent, never to its grandparent.
 */
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& span : spans) {
        if (span.parent != kNoParent) {
            kids[span.parent].emplace_back(span.begin_ns, span.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t begin = spans[i].begin_ns;
        const std::int64_t end = spans[i].end_ns;
        auto& children = kids[i];
        std::sort(children.begin(), children.end());
        std::int64_t covered = 0;
        std::int64_t cursor = begin;
        for (const auto& [child_begin, child_end] : children) {
            const std::int64_t from = std::max(child_begin, cursor);
            const std::int64_t to = std::min(child_end, end);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        self[i] = (end - begin) - covered;
    }
    return self;
}

/** Samples strictly beyond the nearest-rank `q` quantile of `n`
 * samples. */
inline std::size_t SamplesBeyond(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return n - std::min(rank, n);
}

/** The reported tail: the highest of 0.5, 0.9, 0.99 and 0.999 that
 * is at most `wanted` and leaves at least ten samples beyond it (0.5
 * when none does). */
inline double TailQuantile(std::size_t n, double wanted)
{
    double best = 0.5;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        if (q <= wanted + 1e-12 && SamplesBeyond(n, q) >= 10) {
            best = q;
        }
    }
    return best;
}

/** Nearest-rank quantile of `values` (sorted in place); 0 when
 * empty. */
inline double Quantile(std::vector<double>& values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

inline double Median(std::vector<double> values)
{
    return Quantile(values, 0.5);
}

/**
 * A run's value of a wall-clock cost read per episode (or per block of
 * episodes): the lowest. On a shared host the neighbours' load comes
 * and goes in spells from seconds to tens of minutes and slows the
 * benchmark by 1.5-1.8x while it lasts, so the median, or any upper
 * quantile, moves with the mix of spells a run happens to meet. No
 * episode runs faster than the program does on a quiet host, so the
 * lowest is the cost with the least interference; it moves only when
 * a whole run falls inside a contended spell, or when the quiet host
 * itself speeds up or slows down. Over four sets of ten 35 s runs of
 * each workload, taken over an hour, the spread between quartiles of
 * the lowest was 0.03-0.22 of its median, against up to 0.48 for the
 * median and 0.63 for the upper decile; the widest came from a set in
 * which the quiet host's s3d_auto cost fell from 5.2 to 3.9 us/task.
 */
inline double Lowest(std::vector<double> per_episode)
{
    return Quantile(per_episode, 0.0);
}

/** A metric name: a letter or digit first, then at most 63 more
 * letters, digits, '_', '.' or '-'. */
inline bool ValidMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64) {
        return false;
    }
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

struct MetricSpec {
    std::string_view name;
    std::string_view unit;
    /** Per-layer metrics: the end-to-end metric and workload a change
     * to this layer should move. */
    std::string_view moves = {};
};

/** Printed by every run with tracing off (BENCHMARK.json end_to_end). */
inline constexpr std::array<MetricSpec, 8> kEndToEnd = {{
    {"issue_ns_per_task", "ns"},
    {"iter_us_p50", "us"},
    {"iter_us_p99", "us"},
    {"sim_iters_per_s", "iter/s"},
    {"analyzed_fraction", "fraction"},
    {"warmup_iters", "iter"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
}};

/** Printed by every traced run (BENCHMARK.json per_layer). A layer a
 * workload does not exercise, or whose time this benchmark cannot
 * separate on it, reads 0. */
inline constexpr std::array<MetricSpec, 31> kPerLayer = {{
    {"apps.self_ns_per_task", "ns", "issue_ns_per_task on cfd_auto"},
    {"core.self_ns_per_task", "ns",
     "issue_ns_per_task and iter_us_p50 on s3d_auto"},
    {"core.late_over_early", "ratio",
     "iter_us_p50 on s3d_auto; about 1 on cfd_auto"},
    {"core.trie_candidates", "count", "issue_ns_per_task on s3d_auto"},
    {"core.trie_nodes", "count", "issue_ns_per_task on s3d_auto"},
    {"core.traces_fired", "count", "analyzed_fraction on s3d_auto"},
    {"core.trace_replays", "count", "analyzed_fraction on s3d_auto"},
    {"core.launches_buffered_per_task", "ratio",
     "issue_ns_per_task on s3d_auto"},
    {"core.pending_high_water", "count", "peak_rss_mb on s3d_auto"},
    {"mining.busy_ns_per_task", "ns",
     "issue_ns_per_task and iter_us_p99 on cfd_auto"},
    {"mining.jobs", "count", "issue_ns_per_task on cfd_auto"},
    {"mining.job_us_p50", "us", "iter_us_p99 on cfd_auto"},
    {"mining.job_us_p99", "us", "iter_us_p99 on cfd_auto"},
    {"mining.fast_path_ratio", "ratio", "issue_ns_per_task on cfd_auto"},
    {"mining.repair_ratio", "ratio", "issue_ns_per_task on cfd_auto"},
    {"mining.full_ratio", "ratio", "issue_ns_per_task on cfd_auto"},
    {"mining.candidates_per_job", "ratio", "issue_ns_per_task on cfd_auto"},
    {"runtime.analyze_ns_per_task", "ns",
     "issue_ns_per_task on cfd_auto (small share)"},
    {"runtime.replay_ns_per_task", "ns",
     "issue_ns_per_task on s3d_auto (small share)"},
    {"runtime.edges_per_task", "ratio", "issue_ns_per_task on cfd_auto"},
    {"runtime.log_peak_bytes", "bytes", "peak_rss_mb on every workload"},
    {"runtime.trace_mismatches", "count", "analyzed_fraction on s3d_auto"},
    {"sim.consume_ns_per_task", "ns",
     "issue_ns_per_task on every workload"},
    {"sim.finish_ms", "ms", "issue_ns_per_task on every workload"},
    {"svc.mining_cache_hit_ratio", "ratio", "issue_ns_per_task on svc_mixed"},
    {"svc.cross_tenant_sharing", "ratio", "issue_ns_per_task on svc_mixed"},
    {"svc.decision_ns_per_task", "ns", "issue_ns_per_task on svc_mixed"},
    {"svc.apply_ns_per_task", "ns", "issue_ns_per_task on svc_mixed"},
    {"fault.checkpoints", "count",
     "issue_ns_per_task and peak_rss_mb on svc_mixed"},
    {"fault.checkpoint_bytes", "bytes",
     "issue_ns_per_task and peak_rss_mb on svc_mixed"},
    {"trace.overhead", "ratio", "none: traced over untraced issue_ns_per_task"},
}};

}  // namespace apobench

#endif  // APOBENCH_MEASURE_H
