/**
 * @file
 * Metrics over simulated executions: iteration timing, steady-state
 * throughput, warmup detection (paper figure 9) and the traced-window
 * coverage series (paper figure 10).
 *
 * The log-shape metrics (warmup, coverage) need one bit per operation
 * — was it traced? — so they read a TracedFlags accumulator: filled
 * incrementally by a streaming-retire consumer (one byte per op, so a
 * million-task stream costs a megabyte, not the log), or extracted
 * from a retained log with TracedFlags::Of.
 */
#ifndef APOPHENIA_SIM_METRICS_H
#define APOPHENIA_SIM_METRICS_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/pipeline.h"

namespace apo::sim {

/**
 * Completion time of each iteration: the latest finish among the
 * operations issued up to each boundary. `boundaries[i]` is the
 * number of operations issued after iteration i completed.
 */
std::vector<double> IterationEndTimes(
    const PipelineResult& result, const std::vector<std::size_t>& boundaries);

/**
 * Steady-state throughput in iterations/second measured over the last
 * `measure` iterations (default: final quarter).
 */
double SteadyThroughput(const std::vector<double>& iteration_ends_us,
                        std::size_t measure = 0);

/** Per-operation traced flags, collected incrementally (streaming) or
 * extracted from a retained log. */
class TracedFlags {
  public:
    /** Streaming-retire consumer side: record one operation. */
    void Consume(const rt::OpView& op)
    {
        flags_.push_back(op.mode != rt::AnalysisMode::kAnalyzed ? 1 : 0);
    }

    const std::vector<std::uint8_t>& Flags() const { return flags_; }
    std::size_t size() const { return flags_.size(); }

    static TracedFlags Of(const rt::OperationLog& log);

  private:
    std::vector<std::uint8_t> flags_;
};

/**
 * Iterations until a replaying steady state (figure 9): one past the
 * last iteration whose fraction of traced (recorded or replayed)
 * operations is below `threshold`. The mild default tolerates
 * permanently recurring irregular work (convergence checks) without
 * counting it as leaving the steady state. Returns the iteration
 * count if no steady state was reached.
 */
std::size_t WarmupIterations(const TracedFlags& traced,
                             const std::vector<std::size_t>& boundaries,
                             double threshold = 0.5);

/**
 * Figure 10's series: for operation indices stepped by `stride`, the
 * percentage of the previous `window` operations that were traced.
 */
std::vector<std::pair<std::size_t, double>> TracedCoverageSeries(
    const TracedFlags& traced, std::size_t window, std::size_t stride);

}  // namespace apo::sim

#endif  // APOPHENIA_SIM_METRICS_H
