#include "sim/metrics.h"

#include <algorithm>

namespace apo::sim {

std::vector<double>
IterationEndTimes(const PipelineResult& result,
                  const std::vector<std::size_t>& boundaries)
{
    // finish_us is not monotone (execution completes out of order), so
    // track the running maximum up to each boundary.
    std::vector<double> ends;
    ends.reserve(boundaries.size());
    double running_max = 0.0;
    std::size_t k = 0;
    for (std::size_t boundary : boundaries) {
        for (; k < boundary && k < result.finish_us.size(); ++k) {
            running_max = std::max(running_max, result.finish_us[k]);
        }
        ends.push_back(running_max);
    }
    return ends;
}

double
SteadyThroughput(const std::vector<double>& iteration_ends_us,
                 std::size_t measure)
{
    const std::size_t n = iteration_ends_us.size();
    if (n < 2) {
        return 0.0;
    }
    if (measure == 0) {
        measure = std::max<std::size_t>(n / 4, 1);
    }
    measure = std::min(measure, n - 1);
    // Median per-iteration duration over the tail: robust against the
    // occasional expensive iteration (e.g. Apophenia memoizing a new,
    // better trace mid-run), which is amortized away in a production
    // run but would dominate a short mean-based window.
    std::vector<double> durations;
    durations.reserve(measure);
    for (std::size_t i = n - measure; i < n; ++i) {
        durations.push_back(iteration_ends_us[i] -
                            iteration_ends_us[i - 1]);
    }
    std::nth_element(durations.begin(),
                     durations.begin() + durations.size() / 2,
                     durations.end());
    const double median_us = durations[durations.size() / 2];
    if (median_us <= 0.0) {
        return 0.0;
    }
    return 1e6 / median_us;
}

TracedFlags
TracedFlags::Of(const rt::OperationLog& log)
{
    TracedFlags traced;
    traced.flags_.reserve(log.size());
    for (const auto& op : log) {
        traced.Consume(op);
    }
    return traced;
}

std::size_t
WarmupIterations(const TracedFlags& traced,
                 const std::vector<std::size_t>& boundaries,
                 double threshold)
{
    const std::vector<std::uint8_t>& flags = traced.Flags();
    // Steady state = one past the last iteration whose own traced
    // fraction falls below the threshold. The default threshold is
    // mild (0.5) so that permanent irregular interruptions — CFD's
    // residual checks, HTR's statistics — do not count as leaving the
    // steady state, while genuinely untraced warmup iterations do.
    std::size_t warmup = 0;
    std::size_t begin = 0;
    // The final iterations are polluted by the end-of-run flush (the
    // front-end forwards its pending tail untraced when the program
    // ends), so they are excluded from the steady-state scan.
    const std::size_t scan =
        boundaries.size() > 2 ? boundaries.size() - 2 : boundaries.size();
    for (std::size_t it = 0; it < scan; ++it) {
        const std::size_t end = std::min(boundaries[it], flags.size());
        std::size_t count = 0;
        for (std::size_t k = begin; k < end; ++k) {
            count += flags[k];
        }
        const std::size_t total = end - begin;
        if (total != 0 &&
            static_cast<double>(count) <
                threshold * static_cast<double>(total)) {
            warmup = it + 1;
        }
        begin = end;
    }
    return warmup;
}

std::vector<std::pair<std::size_t, double>>
TracedCoverageSeries(const TracedFlags& traced, std::size_t window,
                     std::size_t stride)
{
    const std::vector<std::uint8_t>& flags = traced.Flags();
    std::vector<std::pair<std::size_t, double>> series;
    if (flags.empty() || window == 0 || stride == 0) {
        return series;
    }
    // Prefix sums of traced flags for O(1) windows.
    std::vector<std::size_t> prefix(flags.size() + 1, 0);
    for (std::size_t i = 0; i < flags.size(); ++i) {
        prefix[i + 1] = prefix[i] + flags[i];
    }
    for (std::size_t i = stride; i <= flags.size(); i += stride) {
        const std::size_t lo = i > window ? i - window : 0;
        const double count =
            static_cast<double>(prefix[i] - prefix[lo]);
        const double denom = static_cast<double>(i - lo);
        series.emplace_back(i, 100.0 * count / denom);
    }
    return series;
}

}  // namespace apo::sim
