/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks: machine
 * models for the paper's two systems, the artifact's Apophenia
 * configuration, and table printing.
 *
 * Absolute throughputs are simulated (see DESIGN.md section 4.1) and
 * are not expected to match the paper's hardware numbers; the *shapes*
 * — who wins, by what factor, where the crossovers are — are the
 * reproduction target, and EXPERIMENTS.md records both.
 */
#ifndef APOPHENIA_BENCH_BENCH_UTIL_H
#define APOPHENIA_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "core/config.h"
#include "sim/harness.h"

namespace apo::bench {

// -- JSON record-file helpers (BENCH_micro_repeats.json) --------------------
//
// The perf-record file is one JSON object shared by several writers:
// micro_repeats rewrites its own members, fig_replication_scaling
// merges its section in, and each must preserve the other's records.
// These helpers locate a `"key": {...}` member without a JSON
// library: by key search plus brace counting (the file is machine-
// written, so no braces hide inside strings).

inline std::string ReadFileOrEmpty(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        return "";
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Locate `"key": {...}`: on success, `member_begin` is the quoted
 * key's position and [value_begin, value_end) delimits the member's
 * object value (braces included). */
inline bool FindJsonMember(const std::string& content,
                           const std::string& key,
                           std::size_t* member_begin,
                           std::size_t* value_begin,
                           std::size_t* value_end)
{
    const std::string quoted = "\"" + key + "\"";
    const std::size_t at = content.find(quoted);
    if (at == std::string::npos) {
        return false;
    }
    const std::size_t open = content.find('{', at + quoted.size());
    if (open == std::string::npos) {
        return false;
    }
    std::size_t end = open;
    int depth = 0;
    while (end < content.size()) {
        if (content[end] == '{') {
            ++depth;
        } else if (content[end] == '}' && --depth == 0) {
            ++end;
            break;
        }
        ++end;
    }
    *member_begin = at;
    *value_begin = open;
    *value_end = end;
    return true;
}

/** The member's `{...}` value text, or "" if absent. */
inline std::string ExtractJsonMember(const std::string& content,
                                     const std::string& key)
{
    std::size_t member = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    if (!FindJsonMember(content, key, &member, &begin, &end)) {
        return "";
    }
    return content.substr(begin, end - begin);
}

/** The object-valued members of a JSON object's top level, in order,
 * as (key, value text with braces) pairs. Scalar and array members
 * are skipped. */
inline std::vector<std::pair<std::string, std::string>> TopLevelObjectMembers(
    const std::string& content)
{
    std::vector<std::pair<std::string, std::string>> members;
    std::string key;
    std::size_t value_begin = 0;
    int depth = 0;
    for (std::size_t i = 0; i < content.size(); ++i) {
        const char c = content[i];
        if (c == '"') {
            std::size_t close = i + 1;
            while (close < content.size() && content[close] != '"') {
                close += content[close] == '\\' ? 2 : 1;
            }
            if (depth == 1) {
                // The last depth-1 string before a value's '{' is its key.
                key = content.substr(i + 1, close - i - 1);
            }
            i = close;
        } else if (c == '{' || c == '[') {
            if (depth == 1 && c == '{') {
                value_begin = i;
            }
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            if (depth == 1 && c == '}') {
                members.emplace_back(
                    key, content.substr(value_begin, i + 1 - value_begin));
            }
        }
    }
    return members;
}

/** Erase the member plus its separating comma (the preceding one when
 * the member is last, the following one otherwise). */
inline void RemoveJsonMember(std::string& content, const std::string& key)
{
    std::size_t member = 0;
    std::size_t value = 0;
    std::size_t end = 0;
    if (!FindJsonMember(content, key, &member, &value, &end)) {
        return;
    }
    std::size_t begin = member;
    while (begin > 0 && (content[begin - 1] == ' ' ||
                         content[begin - 1] == '\n' ||
                         content[begin - 1] == '\t')) {
        --begin;
    }
    bool ate_leading_comma = false;
    if (begin > 0 && content[begin - 1] == ',') {
        --begin;
        ate_leading_comma = true;
    }
    if (!ate_leading_comma) {
        while (end < content.size() &&
               (content[end] == ' ' || content[end] == '\n')) {
            ++end;
        }
        if (end < content.size() && content[end] == ',') {
            ++end;
        }
    }
    content.erase(begin, end - begin);
}

/** Replace an existing member's `{...}` value in place, keeping the
 * member's position in the file — repeated merges by different
 * writers must not shuffle record order, or every bench run produces
 * a noisy whole-file diff. Returns false when the key is absent (the
 * caller appends instead). */
inline bool ReplaceJsonMember(std::string& content, const std::string& key,
                              const std::string& section)
{
    std::size_t member = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    if (!FindJsonMember(content, key, &member, &begin, &end)) {
        return false;
    }
    content.replace(begin, end - begin, section);
    return true;
}

/** Merge `"key": {...section...}` into the JSON object file at
 * `path`, replacing the member in place when it exists (stable member
 * order keeps re-runs to value-only diffs) and appending it
 * otherwise. Creates the file when absent. Returns 0 on success. */
inline int MergeIntoJson(const std::string& path, const std::string& key,
                         const std::string& section)
{
    std::string content = ReadFileOrEmpty(path);
    if (content.empty()) {
        content = "{\n}\n";
    }
    if (ReplaceJsonMember(content, key, section)) {
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        out << content;
        return 0;
    }
    std::size_t close = content.rfind('}');
    if (close == std::string::npos) {
        std::fprintf(stderr, "%s is not a JSON object\n", path.c_str());
        return 1;
    }
    std::size_t tail = close;
    while (tail > 0 && (content[tail - 1] == ' ' ||
                        content[tail - 1] == '\n' ||
                        content[tail - 1] == '\t' ||
                        content[tail - 1] == ',')) {
        --tail;
    }
    const bool has_members = content.find('"') < tail;
    content.erase(tail);
    content += has_members ? ",\n" : "\n";
    content += "  \"" + key + "\": " + section + "\n}\n";

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    out << content;
    return 0;
}

/** The host's thread count as every bench section records it —
 * wall-clock-derived metrics (speedups, tokens/sec) are only
 * comparable across record generations with the host pinned next to
 * them. Never 0 (the unknown-hardware fallback is 1). */
inline unsigned HardwareConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** The host-pinning JSON fragment every bench section embeds next to
 * its wall-clock metrics: `"hardware_concurrency": N`, plus
 * `"apo_jobs": J` when the APO_JOBS thread-count override is set to
 * a positive number — a record produced under an override is only
 * comparable to records produced under the same one, so the override
 * is pinned in the record rather than silently shaping it. (A set
 * but non-numeric/zero APO_JOBS is ignored here exactly as the
 * engine ignores it.) No trailing comma. */
inline std::string ConcurrencyJson()
{
    std::string out = "\"hardware_concurrency\": " +
                      std::to_string(HardwareConcurrency());
    if (const char* jobs = std::getenv("APO_JOBS")) {
        char* end = nullptr;
        const unsigned long value = std::strtoul(jobs, &end, 10);
        if (end != jobs && *end == '\0' && value > 0) {
            out += ", \"apo_jobs\": " + std::to_string(value);
        }
    }
    return out;
}

/** Perlmutter: 4 NVIDIA A100s per node (paper section 6). */
inline apps::MachineConfig Perlmutter(std::size_t gpus)
{
    apps::MachineConfig m;
    m.gpus_per_node = 4;
    m.nodes = std::max<std::size_t>(1, gpus / m.gpus_per_node);
    if (gpus < m.gpus_per_node) {
        m.gpus_per_node = gpus;
    }
    return m;
}

/** Eos: 8 NVIDIA H100s per node (paper section 6). */
inline apps::MachineConfig Eos(std::size_t gpus)
{
    apps::MachineConfig m;
    m.gpus_per_node = 8;
    m.nodes = std::max<std::size_t>(1, gpus / m.gpus_per_node);
    if (gpus < m.gpus_per_node) {
        m.gpus_per_node = gpus;
    }
    return m;
}

/** The artifact's standard Apophenia configuration (appendix A.5). */
inline core::ApopheniaConfig ArtifactConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 25;
    config.max_trace_length = 5000;
    config.batchsize = 5000;
    config.multi_scale_factor = 250;
    return config;
}

/** Tracks the min/max of a ratio across a sweep (the "0.92x-1.03x"
 * style bands the paper reports). */
class RatioBand {
  public:
    void Add(double value)
    {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        seen_ = true;
    }
    std::string Format() const
    {
        if (!seen_) {
            return "n/a";
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2fx-%.2fx", min_, max_);
        return buf;
    }

  private:
    double min_ = 1e300;
    double max_ = -1e300;
    bool seen_ = false;
};

/** Run one experiment with a freshly constructed application. */
template <typename App, typename Options>
sim::ExperimentResult RunOne(const Options& app_options,
                             sim::TracingMode mode,
                             const apps::MachineConfig& machine,
                             std::size_t iterations,
                             const core::ApopheniaConfig& auto_config)
{
    App app(app_options);
    sim::ExperimentOptions options;
    options.mode = mode;
    options.machine = machine;
    options.iterations = iterations;
    options.auto_config = auto_config;
    return sim::RunExperiment(app, options);
}

}  // namespace apo::bench

#endif  // APOPHENIA_BENCH_BENCH_UTIL_H
