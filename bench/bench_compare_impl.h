/**
 * @file
 * The bench_compare gate's implementation, header-only so the unit
 * tests (tests/bench_compare_test.cc) exercise the same parser,
 * direction typing and threshold logic the CI binary runs — the gate
 * that fails a PR must itself be tested.
 *
 * See bench/bench_compare.cc for the tool's contract and usage.
 */
#ifndef APOPHENIA_BENCH_BENCH_COMPARE_IMPL_H
#define APOPHENIA_BENCH_BENCH_COMPARE_IMPL_H

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"

namespace apo::bench {

/** Minimal JSON reader over the machine-written record files: collects
 * every numeric leaf under its dotted path. Throws std::runtime_error
 * on malformed input. */
class FlatJsonParser {
  public:
    explicit FlatJsonParser(const std::string& text) : text_(text) {}

    std::map<std::string, double> Parse()
    {
        values_.clear();
        at_ = 0;
        SkipSpace();
        ParseValue("");
        SkipSpace();
        if (at_ != text_.size()) {
            Fail("trailing content");
        }
        return values_;
    }

  private:
    [[noreturn]] void Fail(const char* what)
    {
        throw std::runtime_error(std::string("JSON parse error at byte ") +
                                 std::to_string(at_) + ": " + what);
    }

    void SkipSpace()
    {
        while (at_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[at_]))) {
            ++at_;
        }
    }

    char Peek()
    {
        if (at_ >= text_.size()) {
            Fail("unexpected end");
        }
        return text_[at_];
    }

    void Expect(char c)
    {
        if (Peek() != c) {
            Fail("unexpected character");
        }
        ++at_;
    }

    std::string ParseString()
    {
        Expect('"');
        std::string s;
        while (Peek() != '"') {
            char c = text_[at_++];
            if (c == '\\') {
                s.push_back(text_[at_++]);  // record files escape nothing
            } else {
                s.push_back(c);
            }
        }
        ++at_;  // closing quote
        return s;
    }

    void ParseValue(const std::string& path)
    {
        SkipSpace();
        const char c = Peek();
        if (c == '{') {
            ++at_;
            SkipSpace();
            if (Peek() == '}') {
                ++at_;
                return;
            }
            for (;;) {
                SkipSpace();
                const std::string key = ParseString();
                SkipSpace();
                Expect(':');
                ParseValue(path.empty() ? key : path + "." + key);
                SkipSpace();
                if (Peek() == ',') {
                    ++at_;
                    continue;
                }
                Expect('}');
                return;
            }
        }
        if (c == '[') {
            ++at_;
            SkipSpace();
            if (Peek() == ']') {
                ++at_;
                return;
            }
            for (std::size_t index = 0;; ++index) {
                ParseValue(path + "." + std::to_string(index));
                SkipSpace();
                if (Peek() == ',') {
                    ++at_;
                    continue;
                }
                Expect(']');
                return;
            }
        }
        if (c == '"') {
            ParseString();
            return;
        }
        if (std::strncmp(text_.c_str() + at_, "true", 4) == 0) {
            at_ += 4;
            return;
        }
        if (std::strncmp(text_.c_str() + at_, "false", 5) == 0) {
            at_ += 5;
            return;
        }
        if (std::strncmp(text_.c_str() + at_, "null", 4) == 0) {
            at_ += 4;
            return;
        }
        // Number.
        char* end = nullptr;
        const double value = std::strtod(text_.c_str() + at_, &end);
        if (end == text_.c_str() + at_) {
            Fail("expected a value");
        }
        at_ = static_cast<std::size_t>(end - text_.c_str());
        values_[path] = value;
    }

    const std::string& text_;
    std::size_t at_ = 0;
    std::map<std::string, double> values_;
};

inline bool EndsWith(const std::string& s, const char* suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

enum class Direction { kHigherIsBetter, kLowerIsBetter, kUntracked };

inline Direction DirectionOf(const std::string& path)
{
    if (path.find("allocs_per") != std::string::npos) {
        return Direction::kLowerIsBetter;
    }
    if (EndsWith(path, "_per_sec") || EndsWith(path, "improvement") ||
        EndsWith(path, "speedup") || EndsWith(path, "hit_rate")) {
        return Direction::kHigherIsBetter;
    }
    return Direction::kUntracked;
}

inline bool MatchesAny(const std::string& path,
                       const std::vector<std::string>& patterns)
{
    if (patterns.empty()) {
        return true;
    }
    for (const std::string& pattern : patterns) {
        if (path.find(pattern) != std::string::npos) {
            return true;
        }
    }
    return false;
}

/** True iff `current` regressed vs `baseline` beyond `threshold`. A
 * zero baseline (e.g. allocs_per_window == 0, the contract value)
 * regresses on any materially nonzero bad-direction move. */
inline bool Regressed(Direction direction, double baseline, double current,
                      double threshold)
{
    if (direction == Direction::kHigherIsBetter) {
        if (baseline <= 0.0) {
            return false;  // no meaningful reference
        }
        return current < baseline * (1.0 - threshold);
    }
    if (baseline == 0.0) {
        return current > threshold;  // absolute gate off a hard zero
    }
    return current > baseline * (1.0 + threshold);
}

struct CompareOptions {
    std::string baseline_path;
    std::string current_path;
    double threshold = 0.10;
    std::vector<std::string> metrics;   ///< --metric= substrings
    std::vector<std::string> required;  ///< --require= substrings
};

/** The tool body behind argument parsing. Exit-code contract:
 * 0 ok; 1 regression; 2 parse failure or missing --require record. */
inline int RunBenchCompare(const CompareOptions& options,
                           std::FILE* out = stdout,
                           std::FILE* err = stderr)
{
    std::map<std::string, double> baseline;
    std::map<std::string, double> current;
    try {
        const std::string baseline_text =
            ReadFileOrEmpty(options.baseline_path);
        const std::string current_text =
            ReadFileOrEmpty(options.current_path);
        if (baseline_text.empty()) {
            std::fprintf(err, "bench_compare: cannot read %s\n",
                         options.baseline_path.c_str());
            return 2;
        }
        if (current_text.empty()) {
            std::fprintf(err, "bench_compare: cannot read %s\n",
                         options.current_path.c_str());
            return 2;
        }
        baseline = FlatJsonParser(baseline_text).Parse();
        current = FlatJsonParser(current_text).Parse();
    } catch (const std::exception& error) {
        std::fprintf(err, "bench_compare: %s\n", error.what());
        return 2;
    }

    // Wall-clock metrics from different hosts are not comparable; say
    // so next to the verdict (which stays the same either way).
    const auto base_host = baseline.find("hardware_concurrency");
    const auto current_host = current.find("hardware_concurrency");
    if (base_host != baseline.end() && current_host != current.end() &&
        base_host->second != current_host->second) {
        std::fprintf(out,
                     "host mismatch: baseline hardware_concurrency=%.0f, "
                     "current=%.0f\n",
                     base_host->second, current_host->second);
    }

    // Required records must exist in the *current* file: a bench that
    // stops emitting a record must fail CI, not silently pass.
    for (const std::string& record : options.required) {
        bool found = false;
        for (const auto& [path, value] : current) {
            (void)value;
            if (path.find(record) != std::string::npos) {
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(err,
                         "bench_compare: required record \"%s\" is "
                         "missing from %s\n",
                         record.c_str(), options.current_path.c_str());
            return 2;
        }
    }

    int regressions = 0;
    int compared = 0;
    for (const auto& [path, base_value] : baseline) {
        const Direction direction = DirectionOf(path);
        if (direction == Direction::kUntracked ||
            !MatchesAny(path, options.metrics)) {
            continue;
        }
        const auto it = current.find(path);
        if (it == current.end()) {
            std::fprintf(out,
                         "  [dropped]    %-52s %12.3f -> (absent)\n",
                         path.c_str(), base_value);
            continue;
        }
        ++compared;
        const double now = it->second;
        const bool bad =
            Regressed(direction, base_value, now, options.threshold);
        const double ratio =
            base_value != 0.0 ? now / base_value : 0.0;
        std::fprintf(out, "  [%s] %-52s %12.3f -> %12.3f  (%.2fx, %s)\n",
                     bad ? "REGRESSED" : "ok       ", path.c_str(),
                     base_value, now, ratio,
                     direction == Direction::kHigherIsBetter
                         ? "higher is better"
                         : "lower is better");
        if (bad) {
            ++regressions;
        }
    }
    std::fprintf(out,
                 "bench_compare: %d metric(s) compared, %d regression(s) "
                 "(threshold %.0f%%)\n",
                 compared, regressions, options.threshold * 100.0);
    return regressions > 0 ? 1 : 0;
}

inline int BenchCompareUsage()
{
    std::fprintf(
        stderr,
        "usage: bench_compare --baseline=OLD.json --current=NEW.json\n"
        "                     [--threshold=0.10] [--metric=SUBSTR]...\n"
        "                     [--require=SUBSTR]...\n");
    return 2;
}

inline int BenchCompareMain(int argc, char** argv)
{
    CompareOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--baseline=", 0) == 0) {
            options.baseline_path = arg.substr(11);
        } else if (arg.rfind("--current=", 0) == 0) {
            options.current_path = arg.substr(10);
        } else if (arg.rfind("--threshold=", 0) == 0) {
            options.threshold = std::atof(arg.c_str() + 12);
        } else if (arg.rfind("--metric=", 0) == 0) {
            options.metrics.push_back(arg.substr(9));
        } else if (arg.rfind("--require=", 0) == 0) {
            options.required.push_back(arg.substr(10));
        } else {
            return BenchCompareUsage();
        }
    }
    if (options.baseline_path.empty() || options.current_path.empty() ||
        options.threshold <= 0.0) {
        return BenchCompareUsage();
    }
    return RunBenchCompare(options);
}

}  // namespace apo::bench

#endif  // APOPHENIA_BENCH_BENCH_COMPARE_IMPL_H
