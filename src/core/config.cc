#include "core/config.h"

#include <stdexcept>

namespace apo::core {

std::size_t
ParseFlagCount(const std::string& flag, const std::string& value)
{
    // Digits only: std::stoull alone would also take a sign ("-1"
    // wraps to 2^64 - 1) and leading whitespace.
    const std::invalid_argument malformed(
        flag + " expects a number, got '" + value + "'");
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
        throw malformed;
    }
    try {
        return static_cast<std::size_t>(std::stoull(value));
    } catch (const std::out_of_range&) {
        throw malformed;
    }
}

ApopheniaConfig
ParseApopheniaFlags(std::vector<std::string>& args)
{
    ApopheniaConfig config;
    config.enabled = false;  // off unless the flag is present
    std::vector<std::string> rest;
    rest.reserve(args.size());

    auto value_of = [&](std::size_t& i, const std::string& flag) {
        if (i + 1 >= args.size()) {
            throw std::invalid_argument(flag + " expects a value");
        }
        return args[++i];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "-lg:enable_automatic_tracing") {
            config.enabled = true;
        } else if (a == "-lg:auto_trace:min_trace_length") {
            config.min_trace_length = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:max_trace_length") {
            config.max_trace_length = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:batchsize") {
            config.batchsize = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:multi_scale_factor") {
            config.multi_scale_factor = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:identifier_algorithm") {
            const std::string v = value_of(i, a);
            if (v == "multi-scale") {
                config.identifier_algorithm = IdentifierAlgorithm::kMultiScale;
            } else if (v == "batched") {
                config.identifier_algorithm = IdentifierAlgorithm::kBatched;
            } else {
                throw std::invalid_argument(
                    a + ": unknown identifier algorithm '" + v + "'");
            }
        } else if (a == "-lg:auto_trace:ingest_mode") {
            const std::string v = value_of(i, a);
            if (v == "on-completion") {
                config.ingest_mode = IngestMode::kOnCompletion;
            } else if (v == "eager-drain") {
                config.ingest_mode = IngestMode::kEagerDrain;
            } else if (v == "manual") {
                config.ingest_mode = IngestMode::kManual;
            } else {
                throw std::invalid_argument(
                    a + ": unknown ingest mode '" + v + "'");
            }
        } else if (a == "-lg:auto_trace:history_block_size") {
            config.history_block_size = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:no_incremental_mining") {
            config.incremental_mining = false;
        } else if (a == "-lg:auto_trace:no_shared_decisions") {
            config.shared_decisions = false;
        } else if (a == "-lg:auto_trace:incremental_ring_windows") {
            config.incremental_ring_windows = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:window") {
            config.window = ParseFlagCount(a, value_of(i, a));
        } else if (a == "-lg:inline_transitive_reduction") {
            config.inline_transitive_reduction = true;
        } else if (a == "-lg:auto_trace:repeats_algorithm") {
            const std::string v = value_of(i, a);
            if (v == "quick_matching_of_substrings") {
                config.repeats_algorithm =
                    RepeatsAlgorithm::kQuickMatchingOfSubstrings;
            } else if (v == "tandem") {
                config.repeats_algorithm = RepeatsAlgorithm::kTandem;
            } else if (v == "lzw") {
                config.repeats_algorithm = RepeatsAlgorithm::kLzw;
            } else if (v == "quadratic") {
                config.repeats_algorithm = RepeatsAlgorithm::kQuadratic;
            } else {
                throw std::invalid_argument(
                    a + ": unknown repeats algorithm '" + v + "'");
            }
        } else {
            rest.push_back(a);
        }
    }
    args = std::move(rest);

    if (config.min_trace_length == 0) {
        throw std::invalid_argument("min_trace_length must be positive");
    }
    if (config.max_trace_length < config.min_trace_length) {
        throw std::invalid_argument(
            "max_trace_length must be >= min_trace_length");
    }
    if (config.batchsize == 0 || config.multi_scale_factor == 0) {
        throw std::invalid_argument(
            "batchsize and multi_scale_factor must be positive");
    }
    if (config.history_block_size == 0) {
        throw std::invalid_argument("history_block_size must be positive");
    }
    if (config.incremental_mining && config.incremental_ring_windows == 0) {
        throw std::invalid_argument(
            "incremental_ring_windows must be positive while incremental "
            "mining is enabled");
    }
    return config;
}

}  // namespace apo::core
