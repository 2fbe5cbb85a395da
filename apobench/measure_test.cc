// Tests of the benchmark's own measurement code (measure.h).
#include "measure.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace apobench {
namespace {

Span
At(std::int64_t begin, std::int64_t end, std::uint32_t parent = kNoParent)
{
    Span span;
    span.begin_ns = begin;
    span.end_ns = end;
    span.parent = parent;
    return span;
}

TEST(TailQuantile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
    EXPECT_EQ(TailQuantile(1000, 0.99), 0.99);
    EXPECT_EQ(TailQuantile(999, 0.99), 0.9);
    EXPECT_EQ(TailQuantile(100, 0.99), 0.9);
    EXPECT_EQ(TailQuantile(99, 0.99), 0.5);
    EXPECT_EQ(TailQuantile(10000, 0.99), 0.99);  // capped at the ask
    EXPECT_EQ(TailQuantile(10000, 1.0), 0.999);
    EXPECT_EQ(TailQuantile(3, 0.99), 0.5);  // nothing qualifies
}

TEST(TailQuantile, NearestRank)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i) {
        values.push_back(i);
    }
    EXPECT_EQ(Quantile(values, 0.5), 50);
    EXPECT_EQ(Quantile(values, 0.99), 99);
    EXPECT_EQ(Quantile(values, 1.0), 100);
    EXPECT_EQ(Median({3, 1, 2}), 2);
    EXPECT_EQ(Lowest({5, 1, 9, 3, 7, 2, 8, 4, 6, 10}), 1);
    EXPECT_EQ(Lowest({4}), 4);
    std::vector<double> empty;
    EXPECT_EQ(Quantile(empty, 0.5), 0);
}

TEST(SelfTimes, SubtractsOnlyDirectChildren)
{
    // 0 [0,100) > 1 [10,60) > 2 [20,30); 0 > 3 [70,90)
    const std::vector<Span> spans = {At(0, 100), At(10, 60, 0),
                                     At(20, 30, 1), At(70, 90, 0)};
    const std::vector<std::int64_t> self = SelfTimes(spans);
    EXPECT_EQ(self[0], 100 - 50 - 20);
    EXPECT_EQ(self[1], 50 - 10);
    EXPECT_EQ(self[2], 10);
    EXPECT_EQ(self[3], 20);
    std::int64_t total = 0;
    for (const std::int64_t s : self) {
        total += s;
    }
    EXPECT_EQ(total, 100);  // self times partition the root
}

TEST(SelfTimes, SiblingsAndOverlapCountOnce)
{
    // Two top-level siblings, each with children that overlap one
    // another or stick out of the parent.
    const std::vector<Span> spans = {
        At(0, 50),        At(5, 25, 0),   At(15, 35, 0),  // overlap
        At(100, 140),     At(90, 110, 3),  // starts before parent
        At(130, 150, 3),                   // ends after parent
    };
    const std::vector<std::int64_t> self = SelfTimes(spans);
    EXPECT_EQ(self[0], 50 - 30);  // children cover [5,35)
    EXPECT_EQ(self[3], 40 - 10 - 10);
    EXPECT_EQ(self[1], 20);
}

TEST(SpanLog, ParentsFollowNesting)
{
    SpanLog log;
    {
        ScopedSpan outer(&log, Layer::kIteration, 7);
        { ScopedSpan a(&log, Layer::kFrontend, 7); }
        {
            ScopedSpan b(&log, Layer::kFrontend, 7);
            ScopedSpan c(&log, Layer::kMining, 7);
        }
    }
    { ScopedSpan next(&log, Layer::kSim, 8); }
    const std::vector<Span>& spans = log.Spans();
    ASSERT_EQ(spans.size(), 5u);
    EXPECT_EQ(spans[0].parent, kNoParent);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[2].parent, 0u);
    EXPECT_EQ(spans[3].parent, 2u);
    EXPECT_EQ(spans[4].parent, kNoParent);
    EXPECT_EQ(spans[3].iteration, 7u);
    for (const Span& span : spans) {
        EXPECT_LE(span.begin_ns, span.end_ns);
    }
    ScopedSpan nothing(nullptr, Layer::kSim, 0);  // null log records nothing
    EXPECT_EQ(log.Spans().size(), 5u);
}

TEST(MetricNames, Charset)
{
    EXPECT_TRUE(ValidMetricName("core.self_ns_per_task"));
    EXPECT_TRUE(ValidMetricName("9-a_b.c"));
    EXPECT_FALSE(ValidMetricName(""));
    EXPECT_FALSE(ValidMetricName(".core"));
    EXPECT_FALSE(ValidMetricName("_core"));
    EXPECT_FALSE(ValidMetricName("core self"));
    EXPECT_FALSE(ValidMetricName("core/self"));
    EXPECT_FALSE(ValidMetricName("µs"));
    EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
    EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNames, TablesAreValidUniqueAndMatchBenchmarkJson)
{
    std::ifstream in(APOBENCH_JSON);
    ASSERT_TRUE(in) << APOBENCH_JSON;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    const std::size_t e2e = json.find("\"end_to_end\"");
    const std::size_t layer = json.find("\"per_layer\"");
    ASSERT_NE(e2e, std::string::npos);
    ASSERT_NE(layer, std::string::npos);

    std::set<std::string_view> seen;
    const auto check = [&](const auto& table, std::size_t section) {
        for (const MetricSpec& spec : table) {
            EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
            EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
            const std::string key =
                "\"name\": \"" + std::string(spec.name) + "\"";
            const std::size_t at = json.find(key);
            ASSERT_NE(at, std::string::npos) << spec.name;
            const std::string unit =
                "\"unit\": \"" + std::string(spec.unit) + "\"";
            EXPECT_EQ(json.find("\"unit\": \"", at), json.find(unit, at))
                << spec.name << " has another unit in BENCHMARK.json";
            // In the section the table belongs to.
            EXPECT_GT(at, section) << spec.name;
            if (section == e2e) {
                EXPECT_LT(at, layer) << spec.name;
            }
        }
    };
    check(kEndToEnd, e2e);
    check(kPerLayer, layer);

    // And no metric in the file that the tables lack.
    std::size_t names = 0;
    for (std::size_t at = json.find("\"name\": \"", e2e);
         at != std::string::npos; at = json.find("\"name\": \"", at + 1)) {
        ++names;
    }
    EXPECT_EQ(names, kEndToEnd.size() + kPerLayer.size());
}

}  // namespace
}  // namespace apobench
