/**
 * @file
 * Tests for the telemetry subsystem: registry thread-safety, histogram
 * bucket boundaries, exporter well-formedness (the JSON is parsed back
 * with a minimal validating parser), and a pipeline smoke test asserting
 * the expected stage spans and counters appear after a compile→map→sim
 * run.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/mapping.h"
#include "nfa/glushkov.h"
#include "sim/engine.h"
#include "telemetry/telemetry.h"
#include "workload/input_gen.h"

namespace ca {
namespace {

using telemetry::Counter;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::TraceCollector;

// ------------------------------------------------- minimal JSON parser
//
// Just enough JSON to round-trip the exporters: objects, arrays,
// strings, numbers, true/false/null. Throws std::runtime_error on any
// syntax violation, which is exactly what the well-formedness tests
// assert does not happen.

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }

    bool has(const std::string &key) const { return fields.count(key); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n')
            return parseNull();
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Object;
        expect('{');
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipSpace();
            JsonValue key = parseString();
            skipSpace();
            expect(':');
            v.fields[key.str] = parseValue();
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Array;
        expect('[');
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        JsonValue v;
        v.kind = JsonValue::String;
        expect('"');
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("bad escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case '/': v.str += '/'; break;
                  case 'n': v.str += '\n'; break;
                  case 't': v.str += '\t'; break;
                  case 'r': v.str += '\r'; break;
                  case 'b': v.str += '\b'; break;
                  case 'f': v.str += '\f'; break;
                  case 'u':
                    if (pos_ + 4 > text_.size())
                        fail("bad \\u escape");
                    pos_ += 4;
                    v.str += '?';
                    break;
                  default: fail("unknown escape");
                }
            } else {
                v.str += c;
            }
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        JsonValue v;
        v.kind = JsonValue::Null;
        return v;
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

/** Enables telemetry for one test and restores the prior state after. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        was_enabled_ = telemetry::enabled();
        telemetry::setEnabled(true);
        MetricsRegistry::global().resetAll();
        TraceCollector::global().clear();
    }

    void TearDown() override { telemetry::setEnabled(was_enabled_); }

  private:
    bool was_enabled_ = false;
};

// ------------------------------------------------------------ registry

TEST_F(TelemetryTest, CounterGaugeBasics)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("ca.test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name returns the same handle.
    EXPECT_EQ(&reg.counter("ca.test.counter"), &c);

    reg.gauge("ca.test.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("ca.test.gauge").value(), 2.5);
    EXPECT_EQ(reg.size(), 2u);

    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("ca.test.gauge").value(), 0.0);
}

TEST_F(TelemetryTest, KindMismatchThrows)
{
    MetricsRegistry reg;
    reg.counter("ca.test.metric");
    EXPECT_THROW(reg.gauge("ca.test.metric"), std::logic_error);
    EXPECT_THROW(reg.histogram("ca.test.metric"), std::logic_error);
}

TEST_F(TelemetryTest, RegistryConcurrentCounting)
{
    MetricsRegistry reg;
    constexpr int kIters = 100000;
    // Both threads resolve the handle through the registry *and* bump the
    // same counter, exercising the registration lock and the atomic adds.
    auto worker = [&reg] {
        Counter &c = reg.counter("ca.test.shared");
        for (int i = 0; i < kIters; ++i) {
            c.add();
            if (i % 1024 == 0)
                reg.counter("ca.test.shared").add(0); // re-lookup path
        }
    };
    std::thread a(worker);
    std::thread b(worker);
    a.join();
    b.join();
    EXPECT_EQ(reg.counter("ca.test.shared").value(),
              static_cast<uint64_t>(2 * kIters));
}

TEST_F(TelemetryTest, ConcurrentDistinctRegistrations)
{
    MetricsRegistry reg;
    constexpr int kNames = 200;
    auto worker = [&reg](int salt) {
        for (int i = 0; i < kNames; ++i)
            reg.counter("ca.test.n" + std::to_string(i)).add(1 + salt);
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    EXPECT_EQ(reg.size(), static_cast<size_t>(kNames));
    EXPECT_EQ(reg.counter("ca.test.n0").value(), 3u); // 1 + 2
}

// ----------------------------------------------------------- histogram

TEST_F(TelemetryTest, HistogramBucketBoundaries)
{
    // Bucket 0 = {0}; bucket i>=1 = [2^(i-1), 2^i - 1].
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1), 1);
    EXPECT_EQ(Histogram::bucketIndex(2), 2);
    EXPECT_EQ(Histogram::bucketIndex(3), 2);
    EXPECT_EQ(Histogram::bucketIndex(4), 3);
    EXPECT_EQ(Histogram::bucketIndex(7), 3);
    EXPECT_EQ(Histogram::bucketIndex(8), 4);
    EXPECT_EQ(Histogram::bucketIndex(~uint64_t{0}), 64);

    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketLow(i)), i)
            << "low edge of bucket " << i;
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketHigh(i)), i)
            << "high edge of bucket " << i;
    }
    // Each bucket's high edge is adjacent to the next bucket's low edge.
    for (int i = 0; i + 1 < Histogram::kNumBuckets; ++i)
        EXPECT_EQ(Histogram::bucketHigh(i) + 1, Histogram::bucketLow(i + 1));
}

TEST_F(TelemetryTest, HistogramObserveAndAggregates)
{
    Histogram h;
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(3);
    h.observe(1000);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1006u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);             // {0}
    EXPECT_EQ(h.bucketCount(1), 1u);             // {1}
    EXPECT_EQ(h.bucketCount(2), 2u);             // {2, 3}
    EXPECT_EQ(h.bucketCount(Histogram::bucketIndex(1000)), 1u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

// ----------------------------------------------------------- exporters

TEST_F(TelemetryTest, MetricsJsonRoundTrips)
{
    MetricsRegistry reg;
    reg.counter("ca.test.counter").add(7);
    reg.gauge("ca.test.gauge").set(1.25);
    Histogram &h = reg.histogram("ca.test.hist");
    h.observe(0);
    h.observe(5);
    h.observe(512);

    std::ostringstream os;
    reg.writeJson(os);
    JsonValue root = JsonParser(os.str()).parse();

    EXPECT_EQ(root.at("schema").str, "ca.metrics.v1");
    const JsonValue &metrics = root.at("metrics");
    EXPECT_EQ(metrics.at("ca.test.counter").at("value").number, 7.0);
    EXPECT_EQ(metrics.at("ca.test.gauge").at("value").number, 1.25);
    const JsonValue &hist = metrics.at("ca.test.hist");
    EXPECT_EQ(hist.at("count").number, 3.0);
    EXPECT_EQ(hist.at("sum").number, 517.0);
    EXPECT_EQ(hist.at("max").number, 512.0);
    EXPECT_EQ(hist.at("buckets").items.size(), 3u); // 3 non-empty buckets
    for (const JsonValue &b : hist.at("buckets").items) {
        EXPECT_LE(b.at("lo").number, b.at("hi").number);
        EXPECT_GT(b.at("count").number, 0.0);
    }
}

TEST_F(TelemetryTest, MetricsCsvHasHeaderAndRows)
{
    MetricsRegistry reg;
    reg.counter("ca.test.a").add(1);
    reg.histogram("ca.test.b").observe(9);
    std::ostringstream os;
    reg.writeCsv(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "name,kind,value,count,sum,max,mean");
    int rows = 0;
    while (std::getline(is, line))
        ++rows;
    EXPECT_EQ(rows, 2);
}

TEST_F(TelemetryTest, TraceChromeJsonWellFormed)
{
    TraceCollector tc;
    tc.record("span \"quoted\"", "cat", 10, 5);
    tc.record("plain", "ca", 20, 1);

    std::ostringstream os;
    tc.writeChromeTrace(os);
    JsonValue root = JsonParser(os.str()).parse();

    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.items.size(), 2u);
    for (const JsonValue &ev : events.items) {
        EXPECT_EQ(ev.at("ph").str, "X");
        EXPECT_TRUE(ev.has("name"));
        EXPECT_TRUE(ev.has("ts"));
        EXPECT_TRUE(ev.has("dur"));
        EXPECT_TRUE(ev.has("pid"));
        EXPECT_TRUE(ev.has("tid"));
    }
    EXPECT_EQ(events.items[0].at("name").str, "span \"quoted\"");
    EXPECT_EQ(root.at("otherData").at("schema").str, "ca.trace.v1");
}

TEST_F(TelemetryTest, TraceCapacityBoundsMemory)
{
    TraceCollector tc;
    tc.setCapacity(3);
    for (int i = 0; i < 10; ++i)
        tc.record("e", "ca", 0, 1);
    EXPECT_EQ(tc.size(), 3u);
    EXPECT_EQ(tc.dropped(), 7u);
    tc.clear();
    EXPECT_EQ(tc.size(), 0u);
    EXPECT_EQ(tc.dropped(), 0u);
}

TEST_F(TelemetryTest, ScopedTimerRespectsRuntimeToggle)
{
    TraceCollector &tc = TraceCollector::global();
    size_t before = tc.size();
    {
        CA_TRACE_SCOPE("ca.test.span");
    }
    EXPECT_EQ(tc.size(), before + 1);
    telemetry::setEnabled(false);
    {
        CA_TRACE_SCOPE("ca.test.disabled_span");
    }
    telemetry::setEnabled(true);
    EXPECT_EQ(tc.size(), before + 1); // disabled span not recorded
}

// --------------------------------------------------- pipeline smoke test

TEST_F(TelemetryTest, PipelineEmitsExpectedSpansAndCounters)
{
    Nfa nfa = compileRuleset({"abc[0-9]+", "cart?", "GET /[a-z]+"});
    MappedAutomaton mapped = mapPerformance(nfa);

    InputSpec spec;
    spec.kind = StreamKind::Text;
    std::vector<uint8_t> input = buildInput(spec, 4096, 7);
    CacheAutomatonSim sim(mapped);
    SimResult res = sim.run(input);
    EXPECT_EQ(res.symbols, input.size());

    std::set<std::string> names;
    for (const auto &ev : TraceCollector::global().events())
        names.insert(ev.name);
    for (const char *expected :
         {"ca.nfa.compile_ruleset", "ca.partition.cc_analysis",
          "ca.compiler.map", "ca.compiler.map_attempt", "ca.sim.run"}) {
        EXPECT_TRUE(names.count(expected))
            << "missing pipeline span " << expected;
    }

    auto &reg = MetricsRegistry::global();
    EXPECT_EQ(reg.counter("ca.sim.symbols").value(), input.size());
    EXPECT_EQ(reg.counter("ca.nfa.patterns_compiled").value(), 3u);
    EXPECT_GE(reg.counter("ca.compiler.partitions_mapped").value(), 1u);
    EXPECT_GT(reg.counter("ca.sim.active_states").value(), 0u);
    EXPECT_EQ(reg.histogram("ca.sim.feed_symbols").count(), 1u);
    EXPECT_EQ(reg.histogram("ca.sim.feed_symbols").sum(), input.size());

    // The full registry dump stays parseable JSON.
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_NO_THROW(JsonParser(os.str()).parse());

    // And the real trace export too.
    std::ostringstream ts;
    TraceCollector::global().writeChromeTrace(ts);
    JsonValue troot = JsonParser(ts.str()).parse();
    EXPECT_GE(troot.at("traceEvents").items.size(), 5u);
}

} // namespace
} // namespace ca
