/**
 * @file
 * Tests for the observability plane's telemetry core
 * (docs/OBSERVABILITY.md): histogram percentiles, registry snapshots
 * with interval deltas and rates, the Prometheus text exposition, the
 * CASN binary snapshot image (round-trip + hostile-input hardening),
 * and snapshot consistency under concurrent mutation (the TSan config
 * runs this suite via its `runtime` label).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/error.h"
#include "core/rng.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace ca::telemetry {
namespace {

// --- Histogram percentiles ---------------------------------------------

TEST(HistogramPercentile, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.p99(), 0.0);
}

TEST(HistogramPercentile, SingleSampleQuantizesToItsBucket)
{
    // Log2 buckets: one sample of 1000 lands in [512, 1023]; every
    // quantile reports that bucket's low edge (frac 0 for n == 1),
    // never more than the exact tracked max.
    Histogram h;
    h.observe(1000);
    for (double q : {0.5, 0.99, 1.0}) {
        double est = h.percentile(q);
        EXPECT_GE(est, static_cast<double>(
                           Histogram::bucketLow(Histogram::bucketIndex(1000))));
        EXPECT_LE(est, 1000.0);
    }
}

TEST(HistogramPercentile, TopQuantileNeverExceedsMax)
{
    Histogram h;
    for (uint64_t v : {3u, 900u, 17u, 250000u, 42u})
        h.observe(v);
    // max is tracked exactly, so even in the sparse top bucket
    // ([131072, 262143] here) the estimate is capped at the true
    // maximum rather than the bucket's high edge.
    double top = h.percentile(1.0);
    EXPECT_GE(top, static_cast<double>(
                       Histogram::bucketLow(Histogram::bucketIndex(250000))));
    EXPECT_LE(top, 250000.0);
}

TEST(HistogramPercentile, UniformSamplesLandInRightBucket)
{
    Histogram h;
    for (uint64_t v = 1; v <= 1000; ++v)
        h.observe(v);
    // Log2 buckets: the estimate must land in the same power-of-two
    // bracket as the true order statistic.
    double p50 = h.p50();
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1023.0);
    double p99 = h.p99();
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1000.0);
    // Ordering between quantiles always holds.
    EXPECT_LE(h.p50(), h.p90());
    EXPECT_LE(h.p90(), h.p99());
}

TEST(HistogramPercentile, ZeroesStayZero)
{
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.observe(0);
    h.observe(1 << 20);
    EXPECT_EQ(h.p50(), 0.0);
    EXPECT_EQ(h.percentile(1.0), static_cast<double>(1 << 20));
}

TEST(HistogramPercentile, PercentileOfMatchesLiveHistogram)
{
    Histogram h;
    uint64_t buckets[Histogram::kNumBuckets] = {};
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
        uint64_t v = rng.next() % 100000;
        h.observe(v);
        ++buckets[Histogram::bucketIndex(v)];
    }
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_EQ(h.percentile(q),
                  Histogram::percentileOf(buckets, h.max(), q));
}

// --- Snapshot capture, delta, rates ------------------------------------

TEST(Snapshot, CapturesRegisteredMetrics)
{
    MetricsRegistry reg;
    reg.counter("obs.c").add(5);
    reg.gauge("obs.g").set(2.5);
    reg.histogram("obs.h").observe(100);
    reg.histogram("obs.h").observe(200);

    MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.size(), 3u);
    ASSERT_NE(s.find("obs.c"), nullptr);
    EXPECT_EQ(s.find("obs.c")->counter, 5u);
    ASSERT_NE(s.find("obs.g"), nullptr);
    EXPECT_DOUBLE_EQ(s.find("obs.g")->gauge, 2.5);
    const MetricValue *h = s.find("obs.h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->sum, 300u);
    EXPECT_EQ(h->max, 200u);
    EXPECT_EQ(h->buckets.size(),
              static_cast<size_t>(Histogram::kNumBuckets));
    EXPECT_GT(h->percentile(0.5), 0.0);
    EXPECT_EQ(s.find("obs.nope"), nullptr);
}

TEST(Snapshot, DeltaSubtractsCountersKeepsGauges)
{
    MetricsRegistry reg;
    reg.counter("d.c").add(10);
    reg.gauge("d.g").set(1.0);
    reg.histogram("d.h").observe(64);
    MetricsSnapshot before = reg.snapshot();

    reg.counter("d.c").add(7);
    reg.gauge("d.g").set(9.0);
    reg.histogram("d.h").observe(64);
    reg.histogram("d.h").observe(64);
    reg.counter("d.new").add(3); // appears between captures
    MetricsSnapshot after = reg.snapshot();

    MetricsSnapshot delta = after.deltaSince(before);
    EXPECT_EQ(delta.find("d.c")->counter, 7u);
    EXPECT_DOUBLE_EQ(delta.find("d.g")->gauge, 9.0); // newer value
    EXPECT_EQ(delta.find("d.h")->count, 2u);
    EXPECT_EQ(delta.find("d.h")->sum, 128u);
    ASSERT_NE(delta.find("d.new"), nullptr); // included whole
    EXPECT_EQ(delta.find("d.new")->counter, 3u);

    // A reset between captures clamps to the post-reset value instead
    // of underflowing.
    reg.resetAll();
    reg.counter("d.c").add(2);
    MetricsSnapshot post_reset = reg.snapshot();
    EXPECT_EQ(post_reset.deltaSince(after).find("d.c")->counter, 2u);
}

TEST(Snapshot, RatesDivideByElapsedMonotonicTime)
{
    MetricsRegistry reg;
    reg.counter("r.c").add(100);
    MetricsSnapshot a = reg.snapshot();
    reg.counter("r.c").add(50);
    reg.histogram("r.h").observe(1);
    reg.histogram("r.h").observe(1);
    MetricsSnapshot b = reg.snapshot();

    // Pin the interval so the expected rates are exact.
    a.monotonicMicros = 1'000'000;
    b.monotonicMicros = 3'000'000; // 2 s elapsed
    std::map<std::string, double> rates = b.ratesSince(a);
    EXPECT_DOUBLE_EQ(rates.at("r.c"), 25.0);
    EXPECT_DOUBLE_EQ(rates.at("r.h"), 1.0);

    // Zero or negative interval: no rates, not a division by zero.
    b.monotonicMicros = a.monotonicMicros;
    EXPECT_TRUE(b.ratesSince(a).empty());
}

// --- Prometheus exposition ---------------------------------------------

TEST(Prometheus, NameSanitization)
{
    EXPECT_EQ(prometheusName("ca.net.bytes_in"), "ca_net_bytes_in");
    EXPECT_EQ(prometheusName("weird metric/name"), "weird_metric_name");
    EXPECT_EQ(prometheusName("9starts_with_digit"),
              "_9starts_with_digit");
    EXPECT_EQ(prometheusName("ok:colons_kept"), "ok:colons_kept");
}

TEST(Prometheus, TextFormatCoversEveryKind)
{
    MetricsRegistry reg;
    reg.counter("p.count").add(42);
    reg.gauge("p.gauge").set(0.5);
    reg.histogram("p.hist").observe(3);
    reg.histogram("p.hist").observe(300);
    std::string text = reg.snapshot().prometheusText();

    EXPECT_NE(text.find("# TYPE p_count_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("p_count_total 42\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE p_gauge gauge\n"), std::string::npos);
    EXPECT_NE(text.find("p_gauge 0.5\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE p_hist histogram\n"), std::string::npos);
    EXPECT_NE(text.find("p_hist_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("p_hist_sum 303\n"), std::string::npos);
    EXPECT_NE(text.find("p_hist_count 2\n"), std::string::npos);

    // Every non-comment line is `name[{labels}] value` — parseable by
    // a scraper: two space-separated fields, finite numeric second.
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        std::string line = text.substr(start, end - start);
        start = (end == std::string::npos) ? text.size() : end + 1;
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_NO_THROW({
            double v = std::stod(line.substr(sp + 1));
            EXPECT_TRUE(std::isfinite(v)) << line;
        }) << line;
    }
}

TEST(Prometheus, CumulativeBucketsAreMonotone)
{
    MetricsRegistry reg;
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        reg.histogram("m.h").observe(rng.next() % 4096);
    std::string text = reg.snapshot().prometheusText();
    uint64_t prev = 0;
    size_t pos = 0;
    int lines = 0;
    while ((pos = text.find("m_h_bucket{", pos)) != std::string::npos) {
        size_t sp = text.find(' ', pos);
        uint64_t cum = std::stoull(text.substr(sp + 1));
        EXPECT_GE(cum, prev);
        prev = cum;
        ++lines;
        pos = sp;
    }
    EXPECT_GT(lines, 1);
    EXPECT_EQ(prev, 200u); // +Inf bucket equals the sample count
}

// --- CASN binary image --------------------------------------------------

MetricsSnapshot
sampleSnapshot()
{
    MetricsRegistry reg;
    reg.counter("s.counter").add(123456789);
    reg.gauge("s.gauge").set(-2.75);
    reg.gauge("s.weird/name with spaces").set(1.0);
    Rng rng(99);
    for (int i = 0; i < 300; ++i)
        reg.histogram("s.hist").observe(rng.next() % (1u << 24));
    return reg.snapshot();
}

TEST(CasnImage, RoundTripPreservesEverything)
{
    MetricsSnapshot s = sampleSnapshot();
    std::vector<uint8_t> img = s.serialize();
    ASSERT_GE(img.size(), 4u);
    EXPECT_EQ(0, std::memcmp(img.data(), "CASN", 4)); // magic, LE

    MetricsSnapshot d = MetricsSnapshot::deserialize(img);
    EXPECT_EQ(d.monotonicMicros, s.monotonicMicros);
    ASSERT_EQ(d.size(), s.size());
    for (const auto &[name, v] : s.metrics) {
        const MetricValue *dv = d.find(name);
        ASSERT_NE(dv, nullptr) << name;
        EXPECT_EQ(dv->kind, v.kind);
        EXPECT_EQ(dv->counter, v.counter);
        EXPECT_DOUBLE_EQ(dv->gauge, v.gauge);
        EXPECT_EQ(dv->count, v.count);
        EXPECT_EQ(dv->sum, v.sum);
        EXPECT_EQ(dv->max, v.max);
        EXPECT_EQ(dv->buckets, v.buckets);
    }
    // Derived quantities survive the trip exactly.
    EXPECT_EQ(d.find("s.hist")->p99(), s.find("s.hist")->p99());
}

TEST(CasnImage, EmptySnapshotRoundTrips)
{
    MetricsRegistry reg;
    MetricsSnapshot s = reg.snapshot();
    MetricsSnapshot d = MetricsSnapshot::deserialize(s.serialize());
    EXPECT_TRUE(d.empty());
}

TEST(CasnImage, TruncationSweepThrowsNeverCrashes)
{
    std::vector<uint8_t> img = sampleSnapshot().serialize();
    for (size_t cut = 0; cut < img.size(); ++cut) {
        try {
            MetricsSnapshot::deserialize(img.data(), cut);
            FAIL() << "prefix of " << cut << " bytes decoded";
        } catch (const CaError &) {
            // expected: every strict prefix is ill-formed
        }
    }
}

TEST(CasnImage, MutationFuzzThrowsOrDecodes)
{
    std::vector<uint8_t> img = sampleSnapshot().serialize();
    Rng rng(0xCA51);
    for (int round = 0; round < 2000; ++round) {
        std::vector<uint8_t> bad = img;
        // 1-4 byte flips anywhere in the image.
        int flips = 1 + static_cast<int>(rng.next() % 4);
        for (int i = 0; i < flips; ++i)
            bad[rng.next() % bad.size()] ^=
                static_cast<uint8_t>(1 + rng.next() % 255);
        try {
            MetricsSnapshot d = MetricsSnapshot::deserialize(bad);
            (void)d.prometheusText(); // decoded images must render too
        } catch (const CaError &) {
            // rejection is fine; UB/UAF/alloc-bombs are what TSan/ASan
            // and the process surviving this loop rule out
        }
    }
}

TEST(CasnImage, HostileMetricCountDoesNotAllocate)
{
    // Header claiming 2^31 metrics with a 1-byte body must be rejected
    // by the pre-allocation guard, not by the OOM killer.
    MetricsRegistry reg;
    reg.counter("x").add(1);
    std::vector<uint8_t> img = reg.snapshot().serialize();
    // metricCount lives after magic(4) + version(2) + micros(8).
    img[14] = 0xff;
    img[15] = 0xff;
    img[16] = 0xff;
    img[17] = 0x7f;
    EXPECT_THROW(MetricsSnapshot::deserialize(img), CaError);
}

// --- Concurrency: snapshot while mutating (TSan-checked) ---------------

TEST(SnapshotConcurrency, SnapshotWhileMutatingIsConsistent)
{
    MetricsRegistry reg;
    std::atomic<bool> stop{false};
    std::thread writers[3];
    for (int t = 0; t < 3; ++t)
        writers[t] = std::thread([&reg, &stop, t] {
            std::string cname = "cc.c" + std::to_string(t);
            std::string hname = "cc.h" + std::to_string(t);
            Counter &c = reg.counter(cname);
            Histogram &h = reg.histogram(hname);
            uint64_t v = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                c.add(1);
                h.observe(v++ % 1024);
            }
        });

    for (int i = 0; i < 200; ++i) {
        MetricsSnapshot s = reg.snapshot();
        for (const auto &[name, v] : s.metrics) {
            if (v.kind != MetricKind::Histogram)
                continue;
            // Per-metric consistency: the copied buckets sum to the
            // copied count (count is derived from the same array).
            uint64_t bucket_total = 0;
            for (uint64_t b : v.buckets)
                bucket_total += b;
            EXPECT_EQ(bucket_total, v.count) << name;
        }
        // Serialization of a concurrent capture is always well-formed.
        MetricsSnapshot d = MetricsSnapshot::deserialize(s.serialize());
        EXPECT_EQ(d.size(), s.size());
    }
    stop.store(true);
    for (auto &w : writers)
        w.join();

    // Final capture equals the quiesced truth.
    MetricsSnapshot end = reg.snapshot();
    for (int t = 0; t < 3; ++t) {
        std::string cname = "cc.c" + std::to_string(t);
        std::string hname = "cc.h" + std::to_string(t);
        EXPECT_EQ(end.find(cname)->counter,
                  reg.counter(cname).value());
        EXPECT_EQ(end.find(hname)->count,
                  reg.histogram(hname).count());
    }
}

// --- Global registry ---------------------------------------------------

TEST(BuildConfig, GlobalRegistrySnapshotWorksInBothConfigs)
{
    // Capturing and serializing the global registry must work whatever
    // it holds (it stays empty while the runtime switch is off).
    MetricsSnapshot s = MetricsRegistry::global().snapshot();
    std::vector<uint8_t> img = s.serialize();
    MetricsSnapshot d = MetricsSnapshot::deserialize(img);
    EXPECT_EQ(d.size(), s.size());
}

} // namespace
} // namespace ca::telemetry
