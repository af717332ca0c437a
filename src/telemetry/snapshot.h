/**
 * @file
 * Point-in-time metric snapshots and the live exposition formats.
 *
 * The registry's JSON/CSV exporters (metrics.cpp) are end-of-run
 * artifacts; the observability plane (docs/OBSERVABILITY.md) needs the
 * same data *while the process runs*. A MetricsSnapshot is an immutable
 * copy of the registry taken under its mutex, cheap enough to capture on
 * a poll interval, and supports:
 *
 *  - deltaSince()/ratesSince(): interval deltas and per-second rates
 *    between two snapshots (what `ca_top` renders);
 *  - writePrometheus(): the Prometheus text exposition served by
 *    `ca_server --stats-port`;
 *  - serialize()/deserialize(): a compact versioned binary image
 *    ("CASN", core/serde.h primitives, bounds-checked decode) carried
 *    inside STATS_REPLY frames.
 *
 * While the runtime switch is off the registry stays empty, and
 * snapshots are simply empty rather than erroring.
 */
#ifndef CA_TELEMETRY_SNAPSHOT_H
#define CA_TELEMETRY_SNAPSHOT_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace ca::telemetry {

/** "CASN" little-endian fourcc heading a binary snapshot image. */
constexpr uint32_t kSnapshotMagic = 0x4e534143u;
/** Bump on any binary-layout change; deserialize rejects others. */
constexpr uint16_t kSnapshotVersion = 1;

/**
 * Value of one metric at capture time. `kind` decides which fields are
 * meaningful; the rest keep their zero defaults.
 */
struct MetricValue
{
    MetricKind kind = MetricKind::Counter;
    uint64_t counter = 0;
    double gauge = 0.0;
    // Histogram (buckets has Histogram::kNumBuckets entries when set).
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::vector<uint64_t> buckets;

    /** Histogram quantile (Histogram::percentileOf); 0 otherwise. */
    double percentile(double q) const;
    double p50() const { return percentile(0.50); }
    double p90() const { return percentile(0.90); }
    double p99() const { return percentile(0.99); }
};

/**
 * Immutable point-in-time copy of a MetricsRegistry (sorted by name, so
 * every exposition below is deterministic for a given capture).
 */
class MetricsSnapshot
{
  public:
    /** steady_clock capture time, for ratesSince() intervals. */
    uint64_t monotonicMicros = 0;
    std::map<std::string, MetricValue> metrics;

    bool empty() const { return metrics.empty(); }
    size_t size() const { return metrics.size(); }

    /** The named metric, or nullptr if this capture doesn't have it. */
    const MetricValue *find(const std::string &name) const;

    /**
     * Interval delta `this - earlier`. Counters and histogram
     * counts/sums/buckets subtract (clamped at zero, so a resetAll()
     * between captures yields the post-reset values instead of an
     * underflow); gauges and histogram max keep this snapshot's value
     * (neither is meaningfully subtractable). Metrics absent from
     * @p earlier are included whole.
     */
    MetricsSnapshot deltaSince(const MetricsSnapshot &earlier) const;

    /**
     * Per-second rates over the interval between the two captures:
     * counter value deltas and histogram sample-count deltas divided by
     * the elapsed monotonic time. Empty when the interval is not
     * positive. Gauges are omitted.
     */
    std::map<std::string, double>
    ratesSince(const MetricsSnapshot &earlier) const;

    /**
     * Prometheus text exposition (format 0.0.4). Metric names are
     * sanitized (every character outside [a-zA-Z0-9_:] becomes '_');
     * counters gain the conventional `_total` suffix; histograms emit
     * cumulative `_bucket{le="..."}` lines over the non-empty log2
     * bucket boundaries plus `+Inf`, `_sum`, and `_count`.
     */
    void writePrometheus(std::ostream &os) const;
    std::string prometheusText() const;

    /** Compact versioned binary image (CASN, little-endian). */
    void serialize(std::vector<uint8_t> &out) const;
    std::vector<uint8_t> serialize() const;

    /**
     * Decodes a serialize() image. Bounds-checked throughout: any
     * truncated, oversized, or ill-formed input throws CaError — never
     * UB — so images that crossed a network are safe to parse.
     */
    static MetricsSnapshot deserialize(const uint8_t *data, size_t size);
    static MetricsSnapshot deserialize(const std::vector<uint8_t> &buf);
};

/** Prometheus-safe spelling of @p name (see writePrometheus). */
std::string prometheusName(const std::string &name);

} // namespace ca::telemetry

#endif // CA_TELEMETRY_SNAPSHOT_H
