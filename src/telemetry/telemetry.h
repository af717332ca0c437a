/**
 * @file
 * Telemetry umbrella: instrumentation macros, artifact dumping, and the
 * --metrics-out/--trace-out CLI session shared by benches and examples.
 *
 * One runtime switch gates collection (docs/TELEMETRY.md):
 * telemetry::setEnabled or the CA_TELEMETRY environment variable. While
 * it is off, each site costs one relaxed load + branch.
 *
 * Sites use the macros below so the registry lookup (mutex + map) runs
 * once per site, not per hit:
 *
 *   CA_TRACE_SCOPE("ca.compiler.map");          // RAII span
 *   CA_COUNTER_ADD("ca.sim.symbols", n);
 *   CA_GAUGE_SET("ca.compiler.utilization_mb", mb);
 *   CA_HISTOGRAM_OBSERVE("ca.sim.feed_symbols", size);
 */
#ifndef CA_TELEMETRY_TELEMETRY_H
#define CA_TELEMETRY_TELEMETRY_H

#include <iosfwd>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/runtime.h"
#include "telemetry/trace.h"

namespace ca::telemetry {

/** Writes the global registry to @p path (CSV iff it ends in ".csv"). */
bool dumpMetrics(const std::string &path);

/** Writes the global collector as Chrome trace JSON to @p path. */
bool dumpTrace(const std::string &path);

/**
 * Per-span-name aggregate (count / total / mean wall time) of everything
 * in the global collector, sorted by total time — the quickstart's
 * end-of-run stage breakdown.
 */
void printStageSummary(std::ostream &os);

/**
 * Scans argv for `--metrics-out <file>` / `--trace-out <file>` (the
 * `--flag=value` spelling works too), runtime-enables telemetry when
 * either is present, and writes the artifacts on destruction. Put one at
 * the top of main(); unrelated arguments are ignored.
 */
class CliSession
{
  public:
    CliSession(int argc, const char *const *argv);
    ~CliSession();

    CliSession(const CliSession &) = delete;
    CliSession &operator=(const CliSession &) = delete;

    bool active() const { return !metrics_path_.empty() ||
                                 !trace_path_.empty(); }
    const std::string &metricsPath() const { return metrics_path_; }
    const std::string &tracePath() const { return trace_path_; }

    /**
     * Removes the telemetry flags from argv (for mains that hand argv to
     * a stricter parser, e.g. google-benchmark). Returns the new argc.
     */
    static int stripArgs(int argc, char **argv);

  private:
    std::string metrics_path_;
    std::string trace_path_;
};

} // namespace ca::telemetry

#define CA_TELEMETRY_CAT2(a, b) a##b
#define CA_TELEMETRY_CAT(a, b) CA_TELEMETRY_CAT2(a, b)

/** RAII span over the enclosing scope, named by a string literal. */
#define CA_TRACE_SCOPE(name)                                               \
    ::ca::telemetry::ScopedTimer CA_TELEMETRY_CAT(ca_trace_scope_,         \
                                                  __LINE__)(name)

/** Same, with an explicit category (and std::string names allowed). */
#define CA_TRACE_SCOPE_CAT(name, cat)                                      \
    ::ca::telemetry::ScopedTimer CA_TELEMETRY_CAT(ca_trace_scope_,         \
                                                  __LINE__)(name, cat)

#define CA_COUNTER_ADD(name, delta)                                        \
    do {                                                                   \
        if (::ca::telemetry::enabled()) {                                  \
            static ::ca::telemetry::Counter &ca_tm_ctr_ =                  \
                ::ca::telemetry::MetricsRegistry::global().counter(name);  \
            ca_tm_ctr_.add(static_cast<uint64_t>(delta));                  \
        }                                                                  \
    } while (0)

#define CA_GAUGE_SET(name, value)                                          \
    do {                                                                   \
        if (::ca::telemetry::enabled()) {                                  \
            static ::ca::telemetry::Gauge &ca_tm_gauge_ =                  \
                ::ca::telemetry::MetricsRegistry::global().gauge(name);    \
            ca_tm_gauge_.set(static_cast<double>(value));                  \
        }                                                                  \
    } while (0)

#define CA_HISTOGRAM_OBSERVE(name, value)                                  \
    do {                                                                   \
        if (::ca::telemetry::enabled()) {                                  \
            static ::ca::telemetry::Histogram &ca_tm_hist_ =               \
                ::ca::telemetry::MetricsRegistry::global().histogram(      \
                    name);                                                 \
            ca_tm_hist_.observe(static_cast<uint64_t>(value));             \
        }                                                                  \
    } while (0)

#endif // CA_TELEMETRY_TELEMETRY_H
