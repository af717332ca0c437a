/**
 * @file
 * Shared pieces of the serving benchmark (see README.md): workload
 * descriptions, exact-sample percentiles, the span log the traced run
 * records, and the serving pass both runs use.
 */
#ifndef CA_PERFBENCH_BENCH_H
#define CA_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "net/match_server.h"
#include "nfa/nfa.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/** Exact latency samples; percentiles by nearest rank, no bucketing. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    void
    append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    size_t size() const { return v_.size(); }
    /** Nearest-rank percentile, @p p in (0, 100]; 0 when empty. */
    double percentile(double p) const;
    double mean() const;
    /** Samples strictly above percentile @p p. */
    size_t beyond(double p) const;

  private:
    std::vector<double> v_;
};

/**
 * Samples a full-scale run must have, so that 10 or more lie beyond its
 * p99; a run with fewer says so beside each percentile.
 */
constexpr size_t kMinSamples = 1000;

/**
 * Time slices the window is cut into for goodput, the median slice rate:
 * one burst of host noise then moves one slice, not the figure.
 */
constexpr size_t kSlices = 8;

/** One timed call into a layer (a Chrome trace "X" event when written). */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;  ///< Index of the enclosing span, -1 for a root.
    uint32_t request = 0; ///< Spans of one request share this id.
    uint32_t thread = 0;
};

/**
 * Per-thread span log, kept in memory and written when the run ends. A
 * disabled log records nothing, so untraced runs pay one branch per call.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on = false, uint32_t thread = 0)
        : on_(on), thread_(thread)
    {
    }
    bool on() const { return on_; }
    int32_t begin(const char *name, uint32_t request);
    void end(int32_t index);
    const std::vector<Span> &spans() const { return spans_; }
    /** Total milliseconds over the spans named @p name. */
    double totalMs(const char *name) const;
    /** Per-span milliseconds of the spans named @p name. */
    Samples durations(const char *name) const;
    /** Appends @p o's spans (parents re-indexed). */
    void append(const SpanLog &o);

  private:
    bool on_;
    uint32_t thread_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint32_t request = 0)
        : log_(log), index_(log.on() ? log.begin(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            log_.end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int32_t index_;
};

/**
 * Writes the first @p max_spans spans of @p log as Chrome trace-event
 * JSON; false on I/O failure.
 */
bool writeTrace(const std::string &path, const SpanLog &log,
                size_t max_spans);

/** Keeps a traced run's span file to tens of MB. */
constexpr size_t kMaxTraceSpans = 200000;

/** Resident set now and its peak so far, in MB. */
double rssNowMB();
double rssPeakMB();

// --- Workloads -----------------------------------------------------------

enum class Loop { Closed, Open };

/** Everything one workload run needs, generated from its seed. */
struct Workload
{
    std::string name;
    Loop loop = Loop::Closed;
    /** Client connections; one generator thread each. */
    size_t connections = 1;
    /** Closed loop: streams one connection takes turns over. */
    size_t streamsPerConnection = 1;
    /** Closed loop: DATA bytes sent per FLUSH (one request). */
    size_t requestBytes = 0;
    /** Open loop: offered requests per second over all connections. */
    double rate = 0.0;
    ca::net::MatchServerOptions server;
    /** The timed compile step: ruleset text to NFA. */
    std::function<ca::Nfa()> compile;
    std::string ruleset; ///< One-line description for the stamp.
    /** Closed loop: stream inputs; open loop: request messages. */
    std::vector<std::vector<uint8_t>> inputs;
};

const std::vector<std::string> &workloadNames();

/**
 * Builds workload @p name. Rulesets come from fixed rule seeds, so every
 * seed serves the same automaton; inputs come from @p seed. @p small
 * shrinks rulesets and inputs for the self-test.
 */
Workload makeWorkload(const std::string &name, uint64_t seed, bool small);

// --- Serving -------------------------------------------------------------

/** Per-phase times of one ruleset-to-HELLO pass. */
struct SetupTimes
{
    double compileMs = 0, mapMs = 0, packMs = 0, loadMs = 0, startMs = 0;
    double totalS = 0;
    size_t partitions = 0, artifactBytes = 0;
};

struct Served
{
    std::shared_ptr<const ca::MappedAutomaton> automaton;
    std::unique_ptr<ca::net::MatchServer> server;
    SetupTimes times;
};

/** Compile, map, pack, load, start; returns once the server said HELLO. */
Served setUp(const Workload &w, SpanLog &log);

/** Serial MatchEngine reports for every workload input. */
std::vector<std::vector<ca::Report>>
referenceReports(const Workload &w, const ca::MappedAutomaton &mapped);

/**
 * One connection's worth of streams as a generator thread sees it: a
 * MatchClient socket, or StreamServer sessions in process.
 */
class Transport
{
  public:
    virtual ~Transport() = default;
    virtual uint32_t open() = 0;
    virtual void send(uint32_t stream, const uint8_t *data, size_t n) = 0;
    virtual void flush(uint32_t stream) = 0;
    /** Closes @p stream; returns the symbols the server matched. */
    virtual uint64_t close(uint32_t stream) = 0;
    /** Reports delivered for @p stream since the last take. */
    virtual std::vector<ca::Report> take(uint32_t stream) = 0;
};

using Connector = std::function<std::unique_ptr<Transport>(SpanLog &)>;

/** MatchClient connections to a loopback server on @p port. */
Connector socketConnector(uint16_t port);

/**
 * Sessions of one in-process StreamServer, configured like the
 * workload's MatchServer, with a sink that hands reports to take().
 */
class InProcess;
std::shared_ptr<InProcess>
makeInProcess(std::shared_ptr<const ca::MappedAutomaton> m,
              const Workload &w);
Connector inProcessConnector(std::shared_ptr<InProcess> in);
ca::runtime::StreamServer &inProcessServer(InProcess &in);

/** What one timed window of traffic produced. */
struct DriveResult
{
    Samples requestMs; ///< Due instant to completion.
    Samples flushMs;   ///< FLUSH (closed) or CLOSE_STREAM (open) RTT.
    Samples lagMs;     ///< Open loop: start instant minus due instant.
    double lagFirstHalfMs = 0, lagSecondHalfMs = 0; ///< Mean lag.
    uint64_t requests = 0, failedRequests = 0;
    uint64_t streams = 0, failedStreams = 0;
    uint64_t bytes = 0;
    uint64_t reportRows = 0;
    /** (completion ms from the window's start, input bytes) per request. */
    std::vector<std::pair<double, uint64_t>> done;
    double wallS = 0;
    std::vector<std::string> errors;
    SpanLog spans;

    double
    goodputMBps() const
    {
        return wallS > 0 ? static_cast<double>(bytes) / 1e6 / wallS : 0;
    }
    /** Median over @p n equal time slices of each slice's input rate. */
    double slicedGoodputMBps(size_t n) const;
};

/**
 * Runs @p w's traffic for @p seconds through @p connect and checks every
 * delivered report against @p ref between requests.
 */
DriveResult drive(const Workload &w,
                  const std::vector<std::vector<ca::Report>> &ref,
                  double seconds, const Connector &connect, bool traced);

// --- Per-layer pass (traced run) -----------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Inputs the per-layer pass shares with the serving pass. */
struct LayerContext
{
    const Workload &w;
    const std::vector<std::vector<ca::Report>> &ref;
    std::shared_ptr<const ca::MappedAutomaton> automaton;
    double seconds; ///< The run's window; the pass takes ~0.4 of it.
    SpanLog &log;
};

struct LayerResult
{
    std::vector<Metric> metrics;
    /** Mean in-process request time, for the attribution. */
    double inprocRequestMeanMs = 0;
    /** Report, summary or request failures of the in-process replay. */
    std::vector<std::string> errors;
};

/** Kernel, runtime and wire layers replayed in isolation. */
LayerResult layerMetrics(const LayerContext &c);

} // namespace perfbench

#endif // CA_PERFBENCH_BENCH_H
