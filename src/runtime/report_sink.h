/**
 * @file
 * Match-report sinks for the multi-stream runtime.
 *
 * The hardware raises an output-buffer interrupt and the OS drains the
 * report buffer (§2.8); in the runtime that drain is a ReportSink. A
 * worker delivers each session's reports in stream order — the sequence
 * of onReports() calls for one session, concatenated, is byte-identical
 * to a single-threaded run of the CPU oracle on the same input
 * (docs/RUNTIME.md, "Determinism").
 *
 * Calls for *different* sessions arrive concurrently from different
 * workers, so sinks must be thread-safe. Sinks must not call back into
 * StreamSession/StreamServer (a sink that blocks on flush() would
 * deadlock the worker delivering to it).
 */
#ifndef CA_RUNTIME_REPORT_SINK_H
#define CA_RUNTIME_REPORT_SINK_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "baseline/nfa_engine.h"

namespace ca::runtime {

/** Final accounting delivered with a session's close notification. */
struct SessionSummary
{
    uint64_t symbols = 0; ///< Stream bytes simulated.
    uint64_t reports = 0; ///< Reports delivered over the session.
};

/** Consumer of a session's match reports. */
class ReportSink
{
  public:
    virtual ~ReportSink() = default;

    /**
     * One in-order batch of reports from session @p sessionId (offsets
     * are absolute stream positions). The array is only valid for the
     * duration of the call.
     */
    virtual void onReports(uint32_t sessionId, const Report *reports,
                           size_t count) = 0;

    /** The session closed; no further calls for @p sessionId follow. */
    virtual void
    onClose(uint32_t sessionId, const SessionSummary &summary)
    {
        (void)sessionId;
        (void)summary;
    }
};

/** Adapts plain functions/lambdas to the sink interface. */
class CallbackSink final : public ReportSink
{
  public:
    using ReportsFn =
        std::function<void(uint32_t, const Report *, size_t)>;
    using CloseFn = std::function<void(uint32_t, const SessionSummary &)>;

    explicit CallbackSink(ReportsFn on_reports, CloseFn on_close = {})
        : on_reports_(std::move(on_reports)),
          on_close_(std::move(on_close))
    {
    }

    void
    onReports(uint32_t sessionId, const Report *reports,
              size_t count) override
    {
        if (on_reports_)
            on_reports_(sessionId, reports, count);
    }

    void
    onClose(uint32_t sessionId, const SessionSummary &summary) override
    {
        if (on_close_)
            on_close_(sessionId, summary);
    }

  private:
    ReportsFn on_reports_;
    CloseFn on_close_;
};

/**
 * Accumulates every report per session (tests, small batch jobs). The
 * per-session vectors are in stream order.
 */
class CollectingSink final : public ReportSink
{
  public:
    void onReports(uint32_t sessionId, const Report *reports,
                   size_t count) override;
    void onClose(uint32_t sessionId,
                 const SessionSummary &summary) override;

    /** Reports collected for @p sessionId (copy; safe after close). */
    std::vector<Report> reports(uint32_t sessionId) const;

    /** Summary delivered at close ({} if the session is still open). */
    SessionSummary summary(uint32_t sessionId) const;

    size_t sessionsClosed() const;

  private:
    mutable std::mutex mutex_;
    std::map<uint32_t, std::vector<Report>> reports_;
    std::map<uint32_t, SessionSummary> summaries_;
};

/**
 * Counts reports without storing them — the high-traffic sink (an IDS
 * counting alerts, a bench measuring aggregate throughput).
 */
class CountingSink final : public ReportSink
{
  public:
    void
    onReports(uint32_t, const Report *, size_t count) override
    {
        total_reports_.fetch_add(count, std::memory_order_relaxed);
        batches_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    onClose(uint32_t, const SessionSummary &summary) override
    {
        total_symbols_.fetch_add(summary.symbols,
                                 std::memory_order_relaxed);
        closed_.fetch_add(1, std::memory_order_relaxed);
    }

    uint64_t totalReports() const { return total_reports_.load(); }
    uint64_t totalSymbols() const { return total_symbols_.load(); }
    uint64_t batches() const { return batches_.load(); }
    uint64_t sessionsClosed() const { return closed_.load(); }

  private:
    std::atomic<uint64_t> total_reports_{0};
    std::atomic<uint64_t> total_symbols_{0};
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> closed_{0};
};

} // namespace ca::runtime

#endif // CA_RUNTIME_REPORT_SINK_H
