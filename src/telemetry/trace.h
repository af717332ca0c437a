/**
 * @file
 * Span trace collection with Chrome trace_event export.
 *
 * ScopedTimer (usually via the CA_TRACE_SCOPE macro) records one complete
 * "X"-phase event per dynamic scope into the process-wide TraceCollector.
 * writeChromeTrace() emits the JSON object format that chrome://tracing
 * and Perfetto load directly, so a benchmark run's stage breakdown
 * (parse → Glushkov → partition → map → simulate) can be inspected on a
 * timeline.
 *
 * Collection is bounded: past the configured capacity events are counted
 * as dropped rather than grown without limit (a long simulation feeding
 * many chunks would otherwise exhaust memory).
 */
#ifndef CA_TELEMETRY_TRACE_H
#define CA_TELEMETRY_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/runtime.h"

namespace ca::telemetry {

/** One completed span ("X" phase event in the Chrome schema). */
struct TraceEvent
{
    std::string name;
    std::string category;
    uint64_t startMicros = 0; ///< Relative to the collector's epoch.
    uint64_t durationMicros = 0;
    uint32_t tid = 0;
};

class TraceCollector
{
  public:
    /** The process-wide collector CA_TRACE_SCOPE records into. */
    static TraceCollector &global();

    TraceCollector();

    /** Microseconds since the collector's epoch (steady clock). */
    uint64_t nowMicros() const;

    void record(std::string name, std::string category,
                uint64_t start_us, uint64_t duration_us);

    /** Drops recorded events (the epoch is kept). */
    void clear();

    size_t size() const;
    uint64_t dropped() const;

    /** Events past this count are dropped (default 1M). */
    void setCapacity(size_t capacity);

    /** Snapshot of the recorded events. */
    std::vector<TraceEvent> events() const;

    /** Chrome trace_event JSON object ({"traceEvents":[...]}). */
    void writeChromeTrace(std::ostream &os) const;

    bool saveFile(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    size_t capacity_ = 1u << 20;
    uint64_t dropped_ = 0;
    uint64_t epoch_ns_ = 0;
};

/**
 * RAII span: records [construction, destruction) into the global
 * collector when telemetry is runtime-enabled at construction. The name
 * and category stay pointers until record(), so a disabled span is the
 * enabled() test and four word stores: no string is built.
 */
class ScopedTimer
{
  public:
    /** Literal-name spans: no allocation happens when disabled. */
    explicit ScopedTimer(const char *name, const char *category = "ca")
        : name_(enabled() ? name : nullptr), category_(category)
    {
        if (name_)
            start_us_ = TraceCollector::global().nowMicros();
    }

    /** Dynamic-name spans (cold paths: per-benchmark labels). */
    explicit ScopedTimer(std::string name, std::string category)
        : ScopedTimer("", "")
    {
        if (name_) {
            owned_ = std::make_unique<const Names>(std::move(name),
                                                   std::move(category));
            name_ = owned_->first.c_str();
            category_ = owned_->second.c_str();
        }
    }

    ~ScopedTimer()
    {
        if (name_) {
            TraceCollector &tc = TraceCollector::global();
            uint64_t now = tc.nowMicros();
            tc.record(name_, category_, start_us_, now - start_us_);
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    using Names = std::pair<std::string, std::string>;

    /** Null when the span is disabled. */
    const char *name_;
    const char *category_;
    uint64_t start_us_ = 0;
    /** A dynamic-name span's name and category, which the pointers view. */
    std::unique_ptr<const Names> owned_;
};

} // namespace ca::telemetry

#endif // CA_TELEMETRY_TRACE_H
