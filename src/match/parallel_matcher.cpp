#include "match/parallel_matcher.h"

#include <algorithm>
#include <charconv>
#include <chrono>

#include "telemetry/telemetry.h"

namespace ca::match {

namespace {

/**
 * Registry handles for the ca.match.* counters, resolved once per
 * process. Flushed once per match() call, never per chunk or symbol.
 */
struct MatchCounters
{
    telemetry::Counter &calls;
    telemetry::Counter &serialCalls;
    telemetry::Counter &bytes;
    telemetry::Counter &chunks;
    telemetry::Counter &speculationHits;
    telemetry::Counter &replays;
    telemetry::Counter &replayedBytes;
    telemetry::Counter &joinMicros;

    static MatchCounters &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::global();
        static MatchCounters c{
            reg.counter("ca.match.calls"),
            reg.counter("ca.match.serial_calls"),
            reg.counter("ca.match.bytes"),
            reg.counter("ca.match.chunks"),
            reg.counter("ca.match.speculation_hits"),
            reg.counter("ca.match.replays"),
            reg.counter("ca.match.replayed_bytes"),
            reg.counter("ca.match.join_micros"),
        };
        return c;
    }
};

size_t
hardwareDegree()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<size_t>(n);
}

} // namespace

std::optional<size_t>
parseMatchParallel(std::string_view value)
{
    if (value == "off" || value == "0" || value == "1" || value == "none")
        return size_t{0};
    if (value == "auto")
        return hardwareDegree();
    size_t n = 0;
    const char *first = value.data();
    const char *last = first + value.size();
    auto [ptr, ec] = std::from_chars(first, last, n);
    if (ec == std::errc{} && ptr == last && n >= 2)
        return n;
    return std::nullopt;
}

ParallelMatcher::ParallelMatcher(std::shared_ptr<const MatchContext> ctx,
                                 const ParallelOptions &opts)
    : ctx_(std::move(ctx)), opts_(opts),
      join_engine_(ctx_, opts.engine)
{
    degree_ = opts_.degree == 0 ? hardwareDegree() : opts_.degree;
    if (degree_ < 1)
        degree_ = 1;
    if (opts_.minChunkBytes == 0)
        opts_.minChunkBytes = 1;
    workers_.reserve(degree_ - 1);
    for (size_t i = 0; i + 1 < degree_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelMatcher::~ParallelMatcher()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ParallelMatcher::workerLoop()
{
    // Each worker owns one engine for its whole life, so per-chunk cost
    // is frontier loading, never table building.
    MatchEngine eng(ctx_, opts_.engine);
    for (;;) {
        Chunk *c = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run.
            c = queue_.front();
            queue_.pop_front();
        }
        runChunk(eng, *c);
        {
            std::lock_guard<std::mutex> lk(mu_);
            c->done = true;
        }
        cv_done_.notify_all();
    }
}

void
ParallelMatcher::runChunk(MatchEngine &eng, Chunk &c)
{
    // Warm-up: compose the frontier transformer over the preceding
    // chunk's tail starting from the reachable overapproximation. The
    // warm bytes' reports belong to the preceding chunk's exact pass,
    // so collection is off.
    eng.setCollectReports(false);
    eng.setState(ctx_->reachableFrontier(), c.base - c.warmLen);
    eng.feed(c.warm, c.warmLen);
    c.specStart = eng.frontier();
    eng.setCollectReports(true);
    eng.feed(c.data, c.len);
    c.end = eng.frontier();
    c.reports = eng.takeReports();
}

MatchResult
ParallelMatcher::match(const uint8_t *data, size_t size)
{
    const SimCheckpoint &start = ctx_->startCheckpoint();
    return match(start.enabledStates, start.enabledScores, 0, data, size);
}

MatchResult
ParallelMatcher::match(const std::vector<StateId> &frontier,
                       const std::vector<Score> &scores, uint64_t offset,
                       const uint8_t *data, size_t size)
{
    std::lock_guard<std::mutex> lk(call_mu_);
    return runLocked(frontier, scores, offset, data, size);
}

MatchResult
ParallelMatcher::match(const std::vector<StateId> &frontier,
                       uint64_t offset, const uint8_t *data, size_t size)
{
    return match(frontier, {}, offset, data, size);
}

std::optional<MatchResult>
ParallelMatcher::tryMatch(const std::vector<StateId> &frontier,
                          const std::vector<Score> &scores, uint64_t offset,
                          const uint8_t *data, size_t size)
{
    std::unique_lock<std::mutex> lk(call_mu_, std::try_to_lock);
    if (!lk.owns_lock())
        return std::nullopt;
    return runLocked(frontier, scores, offset, data, size);
}

std::optional<MatchResult>
ParallelMatcher::tryMatch(const std::vector<StateId> &frontier,
                          uint64_t offset, const uint8_t *data,
                          size_t size)
{
    return tryMatch(frontier, {}, offset, data, size);
}

void
ParallelMatcher::runSerial(MatchResult &out,
                           const std::vector<StateId> &frontier,
                           const std::vector<Score> &scores,
                           uint64_t offset, const uint8_t *data,
                           size_t size)
{
    join_engine_.setCollectReports(true);
    join_engine_.setState(frontier, scores, offset);
    join_engine_.feed(data, size);
    out.reports = join_engine_.takeReports();
    SimCheckpoint end = join_engine_.checkpoint();
    out.frontier = std::move(end.enabledStates);
    out.frontierScores = std::move(end.enabledScores);
    out.endOffset = offset + size;
}

MatchResult
ParallelMatcher::runLocked(const std::vector<StateId> &frontier,
                           const std::vector<Score> &scores,
                           uint64_t offset, const uint8_t *data,
                           size_t size)
{
    CA_TRACE_SCOPE("ca.match.run");
    MatchResult out;

    // Chunk count: every chunk at least minChunkBytes, at most one per
    // worker. N < 2 (short buffer or degree 1) runs serially. Weighted
    // automata always run serially: the speculative join proves only
    // frontier-set equality, and a converged *set* says nothing about
    // the accumulated scores, so a speculative chunk's scored reports
    // can never be certified.
    size_t n_chunks = std::min<size_t>(degree_, size / opts_.minChunkBytes);
    if (ctx_->scored())
        n_chunks = 1;
    if (n_chunks < 2 || workers_.empty()) {
        runSerial(out, frontier, scores, offset, data, size);
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.calls;
        ++stats_.serialCalls;
        stats_.bytes += size;
        ++stats_.chunks;
        if (telemetry::enabled()) {
            MatchCounters &mc = MatchCounters::get();
            mc.calls.add(1);
            mc.serialCalls.add(1);
            mc.bytes.add(size);
            mc.chunks.add(1);
        }
        return out;
    }

    // Partition [0, size) into n_chunks near-equal chunks; chunk 0 is
    // the exact one the caller runs while the helpers speculate.
    std::vector<Chunk> chunks(n_chunks);
    const size_t base_len = size / n_chunks;
    const size_t extra = size % n_chunks;
    size_t pos = 0;
    for (size_t i = 0; i < n_chunks; ++i) {
        Chunk &c = chunks[i];
        c.len = base_len + (i < extra ? 1 : 0);
        c.data = data + pos;
        c.base = offset + pos;
        if (i > 0) {
            c.warmLen = std::min(opts_.overlapBytes, pos);
            c.warm = data + (pos - c.warmLen);
        }
        pos += c.len;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        for (size_t i = 1; i < n_chunks; ++i)
            queue_.push_back(&chunks[i]);
    }
    cv_work_.notify_all();

    // Chunk 0 runs exactly from the incoming frontier.
    join_engine_.setCollectReports(true);
    join_engine_.setState(frontier, scores, offset);
    join_engine_.feed(chunks[0].data, chunks[0].len);
    out.reports = join_engine_.takeReports();
    std::vector<StateId> exact = join_engine_.frontier();

    // Left-to-right join: a speculative chunk whose warm-up converged
    // to the exact incoming frontier is already correct (reports and
    // end frontier alike); otherwise replay it from the exact frontier.
    uint64_t hits = 0;
    uint64_t replays = 0;
    uint64_t replayed_bytes = 0;
    const auto join_start = std::chrono::steady_clock::now();
    for (size_t i = 1; i < n_chunks; ++i) {
        Chunk &c = chunks[i];
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_done_.wait(lk, [&] { return c.done; });
        }
        if (c.specStart == exact) {
            ++hits;
            out.reports.insert(out.reports.end(), c.reports.begin(),
                               c.reports.end());
            exact = std::move(c.end);
        } else {
            ++replays;
            replayed_bytes += c.len;
            join_engine_.setState(exact, c.base);
            join_engine_.feed(c.data, c.len);
            std::vector<Report> r = join_engine_.takeReports();
            out.reports.insert(out.reports.end(), r.begin(), r.end());
            exact = join_engine_.frontier();
        }
    }
    const uint64_t join_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - join_start)
            .count());

    out.frontier = std::move(exact);
    out.endOffset = offset + size;

    {
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.calls;
        stats_.bytes += size;
        stats_.chunks += n_chunks;
        stats_.speculationHits += hits;
        stats_.replays += replays;
        stats_.replayedBytes += replayed_bytes;
        stats_.joinMicros += join_micros;
    }
    if (telemetry::enabled()) {
        MatchCounters &mc = MatchCounters::get();
        mc.calls.add(1);
        mc.bytes.add(size);
        mc.chunks.add(n_chunks);
        mc.speculationHits.add(hits);
        mc.replays.add(replays);
        mc.replayedBytes.add(replayed_bytes);
        mc.joinMicros.add(join_micros);
    }
    return out;
}

ParallelStats
ParallelMatcher::stats() const
{
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
}

} // namespace ca::match
