/**
 * @file
 * The serving pass: ruleset-to-HELLO set-up, the reference run, the two
 * transports (loopback MatchClient and in-process StreamServer), and the
 * closed- and open-loop generators that drive them.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.h"
#include "compiler/config_image.h"
#include "match/match_engine.h"
#include "net/client.h"
#include "persist/artifact.h"
#include "runtime/stream_server.h"

namespace perfbench {

using namespace ca;

// --- Samples and spans ---------------------------------------------------

namespace {

double
nearestRank(std::vector<double> s, double p)
{
    if (s.empty())
        return 0.0;
    std::sort(s.begin(), s.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
    const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return s[std::min(index, s.size() - 1)];
}

} // namespace

double
Samples::percentile(double p) const
{
    return nearestRank(v_, p);
}

double
DriveResult::slicedGoodputMBps(size_t n) const
{
    if (wallS <= 0 || n == 0)
        return 0.0;
    const double slice_ms = wallS * 1e3 / static_cast<double>(n);
    std::vector<double> bytes(n, 0.0);
    for (const auto &[at_ms, b] : done)
        bytes[std::min(n - 1, static_cast<size_t>(at_ms / slice_ms))] +=
            static_cast<double>(b);
    for (double &b : bytes)
        b = b / 1e3 / slice_ms;
    return nearestRank(std::move(bytes), 50);
}

double
Samples::mean() const
{
    if (v_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : v_)
        sum += v;
    return sum / static_cast<double>(v_.size());
}

size_t
Samples::beyond(double p) const
{
    const double cut = percentile(p);
    return static_cast<size_t>(std::count_if(
        v_.begin(), v_.end(), [&](double v) { return v > cut; }));
}

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

int32_t
SpanLog::begin(const char *name, uint32_t request)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.thread = thread_;
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
}

void
SpanLog::end(int32_t index)
{
    spans_[static_cast<size_t>(index)].endNs = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

double
SpanLog::totalMs(const char *name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (std::string_view(s.name) == name)
            total += static_cast<double>(s.endNs - s.startNs) / 1e6;
    return total;
}

Samples
SpanLog::durations(const char *name) const
{
    Samples out;
    for (const Span &s : spans_)
        if (std::string_view(s.name) == name)
            out.add(static_cast<double>(s.endNs - s.startNs) / 1e6);
    return out;
}

void
SpanLog::append(const SpanLog &o)
{
    const int32_t shift = static_cast<int32_t>(spans_.size());
    for (Span s : o.spans_) {
        if (s.parent >= 0)
            s.parent += shift;
        spans_.push_back(s);
    }
}

bool
writeTrace(const std::string &path, const SpanLog &log, size_t max_spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    int64_t base = log.spans().empty() ? 0 : log.spans().front().startNs;
    for (const Span &s : log.spans())
        base = std::min(base, s.startNs);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (size_t i = 0; i < std::min(max_spans, log.spans().size()); ++i) {
        const Span &s = log.spans()[i];
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << static_cast<double>(s.startNs - base) / 1e3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"request\":" << s.request
           << ",\"parent\":" << s.parent << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

double
rssNowMB()
{
    std::ifstream is("/proc/self/statm");
    long pages_total = 0, pages_resident = 0;
    is >> pages_total >> pages_resident;
    return static_cast<double>(pages_resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double
rssPeakMB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

// --- Set-up and reference ------------------------------------------------

Served
setUp(const Workload &w, SpanLog &log)
{
    Served s;
    const auto t0 = Clock::now();
    Nfa nfa;
    {
        ScopedSpan span(log, "nfa.compile");
        const auto a = Clock::now();
        nfa = w.compile();
        s.times.compileMs = msSince(a);
    }
    std::vector<uint8_t> bytes;
    {
        std::unique_ptr<MappedAutomaton> mapped;
        {
            ScopedSpan span(log, "compiler.map");
            const auto a = Clock::now();
            mapped = std::make_unique<MappedAutomaton>(mapPerformance(nfa));
            s.times.mapMs = msSince(a);
        }
        s.times.partitions = mapped->numPartitions();
        ScopedSpan span(log, "persist.pack");
        const auto a = Clock::now();
        bytes = persist::packArtifact(*mapped, buildConfigImage(*mapped));
        s.times.packMs = msSince(a);
    }
    s.times.artifactBytes = bytes.size();
    {
        ScopedSpan span(log, "persist.load");
        const auto a = Clock::now();
        s.automaton = persist::loadArtifactBytes(std::move(bytes)).automaton;
        s.times.loadMs = msSince(a);
    }
    {
        ScopedSpan span(log, "server.start");
        const auto a = Clock::now();
        s.server = std::make_unique<net::MatchServer>(s.automaton, w.server);
        net::MatchClient hello;
        hello.connect("127.0.0.1", s.server->port());
        s.times.startMs = msSince(a);
        hello.close();
    }
    s.times.totalS = msSince(t0) / 1e3;
    return s;
}

std::vector<std::vector<Report>>
referenceReports(const Workload &w, const MappedAutomaton &mapped)
{
    auto ctx = std::make_shared<const match::MatchContext>(mapped);
    std::vector<std::vector<Report>> ref(w.inputs.size());
    const size_t threads = std::min<size_t>(
        4, std::max<size_t>(1, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            match::MatchEngine eng(ctx);
            for (size_t i = t; i < w.inputs.size(); i += threads) {
                eng.reset();
                eng.feed(w.inputs[i].data(), w.inputs[i].size());
                ref[i] = eng.takeReports();
            }
        });
    for (std::thread &t : pool)
        t.join();
    return ref;
}

// --- Transports ----------------------------------------------------------

namespace {

class SocketTransport final : public Transport
{
  public:
    SocketTransport(uint16_t port, SpanLog &log) : log_(log)
    {
        ScopedSpan span(log_, "net.connect");
        client_.connect("127.0.0.1", port);
    }

    uint32_t
    open() override
    {
        ScopedSpan span(log_, "net.open_stream");
        return client_.openStream();
    }

    void
    send(uint32_t stream, const uint8_t *data, size_t n) override
    {
        ScopedSpan span(log_, "net.send");
        client_.send(stream, data, n);
    }

    void
    flush(uint32_t stream) override
    {
        ScopedSpan span(log_, "net.flush");
        client_.flush(stream);
    }

    uint64_t
    close(uint32_t stream) override
    {
        ScopedSpan span(log_, "net.close_stream");
        return client_.closeStream(stream).symbols;
    }

    std::vector<Report>
    take(uint32_t stream) override
    {
        return client_.takeReports(stream);
    }

  private:
    SpanLog &log_;
    net::MatchClient client_;
};

/** Hands each session's delivered reports to take(). */
class TakeSink final : public runtime::ReportSink
{
  public:
    void
    onReports(uint32_t session, const Report *reports, size_t n) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Report> &rows = rows_[session];
        rows.insert(rows.end(), reports, reports + n);
    }

    std::vector<Report>
    take(uint32_t session)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = rows_.find(session);
        if (it == rows_.end())
            return {};
        std::vector<Report> out = std::move(it->second);
        rows_.erase(it);
        return out;
    }

  private:
    std::mutex mu_;
    std::unordered_map<uint32_t, std::vector<Report>> rows_;
};

} // namespace

/** Declared sink first: the server's destructor still drains into it. */
class InProcess
{
  public:
    InProcess(std::shared_ptr<const MappedAutomaton> m, const Workload &w)
        : server(std::move(m), w.server.stream)
    {
    }
    TakeSink sink;
    runtime::StreamServer server;
};

namespace {

class InProcTransport final : public Transport
{
  public:
    InProcTransport(std::shared_ptr<InProcess> in, SpanLog &log)
        : in_(std::move(in)), log_(log)
    {
    }

    uint32_t
    open() override
    {
        ScopedSpan span(log_, "runtime.open");
        runtime::StreamSession &s = in_->server.open(in_->sink);
        sessions_[s.id()] = &s;
        return s.id();
    }

    void
    send(uint32_t stream, const uint8_t *data, size_t n) override
    {
        ScopedSpan span(log_, "runtime.submit");
        sessions_.at(stream)->submit(data, n);
    }

    void
    flush(uint32_t stream) override
    {
        ScopedSpan span(log_, "runtime.flush");
        sessions_.at(stream)->flush();
    }

    uint64_t
    close(uint32_t stream) override
    {
        ScopedSpan span(log_, "runtime.close");
        runtime::StreamSession *s = sessions_.at(stream);
        s->close();
        sessions_.erase(stream);
        return s->stats().symbols;
    }

    std::vector<Report>
    take(uint32_t stream) override
    {
        return in_->sink.take(stream);
    }

  private:
    std::shared_ptr<InProcess> in_;
    SpanLog &log_;
    std::unordered_map<uint32_t, runtime::StreamSession *> sessions_;
};

} // namespace

Connector
socketConnector(uint16_t port)
{
    return [port](SpanLog &log) -> std::unique_ptr<Transport> {
        return std::make_unique<SocketTransport>(port, log);
    };
}

std::shared_ptr<InProcess>
makeInProcess(std::shared_ptr<const MappedAutomaton> m, const Workload &w)
{
    return std::make_shared<InProcess>(std::move(m), w);
}

Connector
inProcessConnector(std::shared_ptr<InProcess> in)
{
    return [in](SpanLog &log) -> std::unique_ptr<Transport> {
        return std::make_unique<InProcTransport>(in, log);
    };
}

runtime::StreamServer &
inProcessServer(InProcess &in)
{
    return in.server;
}

// --- Generators ----------------------------------------------------------

namespace {

/** One generator thread's share of a DriveResult. */
struct ThreadResult
{
    DriveResult r;
    double lagFirstSum = 0, lagSecondSum = 0;
    size_t lagFirstN = 0, lagSecondN = 0;
    Clock::time_point end;
};

/**
 * Compares the reports delivered for one stream since the last check
 * with the reference rows from @p cursor whose offset lies below
 * @p upto, and advances @p cursor past them.
 */
bool
matchesReference(const std::vector<Report> &got,
                 const std::vector<Report> &ref, size_t &cursor,
                 uint64_t upto)
{
    size_t end = cursor;
    while (end < ref.size() && ref[end].offset < upto)
        ++end;
    const bool same = got.size() == end - cursor &&
        std::equal(got.begin(), got.end(),
                   ref.begin() + static_cast<long>(cursor));
    cursor = end;
    return same;
}

void
closedLoop(const Workload &w, const std::vector<std::vector<Report>> &ref,
           Transport &tr, size_t conn, Clock::time_point start,
           Clock::time_point deadline, ThreadResult &out)
{
    struct Stream
    {
        bool open = false;
        bool failed = false;
        uint32_t id = 0;
        size_t input = 0;
        size_t pos = 0;
        size_t cursor = 0;
    };
    DriveResult &r = out.r;
    std::vector<Stream> streams(w.streamsPerConnection);
    size_t opened = 0;
    auto finish = [&](Stream &s) {
        const uint64_t symbols = tr.close(s.id);
        if (!matchesReference(tr.take(s.id), ref[s.input], s.cursor,
                              s.pos) ||
            symbols != s.pos) {
            s.failed = true;
            r.errors.push_back("closeStream summary or tail mismatch");
        }
        ++r.streams;
        r.failedStreams += s.failed ? 1 : 0;
        s = Stream{};
    };
    // Streams take turns: one request (DATA then a FLUSH barrier) per
    // turn, so each connection has one request in flight.
    uint32_t request = static_cast<uint32_t>(conn) << 24;
    for (size_t turn = 0; Clock::now() < deadline; ++turn) {
        Stream &s = streams[turn % streams.size()];
        if (s.open && s.pos == w.inputs[s.input].size())
            finish(s);
        if (!s.open) {
            s.input = (conn + opened++ * w.connections) % w.inputs.size();
            s.id = tr.open();
            s.open = true;
        }
        const std::vector<uint8_t> &in = w.inputs[s.input];
        const size_t n = std::min(w.requestBytes, in.size() - s.pos);
        {
            ScopedSpan span(r.spans, "request", ++request);
            const auto a = Clock::now();
            tr.send(s.id, in.data() + s.pos, n);
            const auto f = Clock::now();
            tr.flush(s.id);
            const auto b = Clock::now();
            r.requestMs.add(msBetween(a, b));
            r.flushMs.add(msBetween(f, b));
        }
        s.pos += n;
        r.bytes += n;
        r.done.emplace_back(msSince(start), n);
        ++r.requests;
        std::vector<Report> got = tr.take(s.id);
        r.reportRows += got.size();
        if (!matchesReference(got, ref[s.input], s.cursor, s.pos)) {
            ++r.failedRequests;
            if (!s.failed)
                r.errors.push_back("report mismatch on input " +
                                   std::to_string(s.input));
            s.failed = true;
        }
    }
    for (Stream &s : streams)
        if (s.open)
            finish(s);
}

void
openLoop(const Workload &w, const std::vector<std::vector<Report>> &ref,
         Transport &tr, size_t conn, Clock::time_point start,
         Clock::time_point deadline, ThreadResult &out)
{
    DriveResult &r = out.r;
    const auto mid = start + (deadline - start) / 2;
    // Wake on schedule: the default 50 us timer slack would show up as
    // generator lag and in every request's time.
    prctl(PR_SET_TIMERSLACK, 1000UL);
    for (size_t i = conn;; i += w.connections) {
        // The schedule is fixed up front: request i is due at i / rate,
        // however late earlier requests finished.
        const auto due = start +
            std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / w.rate));
        if (due >= deadline)
            break;
        std::this_thread::sleep_until(due);
        const auto begin = Clock::now();
        const double lag = msBetween(due, begin);
        r.lagMs.add(lag);
        if (due < mid) {
            out.lagFirstSum += lag;
            ++out.lagFirstN;
        } else {
            out.lagSecondSum += lag;
            ++out.lagSecondN;
        }

        const size_t input = i % w.inputs.size();
        const std::vector<uint8_t> &msg = w.inputs[input];
        uint64_t symbols = 0;
        uint32_t id = 0;
        {
            ScopedSpan span(r.spans, "request", static_cast<uint32_t>(i));
            id = tr.open();
            tr.send(id, msg.data(), msg.size());
            const auto c = Clock::now();
            symbols = tr.close(id);
            const auto b = Clock::now();
            r.requestMs.add(msBetween(due, b));
            r.flushMs.add(msBetween(c, b));
        }
        r.bytes += msg.size();
        r.done.emplace_back(msSince(start), msg.size());
        ++r.requests;
        ++r.streams;
        std::vector<Report> got = tr.take(id);
        r.reportRows += got.size();
        size_t cursor = 0;
        if (!matchesReference(got, ref[input], cursor, msg.size()) ||
            symbols != msg.size()) {
            ++r.failedRequests;
            ++r.failedStreams;
            if (r.errors.size() < 4)
                r.errors.push_back("report mismatch on request " +
                                   std::to_string(i));
        }
    }
}

} // namespace

DriveResult
drive(const Workload &w, const std::vector<std::vector<Report>> &ref,
      double seconds, const Connector &connect, bool traced)
{
    // Connections are made before the window opens.
    const auto start = Clock::now() + std::chrono::milliseconds(100);
    const auto deadline = start +
        std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    std::vector<ThreadResult> results(w.connections);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w.connections; ++c)
        threads.emplace_back([&, c] {
            ThreadResult &out = results[c];
            out.r.spans = SpanLog(traced, static_cast<uint32_t>(c));
            try {
                std::unique_ptr<Transport> tr = connect(out.r.spans);
                std::this_thread::sleep_until(start);
                if (w.loop == Loop::Closed)
                    closedLoop(w, ref, *tr, c, start, deadline, out);
                else
                    openLoop(w, ref, *tr, c, start, deadline, out);
            } catch (const std::exception &e) {
                // ERROR, BUSY, a timeout or a dropped connection: the
                // request in flight and its stream count as failed.
                ++out.r.requests;
                ++out.r.failedRequests;
                ++out.r.streams;
                ++out.r.failedStreams;
                out.r.errors.push_back(e.what());
            }
            out.end = Clock::now();
        });
    for (std::thread &t : threads)
        t.join();

    DriveResult total;
    total.spans = SpanLog(traced);
    Clock::time_point end = start;
    double lag1 = 0, lag2 = 0;
    size_t n1 = 0, n2 = 0;
    for (ThreadResult &t : results) {
        const DriveResult &r = t.r;
        total.requestMs.append(r.requestMs);
        total.flushMs.append(r.flushMs);
        total.lagMs.append(r.lagMs);
        total.requests += r.requests;
        total.failedRequests += r.failedRequests;
        total.streams += r.streams;
        total.failedStreams += r.failedStreams;
        total.bytes += r.bytes;
        total.reportRows += r.reportRows;
        total.done.insert(total.done.end(), r.done.begin(), r.done.end());
        total.errors.insert(total.errors.end(), r.errors.begin(),
                            r.errors.end());
        total.spans.append(r.spans);
        lag1 += t.lagFirstSum;
        lag2 += t.lagSecondSum;
        n1 += t.lagFirstN;
        n2 += t.lagSecondN;
        end = std::max(end, t.end);
    }
    total.lagFirstHalfMs = n1 ? lag1 / static_cast<double>(n1) : 0.0;
    total.lagSecondHalfMs = n2 ? lag2 / static_cast<double>(n2) : 0.0;
    total.wallS = msBetween(start, end) / 1e3;
    return total;
}

} // namespace perfbench
