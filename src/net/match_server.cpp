#include "net/match_server.h"

#include <chrono>
#include <sys/socket.h>

#include "core/error.h"
#include "core/logging.h"
#include "persist/artifact.h"
#include "telemetry/runtime.h"
#include "telemetry/snapshot.h"
#include "telemetry/telemetry.h"

namespace ca::net {

using Clock = std::chrono::steady_clock;

/**
 * Per-connection state. The reader thread owns the protocol state
 * machine and the stream table; the writer thread owns the socket's
 * send side; matching workers reach the connection only through its
 * streams' StreamSinks and enqueueFrame.
 */
struct MatchServer::Connection
{
    uint64_t id = 0;
    SocketFd fd;
    std::thread reader;
    std::thread writer;

    // --- Outgoing frame queue (reader + workers feed, writer drains) --
    std::mutex out_mutex;
    std::condition_variable out_cv;
    std::deque<std::vector<uint8_t>> outq;
    size_t outBytes = 0;
    /** Writer exits once the queue is empty (graceful teardown). */
    bool drainStop = false;

    /** Hard failure (slow consumer, write error): drop queue, die now. */
    std::atomic<bool> failed{false};
    /** Graceful end requested (GOODBYE, protocol error, timeout). */
    bool ending = false;

    // --- Protocol state (reader thread only) --------------------------
    bool helloDone = false;
    /**
     * Negotiated protocol version (the client's HELLO version, within
     * [kMinProtocolVersion, kProtocolVersion]). Written once during the
     * handshake, before any stream can open, then read-only.
     */
    uint16_t version = kProtocolVersion;
    /** Accepted on the admin listener: SWAP is honored here. */
    bool isAdmin = false;

    /**
     * Live client streamId -> StreamRef. Holding the epoch's shared_ptr
     * here is what keeps a retired epoch alive until its last stream
     * closes.
     */
    std::map<uint32_t, StreamRef> streams;

    /** Reader exited; connection is reapable. */
    std::atomic<bool> done{false};
};

/**
 * Carries one stream's reports onto the wire: turns each in-order
 * report batch into REPORTS frames (SCORED_REPORTS when the automaton
 * is weighted and the connection speaks v4) under the client's stream
 * id. Never blocks (report_sink.h forbids it): a consumer that cannot
 * keep up trips the outgoing-queue cap and is dropped instead.
 */
class MatchServer::StreamSink final : public runtime::ReportSink
{
  public:
    StreamSink(MatchServer &server, Connection &conn, uint32_t client_id,
               bool scored)
        : server_(server), conn_(conn), client_id_(client_id),
          // A v3 peer receives plain REPORTS with the same rows (scores
          // elided), so the report set is independent of the version.
          wire_scored_(scored && conn.version >= 4)
    {
    }

    void
    onReports(uint32_t, const Report *reports, size_t count) override
    {
        const size_t row_bytes =
            wire_scored_ ? kWireScoredReportBytes : kWireReportBytes;
        size_t max_per_frame = std::min<size_t>(
            std::max<size_t>(server_.opts_.reportBatch, 1),
            (server_.opts_.maxFramePayload - 8) / row_bytes);
        for (size_t i = 0; i < count; i += max_per_frame) {
            size_t n = std::min(max_per_frame, count - i);
            std::vector<uint8_t> frame;
            frame.reserve(kFrameHeaderBytes + 8 + n * row_bytes);
            if (wire_scored_)
                appendScoredReports(frame, client_id_, reports + i, n);
            else
                appendReports(frame, client_id_, reports + i, n);
            server_.enqueueFrame(conn_, std::move(frame));
        }
        std::lock_guard<std::mutex> lock(server_.stats_mutex_);
        server_.stats_.reportsSent += count;
        if (wire_scored_)
            server_.stats_.scoredReportsSent += count;
    }

  private:
    MatchServer &server_;
    Connection &conn_;
    const uint32_t client_id_;
    const bool wire_scored_;
};

/**
 * One serving generation: its number, its automaton's fingerprint, a
 * dedicated StreamServer (whose MatchContext holds the automaton), and
 * (lazily) the canonical CAAF bytes served to peers. The current epoch
 * takes every new stream; a retired epoch lives until the connections'
 * StreamRefs release it, then is reaped.
 */
struct MatchServer::EpochState
{
    uint64_t epoch = 0;
    uint64_t fingerprint = 0;
    std::unique_ptr<runtime::StreamServer> stream;

    /** Replication-serving bytes, packed on first demand. */
    std::mutex bytes_mutex;
    std::shared_ptr<const std::vector<uint8_t>> artifactBytes;

    /** The canonical artifact bytes for this epoch's automaton. */
    std::shared_ptr<const std::vector<uint8_t>>
    bytes()
    {
        std::lock_guard<std::mutex> lock(bytes_mutex);
        if (!artifactBytes) {
            const MappedAutomaton &m = stream->mapped();
            artifactBytes = std::make_shared<const std::vector<uint8_t>>(
                persist::packArtifact(m, buildConfigImage(m)));
        }
        return artifactBytes;
    }
};

namespace {

void
accumulate(runtime::ServerStats &into, const runtime::ServerStats &s)
{
    into.sessionsOpened += s.sessionsOpened;
    into.sessionsClosed += s.sessionsClosed;
    into.symbols += s.symbols;
    into.reports += s.reports;
    into.slices += s.slices;
    into.contextSwitches += s.contextSwitches;
}

} // namespace

MatchServer::MatchServer(const MappedAutomaton &mapped,
                         const MatchServerOptions &opts)
    : opts_(opts), current_(std::make_shared<EpochState>())
{
    CA_TRACE_SCOPE_CAT("ca.net.server_start", "ca.net");
    startServing(std::make_unique<runtime::StreamServer>(mapped, opts.stream));
}

MatchServer::MatchServer(std::shared_ptr<const MappedAutomaton> mapped,
                         const MatchServerOptions &opts)
    : opts_(opts), current_(std::make_shared<EpochState>())
{
    CA_TRACE_SCOPE_CAT("ca.net.server_start", "ca.net");
    startServing(std::make_unique<runtime::StreamServer>(std::move(mapped),
                                                         opts.stream));
}

void
MatchServer::startServing(std::unique_ptr<runtime::StreamServer> first)
{
    opts_.maxFramePayload =
        std::min(std::max(opts_.maxFramePayload, 64u), kMaxFramePayload);
    if (opts_.maxConnections == 0)
        opts_.maxConnections = 1;
    if (opts_.maxStreamsPerConnection == 0)
        opts_.maxStreamsPerConnection = 1;

    current_->epoch = next_epoch_++;
    current_->fingerprint = persist::artifactFingerprint(first->mapped());
    current_->stream = std::move(first);

    // Bind both listeners before starting either accept thread: a bind
    // failure then throws out of the constructor with no joinable thread
    // left behind.
    listener_ = listenTcp(opts_.bindAddress, opts_.port);
    port_ = localPort(listener_);
    if (opts_.adminEnabled) {
        const std::string &bind = opts_.adminBindAddress.empty()
            ? opts_.bindAddress
            : opts_.adminBindAddress;
        admin_listener_ = listenTcp(bind, opts_.adminPort);
        admin_port_ = localPort(admin_listener_);
    }
    accept_thread_ =
        std::thread([this] { acceptLoop(listener_, false); });
    if (opts_.adminEnabled)
        admin_accept_thread_ =
            std::thread([this] { acceptLoop(admin_listener_, true); });
}

std::unique_ptr<MatchServer>
MatchServer::fromArtifact(const std::string &path,
                          const MatchServerOptions &opts)
{
    CA_TRACE_SCOPE_CAT("ca.net.server_from_artifact", "ca.net");
    // Keep the file's own bytes: they are what peers replicate, and the
    // fingerprint ignores META, so the original file serves as-is.
    auto bytes = std::make_shared<std::vector<uint8_t>>(
        persist::readFileBytes(path));
    persist::LoadedArtifact loaded = persist::loadArtifactBytes(*bytes);
    auto server = std::make_unique<MatchServer>(std::move(loaded.automaton),
                                                opts);
    {
        std::lock_guard<std::mutex> lock(server->epoch_mutex_);
        std::lock_guard<std::mutex> block(server->current_->bytes_mutex);
        server->current_->artifactBytes = std::move(bytes);
    }
    return server;
}

MatchServer::~MatchServer()
{
    stop();
}

void
MatchServer::stop()
{
    std::call_once(stop_once_, [this] {
        stopping_.store(true);
        // Unblock and retire the accept loops first: no new admissions
        // while connections drain.
        listener_.shutdown(SHUT_RDWR);
        admin_listener_.shutdown(SHUT_RDWR);
        if (accept_thread_.joinable())
            accept_thread_.join();
        if (admin_accept_thread_.joinable())
            admin_accept_thread_.join();
        listener_.close();
        admin_listener_.close();

        // Graceful per-connection drain: stop reading (EOF for the
        // reader), which makes each reader close its open sessions,
        // flush queued REPORTS + GOODBYE, and only then close sockets.
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            for (auto &c : conns_)
                if (!c->done.load())
                    c->fd.shutdown(SHUT_RD);
        }
        std::vector<std::unique_ptr<Connection>> finished;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            finished.swap(conns_);
        }
        for (auto &c : finished)
            if (c->reader.joinable())
                c->reader.join();
    });
}

std::shared_ptr<MatchServer::EpochState>
MatchServer::serving() const
{
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    return current_;
}

uint64_t
MatchServer::fingerprint() const
{
    return serving()->fingerprint;
}

uint64_t
MatchServer::epoch() const
{
    return serving()->epoch;
}

NetServerStats
MatchServer::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

runtime::ServerStats
MatchServer::streamStats() const
{
    std::vector<std::shared_ptr<EpochState>> epochs;
    runtime::ServerStats total;
    {
        std::lock_guard<std::mutex> lock(epoch_mutex_);
        total = reaped_totals_;
        epochs.push_back(current_);
        epochs.insert(epochs.end(), retired_.begin(), retired_.end());
    }
    for (const auto &e : epochs)
        accumulate(total, e->stream->stats());
    return total;
}

MatchServer::SwapResult
MatchServer::swap(std::shared_ptr<const MappedAutomaton> automaton,
                  std::shared_ptr<const std::vector<uint8_t>> artifactBytes)
{
    CA_FATAL_IF(!automaton, "MatchServer: swap to a null automaton");
    CA_TRACE_SCOPE_CAT("ca.net.swap", "ca.net");
    // One swap at a time; epoch construction (worker-thread spawning)
    // stays outside epoch_mutex_ so readers never wait on it.
    std::lock_guard<std::mutex> swap_lock(swap_mutex_);

    SwapResult r;
    r.newFingerprint = persist::artifactFingerprint(*automaton);
    {
        std::lock_guard<std::mutex> lock(epoch_mutex_);
        r.oldFingerprint = current_->fingerprint;
        if (r.newFingerprint == current_->fingerprint) {
            // Same compiled automaton: installing a new epoch would only
            // churn worker pools for identical reports.
            r.epoch = current_->epoch;
            r.swapped = false;
            return r;
        }
    }

    auto next = std::make_shared<EpochState>();
    next->fingerprint = r.newFingerprint;
    next->artifactBytes = std::move(artifactBytes);
    next->stream = std::make_unique<runtime::StreamServer>(
        std::move(automaton), opts_.stream);
    {
        std::lock_guard<std::mutex> lock(epoch_mutex_);
        next->epoch = next_epoch_++;
        r.epoch = next->epoch;
        retired_.push_back(std::move(current_));
        current_ = std::move(next);
    }
    r.swapped = true;
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.swapsCompleted;
    }
    CA_INFO("net: swapped automaton " << std::hex << r.oldFingerprint
                                      << " -> " << r.newFingerprint
                                      << std::dec << " (epoch " << r.epoch
                                      << ")");
    reapRetiredEpochs();
    return r;
}

MatchServer::SwapResult
MatchServer::swapFromArtifact(const std::string &path)
{
    auto bytes = std::make_shared<std::vector<uint8_t>>(
        persist::readFileBytes(path));
    persist::LoadedArtifact loaded = persist::loadArtifactBytes(*bytes);
    return swap(std::move(loaded.automaton), std::move(bytes));
}

void
MatchServer::reapRetiredEpochs()
{
    // A retired epoch is dead once the connections' StreamRefs released
    // it (use_count back to our own reference). Destruction — joining
    // the epoch's worker pool — happens outside epoch_mutex_.
    std::vector<std::shared_ptr<EpochState>> dead;
    {
        std::lock_guard<std::mutex> lock(epoch_mutex_);
        for (auto it = retired_.begin(); it != retired_.end();) {
            if (it->use_count() == 1) {
                accumulate(reaped_totals_, (*it)->stream->stats());
                dead.push_back(std::move(*it));
                it = retired_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &e : dead) {
        e.reset();
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.epochsRetired;
        }
    }
}

std::shared_ptr<const std::vector<uint8_t>>
MatchServer::artifactBytesFor(uint64_t fingerprint)
{
    std::vector<std::shared_ptr<EpochState>> epochs;
    {
        std::lock_guard<std::mutex> lock(epoch_mutex_);
        epochs.push_back(current_);
        epochs.insert(epochs.end(), retired_.begin(), retired_.end());
    }
    for (const auto &e : epochs)
        if (e->fingerprint == fingerprint)
            return e->bytes();
    if (opts_.artifactResolver)
        return opts_.artifactResolver(fingerprint);
    return nullptr;
}

uint32_t
MatchServer::artifactChunkBytes() const
{
    // Leave generous header room inside the negotiated payload bound;
    // 256 KiB keeps per-chunk latency low without a chatty transfer.
    uint32_t cap = opts_.maxFramePayload > 64 ? opts_.maxFramePayload - 64
                                              : 64;
    return std::min<uint32_t>(256u << 10, cap);
}

persist::LoadedArtifact
MatchServer::resolveSwapTarget(uint64_t fingerprint,
                               const std::string &source)
{
    persist::LoadedArtifact loaded;
    if (opts_.swapLoader) {
        loaded = opts_.swapLoader(fingerprint, source);
    } else {
        CA_FATAL_IF(source.empty(),
                    "net: SWAP by fingerprint needs a swap loader "
                        "(peers or cache); give a source path instead");
        loaded = persist::loadArtifact(source);
    }
    CA_FATAL_IF(!loaded.automaton, "net: swap loader returned no automaton");
    CA_FATAL_IF(fingerprint != 0 &&
                    persist::artifactFingerprint(*loaded.automaton) !=
                        fingerprint,
                "net: swap target does not hash to the requested "
                    "fingerprint");
    return loaded;
}

StatsReplyBody
MatchServer::statsSnapshot(uint64_t token, uint32_t sections) const
{
    StatsReplyBody body;
    body.token = token;
    body.sections = sections & kStatsAllSections;
    body.telemetryCompiled = 1; // instrumentation is always built in
    body.telemetryEnabled = telemetry::enabled() ? 1 : 0;

    // Totals, Sessions, and Kernels come from one inspect() pass per
    // epoch, gathered under one epoch snapshot, so the sections describe
    // the same generation set: the serving epoch plus any still-draining
    // retired epochs.
    if (body.sections & (statsSectionBit(StatsSection::Totals) |
                         statsSectionBit(StatsSection::Sessions) |
                         statsSectionBit(StatsSection::Kernels))) {
        std::vector<std::shared_ptr<EpochState>> epochs;
        runtime::ServerStats totals;
        size_t draining = 0;
        {
            std::lock_guard<std::mutex> lock(epoch_mutex_);
            totals = reaped_totals_;
            draining = retired_.size();
            epochs.push_back(current_);
            epochs.insert(epochs.end(), retired_.begin(), retired_.end());
        }
        runtime::ServerInspect in; // current epoch first: its workers win
        for (size_t i = 0; i < epochs.size(); ++i) {
            runtime::ServerInspect ei = epochs[i]->stream->inspect();
            accumulate(totals, ei.totals);
            if (i == 0) {
                in = std::move(ei);
            } else {
                in.sessions.insert(in.sessions.end(), ei.sessions.begin(),
                                   ei.sessions.end());
                in.kernels.insert(in.kernels.end(), ei.kernels.begin(),
                                  ei.kernels.end());
            }
        }
        if (body.sections & statsSectionBit(StatsSection::Totals)) {
            WireServerTotals &t = body.totals;
            t.uptimeMicros = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - started_)
                    .count());
            t.workers = static_cast<uint32_t>(in.workers);
            t.activeConnections = active_.load();
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                t.connectionsAccepted = stats_.connectionsAccepted;
                t.connectionsRejected = stats_.connectionsRejected;
                t.connectionsClosed = stats_.connectionsClosed;
                t.streamsOpened = stats_.streamsOpened;
                t.streamsClosed = stats_.streamsClosed;
                t.framesIn = stats_.framesIn;
                t.framesOut = stats_.framesOut;
                t.bytesIn = stats_.bytesIn;
                t.bytesOut = stats_.bytesOut;
                t.reportsSent = stats_.reportsSent;
                t.scoredReportsSent = stats_.scoredReportsSent;
                t.protocolErrors = stats_.protocolErrors;
                t.idleTimeouts = stats_.idleTimeouts;
                t.writeTimeouts = stats_.writeTimeouts;
                t.slowConsumerDrops = stats_.slowConsumerDrops;
                t.swapsCompleted = stats_.swapsCompleted;
                t.swapsFailed = stats_.swapsFailed;
                t.epochsRetired = stats_.epochsRetired;
                t.artifactQueries = stats_.artifactQueries;
                t.artifactChunksServed = stats_.artifactChunksServed;
                t.artifactBytesServed = stats_.artifactBytesServed;
            }
            t.epoch = epochs[0]->epoch;
            t.automatonFp = epochs[0]->fingerprint;
            t.automatonWeighted =
                epochs[0]->stream->mapped().nfa().hasWeights() ? 1 : 0;
            t.epochsDraining = static_cast<uint64_t>(draining);
            t.sessionsOpened = totals.sessionsOpened;
            t.sessionsClosed = totals.sessionsClosed;
            t.streamSymbols = totals.symbols;
            t.streamReports = totals.reports;
            t.slices = totals.slices;
            t.contextSwitches = totals.contextSwitches;
        }
        if (body.sections & statsSectionBit(StatsSection::Sessions))
            body.sessions = std::move(in.sessions);
        if (body.sections & statsSectionBit(StatsSection::Kernels))
            body.kernels = std::move(in.kernels);
    }

    // The Metrics section ships whatever the registry holds — empty
    // while telemetry is off, which still serializes to a valid image
    // (the reply's telemetryEnabled flag says why).
    if (body.sections & statsSectionBit(StatsSection::Metrics))
        body.metricsSnapshot =
            telemetry::MetricsRegistry::global().snapshot().serialize();
    return body;
}

void
MatchServer::acceptLoop(SocketFd &listener, bool admin)
{
    while (!stopping_.load()) {
        SocketFd fd = acceptTcp(listener, 100);
        reapFinishedConnections();
        reapRetiredEpochs();
        if (!fd.valid())
            continue;
        if (stopping_.load())
            break;

        if (active_.load() >= opts_.maxConnections) {
            // Admission control: explicit BUSY, then the door closes.
            // The cap protects the connections already being served.
            std::vector<uint8_t> err;
            appendError(err, ErrorCode::Busy, kConnectionStream,
                        "connection limit reached");
            sendAll(fd.get(), err.data(), err.size(), 1000);
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.connectionsRejected;
            }
            continue;
        }

        auto conn = std::make_unique<Connection>();
        conn->id = next_conn_id_++;
        conn->fd = std::move(fd);
        conn->isAdmin = admin;
        active_.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.connectionsAccepted;
        }

        Connection &c = *conn;
        c.writer = std::thread([this, &c] { writerLoop(c); });
        c.reader = std::thread([this, &c] { readerLoop(c); });
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.push_back(std::move(conn));
    }
}

void
MatchServer::reapFinishedConnections()
{
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
            if ((*it)->reader.joinable())
                (*it)->reader.join();
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
MatchServer::enqueueFrame(Connection &c, std::vector<uint8_t> frame)
{
    bool drop = false;
    {
        std::lock_guard<std::mutex> lock(c.out_mutex);
        if (c.failed.load())
            return; // connection already condemned; frames are void
        c.outBytes += frame.size();
        c.outq.push_back(std::move(frame));
        if (c.outBytes > opts_.maxOutgoingBytes) {
            // Slow consumer: the client is not draining REPORTS. Sinks
            // must never block a worker, so the only bounded-memory
            // answer is to drop the connection.
            c.failed.store(true);
            c.outq.clear();
            c.outBytes = 0;
            drop = true;
        }
    }
    c.out_cv.notify_one();
    if (drop) {
        c.fd.shutdown(SHUT_RDWR); // unblock both threads
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.slowConsumerDrops;
        }
    }
}

void
MatchServer::writerLoop(Connection &c)
{
    for (;;) {
        std::vector<uint8_t> frame;
        {
            std::unique_lock<std::mutex> lock(c.out_mutex);
            c.out_cv.wait(lock, [&] {
                return c.failed.load() || c.drainStop || !c.outq.empty();
            });
            if (c.failed.load())
                return;
            if (c.outq.empty()) {
                if (c.drainStop)
                    return; // graceful: queue flushed, nothing pending
                continue;
            }
            frame = std::move(c.outq.front());
            c.outq.pop_front();
            c.outBytes -= frame.size();
        }
        if (!sendAll(c.fd.get(), frame.data(), frame.size(),
                     opts_.writeTimeoutMs)) {
            // A send cut short by a slow-consumer drop, which already
            // shut the socket down, is not a write timeout.
            if (!c.failed.exchange(true)) {
                c.fd.shutdown(SHUT_RDWR); // unblock the reader's poll
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.writeTimeouts;
            }
            c.out_cv.notify_all();
            return;
        }
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.framesOut;
            stats_.bytesOut += frame.size();
        }
    }
}

void
MatchServer::failConnection(Connection &c, ErrorCode code,
                            uint32_t streamId, const std::string &message)
{
    std::vector<uint8_t> err;
    appendError(err, code, streamId, message);
    enqueueFrame(c, std::move(err));
    c.ending = true;
}

runtime::SessionStats
MatchServer::closeStream(StreamRef &ref)
{
    ref.session->close(); // drains queued input; reports still flow
    runtime::SessionStats st = ref.session->stats();
    ref.epoch->stream->release(*ref.session);
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.streamsClosed;
    }
    return st;
}

void
MatchServer::closeConnectionStreams(Connection &c)
{
    // Each StreamRef keeps its epoch referenced through close(): a reap
    // pass cannot destroy an epoch whose session is still draining here.
    for (auto &[client_id, ref] : c.streams)
        closeStream(ref);
    c.streams.clear();
}

bool
MatchServer::dispatchFrame(Connection &c, Frame &&f)
{
    if (!c.helloDone) {
        if (f.type != FrameType::Hello) {
            failConnection(c, ErrorCode::ProtocolError, kConnectionStream,
                           "expected HELLO as the first frame");
            return false;
        }
        CA_TRACE_SCOPE_CAT("ca.net.handshake", "ca.net");
        if (f.version < kMinProtocolVersion ||
            f.version > kProtocolVersion) {
            failConnection(c, ErrorCode::VersionMismatch,
                           kConnectionStream,
                           "unsupported protocol version " +
                               std::to_string(f.version));
            return false;
        }
        c.version = f.version;
        const uint64_t served = fingerprint();
        if (f.fingerprint != 0 && f.fingerprint != served) {
            failConnection(c, ErrorCode::FingerprintMismatch,
                           kConnectionStream,
                           "served automaton fingerprint differs");
            return false;
        }
        std::vector<uint8_t> reply;
        // Echo the negotiated version so older clients' equality checks
        // keep passing.
        appendHello(reply, served, c.version);
        enqueueFrame(c, std::move(reply));
        c.helloDone = true;
        return true;
    }

    switch (f.type) {
      case FrameType::Hello:
        failConnection(c, ErrorCode::ProtocolError, kConnectionStream,
                       "duplicate HELLO");
        return false;

      case FrameType::OpenStream: {
        CA_TRACE_SCOPE_CAT("ca.net.open_stream", "ca.net");
        if (c.streams.count(f.streamId)) {
            failConnection(c, ErrorCode::DuplicateStream, f.streamId,
                           "stream id already open");
            return false;
        }
        if (c.streams.size() >= opts_.maxStreamsPerConnection) {
            failConnection(c, ErrorCode::StreamLimit, f.streamId,
                           "per-connection stream limit reached");
            return false;
        }
        // Pin the serving epoch first: a swap between here and the open
        // just means this stream rides the (now retired) epoch it
        // grabbed, which is exactly the drain semantics.
        StreamRef ref;
        ref.epoch = serving();
        ref.sink = std::make_unique<StreamSink>(
            *this, c, f.streamId,
            ref.epoch->stream->mapped().nfa().hasWeights());
        ref.session = &ref.epoch->stream->open(*ref.sink);
        c.streams.emplace(f.streamId, std::move(ref));
        {
            std::lock_guard<std::mutex> slock(stats_mutex_);
            ++stats_.streamsOpened;
        }
        return true;
      }

      case FrameType::Data: {
        auto it = c.streams.find(f.streamId);
        if (it == c.streams.end()) {
            failConnection(c, ErrorCode::UnknownStream, f.streamId,
                           "DATA for a stream that is not open");
            return false;
        }
        // Blocking submit is the backpressure path: a full session
        // queue parks this reader, the kernel receive buffer fills,
        // and TCP flow control stalls the client.
        it->second.session->submit(f.data.data(), f.data.size());
        return true;
      }

      case FrameType::Flush: {
        CA_TRACE_SCOPE_CAT("ca.net.flush", "ca.net");
        auto it = c.streams.find(f.streamId);
        if (it == c.streams.end()) {
            failConnection(c, ErrorCode::UnknownStream, f.streamId,
                           "FLUSH for a stream that is not open");
            return false;
        }
        // flush() returns only after every prior chunk's reports went
        // through the sink — i.e. the REPORTS frames are already queued
        // ahead of this acknowledgement on the single writer queue.
        it->second.session->flush();
        std::vector<uint8_t> ack;
        appendFlush(ack, f.streamId, f.flushToken);
        enqueueFrame(c, std::move(ack));
        return true;
      }

      case FrameType::CloseStream: {
        CA_TRACE_SCOPE_CAT("ca.net.close_stream", "ca.net");
        auto it = c.streams.find(f.streamId);
        if (it == c.streams.end()) {
            failConnection(c, ErrorCode::UnknownStream, f.streamId,
                           "CLOSE_STREAM for a stream that is not open");
            return false;
        }
        // The ref keeps its epoch referenced through close(), so the
        // reaper can never free the epoch under a session that is still
        // draining. The session is freed before the ack goes out.
        runtime::SessionStats st = closeStream(it->second);
        c.streams.erase(it);
        std::vector<uint8_t> ack;
        appendCloseStream(ack, f.streamId, st.symbols, st.reports);
        enqueueFrame(c, std::move(ack));
        return true;
      }

      case FrameType::Goodbye: {
        std::vector<uint8_t> bye;
        appendGoodbye(bye);
        enqueueFrame(c, std::move(bye));
        return false; // reader tears down, closing remaining streams
      }

      case FrameType::Stats: {
        CA_TRACE_SCOPE_CAT("ca.net.stats", "ca.net");
        std::vector<uint8_t> reply;
        appendStatsReply(
            reply, statsSnapshot(f.stats.token, f.stats.sections));
        enqueueFrame(c, std::move(reply));
        return true;
      }

      case FrameType::ArtifactQuery: {
        CA_TRACE_SCOPE_CAT("ca.net.artifact_query", "ca.net");
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.artifactQueries;
        }
        std::shared_ptr<const std::vector<uint8_t>> bytes;
        if (opts_.serveArtifacts)
            bytes = artifactBytesFor(f.fingerprint);
        std::vector<uint8_t> reply;
        if (!bytes) {
            appendArtifactOffer(reply, f.fingerprint, false, 0, 0, 0);
        } else {
            uint32_t chunk = artifactChunkBytes();
            uint32_t count = static_cast<uint32_t>(
                (bytes->size() + chunk - 1) / chunk);
            appendArtifactOffer(reply, f.fingerprint, true, bytes->size(),
                                chunk, count);
        }
        enqueueFrame(c, std::move(reply));
        return true;
      }

      case FrameType::ArtifactFetch: {
        std::shared_ptr<const std::vector<uint8_t>> bytes;
        if (opts_.serveArtifacts)
            bytes = artifactBytesFor(f.fingerprint);
        if (!bytes) {
            failConnection(c, ErrorCode::ArtifactUnavailable,
                           kConnectionStream,
                           "no artifact for the requested fingerprint");
            return false;
        }
        uint32_t chunk = artifactChunkBytes();
        uint32_t count =
            static_cast<uint32_t>((bytes->size() + chunk - 1) / chunk);
        if (f.chunkIndex >= count) {
            failConnection(c, ErrorCode::ProtocolError, kConnectionStream,
                           "ARTIFACT_FETCH chunk index out of range");
            return false;
        }
        size_t off = static_cast<size_t>(f.chunkIndex) * chunk;
        size_t n = std::min<size_t>(chunk, bytes->size() - off);
        std::vector<uint8_t> reply;
        appendArtifactChunk(reply, f.fingerprint, f.chunkIndex, count,
                            bytes->data() + off, n);
        enqueueFrame(c, std::move(reply));
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.artifactChunksServed;
            stats_.artifactBytesServed += n;
        }
        return true;
      }

      case FrameType::Swap: {
        CA_TRACE_SCOPE_CAT("ca.net.swap_request", "ca.net");
        if (!c.isAdmin) {
            // The match plane must not be able to change what everyone
            // else is served; SWAP belongs to the admin listener.
            failConnection(c, ErrorCode::PermissionDenied,
                           kConnectionStream,
                           "SWAP requires the admin listener");
            return false;
        }
        std::vector<uint8_t> reply;
        try {
            persist::LoadedArtifact loaded =
                resolveSwapTarget(f.fingerprint, f.message);
            SwapResult r = swap(std::move(loaded.automaton));
            appendSwapReply(reply, f.flushToken,
                            r.swapped ? SwapStatus::Swapped
                                      : SwapStatus::Unchanged,
                            r.oldFingerprint, r.newFingerprint, r.epoch,
                            std::string());
        } catch (const CaError &e) {
            // A failed swap is an answered request, not a connection
            // fault: the old epoch keeps serving untouched.
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.swapsFailed;
            }
            CA_WARN("net: swap failed: " << e.what());
            std::shared_ptr<EpochState> kept = serving();
            appendSwapReply(reply, f.flushToken, SwapStatus::Failed,
                            kept->fingerprint, kept->fingerprint,
                            kept->epoch, e.what());
        }
        enqueueFrame(c, std::move(reply));
        return true;
      }

      case FrameType::Reports:
      case FrameType::ScoredReports:
      case FrameType::Error:
      case FrameType::StatsReply:
      case FrameType::ArtifactOffer:
      case FrameType::ArtifactChunk:
      case FrameType::SwapReply:
        failConnection(c, ErrorCode::ProtocolError, kConnectionStream,
                       "client sent a server-only frame");
        return false;
    }
    failConnection(c, ErrorCode::ProtocolError, kConnectionStream,
                   "unhandled frame type");
    return false;
}

void
MatchServer::readerLoop(Connection &c)
{
    FrameDecoder decoder(opts_.maxFramePayload);
    std::vector<uint8_t> buf(64u << 10);
    Clock::time_point last_activity = Clock::now();
    bool running = true;

    while (running && !stopping_.load() && !c.failed.load() && !c.ending) {
        try {
            std::optional<Frame> f;
            while (running && !c.ending && (f = decoder.next())) {
                {
                    std::lock_guard<std::mutex> lock(stats_mutex_);
                    ++stats_.framesIn;
                }
                running = dispatchFrame(c, std::move(*f));
            }
        } catch (const CaError &e) {
            // Malformed frame: clean per-connection error + teardown;
            // the rest of the server keeps serving.
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.protocolErrors;
            }
            failConnection(c, ErrorCode::ProtocolError, kConnectionStream,
                           e.what());
            break;
        }
        if (!running || c.ending)
            break;

        long n = recvSome(c.fd.get(), buf.data(), buf.size(), 100);
        if (n > 0) {
            decoder.append(buf.data(), static_cast<size_t>(n));
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                stats_.bytesIn += static_cast<uint64_t>(n);
            }
            last_activity = Clock::now();
        } else if (n == 0 || n == -2) {
            break; // orderly EOF or peer reset: drain + close below
        } else if (opts_.idleTimeoutMs > 0 &&
                   Clock::now() - last_activity >
                       std::chrono::milliseconds(opts_.idleTimeoutMs)) {
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.idleTimeouts;
            }
            failConnection(c, ErrorCode::IdleTimeout, kConnectionStream,
                           "no frame within the idle window");
            break;
        }
    }

    // Teardown: drain the connection's sessions first (their remaining
    // reports join the outgoing queue), then let the writer flush
    // everything queued, and only then release the socket.
    closeConnectionStreams(c);
    {
        std::lock_guard<std::mutex> lock(c.out_mutex);
        c.drainStop = true;
    }
    c.out_cv.notify_all();
    if (c.writer.joinable())
        c.writer.join();
    {
        // stop() shuts live connections down under this lock; closing
        // under it too keeps stop() off a descriptor that is being
        // closed, or that the kernel has already handed to a new socket.
        std::lock_guard<std::mutex> lock(conns_mutex_);
        c.fd.close();
    }

    active_.fetch_sub(1);
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connectionsClosed;
    }
    c.done.store(true);
}

} // namespace ca::net
