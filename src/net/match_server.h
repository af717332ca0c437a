/**
 * @file
 * TCP match service: the network face of the multi-stream runtime.
 *
 * A MatchServer owns one StreamServer (one mapped automaton) and exposes
 * it over the wire protocol in net/protocol.h. The paper's system model
 * (§2.8-2.9) — many independent streams feeding one shared accelerator
 * through input FIFOs, reports draining through an output buffer — maps
 * onto the network as:
 *
 *   accept loop ── per-connection reader thread ──> StreamServer
 *                  per-connection writer thread <── one sink per stream
 *
 * An open stream is one StreamRef in its connection's stream table,
 * which only the reader thread touches. Closing the stream (CLOSE_STREAM
 * or teardown) drains its session, then frees it with
 * StreamServer::release(), so a server holds only its open streams.
 *
 * Robustness semantics (docs/NET.md, tests/net_test.cpp):
 *  - Admission control: connections over `maxConnections` receive
 *    ERROR(busy) and are closed; existing connections are unaffected.
 *  - Backpressure: DATA frames are submitted with the *blocking*
 *    StreamSession::submit(). A full session queue therefore parks the
 *    connection's reader thread, the kernel receive buffer fills, and
 *    TCP flow control pushes back to the client — bounded memory, no
 *    unbounded buffering, no dropped input.
 *  - Slow consumers: a client that stops draining REPORTS grows the
 *    connection's outgoing queue; past `maxOutgoingBytes` the connection
 *    is dropped (sinks must never block the simulation workers).
 *  - Timeouts: no frame within `idleTimeoutMs` ⇒ ERROR(idle_timeout) +
 *    teardown; a peer that stalls writes past `writeTimeoutMs` is
 *    dropped.
 *  - Malformed frames ⇒ ERROR(protocol_error) + teardown of that
 *    connection only; the decode layer guarantees no UB on any input.
 *  - Graceful shutdown: stop() closes the listener, drains every open
 *    session (reports are delivered and written out), says GOODBYE,
 *    then closes sockets and joins all threads.
 *
 * Cluster plane (docs/CLUSTER.md): the served automaton lives behind a
 * versioned *epoch*. swap() installs a new automaton as a fresh epoch;
 * streams already open keep draining on the epoch they started on (so a
 * stream never observes reports from two rulesets), while every stream
 * opened after the swap runs on the new one. Retired epochs are reaped
 * once their last stream closes. The server also answers
 * ARTIFACT_QUERY/FETCH for the artifacts it holds (chunked, CRC-covered),
 * and honors SWAP requests — but only on connections accepted through
 * the admin listener (opts.adminEnabled/adminPort).
 */
#ifndef CA_NET_MATCH_SERVER_H
#define CA_NET_MATCH_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "persist/artifact.h"
#include "runtime/stream_server.h"

namespace ca::net {

/** Network service configuration (on top of StreamServerOptions). */
struct MatchServerOptions
{
    /** Bind address ("127.0.0.1", "0.0.0.0", dotted quad). */
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see MatchServer::port()). */
    uint16_t port = 0;
    /** Admission cap: concurrent connections beyond this get BUSY. */
    size_t maxConnections = 64;
    /** Streams one connection may hold open at once. */
    size_t maxStreamsPerConnection = 64;
    /** Per-connection frame payload bound (≤ kMaxFramePayload). */
    uint32_t maxFramePayload = 1u << 20;
    /** Outgoing-queue cap per connection before a slow consumer drops. */
    size_t maxOutgoingBytes = 64u << 20;
    /** Reports accumulated per REPORTS frame before forced emission. */
    size_t reportBatch = 512;
    /** Idle window with no inbound frame before teardown; <=0 disables. */
    int idleTimeoutMs = 60'000;
    /** Per-write stall bound once the kernel buffer is full. */
    int writeTimeoutMs = 10'000;
    /** The wrapped multi-stream runtime (workers, queues, quantum). */
    runtime::StreamServerOptions stream;

    // --- Cluster plane (docs/CLUSTER.md) -------------------------------
    /**
     * Opens a second, admin-plane listener; SWAP is honored only on
     * connections accepted there (match-plane SWAPs get
     * ERROR(permission_denied) + teardown).
     */
    bool adminEnabled = false;
    /** Admin listener port; 0 picks ephemeral (see adminPort()). */
    uint16_t adminPort = 0;
    /** Admin bind address; empty reuses bindAddress. */
    std::string adminBindAddress;
    /** Answer ARTIFACT_QUERY/FETCH (peers pull artifacts by fingerprint). */
    bool serveArtifacts = true;
    /**
     * Extra artifact source behind the epochs this server holds — e.g. a
     * fingerprint-addressed ArtifactCache directory. Returns the CAAF
     * bytes for a fingerprint, or null when unknown.
     */
    std::function<std::shared_ptr<const std::vector<uint8_t>>(uint64_t)>
        artifactResolver;
    /**
     * Resolves a SWAP request's target automaton: called with the
     * requested fingerprint (0 = unpinned) and source path (may be
     * empty); typically wired to loadArtifact / ArtifactCache::getOrFetch
     * over cluster peers. When absent, only source-path swaps are
     * honored (persist::loadArtifact). @throws CaError to fail the swap.
     */
    std::function<persist::LoadedArtifact(uint64_t fingerprint,
                                          const std::string &source)>
        swapLoader;
};

/** Aggregate network-side accounting (since construction). */
struct NetServerStats
{
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsRejected = 0; ///< BUSY admission rejections.
    uint64_t connectionsClosed = 0;
    uint64_t streamsOpened = 0;
    uint64_t streamsClosed = 0;
    uint64_t framesIn = 0;
    uint64_t framesOut = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    uint64_t reportsSent = 0;
    uint64_t scoredReportsSent = 0; ///< Rows sent as SCORED_REPORTS (v4).
    uint64_t protocolErrors = 0;
    uint64_t idleTimeouts = 0;
    uint64_t writeTimeouts = 0;
    uint64_t slowConsumerDrops = 0;
    // cluster plane
    uint64_t artifactQueries = 0;
    uint64_t artifactChunksServed = 0;
    uint64_t artifactBytesServed = 0;
    uint64_t swapsCompleted = 0;
    uint64_t swapsFailed = 0;
    uint64_t epochsRetired = 0;
};

/** One automaton served over TCP. */
class MatchServer
{
  public:
    /** Serves @p mapped (caller keeps it alive past the server). */
    explicit MatchServer(const MappedAutomaton &mapped,
                         const MatchServerOptions &opts = {});

    /** Co-owning variant (artifact loads). @throws CaError when null. */
    explicit MatchServer(std::shared_ptr<const MappedAutomaton> mapped,
                         const MatchServerOptions &opts = {});

    /**
     * Warm-starts from an on-disk CAAF artifact (docs/PERSIST.md): load,
     * verify, serve. @throws CaError on a missing/corrupt artifact.
     */
    static std::unique_ptr<MatchServer>
    fromArtifact(const std::string &path,
                 const MatchServerOptions &opts = {});

    /** stop()s if still running. */
    ~MatchServer();

    MatchServer(const MatchServer &) = delete;
    MatchServer &operator=(const MatchServer &) = delete;

    /** The actually bound port (resolves port 0). */
    uint16_t port() const { return port_; }

    /** The admin listener's bound port (0 when adminEnabled is off). */
    uint16_t adminPort() const { return admin_port_; }

    /** The *currently serving* automaton's HELLO fingerprint. */
    uint64_t fingerprint() const;

    /** The serving epoch number (1 at start, +1 per completed swap). */
    uint64_t epoch() const;

    /** Outcome of a swap() call. */
    struct SwapResult
    {
        uint64_t oldFingerprint = 0;
        uint64_t newFingerprint = 0;
        uint64_t epoch = 0;   ///< Epoch serving after the call.
        bool swapped = false; ///< False when the fingerprints were equal.
    };

    /**
     * Zero-downtime ruleset swap: installs @p automaton as a new serving
     * epoch. Streams already open finish on the automaton they started
     * with (drain, not migrate — a checkpoint is only meaningful on its
     * own automaton, so migrating would change reports mid-stream);
     * every OPEN_STREAM after this call lands on the new epoch. Equal
     * fingerprints are a no-op. Thread-safe; concurrent swaps serialize.
     * @p artifactBytes, when given, seeds the epoch's replication-serving
     * bytes (otherwise they are packed lazily on first ARTIFACT_QUERY).
     */
    SwapResult swap(std::shared_ptr<const MappedAutomaton> automaton,
                    std::shared_ptr<const std::vector<uint8_t>>
                        artifactBytes = nullptr);

    /** swap() from an on-disk CAAF artifact. @throws CaError on load. */
    SwapResult swapFromArtifact(const std::string &path);

    /**
     * Graceful shutdown: stop accepting, drain every connection's open
     * sessions (their reports still go out), send GOODBYE, close
     * sockets, join all threads. Idempotent.
     */
    void stop();

    NetServerStats stats() const;

    /**
     * Runtime-side totals, aggregated across every epoch this server has
     * served (live + retired + reaped) so counters stay cumulative
     * across swaps.
     */
    runtime::ServerStats streamStats() const;

    /**
     * One coherent observability snapshot (docs/OBSERVABILITY.md):
     * server totals, per-session live stats, the process metrics
     * registry image, and per-worker kernel decisions — the body both
     * the in-band STATS_REPLY and the HTTP stats endpoint serve.
     * @p sections filters which sections are filled (StatsSection bits).
     */
    StatsReplyBody statsSnapshot(uint64_t token = 0,
                                 uint32_t sections =
                                     kStatsAllSections) const;

    size_t activeConnections() const { return active_.load(); }

    const MatchServerOptions &options() const { return opts_; }

  private:
    struct Connection;
    class StreamSink;
    struct EpochState;

    /** One open stream: its sink, its session, and the owning epoch. */
    struct StreamRef
    {
        std::unique_ptr<StreamSink> sink;
        runtime::StreamSession *session = nullptr;
        std::shared_ptr<EpochState> epoch;
    };

    /** Both constructors: makes @p first epoch 1's server, then listens. */
    void startServing(std::unique_ptr<runtime::StreamServer> first);

    /** The serving epoch (current_, read under epoch_mutex_). */
    std::shared_ptr<EpochState> serving() const;

    void acceptLoop(SocketFd &listener, bool admin);
    void readerLoop(Connection &c);
    void writerLoop(Connection &c);

    /** Handles one decoded frame; returns false to end the connection. */
    bool dispatchFrame(Connection &c, Frame &&f);

    /** Queues an encoded frame for the writer (drops slow consumers). */
    void enqueueFrame(Connection &c, std::vector<uint8_t> frame);

    /** Queues ERROR + marks the connection for teardown-after-flush. */
    void failConnection(Connection &c, ErrorCode code, uint32_t streamId,
                        const std::string &message);

    /** Drains and frees @p ref's session; returns its final stats. */
    runtime::SessionStats closeStream(StreamRef &ref);

    /** closeStream()s every stream the connection still has open. */
    void closeConnectionStreams(Connection &c);

    void reapFinishedConnections();

    /** Frees retired epochs whose last stream has closed. */
    void reapRetiredEpochs();

    /** CAAF bytes for @p fingerprint: epochs first, then the resolver. */
    std::shared_ptr<const std::vector<uint8_t>>
    artifactBytesFor(uint64_t fingerprint);

    /** Chunk size used when serving artifacts (fits maxFramePayload). */
    uint32_t artifactChunkBytes() const;

    /** Loads a SWAP target via opts_.swapLoader / loadArtifact. */
    persist::LoadedArtifact resolveSwapTarget(uint64_t fingerprint,
                                              const std::string &source);

    MatchServerOptions opts_;

    /**
     * The epoch chain: current_ serves new streams; retired_ epochs keep
     * draining streams opened before a swap. Guarded by epoch_mutex_;
     * swaps additionally serialize on swap_mutex_ (epoch construction —
     * worker-thread spawning — happens outside epoch_mutex_).
     */
    mutable std::mutex epoch_mutex_;
    std::shared_ptr<EpochState> current_;
    std::vector<std::shared_ptr<EpochState>> retired_;
    /** Final runtime totals of reaped epochs (keeps stats cumulative). */
    runtime::ServerStats reaped_totals_;
    uint64_t next_epoch_ = 1;
    std::mutex swap_mutex_;

    SocketFd listener_;
    uint16_t port_ = 0;
    std::thread accept_thread_;
    SocketFd admin_listener_;
    uint16_t admin_port_ = 0;
    std::thread admin_accept_thread_;
    std::atomic<bool> stopping_{false};
    std::atomic<size_t> active_{0};
    std::once_flag stop_once_;

    mutable std::mutex conns_mutex_;
    std::vector<std::unique_ptr<Connection>> conns_;
    std::atomic<uint64_t> next_conn_id_{0};

    mutable std::mutex stats_mutex_;
    NetServerStats stats_;

    /** Construction instant; uptimeMicros in statsSnapshot(). */
    std::chrono::steady_clock::time_point started_ =
        std::chrono::steady_clock::now();
};

} // namespace ca::net

#endif // CA_NET_MATCH_SERVER_H
