/**
 * @file
 * Blocking client for the TCP match service.
 *
 * The client mirrors the in-process StreamSession lifecycle over the
 * wire: connect (HELLO handshake, optional automaton-fingerprint pin) →
 * openStream → send chunks → flush (round-trip barrier: every report
 * for data sent before the flush is collected locally when it returns)
 * → closeStream (returns the server's final symbol/report accounting).
 *
 * Threading: one MatchClient is single-threaded — all calls must come
 * from one thread (use one client per connection thread; the server
 * multiplexes). Reports arrive asynchronously from the server and are
 * collected into per-stream buffers whenever the client touches the
 * socket; send() drains opportunistically so a server pushing REPORTS
 * can never deadlock against a client pushing DATA.
 *
 * Determinism contract (tests/net_test.cpp): the concatenation of
 * reports(stream) after flush/close is byte-identical to a
 * single-threaded run of the CPU oracle over the same bytes.
 */
#ifndef CA_NET_CLIENT_H
#define CA_NET_CLIENT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace ca::net {

/** Client-side connection configuration. */
struct ClientOptions
{
    /** Require this automaton fingerprint in HELLO (0 = accept any). */
    uint64_t expectedFingerprint = 0;
    /** DATA chunk ceiling; larger send()s are split. */
    uint32_t maxFramePayload = 1u << 20;
    int connectTimeoutMs = 10'000;
    /** Bound on any single blocking wait for server frames. */
    int ioTimeoutMs = 30'000;
};

/** Final server-side accounting for one closed stream. */
struct StreamSummary
{
    uint64_t symbols = 0;
    uint64_t reports = 0;
};

/** A peer's answer to ARTIFACT_QUERY (docs/CLUSTER.md). */
struct ArtifactOfferInfo
{
    uint64_t fingerprint = 0;
    bool available = false;
    uint64_t totalBytes = 0;
    uint32_t chunkBytes = 0;
    uint32_t chunkCount = 0;
};

/** Outcome of a requestSwap() admin call. */
struct SwapOutcome
{
    SwapStatus status = SwapStatus::Failed;
    uint64_t oldFingerprint = 0;
    uint64_t newFingerprint = 0;
    uint64_t epoch = 0;
    std::string message; ///< Failure reason when status == Failed.
};

/** One TCP connection to a MatchServer. */
class MatchClient
{
  public:
    MatchClient() = default;
    ~MatchClient();

    MatchClient(const MatchClient &) = delete;
    MatchClient &operator=(const MatchClient &) = delete;

    /**
     * Connects and completes the HELLO handshake. @throws CaError on
     * connection failure, version mismatch, fingerprint mismatch, or a
     * server-side ERROR (e.g. busy — admission control).
     */
    void connect(const std::string &host, uint16_t port,
                 const ClientOptions &opts = {});

    bool connected() const { return fd_.valid(); }

    /** The fingerprint the server announced in its HELLO. */
    uint64_t serverFingerprint() const { return server_fingerprint_; }

    /** Opens a stream; returns its connection-local id. */
    uint32_t openStream();

    /** Streams @p size bytes (split into DATA frames as needed). */
    void send(uint32_t stream, const uint8_t *data, size_t size);

    void
    send(uint32_t stream, const std::vector<uint8_t> &chunk)
    {
        send(stream, chunk.data(), chunk.size());
    }

    /**
     * Round-trip barrier: returns once the server acknowledges that
     * everything sent on @p stream before this call has been simulated
     * and its reports delivered (and therefore collected locally).
     */
    void flush(uint32_t stream);

    /**
     * Declares end-of-stream; returns the server's final accounting
     * once the stream has fully drained. The stream id is dead after.
     */
    StreamSummary closeStream(uint32_t stream);

    /**
     * Reports collected so far for @p stream, in stream order (complete
     * after flush()/closeStream()). Buffers survive closeStream() until
     * takeReports() or disconnect.
     */
    const std::vector<Report> &reports(uint32_t stream) const;

    /** Moves out (and clears) the collected reports for @p stream. */
    std::vector<Report> takeReports(uint32_t stream);

    /**
     * In-band observability poll: sends STATS and blocks for the
     * matching STATS_REPLY (REPORTS arriving in between are absorbed
     * into their buffers as usual). @p sections selects which
     * StatsSection bits the server should fill; check the reply's
     * telemetryEnabled flag before reading Metrics.
     */
    StatsReplyBody requestStats(uint32_t sections = kStatsAllSections);

    /**
     * Asks whether the server can serve the artifact for
     * @p fingerprint and, when it can, how it would be chunked.
     */
    ArtifactOfferInfo queryArtifact(uint64_t fingerprint);

    /**
     * Pulls the complete CAAF artifact for @p fingerprint chunk by
     * chunk (each chunk CRC-verified at the protocol layer; callers
     * should still validate the assembled bytes with
     * persist::loadArtifactBytes — see cluster::Replicator). @throws
     * CaError when the server does not hold the artifact or the
     * transfer is inconsistent/truncated.
     */
    std::vector<uint8_t> fetchArtifact(uint64_t fingerprint);

    /**
     * Admin-plane ruleset swap (connect to the server's admin port
     * first — the match plane answers ERROR(permission_denied)).
     * @p fingerprint pins the target (0 = trust @p source); @p source
     * is a server-side artifact path or loader hint. Never throws on a
     * *failed* swap — that comes back as status == SwapStatus::Failed
     * with the server's reason.
     */
    SwapOutcome requestSwap(uint64_t fingerprint,
                            const std::string &source = {});

    /** Polite GOODBYE + orderly close (abortive close if it fails). */
    void close();

  private:
    /** Sends bytes, draining inbound frames while the socket is full. */
    void sendDraining(const uint8_t *data, size_t size);

    /** Non-blocking drain of whatever the server has already sent. */
    void drainIncoming();

    /**
     * Blocks until a frame of @p type for @p stream arrives, absorbing
     * REPORTS along the way. @throws CaError on ERROR frames, EOF, or
     * timeout.
     */
    Frame awaitFrame(FrameType type, uint32_t stream);

    /** Reads one chunk off the socket into the decoder. */
    bool pump(int timeout_ms);

    /** Routes a received frame (REPORTS → buffers; ERROR → throw). */
    void absorb(Frame &&f, std::vector<Frame> &out);

    SocketFd fd_;
    ClientOptions opts_;
    FrameDecoder decoder_;
    uint64_t server_fingerprint_ = 0;
    uint32_t next_stream_id_ = 1;
    uint64_t next_flush_token_ = 1;
    std::map<uint32_t, std::vector<Report>> collected_;
    std::vector<uint8_t> rxbuf_;
};

} // namespace ca::net

#endif // CA_NET_CLIENT_H
