/**
 * @file
 * Wire protocol for the network match service (docs/NET.md).
 *
 * The paper's deployment model (§2.8-2.9) is a shared accelerator fed by
 * input FIFOs and drained through report buffers; src/net puts that FIFO
 * on a TCP socket. This header defines the versioned, length-prefixed
 * binary framing both sides speak, built on the same byte-order-explicit
 * serde primitives the persist layer uses — so a frame encoded on any
 * host decodes on any other.
 *
 * Frame layout (little-endian, core/serde.h):
 *
 *   u32 payloadSize | u8 type | payload[payloadSize]
 *
 * Payloads per type (all fields present in both directions; a sender
 * zeroes fields that only matter on the reply):
 *
 *   HELLO        u32 magic "CANP" | u16 version | u64 fingerprint
 *   OPEN_STREAM  u32 streamId
 *   DATA         u32 streamId | bytes (rest of payload)
 *   FLUSH        u32 streamId | u64 token
 *   CLOSE_STREAM u32 streamId | u64 symbols | u64 reports
 *   REPORTS      u32 streamId | u32 count |
 *                count x (u64 offset | u32 reportId | u32 state)
 *   SCORED_REPORTS (v4)
 *                u32 streamId | u32 count |
 *                count x (u64 offset | u32 reportId | u32 state |
 *                i64 score)
 *   ERROR        u16 code | u32 streamId (kConnectionStream = whole
 *                connection) | string message
 *   GOODBYE      (empty)
 *   STATS        u64 token | u32 sections (StatsSection bitmask)
 *   STATS_REPLY  u16 statsVersion | u64 token | u8 telemetryCompiled |
 *                u8 telemetryEnabled | u32 sections | per present
 *                section: u8 id | u32 byteLen | bytes (unknown ids are
 *                skipped — see docs/OBSERVABILITY.md for the layouts)
 *
 * Cluster frames (v3, docs/CLUSTER.md) — artifact replication by
 * fingerprint and the zero-downtime ruleset swap:
 *
 *   ARTIFACT_QUERY  u64 fingerprint
 *   ARTIFACT_OFFER  u64 fingerprint | u8 available | u64 totalBytes |
 *                   u32 chunkBytes | u32 chunkCount
 *   ARTIFACT_FETCH  u64 fingerprint | u32 chunkIndex
 *   ARTIFACT_CHUNK  u64 fingerprint | u32 chunkIndex | u32 chunkCount |
 *                   u32 crc32 | bytes (rest of payload; the decoder
 *                   verifies the CRC — a corrupted chunk throws)
 *   SWAP            u64 token | u64 fingerprint | string source
 *   SWAP_REPLY      u64 token | u8 status (SwapStatus) |
 *                   u64 oldFingerprint | u64 newFingerprint | u64 epoch |
 *                   string message
 *
 * Safety contract (mirrors the persist layer's): every decode is
 * bounds-checked, an oversized/truncated/unknown/ill-formed frame throws
 * CaError — never UB — and the server answers with ERROR + connection
 * teardown while continuing to serve other connections
 * (tests/net_test.cpp, tests/fuzz_test.cpp).
 */
#ifndef CA_NET_PROTOCOL_H
#define CA_NET_PROTOCOL_H

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "baseline/nfa_engine.h"
#include "runtime/stream_session.h"

namespace ca::net {

/** "CANP" (Cache Automaton Network Protocol) little-endian fourcc. */
constexpr uint32_t kHelloMagic = 0x504e4143u;
/**
 * Bump on any framing change. v4 adds SCORED_REPORTS (docs/SCORING.md);
 * servers still accept v3 HELLOs — such connections simply receive
 * plain REPORTS frames (scores elided), so pre-scoring clients are
 * unaffected.
 */
constexpr uint16_t kProtocolVersion = 4;
/** Oldest HELLO version a server still accepts. */
constexpr uint16_t kMinProtocolVersion = 3;
/**
 * Absolute payload-size ceiling any decoder accepts; connections may
 * negotiate (configure) a smaller bound. Caps hostile length prefixes so
 * a 4-byte header can never make a server allocate gigabytes.
 */
constexpr uint32_t kMaxFramePayload = 16u << 20;
/** streamId value in ERROR frames that refers to the whole connection. */
constexpr uint32_t kConnectionStream = 0xffffffffu;
/** Fixed bytes before the payload: u32 size + u8 type. */
constexpr size_t kFrameHeaderBytes = 5;
/** Encoded size of one report in a REPORTS frame. */
constexpr size_t kWireReportBytes = 16;
/** Encoded size of one report in a SCORED_REPORTS frame (v4). */
constexpr size_t kWireScoredReportBytes = 24;

enum class FrameType : uint8_t {
    Hello = 1,
    OpenStream = 2,
    Data = 3,
    Flush = 4,
    CloseStream = 5,
    Reports = 6,
    Error = 7,
    Goodbye = 8,
    Stats = 9,      ///< Client polls a live server snapshot (v2).
    StatsReply = 10, ///< Server's snapshot answer (v2).
    ArtifactQuery = 11, ///< Does the peer hold this fingerprint? (v3)
    ArtifactOffer = 12, ///< Peer's answer: availability + chunking (v3).
    ArtifactFetch = 13, ///< Request one chunk of an offered artifact (v3).
    ArtifactChunk = 14, ///< One CRC-covered artifact chunk (v3).
    Swap = 15,          ///< Admin: hot-swap the served ruleset (v3).
    SwapReply = 16,     ///< Swap outcome: old/new fingerprints + epoch (v3).
    ScoredReports = 17, ///< REPORTS with per-report scores (v4).
};

/** Version of the STATS_REPLY payload layout (independent of frames). */
constexpr uint16_t kStatsVersion = 3;

/** SWAP_REPLY outcome codes. */
enum class SwapStatus : uint8_t {
    Swapped = 1,   ///< New epoch installed; old sessions keep draining.
    Unchanged = 2, ///< Target fingerprint was already serving (no-op).
    Failed = 3,    ///< Load/validation failed; the automaton is unchanged.
};

/** STATS_REPLY section ids; the request mask is bit (id - 1). */
enum class StatsSection : uint8_t {
    Totals = 1,   ///< WireServerTotals.
    Sessions = 2, ///< Per-session live stats table.
    Metrics = 3,  ///< telemetry::MetricsSnapshot binary image (CASN).
    Kernels = 4,  ///< Per-worker kernel-decision counters.
};

/** Request mask selecting every section. */
constexpr uint32_t kStatsAllSections = 0xfu;

/** Mask bit for one section. */
constexpr uint32_t
statsSectionBit(StatsSection s)
{
    return 1u << (static_cast<uint32_t>(s) - 1);
}

/** ERROR frame codes (docs/NET.md lists the teardown semantics). */
enum class ErrorCode : uint16_t {
    ProtocolError = 1,       ///< Malformed/unexpected frame: teardown.
    VersionMismatch = 2,     ///< HELLO version unsupported: teardown.
    FingerprintMismatch = 3, ///< Client expected another automaton.
    Busy = 4,                ///< Connection cap reached: admission reject.
    UnknownStream = 5,       ///< Frame names a stream never opened.
    DuplicateStream = 6,     ///< OPEN_STREAM reusing a live id.
    StreamLimit = 7,         ///< Per-connection stream cap reached.
    IdleTimeout = 8,         ///< No frame within the idle window.
    SlowConsumer = 9,        ///< Reserved: a slow consumer gets no frame.
    Shutdown = 10,           ///< Reserved: a stopping server says GOODBYE.
    PermissionDenied = 11,   ///< SWAP outside the admin plane: teardown.
    ArtifactUnavailable = 12, ///< FETCH for a fingerprint not held here.
};

/** Printable name for diagnostics ("busy", "protocol_error", ...). */
std::string errorCodeName(ErrorCode code);

/**
 * STATS_REPLY Totals section: the server's aggregate counters,
 * flattened to wire-defined fields (mirrors net::NetServerStats +
 * runtime::ServerStats, which live above this header in the layering).
 */
struct WireServerTotals
{
    uint64_t uptimeMicros = 0;
    uint32_t workers = 0;
    uint64_t activeConnections = 0;
    // net-side (NetServerStats order)
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsRejected = 0;
    uint64_t connectionsClosed = 0;
    uint64_t streamsOpened = 0;
    uint64_t streamsClosed = 0;
    uint64_t framesIn = 0;
    uint64_t framesOut = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    uint64_t reportsSent = 0;
    uint64_t protocolErrors = 0;
    uint64_t idleTimeouts = 0;
    uint64_t writeTimeouts = 0;
    uint64_t slowConsumerDrops = 0;
    // runtime-side (runtime::ServerStats order)
    uint64_t sessionsOpened = 0;
    uint64_t sessionsClosed = 0;
    uint64_t streamSymbols = 0;
    uint64_t streamReports = 0;
    uint64_t slices = 0;
    uint64_t contextSwitches = 0;
    // cluster-side (statsVersion 2, docs/CLUSTER.md)
    uint64_t epoch = 0;               ///< Serving epoch (bumps per swap).
    uint64_t automatonFp = 0;         ///< Serving automaton fingerprint.
    uint64_t epochsDraining = 0;      ///< Retired epochs still draining.
    uint64_t epochsRetired = 0;       ///< Retired epochs fully reaped.
    uint64_t swapsCompleted = 0;
    uint64_t swapsFailed = 0;
    uint64_t artifactQueries = 0;     ///< ARTIFACT_QUERY frames answered.
    uint64_t artifactChunksServed = 0;
    uint64_t artifactBytesServed = 0;
    // scoring-side (statsVersion 3, docs/SCORING.md)
    uint64_t automatonWeighted = 0;   ///< 1 when serving a scored automaton.
    uint64_t scoredReportsSent = 0;   ///< Rows sent in SCORED_REPORTS frames.
};

/**
 * Decoded STATS_REPLY payload (also carries a STATS request's fields —
 * token and sections — when it rides in a Frame of type Stats).
 * Sections absent from `sections` keep their empty/zero defaults, which
 * is also how a section-filtered server degrades.
 */
struct StatsReplyBody
{
    uint16_t statsVersion = kStatsVersion;
    uint64_t token = 0;
    uint8_t telemetryCompiled = 0; ///< Always 1 from this server.
    uint8_t telemetryEnabled = 0;  ///< telemetry::enabled() right now.
    uint32_t sections = 0;         ///< StatsSection bits present below.
    WireServerTotals totals;
    std::vector<runtime::SessionLiveStats> sessions;
    /** telemetry::MetricsSnapshot::serialize() image (self-versioned). */
    std::vector<uint8_t> metricsSnapshot;
    std::vector<KernelDecisionStats> kernels;
};

/**
 * One decoded frame, as a flat tagged struct (only the fields of the
 * frame's type are meaningful; the rest keep their zero defaults).
 */
struct Frame
{
    FrameType type = FrameType::Hello;
    uint32_t streamId = 0;

    // Hello
    uint32_t magic = 0;
    uint16_t version = 0;
    uint64_t fingerprint = 0;

    // Data
    std::vector<uint8_t> data;

    // Flush
    uint64_t flushToken = 0;

    // CloseStream (summary filled on the server's acknowledgement)
    uint64_t symbols = 0;
    uint64_t reports = 0;

    // Reports
    std::vector<Report> reportBatch;

    // Error
    ErrorCode errorCode = ErrorCode::ProtocolError;
    std::string message;

    // Stats (token/sections double as the request) / StatsReply
    StatsReplyBody stats;

    // ArtifactQuery/Offer/Fetch/Chunk share `fingerprint`; a chunk's
    // bytes ride in `data`.
    uint8_t artifactAvailable = 0; ///< Offer: peer holds the artifact.
    uint64_t artifactBytes = 0;    ///< Offer: total artifact size.
    uint32_t chunkBytes = 0;       ///< Offer: chunk size of the split.
    uint32_t chunkIndex = 0;       ///< Fetch/Chunk: which chunk.
    uint32_t chunkCount = 0;       ///< Offer/Chunk: chunks in total.

    // Swap (token rides in `flushToken`, source path in `message`) /
    // SwapReply (message in `message`).
    SwapStatus swapStatus = SwapStatus::Failed;
    uint64_t oldFingerprint = 0;
    uint64_t newFingerprint = 0;
    uint64_t epoch = 0;
};

// --- Encoders (append one whole frame to @p out) -----------------------

void appendHello(std::vector<uint8_t> &out, uint64_t fingerprint,
                 uint16_t version = kProtocolVersion);
void appendOpenStream(std::vector<uint8_t> &out, uint32_t streamId);
void appendData(std::vector<uint8_t> &out, uint32_t streamId,
                const uint8_t *data, size_t size);
void appendFlush(std::vector<uint8_t> &out, uint32_t streamId,
                 uint64_t token);
void appendCloseStream(std::vector<uint8_t> &out, uint32_t streamId,
                       uint64_t symbols = 0, uint64_t reports = 0);
void appendReports(std::vector<uint8_t> &out, uint32_t streamId,
                   const Report *reports, size_t count);
/** v4: REPORTS rows extended with each report's accumulated score. */
void appendScoredReports(std::vector<uint8_t> &out, uint32_t streamId,
                         const Report *reports, size_t count);
void appendError(std::vector<uint8_t> &out, ErrorCode code,
                 uint32_t streamId, const std::string &message);
void appendGoodbye(std::vector<uint8_t> &out);
void appendStats(std::vector<uint8_t> &out, uint64_t token,
                 uint32_t sections = kStatsAllSections);
void appendStatsReply(std::vector<uint8_t> &out,
                      const StatsReplyBody &body);
void appendArtifactQuery(std::vector<uint8_t> &out, uint64_t fingerprint);
void appendArtifactOffer(std::vector<uint8_t> &out, uint64_t fingerprint,
                         bool available, uint64_t totalBytes,
                         uint32_t chunkBytes, uint32_t chunkCount);
void appendArtifactFetch(std::vector<uint8_t> &out, uint64_t fingerprint,
                         uint32_t chunkIndex);
/** Computes and embeds the chunk's CRC32 over @p data. */
void appendArtifactChunk(std::vector<uint8_t> &out, uint64_t fingerprint,
                         uint32_t chunkIndex, uint32_t chunkCount,
                         const uint8_t *data, size_t size);
void appendSwap(std::vector<uint8_t> &out, uint64_t token,
                uint64_t fingerprint, const std::string &source);
void appendSwapReply(std::vector<uint8_t> &out, uint64_t token,
                     SwapStatus status, uint64_t oldFingerprint,
                     uint64_t newFingerprint, uint64_t epoch,
                     const std::string &message);

// --- Decoder ------------------------------------------------------------

/**
 * Incremental frame decoder over a socket byte stream. Feed raw bytes
 * with append(); next() yields completed frames in order, returns
 * nullopt while a frame is still partial, and throws CaError on any
 * malformed frame (oversized length, unknown type, payload that does not
 * parse exactly). After a throw the stream is unrecoverable — the owner
 * must tear the connection down (framing has lost sync by definition).
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(uint32_t max_payload = kMaxFramePayload);

    /** Buffers @p size raw stream bytes. */
    void append(const uint8_t *data, size_t size);

    /** Decodes the next complete frame, if the buffer holds one. */
    std::optional<Frame> next();

    /** Bytes buffered but not yet consumed by next(). */
    size_t buffered() const { return buf_.size() - consumed_; }

  private:
    uint32_t max_payload_;
    std::vector<uint8_t> buf_;
    /** Prefix of buf_ already decoded (compacted opportunistically). */
    size_t consumed_ = 0;
};

/** Decodes a payload given its type (exact-consumption checked). */
Frame decodePayload(FrameType type, const uint8_t *payload, size_t size);

} // namespace ca::net

#endif // CA_NET_PROTOCOL_H
