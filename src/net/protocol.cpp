#include "net/protocol.h"

#include <cstring>

#include "core/error.h"
#include "core/serde.h"

namespace ca::net {

namespace {

/** Reserves the header, returns the offset where the payload starts. */
size_t
beginFrame(std::vector<uint8_t> &out, FrameType type)
{
    serde::putU32(out, 0); // patched by endFrame
    serde::putU8(out, static_cast<uint8_t>(type));
    return out.size();
}

/** Patches the payload length once the payload has been appended. */
void
endFrame(std::vector<uint8_t> &out, size_t payload_start)
{
    size_t payload = out.size() - payload_start;
    CA_ASSERT_MSG(payload <= kMaxFramePayload,
                  "encoded frame payload " << payload << " exceeds protocol "
                      "ceiling " << kMaxFramePayload);
    uint32_t v = static_cast<uint32_t>(payload);
    size_t len_at = payload_start - kFrameHeaderBytes;
    for (int i = 0; i < 4; ++i)
        out[len_at + static_cast<size_t>(i)] =
            static_cast<uint8_t>(v >> (8 * i));
}

} // namespace

std::string
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::ProtocolError: return "protocol_error";
      case ErrorCode::VersionMismatch: return "version_mismatch";
      case ErrorCode::FingerprintMismatch: return "fingerprint_mismatch";
      case ErrorCode::Busy: return "busy";
      case ErrorCode::UnknownStream: return "unknown_stream";
      case ErrorCode::DuplicateStream: return "duplicate_stream";
      case ErrorCode::StreamLimit: return "stream_limit";
      case ErrorCode::IdleTimeout: return "idle_timeout";
      case ErrorCode::SlowConsumer: return "slow_consumer";
      case ErrorCode::Shutdown: return "shutdown";
      case ErrorCode::PermissionDenied: return "permission_denied";
      case ErrorCode::ArtifactUnavailable: return "artifact_unavailable";
    }
    return "code_" + std::to_string(static_cast<unsigned>(code));
}

void
appendHello(std::vector<uint8_t> &out, uint64_t fingerprint,
            uint16_t version)
{
    size_t p = beginFrame(out, FrameType::Hello);
    serde::putU32(out, kHelloMagic);
    serde::putU16(out, version);
    serde::putU64(out, fingerprint);
    endFrame(out, p);
}

void
appendOpenStream(std::vector<uint8_t> &out, uint32_t streamId)
{
    size_t p = beginFrame(out, FrameType::OpenStream);
    serde::putU32(out, streamId);
    endFrame(out, p);
}

void
appendData(std::vector<uint8_t> &out, uint32_t streamId,
           const uint8_t *data, size_t size)
{
    CA_FATAL_IF(size + 4 > kMaxFramePayload,
                "DATA chunk of " << size << " bytes exceeds the "
                    << kMaxFramePayload << "-byte frame ceiling");
    size_t p = beginFrame(out, FrameType::Data);
    serde::putU32(out, streamId);
    out.insert(out.end(), data, data + size);
    endFrame(out, p);
}

void
appendFlush(std::vector<uint8_t> &out, uint32_t streamId, uint64_t token)
{
    size_t p = beginFrame(out, FrameType::Flush);
    serde::putU32(out, streamId);
    serde::putU64(out, token);
    endFrame(out, p);
}

void
appendCloseStream(std::vector<uint8_t> &out, uint32_t streamId,
                  uint64_t symbols, uint64_t reports)
{
    size_t p = beginFrame(out, FrameType::CloseStream);
    serde::putU32(out, streamId);
    serde::putU64(out, symbols);
    serde::putU64(out, reports);
    endFrame(out, p);
}

void
appendReports(std::vector<uint8_t> &out, uint32_t streamId,
              const Report *reports, size_t count)
{
    CA_FATAL_IF(8 + count * kWireReportBytes > kMaxFramePayload,
                "REPORTS batch of " << count << " exceeds the frame "
                    "ceiling; split the batch");
    size_t p = beginFrame(out, FrameType::Reports);
    serde::putU32(out, streamId);
    serde::putU32(out, static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
        serde::putU64(out, reports[i].offset);
        serde::putU32(out, reports[i].reportId);
        serde::putU32(out, reports[i].state);
    }
    endFrame(out, p);
}

void
appendScoredReports(std::vector<uint8_t> &out, uint32_t streamId,
                    const Report *reports, size_t count)
{
    CA_FATAL_IF(8 + count * kWireScoredReportBytes > kMaxFramePayload,
                "SCORED_REPORTS batch of " << count << " exceeds the "
                    "frame ceiling; split the batch");
    size_t p = beginFrame(out, FrameType::ScoredReports);
    serde::putU32(out, streamId);
    serde::putU32(out, static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
        serde::putU64(out, reports[i].offset);
        serde::putU32(out, reports[i].reportId);
        serde::putU32(out, reports[i].state);
        serde::putI64(out, reports[i].score);
    }
    endFrame(out, p);
}

void
appendError(std::vector<uint8_t> &out, ErrorCode code, uint32_t streamId,
            const std::string &message)
{
    size_t p = beginFrame(out, FrameType::Error);
    serde::putU16(out, static_cast<uint16_t>(code));
    serde::putU32(out, streamId);
    serde::putString(out, message);
    endFrame(out, p);
}

void
appendGoodbye(std::vector<uint8_t> &out)
{
    size_t p = beginFrame(out, FrameType::Goodbye);
    endFrame(out, p);
}

void
appendStats(std::vector<uint8_t> &out, uint64_t token, uint32_t sections)
{
    size_t p = beginFrame(out, FrameType::Stats);
    serde::putU64(out, token);
    serde::putU32(out, sections);
    endFrame(out, p);
}

void
appendArtifactQuery(std::vector<uint8_t> &out, uint64_t fingerprint)
{
    size_t p = beginFrame(out, FrameType::ArtifactQuery);
    serde::putU64(out, fingerprint);
    endFrame(out, p);
}

void
appendArtifactOffer(std::vector<uint8_t> &out, uint64_t fingerprint,
                    bool available, uint64_t totalBytes,
                    uint32_t chunkBytes, uint32_t chunkCount)
{
    size_t p = beginFrame(out, FrameType::ArtifactOffer);
    serde::putU64(out, fingerprint);
    serde::putU8(out, available ? 1 : 0);
    serde::putU64(out, totalBytes);
    serde::putU32(out, chunkBytes);
    serde::putU32(out, chunkCount);
    endFrame(out, p);
}

void
appendArtifactFetch(std::vector<uint8_t> &out, uint64_t fingerprint,
                    uint32_t chunkIndex)
{
    size_t p = beginFrame(out, FrameType::ArtifactFetch);
    serde::putU64(out, fingerprint);
    serde::putU32(out, chunkIndex);
    endFrame(out, p);
}

void
appendArtifactChunk(std::vector<uint8_t> &out, uint64_t fingerprint,
                    uint32_t chunkIndex, uint32_t chunkCount,
                    const uint8_t *data, size_t size)
{
    CA_FATAL_IF(size + 20 > kMaxFramePayload,
                "ARTIFACT_CHUNK of " << size << " bytes exceeds the "
                    << kMaxFramePayload << "-byte frame ceiling");
    size_t p = beginFrame(out, FrameType::ArtifactChunk);
    serde::putU64(out, fingerprint);
    serde::putU32(out, chunkIndex);
    serde::putU32(out, chunkCount);
    serde::putU32(out, serde::crc32(data, size));
    out.insert(out.end(), data, data + size);
    endFrame(out, p);
}

void
appendSwap(std::vector<uint8_t> &out, uint64_t token, uint64_t fingerprint,
           const std::string &source)
{
    size_t p = beginFrame(out, FrameType::Swap);
    serde::putU64(out, token);
    serde::putU64(out, fingerprint);
    serde::putString(out, source);
    endFrame(out, p);
}

void
appendSwapReply(std::vector<uint8_t> &out, uint64_t token,
                SwapStatus status, uint64_t oldFingerprint,
                uint64_t newFingerprint, uint64_t epoch,
                const std::string &message)
{
    size_t p = beginFrame(out, FrameType::SwapReply);
    serde::putU64(out, token);
    serde::putU8(out, static_cast<uint8_t>(status));
    serde::putU64(out, oldFingerprint);
    serde::putU64(out, newFingerprint);
    serde::putU64(out, epoch);
    serde::putString(out, message);
    endFrame(out, p);
}

namespace {

/** Appends one `u8 id | u32 len | bytes` section envelope. */
void
putSection(std::vector<uint8_t> &out, StatsSection id,
           const std::vector<uint8_t> &bytes)
{
    serde::putU8(out, static_cast<uint8_t>(id));
    serde::putU32(out, static_cast<uint32_t>(bytes.size()));
    out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<uint8_t>
encodeTotals(const WireServerTotals &t)
{
    std::vector<uint8_t> s;
    serde::putU64(s, t.uptimeMicros);
    serde::putU32(s, t.workers);
    serde::putU64(s, t.activeConnections);
    serde::putU64(s, t.connectionsAccepted);
    serde::putU64(s, t.connectionsRejected);
    serde::putU64(s, t.connectionsClosed);
    serde::putU64(s, t.streamsOpened);
    serde::putU64(s, t.streamsClosed);
    serde::putU64(s, t.framesIn);
    serde::putU64(s, t.framesOut);
    serde::putU64(s, t.bytesIn);
    serde::putU64(s, t.bytesOut);
    serde::putU64(s, t.reportsSent);
    serde::putU64(s, t.protocolErrors);
    serde::putU64(s, t.idleTimeouts);
    serde::putU64(s, t.writeTimeouts);
    serde::putU64(s, t.slowConsumerDrops);
    serde::putU64(s, t.sessionsOpened);
    serde::putU64(s, t.sessionsClosed);
    serde::putU64(s, t.streamSymbols);
    serde::putU64(s, t.streamReports);
    serde::putU64(s, t.slices);
    serde::putU64(s, t.contextSwitches);
    serde::putU64(s, t.epoch);
    serde::putU64(s, t.automatonFp);
    serde::putU64(s, t.epochsDraining);
    serde::putU64(s, t.epochsRetired);
    serde::putU64(s, t.swapsCompleted);
    serde::putU64(s, t.swapsFailed);
    serde::putU64(s, t.artifactQueries);
    serde::putU64(s, t.artifactChunksServed);
    serde::putU64(s, t.artifactBytesServed);
    serde::putU64(s, t.automatonWeighted);
    serde::putU64(s, t.scoredReportsSent);
    return s;
}

/** Encoded size of one Sessions-section row / Kernels-section row. */
constexpr size_t kWireSessionBytes = 4 + 9 * 8 + 4 + 1 + 8;
constexpr size_t kWireKernelBytes = 5 * 8 + 8 + 1;

std::vector<uint8_t>
encodeSessions(const std::vector<runtime::SessionLiveStats> &sessions)
{
    std::vector<uint8_t> s;
    serde::putU32(s, static_cast<uint32_t>(sessions.size()));
    for (const runtime::SessionLiveStats &v : sessions) {
        serde::putU32(s, v.id);
        serde::putU64(s, v.stats.symbols);
        serde::putU64(s, v.stats.bytesSubmitted);
        serde::putU64(s, v.stats.chunksSubmitted);
        serde::putU64(s, v.stats.reports);
        serde::putU64(s, v.stats.slices);
        serde::putU64(s, v.stats.contextSwitches);
        serde::putU64(s, v.stats.queueFullStalls);
        serde::putU64(s, v.stats.suspensions);
        serde::putU64(s, v.queuedBytes);
        serde::putU32(s, v.queuedChunks);
        uint8_t flags = static_cast<uint8_t>(
            (v.suspended ? 1u : 0u) | (v.closing ? 2u : 0u) |
            (v.closed ? 4u : 0u));
        serde::putU8(s, flags);
        serde::putF64(s, v.symbolsPerSec);
    }
    return s;
}

std::vector<uint8_t>
encodeKernels(const std::vector<KernelDecisionStats> &kernels)
{
    std::vector<uint8_t> s;
    serde::putU32(s, static_cast<uint32_t>(kernels.size()));
    for (const KernelDecisionStats &k : kernels) {
        serde::putU64(s, k.sparseBlocks);
        serde::putU64(s, k.denseBlocks);
        serde::putU64(s, k.sparseSymbols);
        serde::putU64(s, k.denseSymbols);
        serde::putU64(s, k.kernelFlips);
        serde::putF64(s, k.densityEwma);
        serde::putU8(s, static_cast<uint8_t>(
                            static_cast<int8_t>(k.lastKernel)));
    }
    return s;
}

WireServerTotals
decodeTotals(serde::ByteReader &r)
{
    WireServerTotals t;
    t.uptimeMicros = r.u64();
    t.workers = r.u32();
    t.activeConnections = r.u64();
    t.connectionsAccepted = r.u64();
    t.connectionsRejected = r.u64();
    t.connectionsClosed = r.u64();
    t.streamsOpened = r.u64();
    t.streamsClosed = r.u64();
    t.framesIn = r.u64();
    t.framesOut = r.u64();
    t.bytesIn = r.u64();
    t.bytesOut = r.u64();
    t.reportsSent = r.u64();
    t.protocolErrors = r.u64();
    t.idleTimeouts = r.u64();
    t.writeTimeouts = r.u64();
    t.slowConsumerDrops = r.u64();
    t.sessionsOpened = r.u64();
    t.sessionsClosed = r.u64();
    t.streamSymbols = r.u64();
    t.streamReports = r.u64();
    t.slices = r.u64();
    t.contextSwitches = r.u64();
    t.epoch = r.u64();
    t.automatonFp = r.u64();
    t.epochsDraining = r.u64();
    t.epochsRetired = r.u64();
    t.swapsCompleted = r.u64();
    t.swapsFailed = r.u64();
    t.artifactQueries = r.u64();
    t.artifactChunksServed = r.u64();
    t.artifactBytesServed = r.u64();
    t.automatonWeighted = r.u64();
    t.scoredReportsSent = r.u64();
    return t;
}

std::vector<runtime::SessionLiveStats>
decodeSessions(serde::ByteReader &r)
{
    uint32_t count = r.u32();
    CA_FATAL_IF(static_cast<uint64_t>(count) * kWireSessionBytes !=
                    r.remaining(),
                "net: STATS_REPLY session count " << count
                    << " disagrees with " << r.remaining()
                    << " section bytes");
    std::vector<runtime::SessionLiveStats> out;
    out.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        runtime::SessionLiveStats v;
        v.id = r.u32();
        v.stats.symbols = r.u64();
        v.stats.bytesSubmitted = r.u64();
        v.stats.chunksSubmitted = r.u64();
        v.stats.reports = r.u64();
        v.stats.slices = r.u64();
        v.stats.contextSwitches = r.u64();
        v.stats.queueFullStalls = r.u64();
        v.stats.suspensions = r.u64();
        v.queuedBytes = r.u64();
        v.queuedChunks = r.u32();
        uint8_t flags = r.u8();
        v.suspended = (flags & 1u) != 0;
        v.closing = (flags & 2u) != 0;
        v.closed = (flags & 4u) != 0;
        v.symbolsPerSec = r.f64();
        out.push_back(v);
    }
    return out;
}

std::vector<KernelDecisionStats>
decodeKernels(serde::ByteReader &r)
{
    uint32_t count = r.u32();
    CA_FATAL_IF(static_cast<uint64_t>(count) * kWireKernelBytes !=
                    r.remaining(),
                "net: STATS_REPLY kernel count " << count
                    << " disagrees with " << r.remaining()
                    << " section bytes");
    std::vector<KernelDecisionStats> out;
    out.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        KernelDecisionStats k;
        k.sparseBlocks = r.u64();
        k.denseBlocks = r.u64();
        k.sparseSymbols = r.u64();
        k.denseSymbols = r.u64();
        k.kernelFlips = r.u64();
        k.densityEwma = r.f64();
        k.lastKernel = static_cast<int8_t>(r.u8());
        out.push_back(k);
    }
    return out;
}

} // namespace

void
appendStatsReply(std::vector<uint8_t> &out, const StatsReplyBody &body)
{
    size_t p = beginFrame(out, FrameType::StatsReply);
    serde::putU16(out, body.statsVersion);
    serde::putU64(out, body.token);
    serde::putU8(out, body.telemetryCompiled);
    serde::putU8(out, body.telemetryEnabled);
    serde::putU32(out, body.sections);
    if (body.sections & statsSectionBit(StatsSection::Totals))
        putSection(out, StatsSection::Totals, encodeTotals(body.totals));
    if (body.sections & statsSectionBit(StatsSection::Sessions))
        putSection(out, StatsSection::Sessions,
                   encodeSessions(body.sessions));
    if (body.sections & statsSectionBit(StatsSection::Metrics))
        putSection(out, StatsSection::Metrics, body.metricsSnapshot);
    if (body.sections & statsSectionBit(StatsSection::Kernels))
        putSection(out, StatsSection::Kernels,
                   encodeKernels(body.kernels));
    endFrame(out, p);
}

Frame
decodePayload(FrameType type, const uint8_t *payload, size_t size)
{
    serde::ByteReader r(payload, size);
    Frame f;
    f.type = type;
    switch (type) {
      case FrameType::Hello:
        f.magic = r.u32();
        f.version = r.u16();
        f.fingerprint = r.u64();
        CA_FATAL_IF(f.magic != kHelloMagic,
                    "net: HELLO magic mismatch (got 0x" << std::hex
                        << f.magic << ")");
        break;
      case FrameType::OpenStream:
        f.streamId = r.u32();
        break;
      case FrameType::Data:
        f.streamId = r.u32();
        f.data.assign(payload + r.pos(), payload + size);
        r.skip(size - r.pos());
        break;
      case FrameType::Flush:
        f.streamId = r.u32();
        f.flushToken = r.u64();
        break;
      case FrameType::CloseStream:
        f.streamId = r.u32();
        f.symbols = r.u64();
        f.reports = r.u64();
        break;
      case FrameType::Reports: {
        f.streamId = r.u32();
        uint32_t count = r.u32();
        // The count must agree with the bytes actually present before
        // any allocation happens (hostile counts must not reserve GBs).
        CA_FATAL_IF(static_cast<uint64_t>(count) * kWireReportBytes !=
                        r.remaining(),
                    "net: REPORTS count " << count << " disagrees with "
                        << r.remaining() << " payload bytes");
        f.reportBatch.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
            Report rep;
            rep.offset = r.u64();
            rep.reportId = r.u32();
            rep.state = r.u32();
            f.reportBatch.push_back(rep);
        }
        break;
      }
      case FrameType::ScoredReports: {
        f.streamId = r.u32();
        uint32_t count = r.u32();
        CA_FATAL_IF(static_cast<uint64_t>(count) * kWireScoredReportBytes
                        != r.remaining(),
                    "net: SCORED_REPORTS count " << count
                        << " disagrees with " << r.remaining()
                        << " payload bytes");
        f.reportBatch.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
            Report rep;
            rep.offset = r.u64();
            rep.reportId = r.u32();
            rep.state = r.u32();
            rep.score = r.i64();
            f.reportBatch.push_back(rep);
        }
        break;
      }
      case FrameType::Error: {
        uint16_t code = r.u16();
        f.errorCode = static_cast<ErrorCode>(code);
        f.streamId = r.u32();
        f.message = r.str();
        break;
      }
      case FrameType::Goodbye:
        break;
      case FrameType::Stats:
        f.stats.token = r.u64();
        f.stats.sections = r.u32();
        break;
      case FrameType::StatsReply: {
        f.stats.statsVersion = r.u16();
        CA_FATAL_IF(f.stats.statsVersion != kStatsVersion,
                    "net: STATS_REPLY stats version "
                        << f.stats.statsVersion << " unsupported (want "
                        << kStatsVersion << ")");
        f.stats.token = r.u64();
        f.stats.telemetryCompiled = r.u8();
        f.stats.telemetryEnabled = r.u8();
        uint32_t declared = r.u32();
        f.stats.sections = 0;
        // Sections are self-describing envelopes; ids this decoder does
        // not know are skipped wholesale so a newer server can add
        // sections without breaking older pollers.
        while (!r.done()) {
            uint8_t id = r.u8();
            uint32_t len = r.u32();
            const uint8_t *body = r.bytes(len);
            serde::ByteReader s(body, len);
            switch (static_cast<StatsSection>(id)) {
              case StatsSection::Totals:
                f.stats.totals = decodeTotals(s);
                break;
              case StatsSection::Sessions:
                f.stats.sessions = decodeSessions(s);
                break;
              case StatsSection::Metrics:
                f.stats.metricsSnapshot.assign(body, body + len);
                s.skip(len);
                break;
              case StatsSection::Kernels:
                f.stats.kernels = decodeKernels(s);
                break;
              default:
                s.skip(len); // unknown section: tolerated, not surfaced
                continue;
            }
            CA_FATAL_IF(!s.done(),
                        "net: STATS_REPLY section " << unsigned{id}
                            << " carries " << s.remaining()
                            << " trailing bytes");
            if (id >= 1 && id <= 32)
                f.stats.sections |=
                    statsSectionBit(static_cast<StatsSection>(id));
        }
        CA_FATAL_IF((f.stats.sections & declared) != f.stats.sections,
                    "net: STATS_REPLY carries section bytes its mask 0x"
                        << std::hex << declared << " does not declare");
        break;
      }
      case FrameType::ArtifactQuery:
        f.fingerprint = r.u64();
        break;
      case FrameType::ArtifactOffer:
        f.fingerprint = r.u64();
        f.artifactAvailable = r.u8();
        f.artifactBytes = r.u64();
        f.chunkBytes = r.u32();
        f.chunkCount = r.u32();
        break;
      case FrameType::ArtifactFetch:
        f.fingerprint = r.u64();
        f.chunkIndex = r.u32();
        break;
      case FrameType::ArtifactChunk: {
        f.fingerprint = r.u64();
        f.chunkIndex = r.u32();
        f.chunkCount = r.u32();
        uint32_t crc = r.u32();
        f.data.assign(payload + r.pos(), payload + size);
        r.skip(size - r.pos());
        // Chunk integrity lives at the protocol layer: a corrupted or
        // truncated transfer surfaces as a clean decode error, which the
        // replication client turns into retry-on-the-next-peer.
        CA_FATAL_IF(serde::crc32(f.data.data(), f.data.size()) != crc,
                    "net: ARTIFACT_CHUNK " << f.chunkIndex
                        << " fails its CRC (corrupted transfer)");
        break;
      }
      case FrameType::Swap:
        f.flushToken = r.u64();
        f.fingerprint = r.u64();
        f.message = r.str();
        break;
      case FrameType::SwapReply: {
        f.flushToken = r.u64();
        uint8_t status = r.u8();
        CA_FATAL_IF(status < static_cast<uint8_t>(SwapStatus::Swapped) ||
                        status > static_cast<uint8_t>(SwapStatus::Failed),
                    "net: SWAP_REPLY status " << unsigned{status}
                        << " unknown");
        f.swapStatus = static_cast<SwapStatus>(status);
        f.oldFingerprint = r.u64();
        f.newFingerprint = r.u64();
        f.epoch = r.u64();
        f.message = r.str();
        break;
      }
      default:
        CA_THROW("net: unknown frame type "
                 << static_cast<unsigned>(type));
    }
    CA_FATAL_IF(!r.done(), "net: frame type "
                    << static_cast<unsigned>(type) << " carries "
                    << r.remaining() << " trailing payload bytes");
    return f;
}

FrameDecoder::FrameDecoder(uint32_t max_payload)
    : max_payload_(std::min(max_payload, kMaxFramePayload))
{
}

void
FrameDecoder::append(const uint8_t *data, size_t size)
{
    // Compact before growing: drop the already-decoded prefix so the
    // buffer stays proportional to one in-flight frame, not the stream.
    if (consumed_ > 0 && (consumed_ >= buf_.size() ||
                          consumed_ >= (64u << 10))) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<long>(consumed_));
        consumed_ = 0;
    }
    buf_.insert(buf_.end(), data, data + size);
}

std::optional<Frame>
FrameDecoder::next()
{
    size_t avail = buf_.size() - consumed_;
    if (avail < kFrameHeaderBytes)
        return std::nullopt;
    const uint8_t *p = buf_.data() + consumed_;
    uint32_t payload = 0;
    for (int i = 0; i < 4; ++i)
        payload |= uint32_t{p[i]} << (8 * i);
    CA_FATAL_IF(payload > max_payload_,
                "net: frame payload " << payload
                    << " exceeds the " << max_payload_ << "-byte bound");
    uint8_t type = p[4];
    CA_FATAL_IF(type < static_cast<uint8_t>(FrameType::Hello) ||
                    type > static_cast<uint8_t>(FrameType::ScoredReports),
                "net: unknown frame type " << unsigned{type});
    if (avail < kFrameHeaderBytes + payload)
        return std::nullopt;
    Frame f = decodePayload(static_cast<FrameType>(type),
                            p + kFrameHeaderBytes, payload);
    consumed_ += kFrameHeaderBytes + payload;
    return f;
}

} // namespace ca::net
