/**
 * @file
 * Tests for the network service layer (src/net): wire-protocol golden
 * bytes and hardening, and end-to-end loopback service semantics.
 *
 * The load-bearing properties:
 *  - Determinism: the report stream a client collects over TCP is
 *    byte-identical to the CPU oracle's (NfaEngine) run over the same input,
 *    for any connections × streams × chunk-size split.
 *  - Robustness: malformed frames, abrupt client death, over-cap
 *    connects, and idle peers tear down only their own connection; the
 *    server keeps serving everyone else. Hostile bytes can throw CaError
 *    but never crash (the fuzz_test.cpp contract).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "core/error.h"
#include "core/rng.h"
#include "net/client.h"
#include "net/match_server.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "nfa/glushkov.h"
#include "persist/artifact.h"
#include "sim/engine.h"
#include "telemetry/snapshot.h"
#include "workload/input_gen.h"

namespace fs = std::filesystem;

namespace ca {
namespace {

using net::ClientOptions;
using net::ErrorCode;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::MatchClient;
using net::MatchServer;
using net::MatchServerOptions;

/** Unique scratch directory, removed (recursively) on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        static std::atomic<uint64_t> seq{0};
        path_ = fs::temp_directory_path() /
                ("ca_net_test." + std::to_string(::getpid()) + "." +
                 std::to_string(seq.fetch_add(1)));
        fs::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    std::string str(const std::string &leaf) const
    {
        return (path_ / leaf).string();
    }

  private:
    fs::path path_;
};

MappedAutomaton &
sampleMapped()
{
    static MappedAutomaton m =
        mapPerformance(compileRuleset({"cat", "do+g", "[hx]at", "m.*n"}));
    return m;
}

std::vector<uint8_t>
sampleInput(size_t bytes, uint64_t seed)
{
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"cat", "dog", "hat", "mn"};
    spec.plantsPer4k = 32.0;
    return buildInput(spec, bytes, seed);
}

/**
 * The single-threaded reference for one stream: the CPU oracle,
 * which shares no code with the serving engines and gives exact reports
 * (and, on weighted automata, exact scores).
 */
std::vector<Report>
oracleReports(const MappedAutomaton &m, const std::vector<uint8_t> &input)
{
    return NfaEngine(m.nfa()).run(input);
}

/**
 * sampleMapped()'s ruleset with deterministic nonzero transition/start
 * weights, for the scored (v4) wire paths. oracleReports() stays the
 * right oracle: its reports carry exact scores.
 */
MappedAutomaton &
sampleScoredMapped()
{
    static MappedAutomaton m = [] {
        Nfa nfa = compileRuleset({"cat", "do+g", "[hx]at", "m.*n"});
        Rng rng(0x5C0ED);
        for (StateId s = 0; s < nfa.numStates(); ++s) {
            NfaState &st = nfa.state(s);
            if (st.start != StartType::None)
                st.startWeight = static_cast<Weight>(rng.range(-2, 2));
            if (st.out.empty())
                continue;
            st.outWeight.assign(st.out.size(), 0);
            for (Weight &w : st.outWeight)
                w = static_cast<Weight>(rng.range(-3, 3));
        }
        return mapPerformance(nfa);
    }();
    return m;
}

// --- Protocol: golden bytes --------------------------------------------

TEST(Protocol, HelloGoldenBytes)
{
    std::vector<uint8_t> out;
    net::appendHello(out, 0x1122334455667788ull);
    // u32 len=14 | u8 type=1 | u32 magic | u16 version | u64 fingerprint
    const uint8_t expect[] = {
        0x0e, 0x00, 0x00, 0x00,                         // payload size 14
        0x01,                                           // HELLO
        0x43, 0x41, 0x4e, 0x50,                         // "CANP"
        0x04, 0x00,                                     // version 4
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // fingerprint
    };
    ASSERT_EQ(out.size(), sizeof(expect));
    EXPECT_EQ(0, std::memcmp(out.data(), expect, sizeof(expect)));
}

TEST(Protocol, DataGoldenBytes)
{
    std::vector<uint8_t> out;
    const uint8_t body[] = {0xde, 0xad, 0xbe, 0xef};
    net::appendData(out, 7, body, sizeof(body));
    const uint8_t expect[] = {
        0x08, 0x00, 0x00, 0x00,       // payload size 8
        0x03,                         // DATA
        0x07, 0x00, 0x00, 0x00,       // streamId 7
        0xde, 0xad, 0xbe, 0xef,       // bytes
    };
    ASSERT_EQ(out.size(), sizeof(expect));
    EXPECT_EQ(0, std::memcmp(out.data(), expect, sizeof(expect)));
}

TEST(Protocol, ReportsGoldenBytes)
{
    std::vector<uint8_t> out;
    Report r;
    r.offset = 0x0102030405060708ull;
    r.reportId = 0x11121314u;
    r.state = 0x21222324u;
    net::appendReports(out, 3, &r, 1);
    const uint8_t expect[] = {
        0x18, 0x00, 0x00, 0x00,                         // payload size 24
        0x06,                                           // REPORTS
        0x03, 0x00, 0x00, 0x00,                         // streamId 3
        0x01, 0x00, 0x00, 0x00,                         // count 1
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // offset
        0x14, 0x13, 0x12, 0x11,                         // reportId
        0x24, 0x23, 0x22, 0x21,                         // state
    };
    ASSERT_EQ(out.size(), sizeof(expect));
    EXPECT_EQ(0, std::memcmp(out.data(), expect, sizeof(expect)));
}

TEST(Protocol, ScoredReportsGoldenBytes)
{
    std::vector<uint8_t> out;
    Report r;
    r.offset = 0x0102030405060708ull;
    r.reportId = 0x11121314u;
    r.state = 0x21222324u;
    r.score = -2; // 0xfffffffffffffffe little-endian on the wire
    net::appendScoredReports(out, 3, &r, 1);
    const uint8_t expect[] = {
        0x20, 0x00, 0x00, 0x00,                         // payload size 32
        0x11,                                           // SCORED_REPORTS
        0x03, 0x00, 0x00, 0x00,                         // streamId 3
        0x01, 0x00, 0x00, 0x00,                         // count 1
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // offset
        0x14, 0x13, 0x12, 0x11,                         // reportId
        0x24, 0x23, 0x22, 0x21,                         // state
        0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // score -2
    };
    ASSERT_EQ(out.size(), sizeof(expect));
    EXPECT_EQ(0, std::memcmp(out.data(), expect, sizeof(expect)));
}

TEST(Protocol, ScoredReportsRoundTripKeepsScores)
{
    std::vector<Report> reports(3);
    for (size_t i = 0; i < reports.size(); ++i) {
        reports[i].offset = 1000 + i;
        reports[i].reportId = static_cast<uint32_t>(i);
        reports[i].state = static_cast<uint32_t>(7 * i);
        reports[i].score = static_cast<int64_t>(i) * 1'000'000'007 - 5;
    }
    std::vector<uint8_t> out;
    net::appendScoredReports(out, 12, reports.data(), reports.size());
    FrameDecoder dec;
    dec.append(out.data(), out.size());
    std::optional<Frame> f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::ScoredReports);
    EXPECT_EQ(f->streamId, 12u);
    // Report::operator== covers score, so this is an exact-score check.
    EXPECT_EQ(f->reportBatch, reports);
}

TEST(Protocol, GoodbyeGoldenBytes)
{
    std::vector<uint8_t> out;
    net::appendGoodbye(out);
    const uint8_t expect[] = {0x00, 0x00, 0x00, 0x00, 0x08};
    ASSERT_EQ(out.size(), sizeof(expect));
    EXPECT_EQ(0, std::memcmp(out.data(), expect, sizeof(expect)));
}

TEST(Protocol, StatsGoldenBytes)
{
    std::vector<uint8_t> out;
    net::appendStats(out, 0x0102030405060708ull, net::kStatsAllSections);
    const uint8_t expect[] = {
        0x0c, 0x00, 0x00, 0x00,                         // payload size 12
        0x09,                                           // STATS
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // token
        0x0f, 0x00, 0x00, 0x00,                         // all sections
    };
    ASSERT_EQ(out.size(), sizeof(expect));
    EXPECT_EQ(0, std::memcmp(out.data(), expect, sizeof(expect)));
}

/** A STATS_REPLY body with every section populated distinctively. */
net::StatsReplyBody
sampleStatsBody()
{
    net::StatsReplyBody b;
    b.token = 77;
    b.telemetryCompiled = 1;
    b.telemetryEnabled = 1;
    b.sections = net::kStatsAllSections;
    b.totals.uptimeMicros = 5'000'000;
    b.totals.workers = 3;
    b.totals.activeConnections = 2;
    b.totals.framesIn = 101;
    b.totals.bytesIn = 54321;
    b.totals.streamSymbols = 99999;
    b.totals.contextSwitches = 17;
    b.totals.automatonWeighted = 1;
    b.totals.scoredReportsSent = 55;
    runtime::SessionLiveStats s;
    s.id = 4;
    s.stats.symbols = 1234;
    s.stats.bytesSubmitted = 2345;
    s.stats.suspensions = 2;
    s.queuedBytes = 512;
    s.queuedChunks = 3;
    s.suspended = true;
    s.symbolsPerSec = 1.5e6;
    b.sessions.push_back(s);
    s.id = 5;
    s.suspended = false;
    s.closed = true;
    b.sessions.push_back(s);
    b.metricsSnapshot = {0xaa, 0xbb, 0xcc}; // opaque blob on the wire
    KernelDecisionStats k;
    k.sparseBlocks = 10;
    k.denseBlocks = 20;
    k.kernelFlips = 4;
    k.densityEwma = 0.375;
    k.lastKernel = 1;
    b.kernels.push_back(k);
    return b;
}

TEST(Protocol, StatsReplyRoundTripsEveryField)
{
    net::StatsReplyBody b = sampleStatsBody();
    std::vector<uint8_t> out;
    net::appendStatsReply(out, b);

    FrameDecoder dec;
    dec.append(out.data(), out.size());
    std::optional<Frame> f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::StatsReply);
    const net::StatsReplyBody &d = f->stats;
    EXPECT_EQ(d.statsVersion, net::kStatsVersion);
    EXPECT_EQ(d.token, 77u);
    EXPECT_EQ(d.telemetryCompiled, 1);
    EXPECT_EQ(d.telemetryEnabled, 1);
    EXPECT_EQ(d.sections, net::kStatsAllSections);
    EXPECT_EQ(d.totals.uptimeMicros, 5'000'000u);
    EXPECT_EQ(d.totals.workers, 3u);
    EXPECT_EQ(d.totals.activeConnections, 2u);
    EXPECT_EQ(d.totals.framesIn, 101u);
    EXPECT_EQ(d.totals.bytesIn, 54321u);
    EXPECT_EQ(d.totals.streamSymbols, 99999u);
    EXPECT_EQ(d.totals.contextSwitches, 17u);
    EXPECT_EQ(d.totals.automatonWeighted, 1u);
    EXPECT_EQ(d.totals.scoredReportsSent, 55u);
    ASSERT_EQ(d.sessions.size(), 2u);
    EXPECT_EQ(d.sessions[0].id, 4u);
    EXPECT_EQ(d.sessions[0].stats.symbols, 1234u);
    EXPECT_EQ(d.sessions[0].stats.bytesSubmitted, 2345u);
    EXPECT_EQ(d.sessions[0].stats.suspensions, 2u);
    EXPECT_EQ(d.sessions[0].queuedBytes, 512u);
    EXPECT_EQ(d.sessions[0].queuedChunks, 3u);
    EXPECT_TRUE(d.sessions[0].suspended);
    EXPECT_FALSE(d.sessions[0].closed);
    EXPECT_DOUBLE_EQ(d.sessions[0].symbolsPerSec, 1.5e6);
    EXPECT_TRUE(d.sessions[1].closed);
    EXPECT_EQ(d.metricsSnapshot,
              (std::vector<uint8_t>{0xaa, 0xbb, 0xcc}));
    ASSERT_EQ(d.kernels.size(), 1u);
    EXPECT_EQ(d.kernels[0].sparseBlocks, 10u);
    EXPECT_EQ(d.kernels[0].denseBlocks, 20u);
    EXPECT_EQ(d.kernels[0].kernelFlips, 4u);
    EXPECT_DOUBLE_EQ(d.kernels[0].densityEwma, 0.375);
    EXPECT_EQ(d.kernels[0].lastKernel, 1);
}

TEST(Protocol, StatsReplySectionFilterRoundTrips)
{
    net::StatsReplyBody b = sampleStatsBody();
    b.sections = net::statsSectionBit(net::StatsSection::Totals) |
        net::statsSectionBit(net::StatsSection::Kernels);
    std::vector<uint8_t> out;
    net::appendStatsReply(out, b);
    FrameDecoder dec;
    dec.append(out.data(), out.size());
    Frame f = *dec.next();
    EXPECT_EQ(f.stats.sections, b.sections);
    EXPECT_EQ(f.stats.totals.workers, 3u);
    EXPECT_TRUE(f.stats.sessions.empty());
    EXPECT_TRUE(f.stats.metricsSnapshot.empty());
    EXPECT_EQ(f.stats.kernels.size(), 1u);
}

TEST(Protocol, StatsReplySessionCountMismatchThrows)
{
    net::StatsReplyBody b = sampleStatsBody();
    b.sections = net::statsSectionBit(net::StatsSection::Sessions);
    std::vector<uint8_t> out;
    net::appendStatsReply(out, b);
    // The session count lives right after the section envelope header
    // (u16 ver | u64 token | u8 | u8 | u32 mask | u8 id | u32 len).
    size_t count_at = net::kFrameHeaderBytes + 2 + 8 + 1 + 1 + 4 + 1 + 4;
    ASSERT_LT(count_at, out.size());
    out[count_at] = 9; // claims 9 sessions, carries 2
    FrameDecoder dec;
    dec.append(out.data(), out.size());
    EXPECT_THROW(dec.next(), CaError);
}

TEST(Protocol, StatsReplyUnknownSectionIsSkipped)
{
    // Future servers may append sections this decoder has never heard
    // of; they must decode around it, not on top of it.
    net::StatsReplyBody b;
    b.token = 9;
    b.sections = net::statsSectionBit(net::StatsSection::Totals);
    std::vector<uint8_t> out;
    net::appendStatsReply(out, b);
    // Splice an unknown section (id 250, 4 bytes) before endFrame's
    // view of the payload: rebuild by hand from the encoded frame.
    std::vector<uint8_t> extra = {250, 0x04, 0x00, 0x00, 0x00,
                                  0xde, 0xad, 0xbe, 0xef};
    out.insert(out.end(), extra.begin(), extra.end());
    uint32_t payload = static_cast<uint32_t>(out.size()) -
        static_cast<uint32_t>(net::kFrameHeaderBytes);
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<uint8_t>(payload >> (8 * i));
    FrameDecoder dec;
    dec.append(out.data(), out.size());
    std::optional<Frame> f;
    ASSERT_NO_THROW(f = dec.next());
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->stats.sections,
              net::statsSectionBit(net::StatsSection::Totals));
}

/** One encoded frame of every type, back to back. */
std::vector<uint8_t>
allFramesBytes()
{
    std::vector<uint8_t> out;
    net::appendHello(out, 0xfeedfacecafebeefull);
    net::appendOpenStream(out, 1);
    const uint8_t body[] = {'c', 'a', 't'};
    net::appendData(out, 1, body, sizeof(body));
    net::appendFlush(out, 1, 42);
    std::vector<Report> reports(3);
    for (size_t i = 0; i < reports.size(); ++i) {
        reports[i].offset = 100 + i;
        reports[i].reportId = static_cast<uint32_t>(i);
        reports[i].state = static_cast<uint32_t>(10 * i);
    }
    net::appendReports(out, 1, reports.data(), reports.size());
    net::appendCloseStream(out, 1, 3, 3);
    net::appendError(out, ErrorCode::Busy, net::kConnectionStream,
                     "too many connections");
    net::appendGoodbye(out);
    net::appendStats(out, 7, net::kStatsAllSections);
    net::appendStatsReply(out, sampleStatsBody());
    net::appendArtifactQuery(out, 0xabcdefull);
    net::appendArtifactOffer(out, 0xabcdefull, true, 1000, 256, 4);
    net::appendArtifactFetch(out, 0xabcdefull, 2);
    const uint8_t chunk[] = {0xde, 0xad, 0xbe, 0xef};
    net::appendArtifactChunk(out, 0xabcdefull, 2, 4, chunk, sizeof(chunk));
    net::appendSwap(out, 9, 0x1111ull, "/tmp/next.caa");
    net::appendSwapReply(out, 9, net::SwapStatus::Swapped, 0x2222ull,
                         0x1111ull, 5, "");
    Report scored;
    scored.offset = 321;
    scored.reportId = 2;
    scored.state = 40;
    scored.score = -17;
    net::appendScoredReports(out, 1, &scored, 1);
    return out;
}

TEST(Protocol, EncodeDecodeRoundTripsEveryType)
{
    std::vector<uint8_t> bytes = allFramesBytes();
    FrameDecoder dec;
    dec.append(bytes.data(), bytes.size());

    std::vector<Frame> frames;
    std::optional<Frame> f;
    while ((f = dec.next()))
        frames.push_back(std::move(*f));
    ASSERT_EQ(frames.size(), 17u);
    EXPECT_EQ(dec.buffered(), 0u);

    EXPECT_EQ(frames[0].type, FrameType::Hello);
    EXPECT_EQ(frames[0].magic, net::kHelloMagic);
    EXPECT_EQ(frames[0].version, net::kProtocolVersion);
    EXPECT_EQ(frames[0].fingerprint, 0xfeedfacecafebeefull);

    EXPECT_EQ(frames[1].type, FrameType::OpenStream);
    EXPECT_EQ(frames[1].streamId, 1u);

    EXPECT_EQ(frames[2].type, FrameType::Data);
    EXPECT_EQ(frames[2].data, (std::vector<uint8_t>{'c', 'a', 't'}));

    EXPECT_EQ(frames[3].type, FrameType::Flush);
    EXPECT_EQ(frames[3].flushToken, 42u);

    EXPECT_EQ(frames[4].type, FrameType::Reports);
    ASSERT_EQ(frames[4].reportBatch.size(), 3u);
    EXPECT_EQ(frames[4].reportBatch[2].offset, 102u);
    EXPECT_EQ(frames[4].reportBatch[2].state, 20u);

    EXPECT_EQ(frames[5].type, FrameType::CloseStream);
    EXPECT_EQ(frames[5].symbols, 3u);
    EXPECT_EQ(frames[5].reports, 3u);

    EXPECT_EQ(frames[6].type, FrameType::Error);
    EXPECT_EQ(frames[6].errorCode, ErrorCode::Busy);
    EXPECT_EQ(frames[6].streamId, net::kConnectionStream);
    EXPECT_EQ(frames[6].message, "too many connections");

    EXPECT_EQ(frames[7].type, FrameType::Goodbye);

    EXPECT_EQ(frames[8].type, FrameType::Stats);
    EXPECT_EQ(frames[8].stats.token, 7u);
    EXPECT_EQ(frames[8].stats.sections, net::kStatsAllSections);

    EXPECT_EQ(frames[9].type, FrameType::StatsReply);
    EXPECT_EQ(frames[9].stats.token, 77u);
    EXPECT_EQ(frames[9].stats.sessions.size(), 2u);

    EXPECT_EQ(frames[10].type, FrameType::ArtifactQuery);
    EXPECT_EQ(frames[10].fingerprint, 0xabcdefull);

    EXPECT_EQ(frames[11].type, FrameType::ArtifactOffer);
    EXPECT_EQ(frames[11].fingerprint, 0xabcdefull);
    EXPECT_EQ(frames[11].artifactAvailable, 1u);
    EXPECT_EQ(frames[11].artifactBytes, 1000u);
    EXPECT_EQ(frames[11].chunkBytes, 256u);
    EXPECT_EQ(frames[11].chunkCount, 4u);

    EXPECT_EQ(frames[12].type, FrameType::ArtifactFetch);
    EXPECT_EQ(frames[12].fingerprint, 0xabcdefull);
    EXPECT_EQ(frames[12].chunkIndex, 2u);

    EXPECT_EQ(frames[13].type, FrameType::ArtifactChunk);
    EXPECT_EQ(frames[13].fingerprint, 0xabcdefull);
    EXPECT_EQ(frames[13].chunkIndex, 2u);
    EXPECT_EQ(frames[13].chunkCount, 4u);
    EXPECT_EQ(frames[13].data,
              (std::vector<uint8_t>{0xde, 0xad, 0xbe, 0xef}));

    EXPECT_EQ(frames[14].type, FrameType::Swap);
    EXPECT_EQ(frames[14].flushToken, 9u);
    EXPECT_EQ(frames[14].fingerprint, 0x1111ull);
    EXPECT_EQ(frames[14].message, "/tmp/next.caa");

    EXPECT_EQ(frames[15].type, FrameType::SwapReply);
    EXPECT_EQ(frames[15].flushToken, 9u);
    EXPECT_EQ(frames[15].swapStatus, net::SwapStatus::Swapped);
    EXPECT_EQ(frames[15].oldFingerprint, 0x2222ull);
    EXPECT_EQ(frames[15].newFingerprint, 0x1111ull);
    EXPECT_EQ(frames[15].epoch, 5u);

    EXPECT_EQ(frames[16].type, FrameType::ScoredReports);
    ASSERT_EQ(frames[16].reportBatch.size(), 1u);
    EXPECT_EQ(frames[16].reportBatch[0].offset, 321u);
    EXPECT_EQ(frames[16].reportBatch[0].score, -17);
}

TEST(Protocol, ByteAtATimeFeedingDecodesIdentically)
{
    std::vector<uint8_t> bytes = allFramesBytes();
    FrameDecoder dec;
    size_t decoded = 0;
    for (uint8_t b : bytes) {
        dec.append(&b, 1);
        while (dec.next())
            ++decoded;
    }
    EXPECT_EQ(decoded, 17u);
    EXPECT_EQ(dec.buffered(), 0u);
}

// --- Protocol: hardening -----------------------------------------------

/**
 * Truncation is not malformation: every strict prefix of a valid stream
 * decodes some whole frames and then waits for more bytes — no throw.
 */
TEST(Protocol, TruncationSweepNeverThrows)
{
    std::vector<uint8_t> bytes = allFramesBytes();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        FrameDecoder dec;
        dec.append(bytes.data(), cut);
        size_t decoded = 0;
        ASSERT_NO_THROW({
            while (dec.next())
                ++decoded;
        }) << "prefix of " << cut << " bytes";
        EXPECT_LT(decoded, 17u);
    }
}

TEST(Protocol, OversizedLengthPrefixThrows)
{
    // Length prefix beyond the decoder's configured bound.
    FrameDecoder dec(1u << 10);
    std::vector<uint8_t> hdr = {0x00, 0x05, 0x00, 0x00, 0x03};
    dec.append(hdr.data(), hdr.size());
    EXPECT_THROW(dec.next(), CaError);

    // And beyond the absolute ceiling, on a default decoder.
    FrameDecoder dec2;
    std::vector<uint8_t> hdr2 = {0xff, 0xff, 0xff, 0xff, 0x03};
    dec2.append(hdr2.data(), hdr2.size());
    EXPECT_THROW(dec2.next(), CaError);
}

TEST(Protocol, UnknownFrameTypeThrows)
{
    FrameDecoder dec;
    std::vector<uint8_t> frame = {0x00, 0x00, 0x00, 0x00, 0x99};
    dec.append(frame.data(), frame.size());
    EXPECT_THROW(dec.next(), CaError);
}

TEST(Protocol, TrailingPayloadBytesThrow)
{
    // A FLUSH payload with one extra byte must not silently pass.
    std::vector<uint8_t> good;
    net::appendFlush(good, 1, 7);
    std::vector<uint8_t> bad = good;
    bad.push_back(0x00);
    bad[0] = static_cast<uint8_t>(bad[0] + 1); // patch payload length
    FrameDecoder dec;
    dec.append(bad.data(), bad.size());
    EXPECT_THROW(dec.next(), CaError);
}

TEST(Protocol, ReportsCountMismatchThrows)
{
    // count says 2 but only one report body follows.
    std::vector<uint8_t> out;
    Report r;
    net::appendReports(out, 1, &r, 1);
    out[net::kFrameHeaderBytes + 4] = 2; // count lives after streamId
    FrameDecoder dec;
    dec.append(out.data(), out.size());
    EXPECT_THROW(dec.next(), CaError);
}

TEST(Protocol, HelloBadMagicThrows)
{
    std::vector<uint8_t> out;
    net::appendHello(out, 0);
    out[net::kFrameHeaderBytes] ^= 0xff; // corrupt magic
    FrameDecoder dec;
    dec.append(out.data(), out.size());
    EXPECT_THROW(dec.next(), CaError);
}

TEST(Protocol, FingerprintIsStableAcrossCompileAndArtifactLoad)
{
    TempDir dir;
    MappedAutomaton &m = sampleMapped();
    uint64_t direct = persist::artifactFingerprint(m);
    EXPECT_NE(direct, 0u);

    persist::ArtifactMeta meta;
    meta.label = "net-fingerprint-test";
    persist::saveArtifact(dir.str("a.caa"), m, meta);
    persist::LoadedArtifact loaded =
        persist::loadArtifact(dir.str("a.caa"));
    EXPECT_EQ(persist::artifactFingerprint(*loaded.automaton), direct);

    // A different automaton must not collide (sanity, not cryptography).
    MappedAutomaton other =
        mapPerformance(compileRuleset({"zebra", "yak+"}));
    EXPECT_NE(persist::artifactFingerprint(other), direct);
}

// --- End-to-end: determinism -------------------------------------------

/**
 * The tentpole property: for every connections × streams × chunk-size
 * combination, every stream's reports collected over TCP equal the
 * single-threaded oracle on that stream's bytes.
 */
TEST(NetE2E, DeterminismAcrossConnectionsStreamsAndChunks)
{
    MappedAutomaton &m = sampleMapped();
    MatchServerOptions opts;
    opts.stream.workers = 3;
    opts.stream.sliceSymbols = 509; // force context switches
    MatchServer server(m, opts);

    struct Combo
    {
        int connections;
        int streams;
        size_t chunk;
    };
    const Combo combos[] = {
        {1, 1, 4096},
        {1, 3, 257},
        {3, 2, 1024},
        {2, 2, 31},
    };

    for (const Combo &combo : combos) {
        std::vector<std::thread> threads;
        std::atomic<int> failures{0};
        for (int cn = 0; cn < combo.connections; ++cn) {
            threads.emplace_back([&, cn] {
                try {
                    MatchClient client;
                    client.connect("127.0.0.1", server.port());
                    std::vector<uint32_t> ids;
                    std::vector<std::vector<uint8_t>> inputs;
                    for (int st = 0; st < combo.streams; ++st) {
                        ids.push_back(client.openStream());
                        inputs.push_back(sampleInput(
                            12 << 10,
                            0xE2E + 100 * cn + st));
                    }
                    // Interleave chunk submission across the streams.
                    for (size_t pos = 0;; pos += combo.chunk) {
                        bool any = false;
                        for (int st = 0; st < combo.streams; ++st) {
                            const auto &in = inputs[st];
                            if (pos >= in.size())
                                continue;
                            any = true;
                            size_t n = std::min(combo.chunk,
                                                in.size() - pos);
                            client.send(ids[st], in.data() + pos, n);
                        }
                        if (!any)
                            break;
                    }
                    for (int st = 0; st < combo.streams; ++st) {
                        net::StreamSummary sum =
                            client.closeStream(ids[st]);
                        auto expect = oracleReports(m, inputs[st]);
                        auto got = client.takeReports(ids[st]);
                        if (got != expect ||
                            sum.reports != expect.size() ||
                            sum.symbols != inputs[st].size())
                            ++failures;
                    }
                    client.close();
                } catch (const CaError &) {
                    ++failures;
                }
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(failures.load(), 0)
            << combo.connections << " conns x " << combo.streams
            << " streams x " << combo.chunk << "B chunks";
    }
    server.stop();
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(NetE2E, FlushIsARoundTripBarrier)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);

    auto input = sampleInput(8 << 10, 0xF1);
    size_t cut = input.size() / 2;

    MatchClient client;
    client.connect("127.0.0.1", server.port());
    uint32_t id = client.openStream();
    client.send(id, input.data(), cut);
    client.flush(id);

    // After flush returns, the head's reports are already collected.
    CacheAutomatonSim head(m);
    head.reset();
    head.feed(input.data(), cut);
    EXPECT_EQ(client.reports(id), head.result().reports);

    client.send(id, input.data() + cut, input.size() - cut);
    client.closeStream(id);
    EXPECT_EQ(client.takeReports(id), oracleReports(m, input));
    client.close();
    server.stop();
}

TEST(NetE2E, EmptyStreamYieldsNoReports)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);
    MatchClient client;
    client.connect("127.0.0.1", server.port());
    uint32_t id = client.openStream();
    client.flush(id);
    net::StreamSummary sum = client.closeStream(id);
    EXPECT_EQ(sum.symbols, 0u);
    EXPECT_EQ(sum.reports, 0u);
    EXPECT_TRUE(client.takeReports(id).empty());
    client.close();
}

// --- End-to-end: scored reports (protocol v4) --------------------------

TEST(NetE2E, ScoredReportsReachV4Clients)
{
    MappedAutomaton &m = sampleScoredMapped();
    ASSERT_TRUE(m.nfa().hasWeights());
    MatchServer server(m);
    MatchClient client;
    client.connect("127.0.0.1", server.port());
    uint32_t id = client.openStream();
    auto input = sampleInput(16 << 10, 0x5C0E);
    client.send(id, input);
    client.closeStream(id);
    auto got = client.takeReports(id);
    client.close();

    auto expect = oracleReports(m, input);
    ASSERT_FALSE(expect.empty());
    EXPECT_TRUE(std::any_of(expect.begin(), expect.end(),
                            [](const Report &r) { return r.score != 0; }));
    // Report::operator== covers score: exact scores over the wire.
    EXPECT_EQ(got, expect);

    server.stop();
    EXPECT_EQ(server.stats().scoredReportsSent, expect.size());
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(NetE2E, V3ClientGetsPlainReportsFromScoredServer)
{
    MappedAutomaton &m = sampleScoredMapped();
    MatchServer server(m);

    // A raw v3 peer: HELLO pinned to version 3, one full stream.
    auto input = sampleInput(4 << 10, 0xA53);
    net::SocketFd fd = net::connectTcp("127.0.0.1", server.port(), 2000);
    std::vector<uint8_t> bytes;
    net::appendHello(bytes, 0, /*version=*/3);
    net::appendOpenStream(bytes, 1);
    net::appendData(bytes, 1, input.data(), input.size());
    net::appendCloseStream(bytes, 1);
    ASSERT_TRUE(net::sendAll(fd.get(), bytes.data(), bytes.size(), 2000));

    FrameDecoder dec;
    uint8_t buf[4096];
    std::vector<Report> got;
    bool saw_hello = false, closed = false;
    for (int i = 0; i < 100 && !closed; ++i) {
        long n = net::recvSome(fd.get(), buf, sizeof(buf), 200);
        if (n == 0 || n == -2)
            break;
        if (n < 0)
            continue;
        dec.append(buf, static_cast<size_t>(n));
        std::optional<Frame> f;
        while ((f = dec.next())) {
            // A downgraded session must never see v4-only frames.
            EXPECT_NE(f->type, FrameType::ScoredReports);
            if (f->type == FrameType::Hello) {
                saw_hello = true;
                EXPECT_EQ(f->version, 3u); // server echoes the downgrade
            } else if (f->type == FrameType::Reports) {
                got.insert(got.end(), f->reportBatch.begin(),
                           f->reportBatch.end());
            } else if (f->type == FrameType::CloseStream) {
                closed = true;
            }
        }
    }
    fd.close();
    EXPECT_TRUE(saw_hello);
    EXPECT_TRUE(closed);

    // Plain REPORTS rows drop the score but nothing else: equal to the
    // oracle's report set with scores zeroed.
    std::vector<Report> expect = oracleReports(m, input);
    for (Report &r : expect)
        r.score = 0;
    EXPECT_EQ(got, expect);
    server.stop();
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(NetE2E, TinySessionQueueBackpressureStaysDeterministic)
{
    MappedAutomaton &m = sampleMapped();
    MatchServerOptions opts;
    opts.stream.workers = 1;           // one worker serves all streams
    opts.stream.sessionQueueDepth = 1; // submit blocks almost always
    opts.stream.sliceSymbols = 128;
    MatchServer server(m, opts);

    auto input = sampleInput(24 << 10, 0xBACC);
    auto expect = oracleReports(m, input);

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int cn = 0; cn < 3; ++cn) {
        threads.emplace_back([&] {
            try {
                MatchClient client;
                client.connect("127.0.0.1", server.port());
                uint32_t id = client.openStream();
                for (size_t pos = 0; pos < input.size(); pos += 512)
                    client.send(id, input.data() + pos,
                                std::min<size_t>(512,
                                                 input.size() - pos));
                client.closeStream(id);
                if (client.takeReports(id) != expect)
                    ++failures;
                client.close();
            } catch (const CaError &) {
                ++failures;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    server.stop();
}

// --- End-to-end: observability (docs/OBSERVABILITY.md) -----------------

/**
 * In-band STATS polling mid-load: counters are monotone across polls,
 * the session table sees every open stream (including another
 * connection's), the kernel section covers every worker, and after a
 * flush the totals agree exactly with what was sent.
 */
TEST(NetE2E, StatsPollMidLoadSeesMonotoneCounters)
{
    MappedAutomaton &m = sampleMapped();
    MatchServerOptions opts;
    opts.stream.workers = 2;
    opts.stream.sliceSymbols = 509;
    MatchServer server(m, opts);

    auto input = sampleInput(32 << 10, 0x0b5);

    MatchClient watcher; // second connection: observe, no traffic
    watcher.connect("127.0.0.1", server.port());

    MatchClient client;
    client.connect("127.0.0.1", server.port());
    uint32_t id = client.openStream();
    // OPEN_STREAM does not wait for the server, and ordering across
    // connections is not a server contract: without this barrier the
    // watcher's first poll can overtake it and see no session.
    client.flush(id);

    uint64_t prev_symbols = 0, prev_bytes_in = 0, prev_frames_in = 0;
    constexpr size_t kChunk = 2048;
    for (size_t pos = 0; pos < input.size(); pos += kChunk) {
        client.send(id, input.data() + pos,
                    std::min(kChunk, input.size() - pos));
        if ((pos / kChunk) % 4 != 3)
            continue;
        net::StatsReplyBody b = watcher.requestStats();
        EXPECT_EQ(b.sections, net::kStatsAllSections);
        EXPECT_EQ(b.telemetryCompiled, 1);
        // Monotone while the stream is mid-flight.
        EXPECT_GE(b.totals.streamSymbols, prev_symbols);
        EXPECT_GE(b.totals.bytesIn, prev_bytes_in);
        EXPECT_GE(b.totals.framesIn, prev_frames_in);
        prev_symbols = b.totals.streamSymbols;
        prev_bytes_in = b.totals.bytesIn;
        prev_frames_in = b.totals.framesIn;
        EXPECT_EQ(b.totals.activeConnections, 2u);
        EXPECT_EQ(b.totals.workers, 2u);
        EXPECT_EQ(b.kernels.size(), 2u);
        ASSERT_EQ(b.sessions.size(), 1u); // the one open stream
        EXPECT_FALSE(b.sessions[0].closed);
    }

    // Barrier, then poll again: the totals must now be exact.
    client.flush(id);
    net::StatsReplyBody b = watcher.requestStats();
    EXPECT_EQ(b.totals.streamSymbols, input.size());
    ASSERT_EQ(b.sessions.size(), 1u);
    EXPECT_EQ(b.sessions[0].stats.symbols, input.size());
    EXPECT_EQ(b.sessions[0].stats.bytesSubmitted, input.size());
    EXPECT_EQ(b.sessions[0].queuedBytes, 0u);
    uint64_t kernel_blocks = 0;
    for (const KernelDecisionStats &k : b.kernels)
        kernel_blocks += k.sparseBlocks + k.denseBlocks;
    EXPECT_GT(kernel_blocks, 0u);

    // The metrics blob is a valid snapshot image whether or not
    // telemetry is enabled (an empty registry serializes fine).
    ASSERT_FALSE(b.metricsSnapshot.empty());
    telemetry::MetricsSnapshot snap;
    ASSERT_NO_THROW(
        snap = telemetry::MetricsSnapshot::deserialize(b.metricsSnapshot));
    if (b.telemetryEnabled) {
        EXPECT_GT(snap.size(), 0u);
    }

    // Same-connection (truly in-band) polling works too.
    net::StatsReplyBody inband = client.requestStats(
        net::statsSectionBit(net::StatsSection::Totals));
    EXPECT_EQ(inband.sections,
              net::statsSectionBit(net::StatsSection::Totals));
    EXPECT_EQ(inband.totals.streamSymbols, input.size());
    EXPECT_TRUE(inband.sessions.empty());

    client.closeStream(id);
    client.close();

    // After the stream closes, its session is freed: no row, but the
    // totals still count it.
    net::StatsReplyBody post = watcher.requestStats();
    EXPECT_TRUE(post.sessions.empty());
    EXPECT_EQ(post.totals.sessionsClosed, 1u);

    watcher.close();
    server.stop();
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

/**
 * A closed stream's session is freed: a thousand streams opened and
 * closed on one connection leave no session row behind, and the totals
 * still count every one of them.
 */
TEST(NetE2E, ClosedStreamsFreeTheirSessions)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);
    MatchClient client;
    client.connect("127.0.0.1", server.port());

    const std::string text = "the cat chased the dog";
    const std::vector<uint8_t> input(text.begin(), text.end());
    const std::vector<Report> expect = oracleReports(m, input);
    for (int i = 0; i < 1000; ++i) {
        uint32_t id = client.openStream();
        client.send(id, input);
        net::StreamSummary sum = client.closeStream(id);
        ASSERT_EQ(sum.symbols, input.size());
        ASSERT_EQ(client.takeReports(id), expect);
    }

    net::StatsReplyBody b = client.requestStats();
    EXPECT_TRUE(b.sessions.empty());
    EXPECT_EQ(b.totals.sessionsOpened, 1000u);
    EXPECT_EQ(b.totals.sessionsClosed, 1000u);
    EXPECT_EQ(b.totals.streamsClosed, 1000u);
    client.close();
    server.stop();
}

/**
 * A client that never reads its REPORTS is dropped once its outgoing
 * queue passes maxOutgoingBytes, and only that connection: another
 * client on the same server finishes its stream with exact reports.
 */
TEST(NetRobustness, SlowConsumerIsDroppedOthersKeepWorking)
{
    MappedAutomaton &m = sampleMapped();
    MatchServerOptions opts;
    opts.maxOutgoingBytes = 256u << 10;
    // The drop must come from the queue cap, not a stalled write.
    opts.writeTimeoutMs = 60'000;
    MatchServer server(m, opts);

    MatchClient good;
    good.connect("127.0.0.1", server.port());
    uint32_t good_id = good.openStream();
    auto input = sampleInput(16 << 10, 0x510);
    good.send(good_id, input.data(), input.size() / 2);
    good.flush(good_id);

    // "m" then nothing but "n": `m.*n` reports on every byte, so each
    // input byte owes the client a 16-byte report row it never reads.
    net::SocketFd fd = net::connectTcp("127.0.0.1", server.port(), 2000);
    std::vector<uint8_t> bytes;
    net::appendHello(bytes, 0);
    net::appendOpenStream(bytes, 1);
    const std::vector<uint8_t> first(1, 'm');
    net::appendData(bytes, 1, first.data(), first.size());
    ASSERT_TRUE(net::sendAll(fd.get(), bytes.data(), bytes.size(), 2000));
    const std::vector<uint8_t> body(16 << 10, 'n');
    std::vector<uint8_t> frame;
    net::appendData(frame, 1, body.data(), body.size());
    // Far more report bytes than the kernel's socket buffers and the
    // queue cap hold together.
    for (int i = 0; i < 1024 && server.stats().slowConsumerDrops == 0; ++i)
        if (!net::sendAll(fd.get(), frame.data(), frame.size(), 5000))
            break; // the server already dropped us
    for (int i = 0; i < 200 && server.stats().slowConsumerDrops == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(server.stats().slowConsumerDrops, 1u);

    // The dropped connection ends: whatever was buffered, then EOF or
    // a reset.
    bool closed = false;
    uint8_t buf[64 << 10];
    for (int i = 0; i < 300 && !closed; ++i) {
        long n = net::recvSome(fd.get(), buf, sizeof buf, 100);
        closed = n == 0 || n == -2;
    }
    EXPECT_TRUE(closed);

    good.send(good_id, input.data() + input.size() / 2,
              input.size() - input.size() / 2);
    good.closeStream(good_id);
    EXPECT_EQ(good.takeReports(good_id), oracleReports(m, input));
    good.close();
    server.stop();
    EXPECT_EQ(server.stats().slowConsumerDrops, 1u);
    EXPECT_EQ(server.stats().writeTimeouts, 0u);
}

/** A client that sends a server-only STATS_REPLY is a protocol error. */
TEST(NetRobustness, ClientSentStatsReplyFailsThatConnection)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);

    net::SocketFd fd =
        net::connectTcp("127.0.0.1", server.port(), 2000);
    std::vector<uint8_t> bytes;
    net::appendHello(bytes, 0);
    net::appendStatsReply(bytes, net::StatsReplyBody{});
    ASSERT_TRUE(net::sendAll(fd.get(), bytes.data(), bytes.size(), 2000));

    // The server answers HELLO, then ERROR(protocol_error) + teardown.
    FrameDecoder dec;
    uint8_t buf[4096];
    bool saw_error = false;
    for (int spins = 0; spins < 100 && !saw_error; ++spins) {
        long n = net::recvSome(fd.get(), buf, sizeof buf, 100);
        if (n == 0)
            break;
        if (n < 0)
            continue;
        dec.append(buf, static_cast<size_t>(n));
        std::optional<Frame> f;
        while ((f = dec.next()))
            if (f->type == FrameType::Error &&
                f->errorCode == ErrorCode::ProtocolError)
                saw_error = true;
    }
    EXPECT_TRUE(saw_error);

    // Only that connection died; the server keeps serving new ones.
    MatchClient ok;
    ASSERT_NO_THROW(ok.connect("127.0.0.1", server.port()));
    ok.close();
    server.stop();
}

// --- End-to-end: artifact warm start -----------------------------------

TEST(NetE2E, ArtifactServedServerMatchesInProcessRun)
{
    TempDir dir;
    MappedAutomaton &m = sampleMapped();
    persist::ArtifactMeta meta;
    meta.label = "net-e2e";
    persist::saveArtifact(dir.str("served.caa"), m, meta);

    auto server = MatchServer::fromArtifact(dir.str("served.caa"));
    EXPECT_EQ(server->fingerprint(), persist::artifactFingerprint(m));

    auto input = sampleInput(16 << 10, 0xA27);
    ClientOptions copts;
    copts.expectedFingerprint = persist::artifactFingerprint(m); // pin
    MatchClient client;
    client.connect("127.0.0.1", server->port(), copts);
    uint32_t id = client.openStream();
    for (size_t pos = 0; pos < input.size(); pos += 2048)
        client.send(id, input.data() + pos,
                    std::min<size_t>(2048, input.size() - pos));
    net::StreamSummary sum = client.closeStream(id);
    auto expect = oracleReports(m, input);
    EXPECT_EQ(client.takeReports(id), expect);
    EXPECT_EQ(sum.reports, expect.size());
    client.close();
    server->stop();
}

TEST(NetE2E, FingerprintPinMismatchRefusesService)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);
    ClientOptions copts;
    copts.expectedFingerprint = 0xdeadbeefdeadbeefull;
    MatchClient client;
    EXPECT_THROW(client.connect("127.0.0.1", server.port(), copts),
                 CaError);
    server.stop();
}

// --- Robustness --------------------------------------------------------

TEST(NetRobustness, BusyAdminPortThrowsCaError)
{
    // Another listener holds the admin port, so the server's admin bind
    // fails after its match-plane bind succeeded. The constructor must
    // throw the bind error, not unwind past a running accept thread
    // (which terminates the process).
    net::SocketFd held = net::listenTcp("127.0.0.1", 0);
    MatchServerOptions opts;
    opts.adminEnabled = true;
    opts.adminPort = net::localPort(held);
    try {
        MatchServer server(sampleMapped(), opts);
        FAIL() << "a busy admin port should have been refused";
    } catch (const CaError &e) {
        EXPECT_NE(std::string(e.what()).find("bind"), std::string::npos)
            << e.what();
    }
}

TEST(NetRobustness, OverCapConnectionGetsBusyOthersKeepWorking)
{
    MappedAutomaton &m = sampleMapped();
    MatchServerOptions opts;
    opts.maxConnections = 1;
    MatchServer server(m, opts);

    MatchClient first;
    first.connect("127.0.0.1", server.port());
    uint32_t id = first.openStream();

    // Second connect is refused with a busy error...
    MatchClient second;
    try {
        second.connect("127.0.0.1", server.port());
        FAIL() << "over-cap connect should have been rejected";
    } catch (const CaError &e) {
        EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos)
            << e.what();
    }

    // ...and the first connection is entirely unaffected.
    auto input = sampleInput(4 << 10, 0xB05);
    first.send(id, input);
    first.closeStream(id);
    EXPECT_EQ(first.takeReports(id), oracleReports(m, input));
    first.close();

    server.stop();
    EXPECT_EQ(server.stats().connectionsRejected, 1u);
}

TEST(NetRobustness, VersionMismatchIsRejected)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);

    net::SocketFd fd = net::connectTcp("127.0.0.1", server.port(), 2000);
    std::vector<uint8_t> hello;
    net::appendHello(hello, 0, /*version=*/99);
    ASSERT_TRUE(net::sendAll(fd.get(), hello.data(), hello.size(), 2000));

    // The server answers ERROR(version_mismatch) and closes.
    FrameDecoder dec;
    uint8_t buf[512];
    bool saw_error = false;
    for (int i = 0; i < 50 && !saw_error; ++i) {
        long n = net::recvSome(fd.get(), buf, sizeof(buf), 200);
        if (n == 0 || n == -2)
            break;
        if (n < 0)
            continue;
        dec.append(buf, static_cast<size_t>(n));
        std::optional<Frame> f;
        while ((f = dec.next())) {
            if (f->type == FrameType::Error) {
                EXPECT_EQ(f->errorCode, ErrorCode::VersionMismatch);
                saw_error = true;
            }
        }
    }
    EXPECT_TRUE(saw_error);
    server.stop();
}

TEST(NetRobustness, ClientKilledMidStreamServerKeepsServing)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);

    {
        // A client that opens a stream, pushes bytes, and vanishes
        // without FLUSH/CLOSE/GOODBYE (socket torn down abruptly).
        MatchClient doomed;
        doomed.connect("127.0.0.1", server.port());
        uint32_t id = doomed.openStream();
        auto junk = sampleInput(8 << 10, 0xDEAD);
        doomed.send(id, junk);
        // Destructor path is close(); simulate a kill with shutdown
        // by raw-connecting instead for the hard variant below.
    }

    {
        // Hard variant: raw socket, half a DATA frame, then gone.
        net::SocketFd fd =
            net::connectTcp("127.0.0.1", server.port(), 2000);
        std::vector<uint8_t> bytes;
        net::appendHello(bytes, 0);
        net::appendOpenStream(bytes, 1);
        const uint8_t body[] = {'c', 'a'};
        net::appendData(bytes, 1, body, sizeof(body));
        bytes.resize(bytes.size() - 1); // truncate mid-frame
        ASSERT_TRUE(
            net::sendAll(fd.get(), bytes.data(), bytes.size(), 2000));
        fd.close(); // vanish
    }

    // A well-behaved client is still served correctly afterwards.
    for (int i = 0; i < 50 && server.activeConnections() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    MatchClient good;
    good.connect("127.0.0.1", server.port());
    uint32_t id = good.openStream();
    auto input = sampleInput(4 << 10, 0x600D);
    good.send(id, input);
    good.closeStream(id);
    EXPECT_EQ(good.takeReports(id), oracleReports(m, input));
    good.close();
    server.stop();
}

TEST(NetRobustness, MalformedFramesGetErrorAndOthersSurvive)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);

    // A healthy connection that must survive everything below.
    MatchClient good;
    good.connect("127.0.0.1", server.port());
    uint32_t good_id = good.openStream();

    Rng rng(0xF022);
    for (int trial = 0; trial < 12; ++trial) {
        net::SocketFd fd =
            net::connectTcp("127.0.0.1", server.port(), 2000);
        std::vector<uint8_t> bytes;
        if (trial % 3 == 0) {
            // Pure garbage.
            size_t len = 16 + rng.below(200);
            for (size_t i = 0; i < len; ++i)
                bytes.push_back(static_cast<uint8_t>(rng.below(256)));
        } else if (trial % 3 == 1) {
            // Valid HELLO, then a mutated valid frame.
            net::appendHello(bytes, 0);
            std::vector<uint8_t> frame;
            net::appendFlush(frame, 1, 7);
            size_t pos = rng.below(frame.size());
            frame[pos] ^= static_cast<uint8_t>(1 + rng.below(255));
            bytes.insert(bytes.end(), frame.begin(), frame.end());
        } else {
            // Protocol-state violation: DATA before HELLO.
            const uint8_t body[] = {'x'};
            net::appendData(bytes, 1, body, sizeof(body));
        }
        (void)net::sendAll(fd.get(), bytes.data(), bytes.size(), 2000);
        // The server may answer ERROR or just drop; it must not hang.
        uint8_t buf[256];
        (void)net::recvSome(fd.get(), buf, sizeof(buf), 200);
    }

    // The healthy connection still produces oracle-exact reports.
    auto input = sampleInput(8 << 10, 0x5AFE);
    good.send(good_id, input);
    good.closeStream(good_id);
    EXPECT_EQ(good.takeReports(good_id), oracleReports(m, input));
    good.close();

    server.stop();
    EXPECT_GT(server.stats().protocolErrors, 0u);
}

TEST(NetRobustness, IdleConnectionIsTornDown)
{
    MappedAutomaton &m = sampleMapped();
    MatchServerOptions opts;
    opts.idleTimeoutMs = 200;
    MatchServer server(m, opts);

    net::SocketFd fd = net::connectTcp("127.0.0.1", server.port(), 2000);
    std::vector<uint8_t> hello;
    net::appendHello(hello, 0);
    ASSERT_TRUE(net::sendAll(fd.get(), hello.data(), hello.size(), 2000));

    // Say nothing and wait: the server must disconnect us.
    FrameDecoder dec;
    uint8_t buf[512];
    bool closed = false;
    bool saw_idle_error = false;
    for (int i = 0; i < 100 && !closed; ++i) {
        long n = net::recvSome(fd.get(), buf, sizeof(buf), 100);
        if (n == 0 || n == -2) {
            closed = true;
            break;
        }
        if (n < 0)
            continue;
        dec.append(buf, static_cast<size_t>(n));
        std::optional<Frame> f;
        while ((f = dec.next()))
            if (f->type == FrameType::Error &&
                f->errorCode == ErrorCode::IdleTimeout)
                saw_idle_error = true;
    }
    EXPECT_TRUE(closed);
    EXPECT_TRUE(saw_idle_error);
    server.stop();
    EXPECT_GE(server.stats().idleTimeouts, 1u);
}

TEST(NetRobustness, GracefulStopDrainsOpenSessions)
{
    MappedAutomaton &m = sampleMapped();
    MatchServer server(m);

    MatchClient client;
    client.connect("127.0.0.1", server.port());
    uint32_t id = client.openStream();
    auto input = sampleInput(8 << 10, 0xD7A1);
    client.send(id, input);
    client.flush(id); // everything delivered before we stop the server

    std::thread stopper([&] { server.stop(); });
    // The flushed reports were collected before stop; the stream's
    // oracle equality must hold even though the server is going away.
    EXPECT_EQ(client.reports(id), oracleReports(m, input));
    stopper.join();
    client.close();
}

} // namespace
} // namespace ca
