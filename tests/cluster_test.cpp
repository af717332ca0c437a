/**
 * @file
 * Tests for the cluster control plane (src/cluster + the epoch/swap and
 * artifact-replication machinery in src/net): peer artifact pulls,
 * cache remote-fill semantics, and zero-downtime ruleset hot-swap.
 *
 * The load-bearing properties:
 *  - Replication integrity: bytes pulled from a peer always validate as
 *    a complete CAAF artifact hashing to the requested fingerprint;
 *    corrupted/truncated transfers are rejected before publication and
 *    the next peer (or next call) retries cleanly.
 *  - Single-flight: concurrent cache misses on one fingerprint collapse
 *    to exactly one remote fetch (run under TSan in CI).
 *  - Swap semantics: a stream opened before a swap drains on the
 *    automaton it started with — its report stream equals the
 *    single-threaded oracle for the OLD ruleset over the whole input,
 *    never a mix — while streams opened after the swap match the new
 *    one. SWAP is honored only on the admin plane.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "baseline/nfa_engine.h"
#include "cluster/replication.h"
#include "compiler/mapping.h"
#include "core/error.h"
#include "net/client.h"
#include "net/match_server.h"
#include "net/protocol.h"
#include "nfa/glushkov.h"
#include "persist/artifact.h"
#include "persist/cache.h"
#include "workload/input_gen.h"

namespace fs = std::filesystem;

namespace ca {
namespace {

using cluster::PeerAddress;
using cluster::Replicator;
using net::ClientOptions;
using net::MatchClient;
using net::MatchServer;
using net::MatchServerOptions;
using net::SwapStatus;
using persist::ArtifactCache;

/** Unique scratch directory, removed (recursively) on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        static std::atomic<uint64_t> seq{0};
        path_ = fs::temp_directory_path() /
                ("ca_cluster_test." + std::to_string(::getpid()) + "." +
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
mappedA()
{
    static MappedAutomaton m =
        mapPerformance(compileRuleset({"cat", "do+g", "[hx]at"}));
    return m;
}

MappedAutomaton &
mappedB()
{
    static MappedAutomaton m =
        mapPerformance(compileRuleset({"fish", "bir+d", "ow[l7]"}));
    return m;
}

std::vector<uint8_t>
packedBytes(const MappedAutomaton &m)
{
    return persist::packArtifact(m, buildConfigImage(m));
}

std::vector<uint8_t>
sampleInput(size_t bytes, uint64_t seed)
{
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"cat", "dog", "hat", "fish", "bird", "owl"};
    spec.plantsPer4k = 32.0;
    return buildInput(spec, bytes, seed);
}

std::vector<Report>
oracleReports(const MappedAutomaton &m, const std::vector<uint8_t> &input)
{
    return NfaEngine(m.nfa()).run(input);
}

/** Streams @p input on a fresh connection and returns the reports. */
std::vector<Report>
matchOver(uint16_t port, const std::vector<uint8_t> &input)
{
    MatchClient client;
    client.connect("127.0.0.1", port);
    uint32_t stream = client.openStream();
    client.send(stream, input);
    client.flush(stream);
    client.closeStream(stream);
    std::vector<Report> out = client.takeReports(stream);
    client.close();
    return out;
}

// --- Peer parsing -------------------------------------------------------

TEST(ClusterPeer, ParsesHostPort)
{
    PeerAddress p = cluster::parsePeer("10.1.2.3:7001");
    EXPECT_EQ(p.host, "10.1.2.3");
    EXPECT_EQ(p.port, 7001);

    EXPECT_THROW(cluster::parsePeer("nohost"), CaError);
    EXPECT_THROW(cluster::parsePeer(":123"), CaError);
    EXPECT_THROW(cluster::parsePeer("host:"), CaError);
    EXPECT_THROW(cluster::parsePeer("host:0"), CaError);
    EXPECT_THROW(cluster::parsePeer("host:worm"), CaError);
    EXPECT_THROW(cluster::parsePeer("host:123x"), CaError);
    EXPECT_THROW(cluster::parsePeer("host:99999"), CaError);
}

// --- Fingerprint-addressed cache ----------------------------------------

TEST(ClusterCache, StoreBytesByFingerprintRoundTrips)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    uint64_t fp = persist::artifactFingerprint(mappedA());

    persist::LoadedArtifact stored =
        cache.storeBytesByFingerprint(fp, packedBytes(mappedA()));
    EXPECT_EQ(persist::artifactFingerprint(*stored.automaton), fp);
    ASSERT_TRUE(fs::exists(cache.pathForFingerprint(fp)));

    std::optional<persist::LoadedArtifact> hit =
        cache.tryLoadByFingerprint(fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(persist::artifactFingerprint(*hit->automaton), fp);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ClusterCache, StoreRejectsWrongFingerprint)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    // Claiming mappedB's bytes are mappedA's fingerprint must not
    // publish anything.
    uint64_t fp = persist::artifactFingerprint(mappedA());
    EXPECT_THROW(cache.storeBytesByFingerprint(fp, packedBytes(mappedB())),
                 CaError);
    EXPECT_FALSE(fs::exists(cache.pathForFingerprint(fp)));
}

TEST(ClusterCache, StoreRejectsCorruptBytes)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    uint64_t fp = persist::artifactFingerprint(mappedA());
    std::vector<uint8_t> bytes = packedBytes(mappedA());
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(cache.storeBytesByFingerprint(fp, std::move(bytes)),
                 CaError);
    EXPECT_FALSE(fs::exists(cache.pathForFingerprint(fp)));
}

TEST(ClusterCache, MislabeledEntryIsEvicted)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    uint64_t fpA = persist::artifactFingerprint(mappedA());
    // Hand-copy B's (valid!) artifact under A's name: CRCs pass, the
    // fingerprint check must still evict it.
    persist::writeBytesAtomic(cache.pathForFingerprint(fpA),
                              packedBytes(mappedB()));
    EXPECT_FALSE(cache.tryLoadByFingerprint(fpA).has_value());
    EXPECT_FALSE(fs::exists(cache.pathForFingerprint(fpA)));
    EXPECT_EQ(cache.stats().corruptEvicted, 1u);
}

TEST(ClusterCache, GetOrFetchSingleFlightUnderConcurrency)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    uint64_t fp = persist::artifactFingerprint(mappedA());

    std::atomic<int> fetches{0};
    cache.setRemoteFetcher([&](uint64_t wanted) {
        EXPECT_EQ(wanted, fp);
        fetches.fetch_add(1);
        // Hold the flight open long enough for every other thread to
        // pile up behind it.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return packedBytes(mappedA());
    });

    constexpr int kThreads = 4;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&] {
            persist::LoadedArtifact got = cache.getOrFetch(fp);
            if (persist::artifactFingerprint(*got.automaton) == fp)
                ok.fetch_add(1);
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(fetches.load(), 1) << "misses must collapse to one fetch";
    EXPECT_EQ(ok.load(), kThreads);
    EXPECT_EQ(cache.stats().remoteFills, 1u);
    // Subsequent calls are pure local hits.
    (void)cache.getOrFetch(fp);
    EXPECT_EQ(fetches.load(), 1);
}

TEST(ClusterCache, FailedFetchThrowsAndNextCallRetries)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    uint64_t fp = persist::artifactFingerprint(mappedA());

    int calls = 0;
    cache.setRemoteFetcher([&](uint64_t) -> std::vector<uint8_t> {
        if (++calls == 1)
            CA_THROW("peer down");
        return packedBytes(mappedA());
    });

    EXPECT_THROW(cache.getOrFetch(fp), CaError);
    EXPECT_EQ(cache.stats().remoteFillFailures, 1u);
    // The failure must not wedge the single-flight state.
    persist::LoadedArtifact got = cache.getOrFetch(fp);
    EXPECT_EQ(persist::artifactFingerprint(*got.automaton), fp);
    EXPECT_EQ(calls, 2);
}

// --- Replicator over live servers ---------------------------------------

TEST(ClusterReplication, FetchesValidatedBytesFromPeer)
{
    MatchServer peer(mappedA());
    uint64_t fp = persist::artifactFingerprint(mappedA());

    Replicator repl({{"127.0.0.1", peer.port()}});
    std::vector<uint8_t> bytes = repl.fetchBytes(fp);
    persist::LoadedArtifact loaded = persist::loadArtifactBytes(bytes);
    EXPECT_EQ(persist::artifactFingerprint(*loaded.automaton), fp);
    EXPECT_EQ(repl.stats().fetchSuccesses, 1u);
    EXPECT_EQ(repl.stats().bytesFetched, bytes.size());

    net::NetServerStats s = peer.stats();
    EXPECT_GE(s.artifactQueries, 1u);
    EXPECT_GE(s.artifactChunksServed, 1u);
    EXPECT_GE(s.artifactBytesServed, bytes.size());
}

TEST(ClusterReplication, UnknownFingerprintFailsCleanly)
{
    MatchServer peer(mappedA());
    Replicator repl({{"127.0.0.1", peer.port()}});
    EXPECT_THROW(repl.fetchBytes(0xdeadbeefull), CaError);
    EXPECT_EQ(repl.stats().fetchFailures, 1u);
    // The peer itself is unharmed and still serves matches.
    std::vector<uint8_t> input = sampleInput(8 << 10, 1);
    EXPECT_EQ(matchOver(peer.port(), input),
              oracleReports(mappedA(), input));
}

TEST(ClusterReplication, FailsOverPastDeadPeer)
{
    // Reserve a port that is certainly closed by the time we dial it.
    uint16_t dead_port;
    {
        MatchServer doomed(mappedA());
        dead_port = doomed.port();
    }
    MatchServer alive(mappedA());
    uint64_t fp = persist::artifactFingerprint(mappedA());

    Replicator repl(
        {{"127.0.0.1", dead_port}, {"127.0.0.1", alive.port()}},
        [] {
            cluster::ReplicatorOptions o;
            o.connectTimeoutMs = 1000;
            return o;
        }());
    std::vector<uint8_t> bytes = repl.fetchBytes(fp);
    EXPECT_EQ(persist::artifactFingerprint(
                  *persist::loadArtifactBytes(bytes).automaton),
              fp);
    EXPECT_EQ(repl.stats().fetchFailures, 1u);
    EXPECT_EQ(repl.stats().fetchSuccesses, 1u);
}

TEST(ClusterReplication, CorruptAndTruncatedTransfersAreRejected)
{
    uint64_t fp = persist::artifactFingerprint(mappedA());

    // Two lying peers: one serves bit-flipped bytes for any requested
    // fingerprint, one serves a truncated prefix. Chunk CRCs cover only
    // the wire, so both transfers *complete* — end-to-end CAAF
    // validation at the replicator is what must catch them.
    auto corrupt = std::make_shared<std::vector<uint8_t>>(
        packedBytes(mappedA()));
    (*corrupt)[corrupt->size() / 3] ^= 0x10;
    auto truncated = std::make_shared<std::vector<uint8_t>>(
        packedBytes(mappedA()));
    truncated->resize(truncated->size() / 2);

    MatchServerOptions bad_opts;
    bad_opts.artifactResolver = [corrupt](uint64_t) { return corrupt; };
    MatchServer bad_corrupt(mappedB(), bad_opts);
    MatchServerOptions trunc_opts;
    trunc_opts.artifactResolver = [truncated](uint64_t) {
        return truncated;
    };
    MatchServer bad_truncated(mappedB(), trunc_opts);
    MatchServer good(mappedA());

    Replicator repl({{"127.0.0.1", bad_corrupt.port()},
                     {"127.0.0.1", bad_truncated.port()},
                     {"127.0.0.1", good.port()}});
    std::vector<uint8_t> bytes = repl.fetchBytes(fp);
    EXPECT_EQ(persist::artifactFingerprint(
                  *persist::loadArtifactBytes(bytes).automaton),
              fp);
    EXPECT_EQ(repl.stats().fetchFailures, 2u);
    EXPECT_EQ(repl.stats().fetchSuccesses, 1u);
}

TEST(ClusterReplication, TwoServerFingerprintOnlyStartServesOracle)
{
    TempDir dir;
    // Server A: the only node that has (an artifact of) the ruleset.
    std::string path = dir.str("a.caa");
    persist::saveArtifact(path, mappedA());
    auto serverA = MatchServer::fromArtifact(path);
    uint64_t fp = persist::artifactFingerprint(mappedA());
    ASSERT_EQ(serverA->fingerprint(), fp);

    // Server B: started from nothing but the fingerprint + a peer.
    Replicator repl({{"127.0.0.1", serverA->port()}});
    ArtifactCache cacheB(dir.str("cache_b"));
    cacheB.setRemoteFetcher(repl.cacheFetcher());
    persist::LoadedArtifact loaded = cacheB.getOrFetch(fp);
    MatchServer serverB(loaded.automaton);
    EXPECT_EQ(serverB.fingerprint(), fp);
    EXPECT_EQ(cacheB.stats().remoteFills, 1u);

    // B serves reports byte-identical to the oracle (and to A).
    std::vector<uint8_t> input = sampleInput(32 << 10, 7);
    std::vector<Report> expect = oracleReports(mappedA(), input);
    EXPECT_EQ(matchOver(serverB.port(), input), expect);
    EXPECT_EQ(matchOver(serverA->port(), input), expect);

    // A restart of B is a pure local cache hit — no peer traffic.
    uint64_t queries_before = serverA->stats().artifactQueries;
    (void)cacheB.getOrFetch(fp);
    EXPECT_EQ(serverA->stats().artifactQueries, queries_before);
}

// --- Hot swap -----------------------------------------------------------

TEST(ClusterSwap, InProcessSwapDrainsOldEpochAndServesNew)
{
    MatchServer server(mappedA());
    uint64_t fpA = persist::artifactFingerprint(mappedA());
    uint64_t fpB = persist::artifactFingerprint(mappedB());
    std::vector<uint8_t> input = sampleInput(64 << 10, 11);

    // A stream opened before the swap, half-fed...
    MatchClient early;
    early.connect("127.0.0.1", server.port());
    uint32_t stream = early.openStream();
    size_t half = input.size() / 2;
    early.send(stream, input.data(), half);
    early.flush(stream);

    auto mappedBShared = std::make_shared<const MappedAutomaton>(
        mapPerformance(compileRuleset({"fish", "bir+d", "ow[l7]"})));
    MatchServer::SwapResult r = server.swap(mappedBShared);
    EXPECT_TRUE(r.swapped);
    EXPECT_EQ(r.oldFingerprint, fpA);
    EXPECT_EQ(r.newFingerprint, fpB);
    EXPECT_EQ(server.fingerprint(), fpB);
    EXPECT_EQ(server.epoch(), r.epoch);

    // ...keeps matching the OLD ruleset to the end: the whole report
    // stream equals the old-automaton oracle, with no new-ruleset
    // reports mixed in.
    early.send(stream, input.data() + half, input.size() - half);
    early.flush(stream);
    net::StreamSummary sum = early.closeStream(stream);
    EXPECT_EQ(sum.symbols, input.size());
    EXPECT_EQ(early.takeReports(stream), oracleReports(mappedA(), input));
    early.close();

    // Streams opened after the swap match the new ruleset.
    EXPECT_EQ(matchOver(server.port(), input),
              oracleReports(mappedB(), input));

    // With the early stream closed, the old epoch gets reaped — and the
    // runtime totals stay cumulative across the generations.
    MatchServer::SwapResult again = server.swap(mappedBShared);
    EXPECT_FALSE(again.swapped); // also exercises the no-op path
    runtime::ServerStats totals = server.streamStats();
    EXPECT_EQ(totals.sessionsOpened, 2u);
    EXPECT_EQ(totals.sessionsClosed, 2u);
    EXPECT_EQ(totals.symbols, 2 * input.size());
}

TEST(ClusterSwap, AdminSwapBySourcePathUnderLiveLoad)
{
    TempDir dir;
    std::string pathB = dir.str("b.caa");
    persist::saveArtifact(pathB, mappedB());

    MatchServerOptions opts;
    opts.adminEnabled = true;
    MatchServer server(mappedA(), opts);
    ASSERT_NE(server.adminPort(), 0);
    uint64_t fpA = persist::artifactFingerprint(mappedA());
    uint64_t fpB = persist::artifactFingerprint(mappedB());
    std::vector<uint8_t> input = sampleInput(32 << 10, 13);

    // Live load: a match-plane stream is mid-flight through the swap.
    MatchClient live;
    live.connect("127.0.0.1", server.port());
    uint32_t stream = live.openStream();
    size_t half = input.size() / 2;
    live.send(stream, input.data(), half);
    // OPEN_STREAM and DATA are fire-and-forget, and ordering across
    // connections is not a server contract: without this barrier the
    // admin swap can land before the stream opens on the old ruleset.
    live.flush(stream);

    MatchClient admin;
    admin.connect("127.0.0.1", server.adminPort());
    net::SwapOutcome out = admin.requestSwap(0, pathB);
    EXPECT_EQ(out.status, SwapStatus::Swapped);
    EXPECT_EQ(out.oldFingerprint, fpA);
    EXPECT_EQ(out.newFingerprint, fpB);
    EXPECT_EQ(admin.serverFingerprint(), fpB);

    // Swapping again to the same artifact is a no-op.
    net::SwapOutcome noop = admin.requestSwap(fpB, pathB);
    EXPECT_EQ(noop.status, SwapStatus::Unchanged);
    admin.close();

    // The live stream drained on the old ruleset, zero drops.
    live.send(stream, input.data() + half, input.size() - half);
    live.flush(stream);
    net::StreamSummary sum = live.closeStream(stream);
    EXPECT_EQ(sum.symbols, input.size());
    EXPECT_EQ(live.takeReports(stream), oracleReports(mappedA(), input));
    live.close();

    EXPECT_EQ(matchOver(server.port(), input),
              oracleReports(mappedB(), input));
    net::NetServerStats s = server.stats();
    EXPECT_EQ(s.swapsCompleted, 1u);
    EXPECT_EQ(s.slowConsumerDrops, 0u);
    EXPECT_EQ(s.protocolErrors, 0u);
}

TEST(ClusterSwap, MatchPlaneSwapIsDenied)
{
    TempDir dir;
    std::string pathB = dir.str("b.caa");
    persist::saveArtifact(pathB, mappedB());

    MatchServerOptions opts;
    opts.adminEnabled = true;
    MatchServer server(mappedA(), opts);
    uint64_t fpA = server.fingerprint();

    MatchClient client;
    client.connect("127.0.0.1", server.port()); // match plane, not admin
    EXPECT_THROW(client.requestSwap(0, pathB), CaError);
    client.close();

    // Nothing swapped; the server still serves the original ruleset.
    EXPECT_EQ(server.fingerprint(), fpA);
    EXPECT_EQ(server.epoch(), 1u);
    std::vector<uint8_t> input = sampleInput(8 << 10, 17);
    EXPECT_EQ(matchOver(server.port(), input),
              oracleReports(mappedA(), input));
}

TEST(ClusterSwap, FailedSwapReportsReasonAndKeepsServing)
{
    MatchServerOptions opts;
    opts.adminEnabled = true;
    MatchServer server(mappedA(), opts);
    uint64_t fpA = server.fingerprint();

    MatchClient admin;
    admin.connect("127.0.0.1", server.adminPort());
    net::SwapOutcome out =
        admin.requestSwap(0, "/nonexistent/ruleset.caa");
    EXPECT_EQ(out.status, SwapStatus::Failed);
    EXPECT_FALSE(out.message.empty());
    EXPECT_EQ(out.oldFingerprint, fpA);

    // The admin connection survives a failed swap and can retry.
    net::SwapOutcome out2 = admin.requestSwap(0, "/still/wrong.caa");
    EXPECT_EQ(out2.status, SwapStatus::Failed);
    admin.close();

    EXPECT_EQ(server.fingerprint(), fpA);
    EXPECT_EQ(server.stats().swapsFailed, 2u);
    std::vector<uint8_t> input = sampleInput(8 << 10, 19);
    EXPECT_EQ(matchOver(server.port(), input),
              oracleReports(mappedA(), input));
}

TEST(ClusterSwap, SwapByFingerprintPullsThroughSwapLoader)
{
    // Peer topology: admin asks server (which serves A) to swap to B's
    // fingerprint; the server's swapLoader pulls B from the donor peer.
    MatchServer donor(mappedB());
    uint64_t fpB = persist::artifactFingerprint(mappedB());

    Replicator repl({{"127.0.0.1", donor.port()}});
    MatchServerOptions opts;
    opts.adminEnabled = true;
    opts.swapLoader = [&repl](uint64_t fp,
                              const std::string &) {
        return repl.fetch(fp);
    };
    MatchServer server(mappedA(), opts);

    MatchClient admin;
    admin.connect("127.0.0.1", server.adminPort());
    net::SwapOutcome out = admin.requestSwap(fpB);
    EXPECT_EQ(out.status, SwapStatus::Swapped);
    EXPECT_EQ(out.newFingerprint, fpB);
    admin.close();

    EXPECT_EQ(server.fingerprint(), fpB);
    std::vector<uint8_t> input = sampleInput(8 << 10, 23);
    EXPECT_EQ(matchOver(server.port(), input),
              oracleReports(mappedB(), input));
}

// --- Observability of the cluster plane ---------------------------------

TEST(ClusterObservability, UnpinnedClientSeesServingFingerprint)
{
    MatchServer server(mappedA());
    uint64_t fpA = server.fingerprint();
    ASSERT_NE(fpA, 0u);

    // No --fingerprint pinning: the HELLO fingerprint must still
    // surface, so clients can log what they matched against.
    MatchClient client;
    client.connect("127.0.0.1", server.port());
    EXPECT_EQ(client.serverFingerprint(), fpA);
    client.close();

    auto mappedBShared = std::make_shared<const MappedAutomaton>(
        mapPerformance(compileRuleset({"fish", "bir+d", "ow[l7]"})));
    server.swap(mappedBShared);

    // A post-swap connection (still unpinned) sees the new identity...
    MatchClient later;
    later.connect("127.0.0.1", server.port());
    EXPECT_EQ(later.serverFingerprint(), server.fingerprint());
    EXPECT_NE(later.serverFingerprint(), fpA);
    later.close();

    // ...while pinning to the retired fingerprint is now rejected.
    MatchClient pinned;
    ClientOptions copts;
    copts.expectedFingerprint = fpA;
    EXPECT_THROW(pinned.connect("127.0.0.1", server.port(), copts),
                 CaError);
}

TEST(ClusterObservability, StatsCarryEpochFingerprintAndClusterCounters)
{
    MatchServerOptions opts;
    opts.adminEnabled = true;
    MatchServer server(mappedA(), opts);
    uint64_t fpA = persist::artifactFingerprint(mappedA());

    // Pull the artifact once so the artifact counters move.
    MatchClient puller;
    puller.connect("127.0.0.1", server.port());
    (void)puller.fetchArtifact(fpA);
    puller.close();

    // Keep one pre-swap stream open so an epoch is draining during the
    // stats poll.
    MatchClient live;
    live.connect("127.0.0.1", server.port());
    uint32_t stream = live.openStream();
    live.send(stream, reinterpret_cast<const uint8_t *>("catfish"), 7);
    live.flush(stream);

    auto mappedBShared = std::make_shared<const MappedAutomaton>(
        mapPerformance(compileRuleset({"fish", "bir+d", "ow[l7]"})));
    MatchServer::SwapResult r = server.swap(mappedBShared);
    ASSERT_TRUE(r.swapped);

    MatchClient poll;
    poll.connect("127.0.0.1", server.port());
    net::StatsReplyBody b = poll.requestStats();
    poll.close();

    EXPECT_EQ(b.totals.epoch, r.epoch);
    EXPECT_EQ(b.totals.automatonFp, r.newFingerprint);
    EXPECT_EQ(b.totals.epochsDraining, 1u);
    EXPECT_EQ(b.totals.swapsCompleted, 1u);
    EXPECT_GE(b.totals.artifactQueries, 1u);
    EXPECT_GE(b.totals.artifactChunksServed, 1u);
    // The draining epoch's session is visible in the Sessions table.
    bool found = false;
    for (const runtime::SessionLiveStats &s : b.sessions)
        if (!s.closed)
            found = true;
    EXPECT_TRUE(found);

    live.closeStream(stream);
    live.close();
}

} // namespace
} // namespace ca
