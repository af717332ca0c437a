/**
 * @file
 * Tests for the persist subsystem (src/persist): artifact round-trips,
 * fault injection, the content-addressed cache, and artifact-backed
 * server restarts.
 *
 * The load-bearing properties:
 *  - A sim restored from an artifact emits byte-identical reports to one
 *    built from a fresh compile (round-trip fidelity).
 *  - Packing is deterministic: equal content ⇒ equal bytes, so repacking
 *    a loaded artifact reproduces the original file exactly.
 *  - Corrupt input — bit flips, truncation, wrong magic/version, trailing
 *    garbage — fails with a clean CaError, never UB (the fuzz suite in
 *    tests/fuzz_test.cpp extends this with random mutations).
 *  - A cache directory shared by concurrent users stays consistent with
 *    no locking (atomic temp-file + rename publication); this suite is
 *    part of the ThreadSanitizer CI configuration via the runtime label.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/serde.h"
#include "nfa/glushkov.h"
#include "persist/artifact.h"
#include "persist/cache.h"
#include "runtime/report_sink.h"
#include "runtime/stream_server.h"
#include "sim/engine.h"
#include "workload/input_gen.h"
#include "workload/suite.h"

namespace ca {
namespace {

namespace fs = std::filesystem;

using persist::ArtifactCache;
using persist::ArtifactMeta;
using persist::ArtifactReader;
using persist::ArtifactWriter;
using persist::LoadedArtifact;
using runtime::CollectingSink;
using runtime::StreamServer;
using runtime::StreamSession;

/** Unique scratch directory, removed (recursively) on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        static std::atomic<uint64_t> seq{0};
        path_ = fs::temp_directory_path() /
                ("ca_persist_test." + std::to_string(::getpid()) + "." +
                 std::to_string(seq.fetch_add(1)));
        fs::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const fs::path &path() const { return path_; }
    std::string str(const std::string &leaf) const
    {
        return (path_ / leaf).string();
    }

  private:
    fs::path path_;
};

MappedAutomaton
sampleMapped()
{
    Nfa nfa = compileRuleset({"cat", "do+g", "[hx]at", "m.*n"});
    return mapPerformance(nfa);
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

std::vector<Report>
oracleReports(const MappedAutomaton &m, const std::vector<uint8_t> &input)
{
    return NfaEngine(m.nfa()).run(input);
}

std::vector<uint8_t>
packSample(const MappedAutomaton &mapped, const std::string &label = "t")
{
    ArtifactMeta meta;
    meta.label = label;
    return persist::packArtifact(mapped, buildConfigImage(mapped), meta);
}

// --- serde primitives ---------------------------------------------------

TEST(Serde, LittleEndianGoldenBytes)
{
    std::vector<uint8_t> out;
    serde::putU16(out, 0x1122);
    serde::putU32(out, 0x33445566u);
    serde::putU64(out, 0x0102030405060708ull);
    serde::putString(out, "ab");
    std::vector<uint8_t> expect = {
        0x22, 0x11,                                     // u16
        0x66, 0x55, 0x44, 0x33,                         // u32
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
        0x02, 0x00, 0x00, 0x00, 'a',  'b',              // string
    };
    EXPECT_EQ(out, expect);
}

TEST(Serde, ReaderRoundTripsEveryType)
{
    std::vector<uint8_t> out;
    serde::putU8(out, 0xAB);
    serde::putU16(out, 0xBEEF);
    serde::putU32(out, 0xDEADBEEFu);
    serde::putU64(out, 0x123456789ABCDEF0ull);
    serde::putI32(out, -42);
    serde::putF64(out, 3.25);
    serde::putString(out, "hello");
    BitVector bv(77);
    bv.set(0);
    bv.set(13);
    bv.set(76);
    serde::putBits(out, bv);

    serde::ByteReader r(out);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x123456789ABCDEF0ull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.str(), "hello");
    BitVector back = r.bits();
    EXPECT_EQ(back.size(), 77u);
    EXPECT_TRUE(back.test(0));
    EXPECT_TRUE(back.test(13));
    EXPECT_TRUE(back.test(76));
    EXPECT_EQ(back.count(), 3u);
    EXPECT_TRUE(r.done());
}

TEST(Serde, ReaderThrowsPastEnd)
{
    std::vector<uint8_t> two = {0x01, 0x02};
    serde::ByteReader r(two);
    EXPECT_THROW(r.u32(), CaError);
    // A failed read must not advance the cursor.
    EXPECT_EQ(r.u16(), 0x0201);
    EXPECT_THROW(r.u8(), CaError);
}

TEST(Serde, ReaderRejectsOversizedString)
{
    // Length prefix claims 100 bytes; only 2 follow.
    std::vector<uint8_t> out;
    serde::putU32(out, 100);
    out.push_back('x');
    out.push_back('y');
    serde::ByteReader r(out);
    EXPECT_THROW(r.str(), CaError);
}

TEST(Serde, Crc32KnownVector)
{
    // The canonical CRC-32 (IEEE) check value.
    const char *s = "123456789";
    EXPECT_EQ(serde::crc32(reinterpret_cast<const uint8_t *>(s), 9),
              0xCBF43926u);
    EXPECT_EQ(serde::crc32(nullptr, 0), 0u);
}

TEST(Serde, Fnv1a64KnownVectors)
{
    EXPECT_EQ(serde::fnv1a64(std::string{}), serde::kFnv1a64Seed);
    EXPECT_EQ(serde::fnv1a64(std::string{"a"}), 0xaf63dc4c8601ec8cull);
    // Chaining equals one-shot.
    uint64_t chained =
        serde::fnv1a64(std::string{"bar"}, serde::fnv1a64(std::string{"foo"}));
    EXPECT_EQ(chained, serde::fnv1a64(std::string{"foobar"}));
}

// --- Round-trip fidelity ------------------------------------------------

TEST(Artifact, RoundTripReportsByteIdentical)
{
    MappedAutomaton mapped = sampleMapped();
    auto input = sampleInput(16 << 10, 7);
    auto expect = oracleReports(mapped, input);

    LoadedArtifact loaded = persist::loadArtifactBytes(packSample(mapped));
    CacheAutomatonSim sim(loaded.automaton);
    EXPECT_EQ(sim.run(input).reports, expect);

    // The restored sim also matches the classical NFA oracle.
    NfaEngine oracle(loaded.automaton->nfa());
    EXPECT_EQ(oracle.run(input), expect);

    // The stored image equals one rebuilt from the restored automaton.
    EXPECT_TRUE(persist::configImagesEqual(
        loaded.image, buildConfigImage(*loaded.automaton)));
}

TEST(Artifact, RoundTripSpaceOptimizedMapping)
{
    Nfa nfa = compileRuleset({"ab+c", "abd", "x[0-9]{2}y", "m.n"});
    MappedAutomaton mapped = mapSpace(nfa);
    auto input = sampleInput(8 << 10, 11);
    auto expect = oracleReports(mapped, input);

    LoadedArtifact loaded = persist::loadArtifactBytes(packSample(mapped));
    CacheAutomatonSim sim(loaded.automaton);
    EXPECT_EQ(sim.run(input).reports, expect);
    EXPECT_TRUE(persist::configImagesEqual(
        loaded.image, buildConfigImage(*loaded.automaton)));
}

TEST(Artifact, RoundTripEveryBenchmarkAutomaton)
{
    // Every Table 1 benchmark at reduced scale: the restored sim must
    // emit byte-identical reports to a freshly compiled one. (The
    // full-scale sweep lives in bench_artifact_load / `ca_artifact
    // verify`.)
    for (const Benchmark &b : benchmarkSuite()) {
        SCOPED_TRACE(b.name);
        Nfa nfa = b.build(0.01, kDefaultRuleSeed);
        MappedAutomaton mapped = mapPerformance(nfa);
        auto input = benchmarkInput(b, 2 << 10, 5, 0.01, kDefaultRuleSeed);
        auto expect = oracleReports(mapped, input);

        LoadedArtifact loaded =
            persist::loadArtifactBytes(packSample(mapped, b.name));
        EXPECT_EQ(loaded.meta.label, b.name);
        CacheAutomatonSim sim(loaded.automaton);
        EXPECT_EQ(sim.run(input).reports, expect);
    }
}

TEST(Artifact, PackIsDeterministicAndRepackIdentical)
{
    MappedAutomaton mapped = sampleMapped();
    std::vector<uint8_t> first = packSample(mapped);
    std::vector<uint8_t> second = packSample(mapped);
    EXPECT_EQ(first, second);

    // load → repack reproduces the original file byte-for-byte, which is
    // what makes artifacts content-addressable.
    LoadedArtifact loaded = persist::loadArtifactBytes(first);
    ArtifactMeta meta = loaded.meta;
    std::vector<uint8_t> repacked =
        persist::packArtifact(*loaded.automaton, loaded.image, meta);
    EXPECT_EQ(repacked, first);
}

TEST(Artifact, FileRoundTripPreservesMeta)
{
    TempDir dir;
    MappedAutomaton mapped = sampleMapped();
    ArtifactMeta meta;
    meta.label = "file round trip";
    meta.contentKey = 0x0123456789abcdefull;
    std::string path = dir.str("a.caa");
    persist::saveArtifact(path, mapped, meta);

    LoadedArtifact loaded = persist::loadArtifact(path);
    EXPECT_EQ(loaded.meta.tool, "ca-persist/1");
    EXPECT_EQ(loaded.meta.label, "file round trip");
    EXPECT_EQ(loaded.meta.contentKey, 0x0123456789abcdefull);

    // Atomic publication leaves no temp files behind.
    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir.path())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(Artifact, ReaderExposesSectionTable)
{
    MappedAutomaton mapped = sampleMapped();
    ArtifactReader reader(packSample(mapped));
    EXPECT_EQ(reader.version(), persist::kFormatVersion);
    EXPECT_EQ(reader.sections().size(), 6u);
    for (uint32_t id : {persist::kSecMeta, persist::kSecDesign,
                        persist::kSecNfa, persist::kSecPlace,
                        persist::kSecImage, persist::kSecRoutes})
        EXPECT_TRUE(reader.hasSection(id)) << persist::sectionName(id);
    EXPECT_FALSE(reader.hasSection(0x58585858u));
    EXPECT_THROW(reader.section(0x58585858u), CaError);
}

// --- Fault injection ----------------------------------------------------

TEST(Artifact, WriterRejectsDuplicateSection)
{
    ArtifactWriter w;
    w.addSection(0x31435553u, {1, 2, 3});
    EXPECT_THROW(w.addSection(0x31435553u, {4, 5}), CaError);
}

TEST(Artifact, RejectsWrongMagic)
{
    std::vector<uint8_t> bytes = packSample(sampleMapped());
    bytes[0] ^= 0xFF;
    EXPECT_THROW(ArtifactReader{bytes}, CaError);
}

TEST(Artifact, RejectsWrongVersion)
{
    std::vector<uint8_t> bytes = packSample(sampleMapped());
    // Bump the version *and* re-seal the header CRC, so the rejection we
    // observe is the version check itself, not checksum collateral.
    bytes[4] = static_cast<uint8_t>(persist::kFormatVersion + 1);
    uint32_t crc = serde::crc32(bytes.data(), 12);
    for (int i = 0; i < 4; ++i)
        bytes[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
    try {
        ArtifactReader reader(bytes);
        FAIL() << "version skew accepted";
    } catch (const CaError &e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST(Artifact, RejectsHeaderCorruption)
{
    std::vector<uint8_t> bytes = packSample(sampleMapped());
    bytes[8] ^= 0x01; // section count, covered by the header CRC
    EXPECT_THROW(ArtifactReader{bytes}, CaError);
}

TEST(Artifact, RejectsEveryTruncationLength)
{
    std::vector<uint8_t> bytes = packSample(sampleMapped());
    ASSERT_GT(bytes.size(), 64u);

    // Exhaustive over the header region, sampled beyond it.
    std::vector<size_t> lengths;
    for (size_t n = 0; n < 64; ++n)
        lengths.push_back(n);
    Rng rng(0xBADF11E5);
    for (int i = 0; i < 64; ++i)
        lengths.push_back(64 + rng.below(bytes.size() - 64));
    lengths.push_back(bytes.size() - 1);

    for (size_t n : lengths) {
        SCOPED_TRACE("truncated to " + std::to_string(n));
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() + static_cast<long>(n));
        EXPECT_THROW(persist::loadArtifactBytes(cut), CaError);
    }
}

TEST(Artifact, RejectsTrailingGarbage)
{
    std::vector<uint8_t> bytes = packSample(sampleMapped());
    bytes.push_back(0x00);
    EXPECT_THROW(persist::loadArtifactBytes(bytes), CaError);
}

TEST(Artifact, BitFlipsLoadCleanlyOrThrow)
{
    std::vector<uint8_t> bytes = packSample(sampleMapped());
    Rng rng(0xF11BF11B);
    int rejected = 0;
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<uint8_t> mutant = bytes;
        int flips = 1 + static_cast<int>(rng.below(3));
        for (int f = 0; f < flips; ++f) {
            size_t pos = rng.below(mutant.size());
            mutant[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
        }
        try {
            LoadedArtifact loaded =
                persist::loadArtifactBytes(std::move(mutant));
            // Survivors (flips confined to slack the decoder ignores)
            // must still be fully usable.
            CacheAutomatonSim sim(loaded.automaton);
            const uint8_t probe[] = {'c', 'a', 't'};
            sim.feed(probe, sizeof(probe));
        } catch (const CaError &) {
            ++rejected; // clean rejection is the expected path
        }
    }
    // CRC32 catches essentially all small mutations.
    EXPECT_GT(rejected, 150);
}

TEST(Artifact, LoadMissingFileThrows)
{
    TempDir dir;
    EXPECT_THROW(persist::loadArtifact(dir.str("absent.caa")), CaError);
}

// --- Cache key ----------------------------------------------------------

TEST(CacheKey, SensitiveToEveryInput)
{
    std::vector<std::string> rules = {"abc", "de+f"};
    Design d = designCaP();
    MapperOptions o;
    uint64_t base = persist::computeCacheKey(rules, d, o);
    EXPECT_EQ(persist::computeCacheKey(rules, d, o), base);

    EXPECT_NE(persist::computeCacheKey({"abc", "de+g"}, d, o), base);
    EXPECT_NE(persist::computeCacheKey({"abc"}, d, o), base);

    Design d2 = designCaS();
    EXPECT_NE(persist::computeCacheKey(rules, d2, o), base);

    MapperOptions o2;
    o2.optimizeSpace = true;
    EXPECT_NE(persist::computeCacheKey(rules, d, o2), base);
    MapperOptions o3;
    o3.seed = o.seed + 1;
    EXPECT_NE(persist::computeCacheKey(rules, d, o3), base);
}

// --- ArtifactCache ------------------------------------------------------

TEST(Cache, MissCompilesThenHitLoads)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    std::vector<std::string> rules = {"cat", "do+g"};
    Design d = designCaP();

    int builds = 0;
    uint64_t key = persist::computeCacheKey(rules, d, {});
    auto build = [&] {
        ++builds;
        return mapNfa(compileRuleset(rules), d);
    };

    LoadedArtifact first = cache.getOrBuild(key, build, "lbl");
    EXPECT_EQ(builds, 1);
    LoadedArtifact second = cache.getOrBuild(key, build, "lbl");
    EXPECT_EQ(builds, 1) << "hit must not re-compile";
    EXPECT_EQ(second.meta.contentKey, key);

    auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.corruptEvicted, 0u);

    // Cold-compiled and cache-loaded automata agree on reports.
    auto input = sampleInput(8 << 10, 23);
    CacheAutomatonSim a(first.automaton), b(second.automaton);
    EXPECT_EQ(a.run(input).reports, b.run(input).reports);
}

TEST(Cache, GetOrCompileHitsAcrossInstances)
{
    TempDir dir;
    std::vector<std::string> rules = {"foo", "ba+r"};
    Design d = designCaP();

    ArtifactCache warm(dir.str("cache"));
    (void)warm.getOrCompile(rules, d, {}, "first");
    EXPECT_EQ(warm.stats().misses, 1u);

    // A different instance on the same directory (≈ another process)
    // hits the published entry.
    ArtifactCache other(dir.str("cache"));
    LoadedArtifact got = other.getOrCompile(rules, d, {}, "second");
    EXPECT_EQ(other.stats().hits, 1u);
    EXPECT_EQ(other.stats().misses, 0u);
    EXPECT_EQ(got.meta.label, "first") << "hit returns the stored artifact";
}

TEST(Cache, CorruptEntryEvictedAndRebuilt)
{
    TempDir dir;
    ArtifactCache cache(dir.str("cache"));
    std::vector<std::string> rules = {"xy+z"};
    Design d = designCaP();
    uint64_t key = persist::computeCacheKey(rules, d, {});
    (void)cache.getOrCompile(rules, d);

    // Vandalize the published entry.
    std::string path = cache.pathForKey(key);
    ASSERT_TRUE(fs::exists(path));
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "not an artifact";
    }

    EXPECT_FALSE(cache.tryLoad(key).has_value());
    EXPECT_EQ(cache.stats().corruptEvicted, 1u);
    EXPECT_FALSE(fs::exists(path)) << "corrupt entry must be evicted";

    // The next getOrCompile self-heals: miss, rebuild, republish.
    LoadedArtifact healed = cache.getOrCompile(rules, d);
    EXPECT_EQ(healed.meta.contentKey, key);
    ASSERT_TRUE(fs::exists(path));
    EXPECT_TRUE(cache.tryLoad(key).has_value());
}

/**
 * The "two processes, one cache directory" contract, exercised with
 * in-process concurrency so ThreadSanitizer can see it: each thread has
 * its own ArtifactCache instance (no shared in-memory state) bound to
 * one shared directory, and races getOrCompile over a small key set.
 * Atomic publication means every load must return a complete artifact.
 */
TEST(Cache, ConcurrentInstancesShareOneDirectory)
{
    TempDir dir;
    Design d = designCaP();
    const std::vector<std::vector<std::string>> rulesets = {
        {"cat", "dog"}, {"ab+c"}, {"x[0-9]y", "qr?s"}};

    auto input = sampleInput(4 << 10, 31);
    std::vector<std::vector<Report>> expect;
    for (const auto &rules : rulesets)
        expect.push_back(
            oracleReports(mapNfa(compileRuleset(rules), d), input));

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            ArtifactCache cache(dir.str("shared"));
            Rng rng(0xC0FFEE + static_cast<uint64_t>(t));
            for (int iter = 0; iter < 6; ++iter) {
                size_t which = rng.below(rulesets.size());
                LoadedArtifact got =
                    cache.getOrCompile(rulesets[which], d);
                CacheAutomatonSim sim(got.automaton);
                if (sim.run(input).reports != expect[which])
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);

    // Exactly one published file per distinct key survives the race.
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir.str("shared")))
        files += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, rulesets.size());
}

// --- Server integration -------------------------------------------------

TEST(ServerArtifact, FromArtifactMatchesOracle)
{
    TempDir dir;
    MappedAutomaton mapped = sampleMapped();
    std::string path = dir.str("server.caa");
    persist::saveArtifact(path, mapped);

    auto input = sampleInput(16 << 10, 37);
    auto expect = oracleReports(mapped, input);

    auto server = StreamServer::fromArtifact(path);
    CollectingSink sink;
    StreamSession &s = server->open(sink);
    s.submit(input);
    s.close();
    EXPECT_EQ(sink.reports(s.id()), expect);
}

/**
 * The §2.9 deployment story end to end: a session is suspended, its
 * server is torn down entirely, a new server warm-starts from the
 * on-disk artifact, and the session resumes from the checkpoint — the
 * stitched report stream must match a single-threaded run of the whole
 * input on the original automaton.
 */
TEST(ServerArtifact, CheckpointResumesAcrossServerRestart)
{
    TempDir dir;
    MappedAutomaton mapped = sampleMapped();
    std::string path = dir.str("restart.caa");
    persist::saveArtifact(path, mapped);

    auto input = sampleInput(12 << 10, 41);
    auto expect = oracleReports(mapped, input);
    size_t split = input.size() / 3;

    CollectingSink sink_a;
    SimCheckpoint ckpt;
    uint32_t sid_a = 0;
    {
        StreamServer server_a(mapped);
        StreamSession &sa = server_a.open(sink_a);
        sa.submit(input.data(), split);
        sa.flush(); // drain so the checkpoint covers everything submitted
        ckpt = sa.suspend();
        sid_a = sa.id();
        sa.resume();
        sa.close();
    } // server_a destroyed: nothing survives but the artifact + checkpoint
    EXPECT_EQ(ckpt.symbolOffset, split);

    auto server_b = StreamServer::fromArtifact(path);
    CollectingSink sink_b;
    StreamSession &sb = server_b->open(sink_b, ckpt);
    sb.submit(input.data() + split, input.size() - split);
    sb.close();

    std::vector<Report> stitched = sink_a.reports(sid_a);
    auto tail = sink_b.reports(sb.id());
    stitched.insert(stitched.end(), tail.begin(), tail.end());
    EXPECT_EQ(stitched, expect);
}

} // namespace
} // namespace ca
