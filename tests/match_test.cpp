/**
 * @file
 * Tests for the functional match subsystem (docs/MATCH.md): the
 * MatchEngine must be report-identical to the cycle-accurate
 * CacheAutomatonSim and the CPU oracle under every kernel, and the
 * ParallelMatcher's speculative chunk joins must reproduce the serial
 * report stream bit for bit — across chunk boundaries, all-input and
 * anchored rulesets, empty/1-byte/unaligned buffers, forced replays,
 * and randomized N-chunk vs 1-chunk fuzz. Also covers the runtime
 * integration (StreamServer with matchParallelism) and the
 * --match-parallel / kernel-name validation helpers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "match/match_engine.h"
#include "match/parallel_matcher.h"
#include "nfa/glushkov.h"
#include "runtime/report_sink.h"
#include "runtime/stream_server.h"
#include "sim/engine.h"
#include "workload/input_gen.h"
#include "workload/rulegen.h"

namespace ca {
namespace {

using match::MatchContext;
using match::MatchEngine;
using match::MatchOptions;
using match::MatchResult;
using match::ParallelMatcher;
using match::ParallelOptions;
using match::ParallelStats;

MatchOptions
engineOpts(SimKernel k)
{
    MatchOptions opts;
    opts.kernel = k;
    return opts;
}

std::shared_ptr<const MatchContext>
makeContext(const MappedAutomaton &m)
{
    return std::make_shared<MatchContext>(m);
}

/** Serial reference: one MatchEngine over the whole buffer. */
std::vector<Report>
serialReports(const std::shared_ptr<const MatchContext> &ctx,
              const std::vector<uint8_t> &input,
              SimKernel k = SimKernel::Auto)
{
    MatchEngine eng(ctx, engineOpts(k));
    eng.feed(input.data(), input.size());
    return eng.takeReports();
}

std::vector<uint8_t>
randomWorkloadInput(const std::vector<std::string> &rules, size_t bytes,
                    uint64_t seed)
{
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = rules;
    spec.plantsPer4k = 32.0;
    return buildInput(spec, bytes, seed);
}

std::vector<std::string>
randomRules(Rng &rng)
{
    static const char *kBlocks[] = {
        "ab", "c+", "(d|ef)", "[g-i]{1,2}", "j.*k", "[lm]", "n?o",
        ".",
    };
    std::vector<std::string> rules;
    int n_rules = 2 + static_cast<int>(rng.below(8));
    for (int r = 0; r < n_rules; ++r) {
        std::string pat;
        int blocks = 1 + static_cast<int>(rng.below(4));
        for (int b = 0; b < blocks; ++b)
            pat += kBlocks[rng.below(std::size(kBlocks))];
        rules.push_back(pat);
    }
    return rules;
}

// ---------------------------------------------------------------------
// MatchEngine vs the cycle-accurate sim and the CPU oracle: the
// tests/kernel_test.cpp oracle contract, applied to the functional
// engine under every kernel.

class MatchEquality : public ::testing::TestWithParam<int>
{
};

TEST_P(MatchEquality, EngineMatchesSimAndOracleUnderEveryKernel)
{
    int param = GetParam();
    bool space = param % 2 == 1;
    Rng rng(param * 52379 + 5);
    std::vector<std::string> rules = randomRules(rng);

    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = space ? mapSpace(nfa) : mapPerformance(nfa);
    auto input = randomWorkloadInput(rules, 8 << 10, param + 100);

    SimOptions sim_opts;
    sim_opts.kernel = SimKernel::Sparse;
    CacheAutomatonSim sim(m, sim_opts);
    SimResult expect = sim.run(input);

    NfaEngine oracle(m.nfa());
    ASSERT_EQ(expect.reports, oracle.run(input));

    auto ctx = makeContext(m);
    for (SimKernel k :
         {SimKernel::Sparse, SimKernel::Dense, SimKernel::Auto}) {
        MatchOptions opts = engineOpts(k);
        opts.autoBlockSymbols = 256; // force several re-evaluations
        MatchEngine eng(ctx, opts);
        eng.feed(input.data(), input.size());
        EXPECT_EQ(eng.takeReports(), expect.reports)
            << "kernel " << static_cast<int>(k);
        EXPECT_EQ(eng.streamOffset(), input.size());
        // The end frontier agrees with the sim's §2.9 checkpoint.
        EXPECT_EQ(eng.frontier(), sim.checkpoint().enabledStates)
            << "kernel " << static_cast<int>(k);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, MatchEquality,
                         ::testing::Range(0, 16));

TEST(MatchEngine, IncrementalFeedMatchesWholeBuffer)
{
    std::vector<std::string> rules = {"cat", "do+g", "[hx]at"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto input = randomWorkloadInput(rules, 8 << 10, 7);
    auto ctx = makeContext(m);

    std::vector<Report> expect = serialReports(ctx, input);
    ASSERT_FALSE(expect.empty());

    MatchEngine eng(ctx, engineOpts(SimKernel::Dense));
    std::vector<Report> drained;
    size_t pos = 0;
    for (size_t chunk : {size_t{1000}, size_t{1}, size_t{0},
                         size_t{4096}, size_t{37}}) {
        size_t n = std::min(chunk, input.size() - pos);
        eng.feed(input.data() + pos, n);
        pos += n;
        auto got = eng.takeReports();
        drained.insert(drained.end(), got.begin(), got.end());
    }
    eng.feed(input.data() + pos, input.size() - pos);
    auto tail = eng.takeReports();
    drained.insert(drained.end(), tail.begin(), tail.end());
    EXPECT_EQ(drained, expect);
}

TEST(MatchEngine, SetStateResumesMidStream)
{
    std::vector<std::string> rules = {"ab+c", "x[yz]{1,3}w", "m.*n"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapSpace(nfa);
    auto input = randomWorkloadInput(rules, 8 << 10, 31);
    auto ctx = makeContext(m);

    std::vector<Report> expect = serialReports(ctx, input);

    // Suspend from a dense engine, resume into a sparse one: the
    // frontier is representation-independent (mirrors the sim's §2.9
    // checkpoint contract).
    size_t cut = input.size() / 3 + 7;
    MatchEngine head(ctx, engineOpts(SimKernel::Dense));
    head.feed(input.data(), cut);
    std::vector<Report> stitched = head.takeReports();
    std::vector<StateId> frontier = head.frontier();
    EXPECT_EQ(head.streamOffset(), cut);

    MatchEngine tail(ctx, engineOpts(SimKernel::Sparse));
    tail.setState(frontier, cut);
    tail.feed(input.data() + cut, input.size() - cut);
    auto t = tail.takeReports();
    stitched.insert(stitched.end(), t.begin(), t.end());
    EXPECT_EQ(stitched, expect);
}

TEST(MatchEngine, CollectReportsOffAdvancesTheFrontierIdentically)
{
    std::vector<std::string> rules = {"cat", "d.*g"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto input = randomWorkloadInput(rules, 4 << 10, 3);
    auto ctx = makeContext(m);

    MatchEngine on(ctx, engineOpts(SimKernel::Auto));
    on.feed(input.data(), input.size());
    ASSERT_FALSE(on.takeReports().empty());

    MatchEngine off(ctx, engineOpts(SimKernel::Auto));
    off.setCollectReports(false);
    off.feed(input.data(), input.size());
    EXPECT_TRUE(off.takeReports().empty());
    EXPECT_EQ(off.frontier(), on.frontier());
}

TEST(MatchContext, ReachableFrontierContainsEveryLiveFrontier)
{
    Rng rng(99);
    std::vector<std::string> rules = randomRules(rng);
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto input = randomWorkloadInput(rules, 4 << 10, 17);
    auto ctx = makeContext(m);
    const std::vector<StateId> &reach = ctx->reachableFrontier();

    MatchEngine eng(ctx, engineOpts(SimKernel::Sparse));
    size_t pos = 0;
    for (size_t step : {size_t{1}, size_t{63}, size_t{256}, size_t{801},
                        size_t{2048}}) {
        size_t n = std::min(step, input.size() - pos);
        eng.feed(input.data() + pos, n);
        pos += n;
        // Every enabled state at offset >= 1 is in the precomputed
        // overapproximation — the invariant speculation relies on.
        for (StateId s : eng.frontier())
            EXPECT_TRUE(std::binary_search(reach.begin(), reach.end(), s))
                << "state " << s << " at offset " << pos;
    }
}

// ---------------------------------------------------------------------
// ParallelMatcher: speculative chunk joins must reproduce the serial
// report stream bit for bit.

/** Runs the matcher and checks the full result against one engine. */
void
expectParallelIdentical(const std::shared_ptr<const MatchContext> &ctx,
                        ParallelMatcher &pm,
                        const std::vector<uint8_t> &input,
                        const std::string &label)
{
    MatchEngine ref(ctx, engineOpts(SimKernel::Auto));
    ref.feed(input.data(), input.size());

    MatchResult got = pm.match(input.data(), input.size());
    EXPECT_EQ(got.reports, ref.takeReports()) << label;
    EXPECT_EQ(got.frontier, ref.frontier()) << label;
    EXPECT_EQ(got.endOffset, input.size()) << label;
}

TEST(ParallelMatcher, ReportIdenticalAcrossDegrees)
{
    Rng rng(4242);
    std::vector<std::string> rules = randomRules(rng);
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto input = randomWorkloadInput(rules, 64 << 10, 5);
    auto ctx = makeContext(m);

    for (size_t degree : {size_t{2}, size_t{4}, size_t{8}}) {
        ParallelOptions popts;
        popts.degree = degree;
        popts.minChunkBytes = 2 << 10; // force real chunking at 64 KiB
        popts.overlapBytes = 512;
        ParallelMatcher pm(ctx, popts);
        expectParallelIdentical(ctx, pm, input,
                                "degree " + std::to_string(degree));
        ParallelStats st = pm.stats();
        EXPECT_EQ(st.calls, 1u);
        EXPECT_EQ(st.serialCalls, 0u);
        EXPECT_EQ(st.chunks, degree);
        // Every speculative chunk either hit or was replayed.
        EXPECT_EQ(st.speculationHits + st.replays, degree - 1);
        EXPECT_EQ(st.bytes, input.size());
    }
}

TEST(ParallelMatcher, ReportsStraddlingChunkJoins)
{
    // Pattern instances planted exactly across every chunk boundary:
    // each "wxyz" starts 2 bytes before a join, so its report fires 2
    // bytes after — only correct if the speculative frontier carried
    // the partial match over the boundary (or the replay did).
    Nfa nfa = compileRuleset({"wxyz"});
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);

    const size_t chunk = 1024;
    const size_t n_chunks = 4;
    std::vector<uint8_t> input(chunk * n_chunks, '.');
    std::vector<Report> expect;
    for (size_t b = 1; b < n_chunks; ++b) {
        size_t start = b * chunk - 2;
        input[start] = 'w';
        input[start + 1] = 'x';
        input[start + 2] = 'y';
        input[start + 3] = 'z';
    }

    ParallelOptions popts;
    popts.degree = n_chunks;
    popts.minChunkBytes = chunk;
    popts.overlapBytes = 64;
    ParallelMatcher pm(ctx, popts);
    MatchResult got = pm.match(input.data(), input.size());

    MatchEngine ref(ctx, engineOpts(SimKernel::Sparse));
    ref.feed(input.data(), input.size());
    std::vector<Report> want = ref.takeReports();
    ASSERT_EQ(want.size(), n_chunks - 1); // one per straddled boundary
    EXPECT_EQ(got.reports, want);
    for (size_t b = 1; b < n_chunks; ++b)
        EXPECT_EQ(want[b - 1].offset, b * chunk + 1);
}

TEST(ParallelMatcher, AllInputStartRuleset)
{
    // "." reports on every byte from an always-enabled all-input start:
    // maximal report volume and a frontier dominated by the start set.
    Nfa nfa = compileRuleset({".", "aa"});
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);
    std::vector<uint8_t> input(16 << 10, 'a');

    ParallelOptions popts;
    popts.degree = 4;
    popts.minChunkBytes = 1 << 10;
    popts.overlapBytes = 128;
    ParallelMatcher pm(ctx, popts);
    expectParallelIdentical(ctx, pm, input, "all-input ruleset");
    // The all-input frontier converges instantly: every speculative
    // chunk must have joined for free.
    ParallelStats st = pm.stats();
    EXPECT_EQ(st.speculationHits, st.chunks - 1);
    EXPECT_EQ(st.replays, 0u);
}

TEST(ParallelMatcher, AnchoredRulesetDiesOutAndStillJoins)
{
    // '^'-anchored rules only match at offset 0; past the first bytes
    // the true frontier is empty, and the speculative warm-up must
    // converge to exactly that empty frontier.
    Nfa nfa = compileRuleset({"^abc", "^x+y"});
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);

    std::vector<uint8_t> input(8 << 10, '.');
    input[0] = 'a';
    input[1] = 'b';
    input[2] = 'c';

    ParallelOptions popts;
    popts.degree = 4;
    popts.minChunkBytes = 1 << 10;
    popts.overlapBytes = 256;
    ParallelMatcher pm(ctx, popts);
    MatchResult got = pm.match(input.data(), input.size());
    ASSERT_EQ(got.reports.size(), 1u);
    EXPECT_EQ(got.reports[0].offset, 2u);
    EXPECT_TRUE(got.frontier.empty());
    ParallelStats st = pm.stats();
    EXPECT_EQ(st.speculationHits, st.chunks - 1);
}

TEST(ParallelMatcher, EmptyOneByteAndSubMinimumBuffersRunSerially)
{
    Nfa nfa = compileRuleset({"a"});
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);
    ParallelOptions popts;
    popts.degree = 4;
    popts.minChunkBytes = 1 << 10;
    ParallelMatcher pm(ctx, popts);

    MatchResult empty = pm.match(nullptr, 0);
    EXPECT_TRUE(empty.reports.empty());
    EXPECT_EQ(empty.endOffset, 0u);

    uint8_t one = 'a';
    MatchResult single = pm.match(&one, 1);
    ASSERT_EQ(single.reports.size(), 1u);
    EXPECT_EQ(single.reports[0].offset, 0u);
    EXPECT_EQ(single.endOffset, 1u);

    std::vector<uint8_t> small(popts.minChunkBytes * 2 - 1, 'a');
    MatchResult sub = pm.match(small.data(), small.size());
    EXPECT_EQ(sub.reports.size(), small.size());

    ParallelStats st = pm.stats();
    EXPECT_EQ(st.calls, 3u);
    EXPECT_EQ(st.serialCalls, 3u); // none of the three chunked
}

TEST(ParallelMatcher, UnalignedChunksAndContinuationOffsets)
{
    std::vector<std::string> rules = {"abc", "x.y"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);
    // A prime-sized buffer over degree 3: chunk lengths differ and no
    // boundary is aligned to anything.
    auto input = randomWorkloadInput(rules, 24593, 13);

    ParallelOptions popts;
    popts.degree = 3;
    popts.minChunkBytes = 1 << 10;
    popts.overlapBytes = 200;
    ParallelMatcher pm(ctx, popts);

    // Continue from a mid-stream frontier at a non-zero offset, as the
    // StreamServer does with a session checkpoint.
    const size_t cut = 5000;
    MatchEngine head(ctx, engineOpts(SimKernel::Auto));
    head.feed(input.data(), cut);
    std::vector<Report> expect = head.takeReports();
    std::vector<StateId> frontier = head.frontier();
    head.feed(input.data() + cut, input.size() - cut);
    auto t = head.takeReports();
    expect.insert(expect.end(), t.begin(), t.end());

    MatchResult got =
        pm.match(frontier, cut, input.data() + cut, input.size() - cut);
    std::vector<Report> head_part(expect.begin(),
                                  expect.begin() +
                                      static_cast<long>(
                                          expect.size() -
                                          got.reports.size()));
    // got.reports must be exactly the tail of the serial stream.
    std::vector<Report> tail_part(
        expect.end() - static_cast<long>(got.reports.size()),
        expect.end());
    EXPECT_EQ(got.reports, tail_part);
    EXPECT_EQ(got.endOffset, input.size());
    EXPECT_EQ(got.frontier, head.frontier());
    (void)head_part;
}

TEST(ParallelMatcher, ZeroOverlapForcesReplaysAndStaysCorrect)
{
    // With no warm-up window the speculative start frontier is the raw
    // reachable overapproximation, which on this ruleset differs from
    // the true frontier — every speculative chunk must replay, and the
    // result must still be exact.
    std::vector<std::string> rules = {"ab", "j.*k"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);
    std::vector<uint8_t> input(8 << 10, '.'); // no 'j': dot-state stays off

    ParallelOptions popts;
    popts.degree = 4;
    popts.minChunkBytes = 1 << 10;
    popts.overlapBytes = 0;
    ParallelMatcher pm(ctx, popts);
    expectParallelIdentical(ctx, pm, input, "zero overlap");
    ParallelStats st = pm.stats();
    EXPECT_EQ(st.replays, st.chunks - 1);
    EXPECT_EQ(st.speculationHits, 0u);
    EXPECT_GT(st.replayedBytes, 0u);
}

TEST(ParallelMatcher, FuzzNChunkVsOneChunkReportIdentity)
{
    // Randomized identity fuzz: random rulesets, sizes, degrees,
    // overlaps, and continuation offsets — N-chunk == 1-chunk, always.
    for (int iter = 0; iter < 12; ++iter) {
        Rng rng(iter * 7919 + 1);
        std::vector<std::string> rules = randomRules(rng);
        Nfa nfa = compileRuleset(rules);
        MappedAutomaton m =
            iter % 2 ? mapSpace(nfa) : mapPerformance(nfa);
        auto ctx = makeContext(m);

        size_t bytes = 4096 + rng.below(60000);
        auto input = randomWorkloadInput(rules, bytes, iter + 500);

        ParallelOptions popts;
        popts.degree = 2 + rng.below(7);
        popts.minChunkBytes = 512 + rng.below(4096);
        popts.overlapBytes = rng.below(1024);
        ParallelMatcher pm(ctx, popts);
        expectParallelIdentical(ctx, pm, input,
                                "fuzz iter " + std::to_string(iter));
    }
}

TEST(ParallelMatcher, StatsAccumulateAcrossCalls)
{
    Nfa nfa = compileRuleset({"ab"});
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);
    ParallelOptions popts;
    popts.degree = 2;
    popts.minChunkBytes = 256;
    ParallelMatcher pm(ctx, popts);

    std::vector<uint8_t> input(4 << 10, 'a');
    pm.match(input.data(), input.size());
    pm.match(input.data(), input.size());
    uint8_t tiny = 'a';
    pm.match(&tiny, 1);

    ParallelStats st = pm.stats();
    EXPECT_EQ(st.calls, 3u);
    EXPECT_EQ(st.serialCalls, 1u);
    EXPECT_EQ(st.chunks, 2u * 2u + 1u);
    EXPECT_EQ(st.bytes, 2u * input.size() + 1);
    EXPECT_EQ(st.speculationHits + st.replays, 2u);
}

// ---------------------------------------------------------------------
// Validation helpers (CA_SIM_KERNEL and --match-parallel values).

TEST(MatchParallelParse, AcceptsOffAutoAndCounts)
{
    EXPECT_EQ(match::parseMatchParallel("off"), size_t{0});
    EXPECT_EQ(match::parseMatchParallel("0"), size_t{0});
    EXPECT_EQ(match::parseMatchParallel("1"), size_t{0});
    EXPECT_EQ(match::parseMatchParallel("none"), size_t{0});
    auto autod = match::parseMatchParallel("auto");
    ASSERT_TRUE(autod.has_value());
    EXPECT_GE(*autod, 1u);
    EXPECT_EQ(match::parseMatchParallel("2"), size_t{2});
    EXPECT_EQ(match::parseMatchParallel("16"), size_t{16});
    EXPECT_FALSE(match::parseMatchParallel("").has_value());
    EXPECT_FALSE(match::parseMatchParallel("fast").has_value());
    EXPECT_FALSE(match::parseMatchParallel("-3").has_value());
    EXPECT_FALSE(match::parseMatchParallel("2x").has_value());
    EXPECT_FALSE(match::parseMatchParallel("1.5").has_value());
}

TEST(KernelNameParse, AcceptsKnownNamesRejectsUnknown)
{
    EXPECT_EQ(parseKernelName("sparse"), SimKernel::Sparse);
    EXPECT_EQ(parseKernelName("dense"), SimKernel::Dense);
    EXPECT_EQ(parseKernelName("auto"), SimKernel::Auto);
    EXPECT_FALSE(parseKernelName("").has_value());
    EXPECT_FALSE(parseKernelName("Sparse").has_value());
    EXPECT_FALSE(parseKernelName("both").has_value());
    EXPECT_STREQ(kernelName(SimKernel::Sparse), "sparse");
    EXPECT_STREQ(kernelName(SimKernel::Dense), "dense");
    EXPECT_STREQ(kernelName(SimKernel::Auto), "auto");
}

// ---------------------------------------------------------------------
// Runtime integration: a StreamServer with matchParallelism routes big
// slices through the ParallelMatcher and stays report-identical.

TEST(StreamServerParallel, SingleStreamMatchesSerialRun)
{
    std::vector<std::string> rules = {"cat", "do+g", "j.*k"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto input = randomWorkloadInput(rules, 512 << 10, 77);

    CacheAutomatonSim ref(m);
    SimResult expect = ref.run(input);

    runtime::StreamServerOptions sopts;
    sopts.workers = 2;
    sopts.matchParallelism = 4;
    sopts.matchParallelMinBytes = 16 << 10;
    runtime::StreamServer server(m, sopts);
    runtime::CollectingSink sink;
    runtime::StreamSession &session = server.open(sink);
    uint32_t id = session.id();

    // Big submissions so slices gather enough for the parallel path.
    const size_t mtu = 128 << 10;
    for (size_t pos = 0; pos < input.size(); pos += mtu) {
        size_t n = std::min(mtu, input.size() - pos);
        session.submit(input.data() + pos, n);
    }
    session.close();

    EXPECT_EQ(sink.reports(id), expect.reports);
    runtime::ServerInspect in = server.inspect();
    ASSERT_NE(server.parallelMatcher(), nullptr);
    EXPECT_EQ(in.matchParallelism, 4u);
    EXPECT_EQ(server.parallelMatcher()->degree(), 4u);
    // The parallel path really ran (not every slice need qualify).
    EXPECT_GT(in.match.calls, 0u);
    EXPECT_GT(in.match.bytes, 0u);
}

TEST(StreamServerParallel, ManySessionsStayDeterministic)
{
    // Concurrent sessions contend for the one matcher; tryMatch's
    // fallback keeps every stream's report order deterministic.
    std::vector<std::string> rules = {"ab", "x[yz]w"};
    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = makeContext(m);
    auto input = randomWorkloadInput(rules, 96 << 10, 9);
    std::vector<Report> expect = serialReports(ctx, input);

    runtime::StreamServerOptions sopts;
    sopts.workers = 4;
    sopts.matchParallelism = 2;
    sopts.matchParallelMinBytes = 8 << 10;
    runtime::StreamServer server(m, sopts);
    runtime::CollectingSink sink;

    std::vector<runtime::StreamSession *> sessions;
    for (int i = 0; i < 6; ++i)
        sessions.push_back(&server.open(sink));
    for (runtime::StreamSession *s : sessions)
        s->submit(input.data(), input.size());
    for (runtime::StreamSession *s : sessions)
        s->close();
    for (runtime::StreamSession *s : sessions)
        EXPECT_EQ(sink.reports(s->id()), expect);
}

TEST(StreamServerParallel, DisabledByDefault)
{
    Nfa nfa = compileRuleset({"a"});
    MappedAutomaton m = mapPerformance(nfa);
    runtime::StreamServer server(m);
    EXPECT_EQ(server.parallelMatcher(), nullptr);
    EXPECT_EQ(server.inspect().matchParallelism, 0u);
}

} // namespace
} // namespace ca
