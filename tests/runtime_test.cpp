/**
 * @file
 * Tests for the multi-stream runtime (src/runtime).
 *
 * The load-bearing property is determinism: for any worker count, slice
 * quantum, chunk split, and scheduling interleaving, each session's
 * delivered report stream must be byte-identical to a single-threaded
 * run of the CPU oracle, NfaEngine, over the same input. The stress tests
 * below randomize all of those dimensions; the suite is also the target of
 * the ThreadSanitizer CI configuration (scripts/ci.sh).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "baseline/nfa_engine.h"
#include "core/error.h"
#include "core/rng.h"
#include "compiler/mapping.h"
#include "nfa/glushkov.h"
#include "runtime/report_sink.h"
#include "runtime/stream_server.h"
#include "sim/engine.h"
#include "workload/input_gen.h"

namespace ca {
namespace {

using runtime::CallbackSink;
using runtime::CollectingSink;
using runtime::CountingSink;
using runtime::SessionSummary;
using runtime::StreamServer;
using runtime::StreamServerOptions;
using runtime::StreamSession;

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

TEST(StreamServer, SingleSessionMatchesSingleThreadedRun)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(16 << 10, 3);
    auto expect = oracleReports(m, input);

    CollectingSink sink;
    StreamServer server(m);
    StreamSession &s = server.open(sink);
    s.submit(input);
    s.close();

    EXPECT_EQ(sink.reports(s.id()), expect);
    SessionSummary sum = sink.summary(s.id());
    EXPECT_EQ(sum.symbols, input.size());
    EXPECT_EQ(sum.reports, expect.size());
    EXPECT_TRUE(s.closed());
}

TEST(StreamServer, TinySliceForcesContextSwitchesSameReports)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(16 << 10, 5);
    auto expect = oracleReports(m, input);

    StreamServerOptions opts;
    opts.workers = 2;
    opts.sliceSymbols = 257; // quantum << chunk size: suspends mid-chunk
    CollectingSink sink;
    StreamServer server(m, opts);
    StreamSession &s = server.open(sink);
    s.submit(input); // one big chunk
    s.close();

    EXPECT_EQ(sink.reports(s.id()), expect);
    auto st = s.stats();
    EXPECT_GT(st.slices, 1u);
    EXPECT_GT(st.contextSwitches, 0u);
    EXPECT_EQ(st.symbols, input.size());
}

TEST(StreamServer, FlushDeliversEverythingSubmittedSoFar)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(8 << 10, 7);
    size_t cut = input.size() / 2;

    CollectingSink sink;
    StreamServer server(m);
    StreamSession &s = server.open(sink);
    s.submit(input.data(), cut);
    s.flush();

    CacheAutomatonSim head(m);
    head.reset();
    head.feed(input.data(), cut);
    EXPECT_EQ(sink.reports(s.id()), head.result().reports);

    s.submit(input.data() + cut, input.size() - cut);
    s.close();
    EXPECT_EQ(sink.reports(s.id()), oracleReports(m, input));
}

TEST(StreamServer, SubmitAfterCloseRejected)
{
    MappedAutomaton m = sampleMapped();
    CountingSink sink;
    StreamServer server(m);
    StreamSession &s = server.open(sink);
    s.close();
    uint8_t byte = 'x';
    EXPECT_THROW(s.submit(&byte, 1), CaError);
    EXPECT_THROW(s.trySubmit(&byte, 1), CaError);
}

TEST(StreamServer, CloseWithoutInputStillClosesSink)
{
    MappedAutomaton m = sampleMapped();
    CollectingSink sink;
    StreamServer server(m);
    StreamSession &s = server.open(sink);
    s.close();
    EXPECT_EQ(sink.sessionsClosed(), 1u);
    EXPECT_EQ(sink.summary(s.id()).symbols, 0u);
}

TEST(StreamServer, TrySubmitRefusesWhenQueueFull)
{
    MappedAutomaton m = sampleMapped();
    StreamServerOptions opts;
    opts.workers = 1;
    opts.sessionQueueDepth = 2;
    CountingSink sink;
    StreamServer server(m, opts);
    StreamSession &s = server.open(sink);

    // Suspended sessions retain queued input, so the queue must fill.
    (void)s.suspend();
    std::vector<uint8_t> chunk(64, 'a');
    EXPECT_TRUE(s.trySubmit(chunk.data(), chunk.size()));
    EXPECT_TRUE(s.trySubmit(chunk.data(), chunk.size()));
    EXPECT_FALSE(s.trySubmit(chunk.data(), chunk.size()));
    s.resume();
    s.close();
    EXPECT_EQ(sink.totalSymbols(), 2 * chunk.size());
}

TEST(StreamServer, BlockingSubmitAppliesBackpressure)
{
    MappedAutomaton m = sampleMapped();
    StreamServerOptions opts;
    opts.workers = 2;
    opts.sessionQueueDepth = 2;
    CountingSink sink;
    StreamServer server(m, opts);
    StreamSession &s = server.open(sink);

    // Suspend so the queue cannot drain, fill it, then block a producer.
    (void)s.suspend();
    std::vector<uint8_t> chunk(64, 'a');
    ASSERT_TRUE(s.trySubmit(chunk.data(), chunk.size()));
    ASSERT_TRUE(s.trySubmit(chunk.data(), chunk.size()));
    std::thread producer([&] { s.submit(chunk.data(), chunk.size()); });
    // The producer registers its stall before waiting, so this loop
    // terminates exactly when it is parked on the full queue.
    while (s.stats().queueFullStalls == 0)
        std::this_thread::yield();
    s.resume(); // drain unblocks the producer
    producer.join();
    s.close();
    EXPECT_EQ(sink.totalSymbols(), 3 * chunk.size());
    EXPECT_GE(s.stats().queueFullStalls, 1u);
}

TEST(StreamServer, CallbackSinkSeesOrderedBatches)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(8 << 10, 11);
    auto expect = oracleReports(m, input);

    std::vector<Report> got;
    std::atomic<int> closes{0};
    CallbackSink sink(
        [&](uint32_t, const Report *r, size_t n) {
            got.insert(got.end(), r, r + n);
        },
        [&](uint32_t, const SessionSummary &) { ++closes; });

    StreamServerOptions opts;
    opts.workers = 1; // single worker: `got` needs no locking
    opts.sliceSymbols = 300;
    StreamServer server(m, opts);
    StreamSession &s = server.open(sink);
    for (size_t pos = 0; pos < input.size(); pos += 777)
        s.submit(input.data() + pos, std::min<size_t>(777, input.size() - pos));
    s.close();

    EXPECT_EQ(got, expect);
    EXPECT_EQ(closes.load(), 1);
}

TEST(StreamServer, SuspendResumeMidStream)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(8 << 10, 13);
    auto expect = oracleReports(m, input);

    StreamServerOptions opts;
    opts.workers = 2;
    opts.sliceSymbols = 200;
    CollectingSink sink;
    StreamServer server(m, opts);
    StreamSession &s = server.open(sink);
    s.submit(input.data(), input.size() / 2);
    SimCheckpoint ckpt = s.suspend();
    // The checkpoint is a consistent §2.9 snapshot: offset in [0, half].
    EXPECT_LE(ckpt.symbolOffset, input.size() / 2);
    s.resume();
    s.submit(input.data() + input.size() / 2,
             input.size() - input.size() / 2);
    s.close();
    EXPECT_EQ(sink.reports(s.id()), expect);
}

/**
 * §2.9 migration: suspend a session, seed a *new* session (fresh server,
 * same mapped automaton) from its checkpoint, feed the remainder there.
 * Report offsets keep the original stream's absolute numbering.
 */
TEST(StreamServer, CheckpointMigratesAcrossServers)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(8 << 10, 15);
    auto expect = oracleReports(m, input);

    CollectingSink sink_a;
    StreamServer server_a(m);
    StreamSession &sa = server_a.open(sink_a);
    sa.submit(input.data(), input.size() / 3);
    sa.flush(); // drain so the checkpoint covers everything submitted
    SimCheckpoint ckpt = sa.suspend();
    EXPECT_EQ(ckpt.symbolOffset, input.size() / 3);
    sa.resume();
    sa.close();

    CollectingSink sink_b;
    StreamServer server_b(m);
    StreamSession &sb = server_b.open(sink_b, ckpt);
    sb.submit(input.data() + input.size() / 3,
              input.size() - input.size() / 3);
    sb.close();

    std::vector<Report> stitched = sink_a.reports(sa.id());
    auto tail = sink_b.reports(sb.id());
    stitched.insert(stitched.end(), tail.begin(), tail.end());
    EXPECT_EQ(stitched, expect);
}

TEST(StreamServer, SuspendBeforeFirstSliceYieldsStartFrontier)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(4 << 10, 19);

    CollectingSink sink;
    StreamServer server(m);
    StreamSession &s = server.open(sink);
    // Never scheduled: the checkpoint must still be a live automaton
    // (offset 0, start frontier), not an empty dead one.
    SimCheckpoint ckpt = s.suspend();
    EXPECT_EQ(ckpt.symbolOffset, 0u);
    EXPECT_FALSE(ckpt.enabledStates.empty());

    StreamSession &fresh = server.open(sink, ckpt);
    fresh.submit(input);
    fresh.close();
    EXPECT_EQ(sink.reports(fresh.id()), oracleReports(m, input));
    s.resume();
    s.close();
}

TEST(StreamServer, ResumeCheckpointValidated)
{
    MappedAutomaton m = sampleMapped();
    CountingSink sink;
    StreamServer server(m);
    SimCheckpoint bogus;
    bogus.enabledStates = {static_cast<StateId>(1u << 30)};
    EXPECT_THROW(server.open(sink, bogus), CaError);
}

/**
 * Regression: open() must reject a checkpoint whose scores are not
 * parallel to its states. Accepting it deferred the error to the first
 * slice's restore, which throws on a worker thread, where nothing
 * catches it and the whole server terminates.
 */
TEST(StreamServer, ResumeCheckpointScoresMustParallelStates)
{
    MappedAutomaton m = sampleMapped();
    CountingSink sink;
    StreamServer server(m);
    SimCheckpoint bogus;
    bogus.enabledStates = {0};
    bogus.enabledScores = {1, 2};
    EXPECT_THROW(server.open(sink, bogus), CaError);
    EXPECT_EQ(server.stats().sessionsOpened, 0u);
}

/**
 * Every symbol a worker serves is counted in its engine's kernel stats,
 * including the bytes of a dead stream, which the engine skips without
 * stepping: with the ParallelMatcher off, sparse plus dense symbols over
 * all workers equal the server's symbol total. Checked on an unanchored
 * ruleset and on an anchored one whose frontier dies after a few bytes.
 */
TEST(StreamServer, WorkerKernelStatsCountEveryServedSymbol)
{
    std::vector<uint8_t> anchored_input = sampleInput(16 << 10, 29);
    const std::string prefix = "GET /in"; // lives 7 bytes, then dies
    std::copy(prefix.begin(), prefix.end(), anchored_input.begin());
    struct Case
    {
        const char *name;
        MappedAutomaton mapped;
        std::vector<uint8_t> input;
    };
    const Case cases[] = {
        {"unanchored", sampleMapped(), sampleInput(16 << 10, 31)},
        {"anchored", mapPerformance(compileRuleset({"^GET /index"})),
         anchored_input},
    };
    for (const Case &c : cases) {
        StreamServerOptions opts;
        opts.workers = 2;
        opts.sliceSymbols = 1000;
        CollectingSink sink;
        StreamServer server(c.mapped, opts);
        std::vector<StreamSession *> sessions;
        for (int i = 0; i < 3; ++i)
            sessions.push_back(&server.open(sink));
        for (size_t pos = 0; pos < c.input.size(); pos += 3000)
            for (StreamSession *s : sessions)
                s->submit(c.input.data() + pos,
                          std::min<size_t>(3000, c.input.size() - pos));
        for (StreamSession *s : sessions)
            s->close();

        runtime::ServerInspect snap = server.inspect();
        uint64_t kernel_symbols = 0;
        for (const KernelDecisionStats &k : snap.kernels)
            kernel_symbols += k.sparseSymbols + k.denseSymbols;
        EXPECT_EQ(snap.totals.symbols, 3 * c.input.size()) << c.name;
        EXPECT_EQ(kernel_symbols, snap.totals.symbols) << c.name;
        for (StreamSession *s : sessions)
            EXPECT_EQ(sink.reports(s->id()),
                      oracleReports(c.mapped, c.input))
                << c.name;
    }
}

/**
 * Satellite regression: a SimCheckpoint taken mid-chunk on one thread
 * and restored on a different thread continues the stream exactly (the
 * runtime does this on every context switch; this pins the engine-level
 * contract without scheduler nondeterminism).
 */
TEST(StreamServer, CheckpointRoundTripAcrossThreads)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(8 << 10, 17);
    NfaEngine oracle(m.nfa());
    auto expect = oracle.run(input);

    size_t cut = input.size() / 2 + 13; // mid-chunk, odd offset
    SimCheckpoint ckpt;
    std::vector<Report> head;
    std::thread a([&] {
        CacheAutomatonSim sim(m);
        sim.reset();
        sim.feed(input.data(), cut);
        head = sim.takeReports();
        ckpt = sim.checkpoint();
    });
    a.join();

    std::vector<Report> tail;
    std::thread b([&] {
        CacheAutomatonSim sim(m);
        sim.restore(ckpt);
        sim.feed(input.data() + cut, input.size() - cut);
        tail = sim.takeReports();
    });
    b.join();

    head.insert(head.end(), tail.begin(), tail.end());
    EXPECT_EQ(head, expect);
}

/**
 * Acceptance stress: 10 sessions on 4 workers, independent randomized
 * streams submitted from concurrent producer threads in randomized chunk
 * splits, tiny quantum + shallow queues so sessions outnumber workers
 * and get context-switched constantly. Every session's report stream
 * must equal its single-threaded oracle, byte for byte.
 */
TEST(StreamServerStress, ManySessionsManyWorkersDeterministic)
{
    MappedAutomaton m = sampleMapped();
    constexpr size_t kSessions = 10;
    constexpr size_t kWorkers = 4;

    std::vector<std::vector<uint8_t>> inputs;
    std::vector<std::vector<Report>> expects;
    for (size_t i = 0; i < kSessions; ++i) {
        inputs.push_back(sampleInput((8 << 10) + 917 * i, 100 + i));
        expects.push_back(oracleReports(m, inputs.back()));
    }

    StreamServerOptions opts;
    opts.workers = kWorkers;
    opts.sessionQueueDepth = 3;
    opts.sliceSymbols = 409; // prime, < chunk sizes: mid-chunk switches
    CollectingSink sink;
    StreamServer server(m, opts);

    std::vector<StreamSession *> sessions;
    for (size_t i = 0; i < kSessions; ++i)
        sessions.push_back(&server.open(sink));

    std::vector<std::thread> producers;
    for (size_t i = 0; i < kSessions; ++i) {
        producers.emplace_back([&, i] {
            Rng rng(31 * i + 7);
            const auto &in = inputs[i];
            size_t pos = 0;
            while (pos < in.size()) {
                size_t n = std::min<size_t>(1 + rng.below(2048),
                                            in.size() - pos);
                sessions[i]->submit(in.data() + pos, n);
                pos += n;
            }
            sessions[i]->close();
        });
    }
    for (auto &t : producers)
        t.join();

    uint64_t total_symbols = 0;
    uint64_t total_reports = 0;
    for (size_t i = 0; i < kSessions; ++i) {
        EXPECT_EQ(sink.reports(sessions[i]->id()), expects[i])
            << "session " << i;
        total_symbols += inputs[i].size();
        total_reports += expects[i].size();
    }
    EXPECT_EQ(sink.sessionsClosed(), kSessions);

    auto st = server.stats();
    EXPECT_EQ(st.sessionsOpened, kSessions);
    EXPECT_EQ(st.sessionsClosed, kSessions);
    EXPECT_EQ(st.symbols, total_symbols);
    EXPECT_EQ(st.reports, total_reports);
    EXPECT_GT(st.contextSwitches, 0u);
}

/** Same stress through the destructor path: ~StreamServer drains. */
TEST(StreamServerStress, DestructorClosesOpenSessions)
{
    MappedAutomaton m = sampleMapped();
    auto input = sampleInput(8 << 10, 21);
    auto expect = oracleReports(m, input);

    CollectingSink sink;
    uint32_t id = 0;
    {
        StreamServerOptions opts;
        opts.workers = 3;
        opts.sliceSymbols = 333;
        StreamServer server(m, opts);
        StreamSession &s = server.open(sink);
        id = s.id();
        s.submit(input);
        // No close(): the server destructor must drain and finalize.
    }
    EXPECT_EQ(sink.reports(id), expect);
    EXPECT_EQ(sink.sessionsClosed(), 1u);
}

/** Randomized option sweep: every combination stays deterministic. */
class RuntimeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RuntimeProperty, RandomConfigMatchesOracle)
{
    Rng rng(GetParam() * 7919 + 3);
    Nfa nfa = compileRuleset({"ab+c", "x[yz]{1,3}w", "m.*n"});
    MappedAutomaton m = mapSpace(nfa);

    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"abc", "xyw", "mn"};
    spec.plantsPer4k = 24.0;

    StreamServerOptions opts;
    opts.workers = 1 + rng.below(4);
    opts.sessionQueueDepth = 1 + rng.below(4);
    opts.sliceSymbols = 1 + rng.below(2000);
    CollectingSink sink;
    StreamServer server(m, opts);

    const size_t n_sessions = 2 + rng.below(4);
    std::vector<StreamSession *> sessions;
    std::vector<std::vector<uint8_t>> inputs;
    for (size_t i = 0; i < n_sessions; ++i) {
        sessions.push_back(&server.open(sink));
        inputs.push_back(
            buildInput(spec, (2 << 10) + rng.below(4 << 10),
                       GetParam() * 131 + i));
    }
    // Interleaved round-robin submission with random chunk sizes.
    std::vector<size_t> pos(n_sessions, 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (size_t i = 0; i < n_sessions; ++i) {
            if (pos[i] >= inputs[i].size())
                continue;
            size_t n = std::min<size_t>(1 + rng.below(1500),
                                        inputs[i].size() - pos[i]);
            sessions[i]->submit(inputs[i].data() + pos[i], n);
            pos[i] += n;
            progress = true;
        }
    }
    for (auto *s : sessions)
        s->close();
    for (size_t i = 0; i < n_sessions; ++i)
        EXPECT_EQ(sink.reports(sessions[i]->id()),
                  oracleReports(m, inputs[i]))
            << "session " << i;
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, RuntimeProperty,
                         ::testing::Range(0, 8));

} // namespace
} // namespace ca
