/**
 * @file
 * Tests for the simulator's hardware accounting on the one path the
 * kernels never step: a dead stream (no enabled state, no all-input
 * start), whose blocks MatchEngine skips. ActivityObserver must still
 * count every skipped cycle exactly — symbols, FIFO refills on the
 * absolute-offset cadence, all-zero trace rows — under every kernel, and
 * the engine's kernel-decision counters must still cover every byte.
 */
#include <gtest/gtest.h>

#include <string>

#include "compiler/mapping.h"
#include "nfa/glushkov.h"
#include "sim/engine.h"

namespace ca {
namespace {

/** Offsets in [from, from + n) that start a FIFO refill batch. */
uint64_t
refillsIn(uint64_t from, uint64_t n, uint64_t every)
{
    uint64_t count = 0;
    for (uint64_t off = from; off < from + n; ++off)
        count += off % every == 0 ? 1 : 0;
    return count;
}

/** "GET /in" keeps ^GET /index alive for 7 symbols; 'x' kills it. */
std::vector<uint8_t>
dyingInput(size_t n)
{
    std::string s = "GET /inx";
    s.resize(n, 'q');
    return {s.begin(), s.end()};
}

SimOptions
tracedOpts(SimKernel k)
{
    SimOptions opts;
    opts.kernel = k;
    opts.recordTrace = true;
    opts.fifoRefillSymbols = 64;
    return opts;
}

TEST(DeadStream, SkippedCyclesAreCountedUnderEveryKernel)
{
    MappedAutomaton m = mapPerformance(compileRuleset({"^GET /index"}));
    const std::vector<uint8_t> input = dyingInput(10000);

    std::vector<SimResult> results;
    for (SimKernel k :
         {SimKernel::Sparse, SimKernel::Dense, SimKernel::Auto}) {
        // 1000-byte feeds: every feed after the first starts dead, so
        // the engine skips it whole (Auto's blocks fit in one feed).
        CacheAutomatonSim sim(m, tracedOpts(k));
        for (size_t pos = 0; pos < input.size(); pos += 1000)
            sim.feed(input.data() + pos, 1000);
        SimResult r = sim.result();

        EXPECT_EQ(r.symbols, input.size());
        EXPECT_EQ(r.cycles, input.size() + 2);
        EXPECT_EQ(r.fifoRefills, refillsIn(0, input.size(), 64));
        EXPECT_TRUE(r.reports.empty());
        EXPECT_EQ(r.sparseKernelSymbols + r.denseKernelSymbols,
                  input.size());
        KernelDecisionStats ks = sim.kernelStats();
        EXPECT_EQ(ks.sparseSymbols + ks.denseSymbols, input.size());

        // One trace row per cycle; after 'x' at offset 7 every row is
        // idle, and the totals are the trace sums.
        ASSERT_EQ(r.trace.size(), input.size());
        uint64_t active = 0, partitions = 0;
        for (size_t i = 0; i < r.trace.size(); ++i) {
            active += r.trace[i].activeStates;
            partitions += r.trace[i].activePartitions;
            if (i > 7) {
                EXPECT_EQ(r.trace[i], CycleTrace{}) << "cycle " << i;
            }
        }
        EXPECT_EQ(active, r.totalActiveStates);
        EXPECT_EQ(partitions, r.totalActivePartitionCycles);
        EXPECT_EQ(r.totalActiveStates, 7u);
        results.push_back(r);
    }
    for (const SimResult &r : results) {
        EXPECT_EQ(r.trace, results[0].trace);
        EXPECT_EQ(r.totalEnabledStates, results[0].totalEnabledStates);
        EXPECT_EQ(r.outputBufferInterrupts,
                  results[0].outputBufferInterrupts);
    }
}

TEST(DeadStream, AutoSkipsBlocksInsideOneFeed)
{
    MappedAutomaton m = mapPerformance(compileRuleset({"^GET /index"}));
    const std::vector<uint8_t> input = dyingInput(5000);
    SimOptions opts = tracedOpts(SimKernel::Auto);
    opts.autoBlockSymbols = 256; // dead from the second block on
    CacheAutomatonSim sim(m, opts);
    SimResult r = sim.run(input);
    CacheAutomatonSim sparse(m, tracedOpts(SimKernel::Sparse));
    SimResult expect = sparse.run(input);

    EXPECT_EQ(r.symbols, expect.symbols);
    EXPECT_EQ(r.fifoRefills, expect.fifoRefills);
    EXPECT_EQ(r.totalActiveStates, expect.totalActiveStates);
    EXPECT_EQ(r.totalEnabledStates, expect.totalEnabledStates);
    EXPECT_EQ(r.trace, expect.trace);
    EXPECT_EQ(r.sparseKernelSymbols + r.denseKernelSymbols, input.size());
}

TEST(DeadStream, ResumedDeadCheckpointKeepsTheAbsoluteFifoCadence)
{
    MappedAutomaton m = mapPerformance(compileRuleset({"^GET /index"}));
    const std::vector<uint8_t> input = dyingInput(1000);
    SimCheckpoint dead;
    dead.symbolOffset = 100; // mid-batch: refills at 128, 192, ...
    for (SimKernel k : {SimKernel::Sparse, SimKernel::Dense}) {
        CacheAutomatonSim sim(m, tracedOpts(k));
        sim.restore(dead);
        sim.feed(input.data(), input.size());
        SimResult r = sim.result();
        EXPECT_EQ(r.symbols, input.size());
        EXPECT_EQ(r.fifoRefills, refillsIn(100, input.size(), 64));
        EXPECT_EQ(r.trace, std::vector<CycleTrace>(input.size()));
        EXPECT_EQ(sim.streamOffset(), 100 + input.size());
        EXPECT_TRUE(sim.checkpoint().enabledStates.empty());
    }
}

} // namespace
} // namespace ca
