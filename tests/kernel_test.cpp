/**
 * @file
 * Tests for the simulator's execution kernels (SimKernel): the dense
 * bit-parallel stepper and the Auto density selector must produce
 * report streams and activity counters bit-identical to the sparse
 * kernel and the CPU oracle, on randomized automata, under both
 * mapping policies, across checkpoints, and through the incremental
 * streaming API. Also home to the sim-semantics regression tests:
 * run()-with-one-off-options restoring the bound options, and exact
 * §2.8 output-buffer interrupt accounting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "match/match_engine.h"
#include "nfa/glushkov.h"
#include "sim/engine.h"
#include "workload/input_gen.h"
#include "workload/rulegen.h"

namespace ca {
namespace {

SimOptions
kernelOpts(SimKernel k)
{
    SimOptions opts;
    opts.kernel = k;
    return opts;
}

/** Everything two kernels must agree on, bit for bit. */
void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &label)
{
    EXPECT_EQ(a.reports, b.reports) << label;
    EXPECT_EQ(a.symbols, b.symbols) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.totalActivePartitionCycles,
              b.totalActivePartitionCycles)
        << label;
    EXPECT_EQ(a.totalActiveStates, b.totalActiveStates) << label;
    EXPECT_EQ(a.totalEnabledStates, b.totalEnabledStates) << label;
    EXPECT_EQ(a.totalG1Crossings, b.totalG1Crossings) << label;
    EXPECT_EQ(a.totalG4Crossings, b.totalG4Crossings) << label;
    EXPECT_EQ(a.fifoRefills, b.fifoRefills) << label;
    EXPECT_EQ(a.outputBufferInterrupts, b.outputBufferInterrupts)
        << label;
}

/** True when $CA_SIM_KERNEL pins every sim to one kernel (CI sweeps). */
bool
kernelPinnedByEnv()
{
    const char *env = std::getenv("CA_SIM_KERNEL");
    return env && *env;
}

// Property: on randomized rulesets and inputs, under both mapping
// policies, the three kernels and the CPU oracle agree on the report
// stream and every activity counter.
class KernelEquality : public ::testing::TestWithParam<int>
{
};

TEST_P(KernelEquality, DenseAndAutoMatchSparseAndOracle)
{
    int param = GetParam();
    bool space = param % 2 == 1;
    Rng rng(param * 74093 + 11);

    static const char *kBlocks[] = {
        "ab", "c+", "(d|ef)", "[g-i]{1,2}", "j.*k", "[lm]", "n?o",
        ".",
    };
    // Every rule ends in two long blocks. Their chains lay next edges
    // across words (bit 63 to bit 0 of the next word) in every ruleset,
    // and 18 of the 24 rulesets span three partitions or more.
    const std::string literal = "pqrstuvwpqrstuvwpqrstuvwpqrstuvwpqrstuvw"
                                "pqrstuvwpqrstuvwpqrstuvwpqrstu";
    const std::string kLongBlocks[] = {literal, "[a-f]{40}",
                                       literal + "x.*y"};
    std::vector<std::string> rules;
    int n_rules = 2 + static_cast<int>(rng.below(8));
    for (int r = 0; r < n_rules; ++r) {
        std::string pat;
        int blocks = 1 + static_cast<int>(rng.below(4));
        for (int b = 0; b < blocks; ++b)
            pat += kBlocks[rng.below(std::size(kBlocks))];
        for (int b = 0; b < 2; ++b)
            pat += kLongBlocks[rng.below(std::size(kLongBlocks))];
        rules.push_back(pat);
    }

    Nfa nfa = compileRuleset(rules);
    MappedAutomaton m = space ? mapSpace(nfa) : mapPerformance(nfa);

    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = rules;
    spec.plantsPer4k = 32.0;
    auto input = buildInput(spec, 8 << 10, param);

    CacheAutomatonSim sparse(m, kernelOpts(SimKernel::Sparse));
    CacheAutomatonSim dense(m, kernelOpts(SimKernel::Dense));
    SimOptions auto_opts = kernelOpts(SimKernel::Auto);
    auto_opts.autoBlockSymbols = 256; // force several re-evaluations
    CacheAutomatonSim auto_sim(m, auto_opts);

    SimResult sp = sparse.run(input);
    SimResult de = dense.run(input);
    SimResult au = auto_sim.run(input);
    expectSameResult(de, sp, "dense vs sparse");
    expectSameResult(au, sp, "auto vs sparse");

    NfaEngine oracle(m.nfa());
    std::vector<Report> expect = oracle.run(input);
    EXPECT_EQ(sp.reports, expect);
    EXPECT_EQ(de.reports, expect);
    EXPECT_FALSE(expect.empty());
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, KernelEquality,
                         ::testing::Range(0, 24));

TEST(Kernel, DenseHandlesCrossPartitionEdges)
{
    // A 600-state chain splits across partitions, so the dense kernel
    // must route its G-switch CSR, not just the L-switch masks.
    std::string rule(600, 'a');
    Nfa nfa = compileRuleset({rule});
    MappedAutomaton m = mapPerformance(nfa);
    ASSERT_GT(m.crossEdges().size(), 0u);

    std::vector<uint8_t> input(1200, 'a');
    CacheAutomatonSim sparse(m, kernelOpts(SimKernel::Sparse));
    CacheAutomatonSim dense(m, kernelOpts(SimKernel::Dense));
    SimResult sp = sparse.run(input.data(), input.size());
    SimResult de = dense.run(input.data(), input.size());
    expectSameResult(de, sp, "chain across partitions");
    EXPECT_GT(de.totalG1Crossings, 0u);
    if (!kernelPinnedByEnv()) {
        EXPECT_EQ(de.denseKernelSymbols, de.symbols);
        EXPECT_EQ(sp.sparseKernelSymbols, sp.symbols);
    }
}

/**
 * @p nfa placed in state-id order, 256 states to a partition. A Glushkov
 * chain then runs slot after slot straight across word and partition
 * boundaries, where the mapper would cut it.
 */
MappedAutomaton
packInIdOrder(const Nfa &nfa)
{
    const StateId n = static_cast<StateId>(nfa.numStates());
    std::vector<SteLocation> where(n);
    std::vector<PartitionInfo> parts((n + 255) / 256);
    std::vector<CrossEdge> cross;
    for (StateId s = 0; s < n; ++s) {
        where[s] = {s / 256, static_cast<uint16_t>(s % 256)};
        parts[s / 256].states.push_back(s);
        for (StateId t : nfa.state(s).out)
            if (s / 256 != t / 256)
                cross.push_back({s, t, false});
    }
    return MappedAutomaton::fromParts(nfa, mapPerformance(nfa).design(),
                                      std::move(where), std::move(parts),
                                      std::move(cross), MappingStats{});
}

TEST(Kernel, DenseShiftEdgesCrossWordsAndPartitions)
{
    // Three rules of twelve 117-letter chains, packed in id order, fill
    // 16 partitions and the 17th to column 203. Their chains step next
    // edges from bit 63 of a word, from column 255 of a partition, and
    // from slot 4095 into slot 4096, the first word of the dense step's
    // second summary word; the last rule's tail runs through the
    // frontier's last word. The glue between the chains (alternation,
    // `.*`, `?`) gives non-start states exception edges (k to k + 2 and
    // further).
    std::string chain;
    for (int i = 0; i < 117; ++i)
        chain += static_cast<char>('a' + i % 20);
    auto rule = [&](const std::string &glue) {
        std::string r = chain;
        for (int i = 0; i < 11; ++i)
            r += glue + chain;
        return r;
    };
    const std::vector<std::string> rules = {rule("(d|ef)"), rule("j.*k"),
                                            rule("n?o")};
    MappedAutomaton m = packInIdOrder(compileRuleset(rules));
    ASSERT_EQ(m.nfa().numStates(), 16u * 256 + 204);
    auto ctx = std::make_shared<const match::MatchContext>(m);
    bool next_at_bit63 = false, next_at_col255 = false;
    for (StateId s = 0; s < m.nfa().numStates(); ++s) {
        for (StateId t : m.nfa().state(s).out) {
            const uint32_t k = ctx->slot(s);
            if (ctx->slot(t) == k + 1 && k % 64 == 63)
                (k % 256 == 255 ? next_at_col255 : next_at_bit63) = true;
        }
    }
    EXPECT_TRUE(next_at_bit63);
    EXPECT_TRUE(next_at_col255);
    // Slot 4095's only edge is its next edge, so the carry alone enables
    // slot 4096.
    EXPECT_EQ(m.nfa().state(4095).out, std::vector<StateId>{4096});

    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = rules;
    spec.plantsPer4k = 32.0;
    auto input = buildInput(spec, 32 << 10, 41);

    // The frontier reaches the last word.
    match::MatchOptions dense_opts;
    dense_opts.kernel = SimKernel::Dense;
    match::MatchEngine engine(ctx, dense_opts);
    bool last_word_live = false;
    for (uint8_t c : input) {
        engine.feed(&c, 1);
        for (StateId s : engine.frontier())
            last_word_live |= ctx->slot(s) + 64 >= ctx->numSlots();
    }
    EXPECT_TRUE(last_word_live);

    CacheAutomatonSim sparse(m, kernelOpts(SimKernel::Sparse));
    CacheAutomatonSim dense(m, kernelOpts(SimKernel::Dense));
    SimOptions auto_opts = kernelOpts(SimKernel::Auto);
    auto_opts.autoBlockSymbols = 256;
    CacheAutomatonSim auto_sim(m, auto_opts);
    SimResult sp = sparse.run(input);
    expectSameResult(dense.run(input), sp, "dense vs sparse");
    expectSameResult(auto_sim.run(input), sp, "auto vs sparse");
    std::vector<Report> expect = NfaEngine(m.nfa()).run(input);
    EXPECT_EQ(sp.reports, expect);
    EXPECT_EQ(engine.takeReports(), expect);
    EXPECT_FALSE(expect.empty());
}

TEST(Kernel, DenseTraceMatchesSparse)
{
    Nfa nfa = compileRuleset({"cat", "do+g", "[hx]at"});
    MappedAutomaton m = mapPerformance(nfa);
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"cat", "dog", "hat"};
    spec.plantsPer4k = 32.0;
    auto input = buildInput(spec, 4 << 10, 17);

    SimOptions sparse_opts = kernelOpts(SimKernel::Sparse);
    sparse_opts.recordTrace = true;
    SimOptions dense_opts = kernelOpts(SimKernel::Dense);
    dense_opts.recordTrace = true;
    CacheAutomatonSim sparse(m, sparse_opts);
    CacheAutomatonSim dense(m, dense_opts);
    SimResult sp = sparse.run(input);
    SimResult de = dense.run(input);
    ASSERT_EQ(de.trace.size(), sp.trace.size());
    EXPECT_EQ(de.trace, sp.trace);
}

TEST(Kernel, DenseCollectReportsOffStillCounts)
{
    Nfa nfa = compileRuleset({"a"});
    MappedAutomaton m = mapPerformance(nfa);
    SimOptions opts = kernelOpts(SimKernel::Dense);
    opts.collectReports = false;
    opts.outputBufferDepth = 16;
    CacheAutomatonSim sim(m, opts);
    std::vector<uint8_t> input(100, 'a');
    SimResult res = sim.run(input.data(), input.size());
    EXPECT_TRUE(res.reports.empty());
    EXPECT_EQ(res.totalActiveStates, 100u);
    EXPECT_EQ(res.outputBufferInterrupts, 100u / 16);
}

TEST(Kernel, DenseIncrementalFeedAndTakeReports)
{
    Nfa nfa = compileRuleset({"cat", "do+g"});
    MappedAutomaton m = mapPerformance(nfa);
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"cat", "dog"};
    spec.plantsPer4k = 32.0;
    auto input = buildInput(spec, 8 << 10, 23);

    CacheAutomatonSim whole(m, kernelOpts(SimKernel::Sparse));
    SimResult expect = whole.run(input);

    CacheAutomatonSim sim(m, kernelOpts(SimKernel::Dense));
    sim.reset();
    std::vector<Report> drained;
    size_t pos = 0;
    for (size_t chunk : {size_t{1000}, size_t{1}, size_t{0},
                         size_t{4096}, size_t{37}}) {
        size_t n = std::min(chunk, input.size() - pos);
        sim.feed(input.data() + pos, n);
        pos += n;
        auto got = sim.takeReports();
        drained.insert(drained.end(), got.begin(), got.end());
    }
    sim.feed(input.data() + pos, input.size() - pos);
    auto tail = sim.takeReports();
    drained.insert(drained.end(), tail.begin(), tail.end());
    EXPECT_EQ(drained, expect.reports);
    EXPECT_EQ(sim.result().symbols, expect.symbols);
}

TEST(Kernel, AutoSwitchesKernelsMidStream)
{
    if (kernelPinnedByEnv())
        GTEST_SKIP() << "CA_SIM_KERNEL pins the kernel";

    // One chain of 200 'z'-labelled states: a text stream keeps ~0
    // states active (sparse regime); a 'z'-flood keeps ~200 of the 201
    // states active (dense regime).
    Nfa nfa = compileRuleset({"z{1,200}"});
    MappedAutomaton m = mapPerformance(nfa);

    std::vector<uint8_t> input(8 << 10, 'a');
    std::fill(input.begin() + input.size() / 2, input.end(), 'z');

    SimOptions opts = kernelOpts(SimKernel::Auto);
    opts.autoBlockSymbols = 512;
    opts.autoEwmaAlpha = 1.0; // instant: block density decides directly
    opts.autoDensityThreshold = 0.05;
    CacheAutomatonSim sim(m, opts);
    SimResult res = sim.run(input.data(), input.size());

    EXPECT_GT(res.sparseKernelSymbols, 0u);
    EXPECT_GT(res.denseKernelSymbols, 0u);
    EXPECT_GE(res.kernelSwitches, 1u);
    EXPECT_EQ(res.sparseKernelSymbols + res.denseKernelSymbols,
              res.symbols);

    // And the mixed-kernel stream is still bit-identical to sparse.
    CacheAutomatonSim sparse(m, kernelOpts(SimKernel::Sparse));
    expectSameResult(res, sparse.run(input.data(), input.size()),
                     "auto (switching) vs sparse");
}

TEST(Kernel, AutoThresholdExtremesPinTheKernel)
{
    if (kernelPinnedByEnv())
        GTEST_SKIP() << "CA_SIM_KERNEL pins the kernel";

    Nfa nfa = compileRuleset({"ab", "cd"});
    MappedAutomaton m = mapPerformance(nfa);
    auto input = std::vector<uint8_t>(4 << 10, 'a');

    SimOptions always_dense = kernelOpts(SimKernel::Auto);
    always_dense.autoDensityThreshold = 0.0; // any frontier clears it
    CacheAutomatonSim dense_sim(m, always_dense);
    SimResult de = dense_sim.run(input.data(), input.size());
    EXPECT_EQ(de.denseKernelSymbols, de.symbols);

    SimOptions never_dense = kernelOpts(SimKernel::Auto);
    never_dense.autoDensityThreshold = 2.0; // density cannot exceed 1
    CacheAutomatonSim sparse_sim(m, never_dense);
    SimResult sp = sparse_sim.run(input.data(), input.size());
    EXPECT_EQ(sp.sparseKernelSymbols, sp.symbols);
}

TEST(Kernel, CheckpointRoundTripsAcrossKernels)
{
    Nfa nfa = compileRuleset({"ab+c", "x[yz]{1,3}w", "m.*n"});
    MappedAutomaton m = mapSpace(nfa);
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"abc", "xyw", "mn"};
    spec.plantsPer4k = 24.0;
    auto input = buildInput(spec, 8 << 10, 31);

    CacheAutomatonSim whole(m, kernelOpts(SimKernel::Sparse));
    SimResult expect = whole.run(input);

    // Suspend from a dense-kernel sim, resume into a sparse one (and
    // vice versa): the §2.9 checkpoint is representation-independent.
    for (bool head_dense : {false, true}) {
        size_t cut = input.size() / 3 + 7;
        CacheAutomatonSim head(
            m, kernelOpts(head_dense ? SimKernel::Dense
                                     : SimKernel::Sparse));
        head.reset();
        head.feed(input.data(), cut);
        SimCheckpoint ckpt = head.checkpoint();
        EXPECT_EQ(ckpt.symbolOffset, cut);

        CacheAutomatonSim tail(
            m, kernelOpts(head_dense ? SimKernel::Sparse
                                     : SimKernel::Dense));
        tail.restore(ckpt);
        tail.feed(input.data() + cut, input.size() - cut);

        std::vector<Report> stitched = head.result().reports;
        auto t = tail.result().reports;
        stitched.insert(stitched.end(), t.begin(), t.end());
        EXPECT_EQ(stitched, expect.reports)
            << "head_dense=" << head_dense;
    }
}

// ---------------------------------------------------------------------
// Regression: run(data, size, opts) takes *one-off* options — the bound
// options must be restored afterwards. Before the fix it permanently
// overwrote opts_, so a later feed()/run() silently used the one-off
// options (here: a collectReports=false run would disable report
// collection for the rest of the sim's life).
TEST(Kernel, RunWithOneOffOptionsRestoresBoundOptions)
{
    Nfa nfa = compileRuleset({"a"});
    MappedAutomaton m = mapPerformance(nfa);
    SimOptions bound; // collectReports=true, fifoRefillSymbols=64
    bound.fifoRefillSymbols = 64;
    CacheAutomatonSim sim(m, bound);
    std::vector<uint8_t> input(128, 'a');

    SimOptions oneoff = bound;
    oneoff.collectReports = false;
    oneoff.fifoRefillSymbols = 16;
    SimResult oneoff_res = sim.run(input.data(), input.size(), oneoff);
    EXPECT_TRUE(oneoff_res.reports.empty());
    EXPECT_EQ(oneoff_res.fifoRefills, 128u / 16);

    // The two-arg run() must see the originally-bound options again.
    SimResult later = sim.run(input.data(), input.size());
    EXPECT_EQ(later.reports.size(), 128u);
    EXPECT_EQ(later.fifoRefills, 128u / 64);

    // And an incremental reset()+feed() too.
    sim.reset();
    sim.feed(input.data(), input.size());
    EXPECT_EQ(sim.result().reports.size(), 128u);
}

// ---------------------------------------------------------------------
// Regression: §2.8 output-buffer interrupts must be exact when several
// states report on the same symbol near the threshold. The buffer model
// drains outputBufferDepth entries per interrupt and *carries the
// overshoot*; resetting the pending count to zero (the old behaviour)
// would discard the extra reports of a threshold-crossing cycle when
// they arrive batched (as the dense kernel delivers them).
TEST(Kernel, OutputBufferOvershootCarriesAcrossInterrupt)
{
    // "a" and "[ab]" both report on every 'a': 2 reports per symbol.
    Nfa nfa = compileRuleset({"a", "[ab]"});
    MappedAutomaton m = mapPerformance(nfa);
    std::vector<uint8_t> input(100, 'a');

    for (SimKernel k : {SimKernel::Sparse, SimKernel::Dense}) {
        SimOptions opts = kernelOpts(k);
        opts.outputBufferDepth = 3; // 2 reports/cycle straddle it
        CacheAutomatonSim sim(m, opts);
        SimResult res = sim.run(input.data(), input.size());
        ASSERT_EQ(res.reports.size(), 200u);
        // Exact: 200 reports through a depth-3 buffer = 66 interrupts
        // with 2 entries left pending. Discarded overshoot would lose
        // one report every third cycle and undercount interrupts.
        EXPECT_EQ(res.outputBufferInterrupts, 200u / 3)
            << "kernel " << static_cast<int>(k);
    }
}

} // namespace
} // namespace ca
