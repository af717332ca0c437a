/**
 * @file
 * Differential test: random hand-built automata × random inputs, every
 * engine against the one CPU reference, NfaEngine.
 *
 * The automata mix random byte-class labels (single bytes, ranges,
 * sparse sets, wide and negated classes) with random edges, self-loops
 * included. Each has StartOfData starts and AllInput starts both with
 * and without in-edges: the kernels serve an all-input start no edge
 * enters from per-byte tables and keep the others in their frontier, so
 * both kinds must be present for the split to be pinned down. Some of
 * those fixed starts match one cold byte alone (outside the hot range,
 * one of them at or above 0x80), and the inputs draw the cold bytes, so
 * a per-byte table that serves one byte another byte's entry shows. A
 * third of the automata carry random weights and run under max-plus
 * and min-plus.
 *
 * Against NfaEngine under the same semiring, scores included, it checks:
 *  - MatchEngine under Sparse, Dense and Auto with tiny Auto blocks;
 *  - CacheAutomatonSim under every kernel: the same reports, the
 *    enabled-state total and cycle trace of a reference stepper written
 *    here, and every activity counter equal across kernels;
 *  - ParallelMatcher at degrees 2-4 on unweighted automata;
 *  - a checkpoint at a random cut, restored into the other kernel;
 *  - that frontier() and frontierScores() equal NfaEngine's frontier
 *    and scores at every cut, so every all-input start is listed at
 *    every cut;
 *  - an arbitrary frontier loaded with setState(), some all-input
 *    starts missing or off their start weight, against that reference.
 *
 * A second test fills the kernels' byte → start-class map: one fixed
 * start per byte value gives 256 non-empty classes beside the empty
 * class, so class ids that fit in 8 bits serve some byte the wrong
 * image.
 *
 * A third maps one component of more than 256 states into a 512-STE
 * partition: no dense kernel fits that geometry, so every slot is the
 * state id, and every engine must still agree with NfaEngine.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/design.h"
#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "core/rng.h"
#include "match/match_engine.h"
#include "match/parallel_matcher.h"
#include "sim/engine.h"

namespace ca {
namespace {

using match::MatchContext;
using match::MatchEngine;
using match::MatchOptions;
using match::ParallelMatcher;
using match::ParallelOptions;

constexpr SimKernel kKernels[] = {SimKernel::Sparse, SimKernel::Dense,
                                  SimKernel::Auto};

/** The bytes inputs mostly draw from, so labels over them fire often. */
uint8_t
hotByte(Rng &rng)
{
    return static_cast<uint8_t>('a' + rng.below(5));
}

/**
 * Two bytes outside the hot range, the first at or above 0x80, the
 * second below it and not 0. Fixed starts that match one of them alone
 * give it per-byte start tables unlike any hot byte's and unlike byte
 * 0's, which random labels rarely do.
 */
std::vector<uint8_t>
coldBytes(Rng &rng)
{
    const uint8_t high = static_cast<uint8_t>(0x80 + rng.below(0x80));
    uint8_t low = static_cast<uint8_t>(1 + rng.below(0x7f));
    if (low >= 'a' && low < 'a' + 5)
        low = static_cast<uint8_t>(low + 5);
    return {high, low};
}

SymbolSet
randomLabel(Rng &rng)
{
    switch (rng.below(6)) {
    case 0:
        return SymbolSet::of(hotByte(rng));
    case 1: {
        const uint8_t lo = hotByte(rng);
        return SymbolSet::range(lo, static_cast<uint8_t>(lo + rng.below(3)));
    }
    case 2: {
        SymbolSet s;
        for (uint64_t k = 0, n = 1 + rng.below(4); k < n; ++k)
            s.set(rng.chance(0.8) ? hotByte(rng) : rng.byte());
        return s;
    }
    case 3: { // a negated class
        SymbolSet s;
        s.set(hotByte(rng));
        s.set(rng.byte());
        return ~s;
    }
    case 4: // wide, but not the whole alphabet
        return SymbolSet::range(0x20, 0x7e);
    default:
        return SymbolSet::all();
    }
}

Nfa
randomNfa(Rng &rng, bool weighted, const std::vector<uint8_t> &cold)
{
    const size_t n = 3 + rng.below(30);
    Nfa nfa;
    // AllInput starts no edge may enter (the fixed starts).
    std::vector<bool> closed(n, false);
    for (size_t s = 0; s < n; ++s) {
        StartType start = StartType::None;
        const double r = rng.uniform();
        if (s == 0 || s == 1 || r < 0.2)
            start = StartType::AllInput;
        else if (s == 2 || r < 0.3)
            start = StartType::StartOfData;
        closed[s] = s == 0 ||
            (start == StartType::AllInput && s != 1 && rng.chance(0.6));
        // Fixed start 0 matches the high cold byte alone; others may
        // match one cold byte alone.
        SymbolSet label;
        if (s == 0)
            label = SymbolSet::of(cold[0]);
        else if (closed[s] && rng.chance(0.5))
            label = SymbolSet::of(cold[rng.below(cold.size())]);
        else
            label = randomLabel(rng);
        nfa.addState(label, start, rng.chance(0.3),
                     static_cast<uint32_t>(rng.below(4)));
        if (weighted && start != StartType::None)
            nfa.state(static_cast<StateId>(s)).startWeight =
                static_cast<Weight>(rng.range(-3, 3));
    }
    auto edge = [&](StateId from, StateId to) {
        if (weighted)
            nfa.addTransition(from, to,
                              static_cast<Weight>(rng.range(-5, 7)));
        else
            nfa.addTransition(from, to);
    };
    for (StateId s = 0; s < n; ++s) {
        for (uint64_t k = 0, deg = rng.below(4); k < deg; ++k) {
            const StateId t = rng.chance(0.15)
                ? s
                : static_cast<StateId>(rng.below(n));
            if (!closed[t])
                edge(s, t);
        }
    }
    // State 1 is an all-input start with an in-edge.
    edge(static_cast<StateId>(2 + rng.below(n - 2)), 1);
    // A reporting state only fixed start 0 enables, so what the high
    // cold byte steps shows in the frontier and the reports.
    edge(0, nfa.addState(randomLabel(rng), StartType::None, true,
                         static_cast<uint32_t>(rng.below(4))));
    nfa.dedupeEdges();
    return nfa;
}

std::vector<uint8_t>
randomInput(Rng &rng, size_t size, const std::vector<uint8_t> &cold)
{
    std::vector<uint8_t> out(size);
    for (uint8_t &b : out) {
        const double r = rng.uniform();
        b = r < 0.85 ? hotByte(rng)
            : r < 0.92 ? cold[rng.below(cold.size())]
                       : rng.byte();
    }
    return out;
}

std::vector<StateId>
allInputStarts(const Nfa &nfa)
{
    std::vector<StateId> out;
    for (StateId s = 0; s < nfa.numStates(); ++s)
        if (nfa.state(s).start == StartType::AllInput)
            out.push_back(s);
    return out;
}

bool
includes(const std::vector<StateId> &sorted, const std::vector<StateId> &sub)
{
    return std::includes(sorted.begin(), sorted.end(), sub.begin(),
                         sub.end());
}

void
expectSameCounters(const SimResult &a, const SimResult &b, SimKernel k)
{
    EXPECT_EQ(a.symbols, b.symbols) << kernelName(k);
    EXPECT_EQ(a.totalActiveStates, b.totalActiveStates) << kernelName(k);
    EXPECT_EQ(a.totalEnabledStates, b.totalEnabledStates) << kernelName(k);
    EXPECT_EQ(a.totalActivePartitionCycles, b.totalActivePartitionCycles)
        << kernelName(k);
    EXPECT_EQ(a.totalG1Crossings, b.totalG1Crossings) << kernelName(k);
    EXPECT_EQ(a.totalG4Crossings, b.totalG4Crossings) << kernelName(k);
    EXPECT_EQ(a.fifoRefills, b.fifoRefills) << kernelName(k);
    EXPECT_EQ(a.outputBufferInterrupts, b.outputBufferInterrupts)
        << kernelName(k);
    EXPECT_EQ(a.trace, b.trace) << kernelName(k);
}

/**
 * The frontier semantics, stepped directly on the Nfa from an arbitrary
 * loaded frontier: a state fires when its label holds the symbol; the
 * next frontier is the fired states' successors plus every all-input
 * start, scores combined with the semiring. It also keeps the §5.3
 * activity per symbol: enabled states, the partitions holding them,
 * fired states, and the G1/G4 crossings of the fired states' cross
 * edges.
 */
struct Reference
{
    std::vector<Report> reports;
    std::vector<StateId> frontier;
    std::vector<Score> scores;
    uint64_t enabled = 0;
    std::vector<CycleTrace> trace;
};

Reference
referenceRun(const MappedAutomaton &m, ScoreSemiring sr,
             const std::vector<StateId> &frontier,
             const std::vector<Score> &scores, uint64_t offset,
             const std::vector<uint8_t> &input)
{
    const Nfa &nfa = m.nfa();
    const size_t n = nfa.numStates();
    std::vector<uint8_t> cross(n, 0); // bit0: G1 source, bit1: G4 source.
    for (const CrossEdge &e : m.crossEdges())
        cross[e.from] |= e.viaG4 ? 2 : 1;
    std::vector<bool> on(n, false);
    std::vector<Score> score(n, 0);
    for (size_t i = 0; i < frontier.size(); ++i) {
        on[frontier[i]] = true;
        score[frontier[i]] = scores.empty() ? 0 : scores[i];
    }
    Reference out;
    for (uint8_t c : input) {
        std::vector<bool> next(n, false);
        std::vector<Score> next_score(n, 0);
        auto enable = [&](StateId t, Score cand) {
            next_score[t] = next[t] ? scoreCombine(sr, next_score[t], cand)
                                    : cand;
            next[t] = true;
        };
        std::vector<bool> live(m.numPartitions(), false);
        CycleTrace row;
        for (StateId s = 0; s < n; ++s) {
            const NfaState &st = nfa.state(s);
            if (!on[s])
                continue;
            ++out.enabled;
            const uint32_t p = m.location(s).partition;
            row.activePartitions += live[p] ? 0 : 1;
            live[p] = true;
            if (!st.label.test(c))
                continue;
            ++row.activeStates;
            row.g1Crossings += cross[s] & 1;
            row.g4Crossings += (cross[s] >> 1) & 1;
            if (st.report) {
                ++row.reportsFired;
                out.reports.push_back(
                    Report{offset, st.reportId, s, score[s]});
            }
            for (size_t k = 0; k < st.out.size(); ++k)
                enable(st.out[k],
                       score[s] + static_cast<Score>(nfa.edgeWeight(s, k)));
        }
        out.trace.push_back(row);
        for (StateId s = 0; s < n; ++s)
            if (nfa.state(s).start == StartType::AllInput)
                enable(s, static_cast<Score>(nfa.state(s).startWeight));
        on.swap(next);
        score.swap(next_score);
        ++offset;
    }
    for (StateId s = 0; s < n; ++s) {
        if (on[s]) {
            out.frontier.push_back(s);
            out.scores.push_back(score[s]);
        }
    }
    return out;
}

class Differential : public ::testing::TestWithParam<int>
{
};

TEST_P(Differential, EveryEngineMatchesTheOracle)
{
    const int param = GetParam();
    Rng rng(0xD1FFull + static_cast<uint64_t>(param) * 7919);
    const bool weighted = param % 3 == 2;
    const std::vector<uint8_t> cold = coldBytes(rng);
    Nfa built = randomNfa(rng, weighted, cold);
    MappedAutomaton m = param % 2 ? mapSpace(built) : mapPerformance(built);
    const Nfa &nfa = m.nfa();
    auto ctx = std::make_shared<const MatchContext>(m);
    const std::vector<StateId> all_input = allInputStarts(nfa);

    std::vector<ScoreSemiring> semirings = {ScoreSemiring::MaxPlus};
    if (weighted)
        semirings.push_back(ScoreSemiring::MinPlus);

    for (int trial = 0; trial < 3; ++trial) {
        const std::vector<uint8_t> input =
            randomInput(rng, rng.below(trial == 0 ? 40 : 600), cold);
        for (ScoreSemiring sr : semirings) {
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << ", semiring "
                         << semiringName(sr) << ", " << input.size()
                         << " bytes");
            const std::vector<Report> expect = NfaEngine(nfa, sr).run(input);

            auto options = [&](SimKernel k) {
                MatchOptions o;
                o.kernel = k;
                o.semiring = sr;
                o.autoBlockSymbols =
                    static_cast<uint32_t>(1 + rng.below(24));
                const double thresholds[] = {0.0, 0.02, 0.1, 0.3, 2.0};
                o.autoDensityThreshold = thresholds[rng.below(5)];
                return o;
            };

            // MatchEngine under every kernel.
            std::vector<StateId> end_frontier;
            for (SimKernel k : kKernels) {
                MatchEngine eng(ctx, options(k));
                eng.feed(input.data(), input.size());
                EXPECT_EQ(eng.takeReports(), expect) << kernelName(k);
                if (end_frontier.empty())
                    end_frontier = eng.frontier();
                EXPECT_EQ(eng.frontier(), end_frontier) << kernelName(k);
            }

            // The simulator: oracle reports, and the reference's
            // activity under every kernel (CA_SIM_KERNEL, when set, pins
            // all three).
            std::vector<Score> start_scores;
            for (StateId s : ctx->startFrontier())
                start_scores.push_back(
                    static_cast<Score>(nfa.state(s).startWeight));
            const Reference activity = referenceRun(
                m, sr, ctx->startFrontier(), start_scores, 0, input);
            SimResult first;
            const int buffer_depth = 1 + static_cast<int>(rng.below(4));
            const int refill = 1 + static_cast<int>(rng.below(64));
            for (SimKernel k : kKernels) {
                SimOptions so;
                static_cast<MatchOptions &>(so) = options(k);
                so.recordTrace = true;
                so.outputBufferDepth = buffer_depth;
                so.fifoRefillSymbols = refill;
                CacheAutomatonSim sim(m, so);
                SimResult r = sim.run(input);
                EXPECT_EQ(r.reports, expect) << kernelName(k);
                EXPECT_EQ(r.totalEnabledStates, activity.enabled)
                    << kernelName(k);
                EXPECT_EQ(r.trace, activity.trace) << kernelName(k);
                if (k == SimKernel::Sparse)
                    first = std::move(r);
                else
                    expectSameCounters(first, r, k);
            }

            // A checkpoint at a random cut, resumed on the other kernel.
            const size_t cut = rng.below(input.size() + 1);
            for (SimKernel head_k : {SimKernel::Sparse, SimKernel::Dense}) {
                const SimKernel tail_k = head_k == SimKernel::Sparse
                    ? SimKernel::Dense
                    : SimKernel::Sparse;
                MatchEngine head(ctx, options(head_k));
                head.feed(input.data(), cut);
                std::vector<Report> got = head.takeReports();
                const SimCheckpoint ckpt = head.checkpoint();
                EXPECT_EQ(ckpt.symbolOffset, cut);
                EXPECT_TRUE(includes(ckpt.enabledStates, all_input))
                    << kernelName(head_k);
                MatchEngine tail(ctx, options(tail_k));
                tail.restore(ckpt);
                EXPECT_EQ(tail.checkpoint().enabledStates,
                          ckpt.enabledStates);
                EXPECT_EQ(tail.checkpoint().enabledScores,
                          ckpt.enabledScores);
                tail.feed(input.data() + cut, input.size() - cut);
                std::vector<Report> rest = tail.takeReports();
                got.insert(got.end(), rest.begin(), rest.end());
                EXPECT_EQ(got, expect) << kernelName(head_k) << " → "
                                       << kernelName(tail_k);
            }

            // frontier() and its scores equal the oracle's at every cut.
            for (SimKernel k : {SimKernel::Sparse, SimKernel::Dense}) {
                MatchEngine eng(ctx, options(k));
                NfaEngine oracle(nfa, sr);
                oracle.reset();
                for (size_t i = 0; i <= input.size(); ++i) {
                    const std::vector<StateId> f = eng.frontier();
                    ASSERT_EQ(f, oracle.frontier())
                        << kernelName(k) << " at offset " << i;
                    ASSERT_TRUE(includes(f, all_input));
                    if (weighted) {
                        const std::vector<Score> scores =
                            eng.frontierScores();
                        for (size_t j = 0; j < f.size(); ++j)
                            ASSERT_EQ(scores[j], oracle.stateScore(f[j]))
                                << kernelName(k) << " state " << f[j]
                                << " at offset " << i;
                    }
                    if (i < input.size()) {
                        eng.feed(&input[i], 1);
                        oracle.step(input[i]);
                    }
                }
            }

            // An arbitrary loaded frontier: a random subset (all-input
            // starts included or not) with random scores, at a random
            // offset.
            std::vector<StateId> loaded;
            std::vector<Score> loaded_scores;
            for (StateId s = 0; s < nfa.numStates(); ++s) {
                const bool start = nfa.state(s).start == StartType::AllInput;
                if (!rng.chance(start ? 0.8 : 0.3))
                    continue;
                loaded.push_back(s);
                loaded_scores.push_back(
                    start && rng.chance(0.7)
                        ? static_cast<Score>(nfa.state(s).startWeight)
                        : static_cast<Score>(rng.range(-4, 4)));
            }
            if (!weighted)
                loaded_scores.assign(loaded.size(), 0);
            const uint64_t at = rng.below(1000);
            const Reference ref = referenceRun(m, sr, loaded,
                                               loaded_scores, at, input);
            for (SimKernel k : kKernels) {
                MatchEngine eng(ctx, options(k));
                eng.setState(loaded, loaded_scores, at);
                EXPECT_EQ(eng.frontier(), loaded) << kernelName(k);
                eng.feed(input.data(), input.size());
                EXPECT_EQ(eng.takeReports(), ref.reports) << kernelName(k);
                EXPECT_EQ(eng.frontier(), ref.frontier) << kernelName(k);
                if (weighted) {
                    EXPECT_EQ(eng.frontierScores(), ref.scores)
                        << kernelName(k);
                }
            }
        }

        // ParallelMatcher at degrees 2-4 (unweighted automata only: a
        // weighted one always runs serially).
        if (!weighted) {
            const std::vector<Report> expect = NfaEngine(nfa).run(input);
            MatchEngine serial(ctx);
            serial.feed(input.data(), input.size());
            for (size_t degree = 2; degree <= 4; ++degree) {
                ParallelOptions po;
                po.degree = degree;
                po.minChunkBytes = 8;
                po.overlapBytes = rng.below(48);
                po.engine.autoBlockSymbols =
                    static_cast<uint32_t>(1 + rng.below(24));
                ParallelMatcher pm(ctx, po);
                match::MatchResult r = pm.match(input.data(), input.size());
                EXPECT_EQ(r.reports, expect) << "degree " << degree;
                EXPECT_EQ(r.frontier, serial.frontier())
                    << "degree " << degree;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomAutomata, Differential,
                         ::testing::Range(0, 24));

/**
 * 256 fixed starts, fixed start b matching byte b alone (every third
 * one, and the last, reporting), each stepping into one of eight inner
 * states over wide random ranges. One inner state is a re-entrant
 * all-input start; the inner states report at random and feed it.
 */
Nfa
fullClassMapNfa(Rng &rng, bool weighted)
{
    Nfa nfa;
    auto start_weight = [&](StateId s) {
        if (weighted)
            nfa.state(s).startWeight = static_cast<Weight>(rng.range(-3, 3));
    };
    for (int b = 0; b < 256; ++b)
        start_weight(nfa.addState(SymbolSet::of(static_cast<uint8_t>(b)),
                                  StartType::AllInput,
                                  b % 3 == 0 || b == 255,
                                  static_cast<uint32_t>(b % 4)));
    const StateId inner = 256;
    constexpr StateId kInner = 8;
    for (StateId k = 0; k < kInner; ++k) {
        const uint8_t lo = rng.byte();
        const uint8_t hi = static_cast<uint8_t>(
            std::min<uint64_t>(255, lo + 32 + rng.below(160)));
        nfa.addState(SymbolSet::range(lo, hi),
                     k == 0 ? StartType::AllInput : StartType::None,
                     rng.chance(0.5), static_cast<uint32_t>(rng.below(4)));
    }
    start_weight(inner);
    auto edge = [&](StateId from, StateId to) {
        if (weighted)
            nfa.addTransition(from, to,
                              static_cast<Weight>(rng.range(-5, 7)));
        else
            nfa.addTransition(from, to);
    };
    for (StateId b = 0; b < 256; ++b)
        edge(b, inner + b % kInner);
    for (StateId k = 0; k < kInner; ++k) {
        edge(inner + k, inner); // the re-entrant start's in-edges
        edge(inner + k, inner + static_cast<StateId>(rng.below(kInner)));
    }
    nfa.dedupeEdges();
    return nfa;
}

TEST(DifferentialFullClassMap, EveryByteHasItsOwnStartClass)
{
    Rng rng(0xC1A55ull);
    for (const bool weighted : {false, true}) {
        Nfa built = fullClassMapNfa(rng, weighted);
        MappedAutomaton m = weighted ? mapSpace(built)
                                     : mapPerformance(built);
        const Nfa &nfa = m.nfa();
        auto ctx = std::make_shared<const MatchContext>(m);
        ASSERT_EQ(ctx->fixedStarts().size(), 256u);
        std::vector<uint8_t> input(3000);
        for (uint8_t &b : input)
            b = rng.byte();
        input[input.size() / 2] = 255;

        std::vector<ScoreSemiring> semirings = {ScoreSemiring::MaxPlus};
        if (weighted)
            semirings.push_back(ScoreSemiring::MinPlus);
        for (ScoreSemiring sr : semirings) {
            SCOPED_TRACE(testing::Message()
                         << (weighted ? "weighted, " : "unweighted, ")
                         << semiringName(sr));
            NfaEngine oracle(nfa, sr);
            const std::vector<Report> expect = oracle.run(input);
            ASSERT_FALSE(expect.empty());
            auto options = [&](SimKernel k) {
                MatchOptions o;
                o.kernel = k;
                o.semiring = sr;
                o.autoBlockSymbols = 64;
                return o;
            };
            for (SimKernel k : kKernels) {
                MatchEngine eng(ctx, options(k));
                eng.feed(input.data(), input.size());
                EXPECT_EQ(eng.takeReports(), expect) << kernelName(k);
                EXPECT_EQ(eng.frontier(), oracle.frontier()) << kernelName(k);
                SimOptions so;
                static_cast<MatchOptions &>(so) = options(k);
                EXPECT_EQ(CacheAutomatonSim(m, so).run(input).reports, expect)
                    << kernelName(k);
            }

            // The frontier at a cut, loaded without the fixed start of
            // the next byte (255), so the first symbol takes the empty
            // class.
            const size_t cut = input.size() / 2;
            oracle.reset();
            for (size_t i = 0; i < cut; ++i)
                oracle.step(input[i]);
            std::vector<StateId> loaded;
            std::vector<Score> loaded_scores;
            for (StateId s : oracle.frontier()) {
                if (nfa.state(s).start == StartType::AllInput &&
                    nfa.state(s).label == SymbolSet::of(input[cut]))
                    continue;
                loaded.push_back(s);
                loaded_scores.push_back(oracle.stateScore(s));
            }
            ASSERT_EQ(loaded.size() + 1, oracle.frontier().size());
            const std::vector<uint8_t> tail(input.begin() + cut, input.end());
            const Reference ref =
                referenceRun(m, sr, loaded, loaded_scores, cut, tail);
            for (SimKernel k : kKernels) {
                MatchEngine eng(ctx, options(k));
                eng.setState(loaded, loaded_scores, cut);
                eng.feed(tail.data(), tail.size());
                EXPECT_EQ(eng.takeReports(), ref.reports) << kernelName(k);
                EXPECT_EQ(eng.frontier(), ref.frontier) << kernelName(k);
                EXPECT_EQ(eng.frontierScores(),
                          weighted ? ref.scores : std::vector<Score>{})
                    << kernelName(k);
            }
        }
    }
}

/**
 * One connected component of 280-399 states, so a 512-STE partition
 * holds it with its last states past slot 255. Each state after the
 * first is tied to an earlier one: a fixed start (state 0, and some
 * all-input starts) by an out-edge, any other state by an in-edge.
 * Random edges into states that are not fixed starts go on top. State 1
 * is a re-entrant all-input start and state 2 a start-of-data start.
 */
Nfa
bigComponentNfa(Rng &rng, bool weighted)
{
    const size_t n = 280 + rng.below(120);
    Nfa nfa;
    std::vector<bool> closed(n, false);
    for (size_t s = 0; s < n; ++s) {
        const bool all_input = s < 2 || rng.chance(0.03);
        const StartType start = all_input ? StartType::AllInput
            : s == 2                      ? StartType::StartOfData
                                          : StartType::None;
        closed[s] = all_input && s != 1 && (s == 0 || rng.chance(0.6));
        nfa.addState(randomLabel(rng), start, rng.chance(0.1),
                     static_cast<uint32_t>(rng.below(4)));
        if (weighted && start != StartType::None)
            nfa.state(static_cast<StateId>(s)).startWeight =
                static_cast<Weight>(rng.range(-3, 3));
    }
    auto edge = [&](StateId from, StateId to) {
        if (weighted)
            nfa.addTransition(from, to,
                              static_cast<Weight>(rng.range(-5, 7)));
        else
            nfa.addTransition(from, to);
    };
    for (StateId s = 1; s < n; ++s) {
        StateId earlier = static_cast<StateId>(rng.below(s));
        if (closed[s])
            edge(s, earlier == 0 ? 1 : earlier);
        else if (!closed[earlier] || earlier == 0)
            edge(earlier, s);
        else
            edge(0, s);
    }
    for (size_t k = 0; k < n; ++k) {
        const StateId from = static_cast<StateId>(rng.below(n));
        const StateId to = static_cast<StateId>(rng.below(n));
        if (!closed[to])
            edge(from, to);
    }
    edge(static_cast<StateId>(n - 1), 1);
    nfa.dedupeEdges();
    return nfa;
}

TEST(DifferentialSparseOnly, SlotsPastOnePartitionNeedNoDenseKernel)
{
    Rng rng(0x5107ull);
    for (int trial = 0; trial < 4; ++trial) {
        const bool weighted = trial % 2 == 1;
        MappedAutomaton m =
            mapNfa(bigComponentNfa(rng, weighted), designCustom(512, 16, 8));
        const Nfa &nfa = m.nfa();
        auto ctx = std::make_shared<const MatchContext>(m);
        ASSERT_FALSE(ctx->denseAvailable());
        ASSERT_EQ(ctx->numSlots(), nfa.numStates());
        const std::vector<uint8_t> cold = coldBytes(rng);
        const std::vector<uint8_t> input = randomInput(rng, 1500, cold);
        const size_t cut = 1 + rng.below(input.size() - 1);

        std::vector<ScoreSemiring> semirings = {ScoreSemiring::MaxPlus};
        if (weighted)
            semirings.push_back(ScoreSemiring::MinPlus);
        for (ScoreSemiring sr : semirings) {
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << ", " << nfa.numStates()
                         << " states, semiring " << semiringName(sr));
            NfaEngine oracle(nfa, sr);
            const std::vector<Report> expect = oracle.run(input);
            ASSERT_FALSE(expect.empty());
            std::vector<Score> end_scores;
            for (StateId s : oracle.frontier())
                end_scores.push_back(weighted ? oracle.stateScore(s) : 0);
            if (!weighted)
                end_scores.clear();
            std::vector<Score> start_scores;
            for (StateId s : ctx->startFrontier())
                start_scores.push_back(
                    static_cast<Score>(nfa.state(s).startWeight));
            const Reference activity = referenceRun(
                m, sr, ctx->startFrontier(), start_scores, 0, input);

            auto options = [&](SimKernel k) {
                MatchOptions o;
                o.kernel = k;
                o.semiring = sr;
                o.autoBlockSymbols = 64;
                return o;
            };
            for (SimKernel k : kKernels) {
                MatchEngine eng(ctx, options(k));
                eng.feed(input.data(), input.size());
                EXPECT_EQ(eng.takeReports(), expect) << kernelName(k);
                EXPECT_EQ(eng.frontier(), oracle.frontier()) << kernelName(k);
                EXPECT_EQ(eng.frontierScores(), end_scores) << kernelName(k);

                // A checkpoint at the cut, restored into a fresh engine.
                MatchEngine head(ctx, options(k));
                head.feed(input.data(), cut);
                std::vector<Report> got = head.takeReports();
                MatchEngine tail(ctx, options(k));
                tail.restore(head.checkpoint());
                tail.feed(input.data() + cut, input.size() - cut);
                std::vector<Report> rest = tail.takeReports();
                got.insert(got.end(), rest.begin(), rest.end());
                EXPECT_EQ(got, expect) << kernelName(k) << " across the cut";

                SimOptions so;
                static_cast<MatchOptions &>(so) = options(k);
                so.recordTrace = true;
                SimResult r = CacheAutomatonSim(m, so).run(input);
                EXPECT_EQ(r.reports, expect) << kernelName(k);
                EXPECT_EQ(r.totalEnabledStates, activity.enabled)
                    << kernelName(k);
                EXPECT_EQ(r.trace, activity.trace) << kernelName(k);
            }

            // ParallelMatcher at degree 2: whole, and continued at the
            // cut from the first call's frontier and scores.
            ParallelOptions po;
            po.degree = 2;
            po.minChunkBytes = 64;
            po.engine = options(SimKernel::Auto);
            ParallelMatcher pm(ctx, po);
            match::MatchResult whole = pm.match(input.data(), input.size());
            EXPECT_EQ(whole.reports, expect);
            EXPECT_EQ(whole.frontier, oracle.frontier());
            EXPECT_EQ(whole.frontierScores, end_scores);
            match::MatchResult head = pm.match(input.data(), cut);
            match::MatchResult tail =
                pm.match(head.frontier, head.frontierScores, cut,
                         input.data() + cut, input.size() - cut);
            head.reports.insert(head.reports.end(), tail.reports.begin(),
                                tail.reports.end());
            EXPECT_EQ(head.reports, expect) << "continued at the cut";
            EXPECT_EQ(tail.frontier, oracle.frontier());
            EXPECT_EQ(tail.frontierScores, end_scores);
        }
    }
}

} // namespace
} // namespace ca
