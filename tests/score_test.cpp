/**
 * @file
 * Tests for scored automata (docs/SCORING.md): the exact-score contract.
 *
 * Every scored execution engine — both CacheAutomatonSim kernels, the
 * Auto selector, the functional MatchEngine, and the ParallelMatcher's
 * serial fallback — must reproduce NfaEngine's report stream
 * *including scores* exactly, under both mapping policies and both
 * semirings. Also covers the zero-weight bit-identity guarantee (weights
 * never gate transitions; all-zero weights are indistinguishable from no
 * weights), scored checkpoint/suspend-resume, the CAAF WGHT section
 * (round trip, absence for unweighted automata, corruption rejection),
 * and the bioinformatics workload's independent DP witness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baseline/nfa_engine.h"
#include "compiler/config_image.h"
#include "compiler/mapping.h"
#include "core/error.h"
#include "core/rng.h"
#include "match/match_engine.h"
#include "match/parallel_matcher.h"
#include "nfa/glushkov.h"
#include "persist/artifact.h"
#include "score/bioseq.h"
#include "score/semiring.h"
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

/**
 * Annotates every edge (and start state) of @p nfa with a deterministic
 * pseudo-random weight, guaranteeing at least one nonzero so the scored
 * kernels actually engage.
 */
Nfa
randomlyWeighted(Nfa nfa, uint64_t seed)
{
    Rng rng(seed);
    for (StateId s = 0; s < nfa.numStates(); ++s) {
        NfaState &st = nfa.state(s);
        st.outWeight.resize(st.out.size());
        for (Weight &w : st.outWeight)
            w = static_cast<Weight>(rng.range(-5, 7));
        if (st.start != StartType::None)
            st.startWeight = static_cast<Weight>(rng.range(-3, 3));
    }
    if (!nfa.hasWeights()) {
        for (StateId s = 0; s < nfa.numStates(); ++s) {
            if (!nfa.state(s).out.empty()) {
                nfa.state(s).outWeight[0] = 1;
                break;
            }
        }
    }
    return nfa;
}

/** A small scored ruleset with overlapping alternatives. */
Nfa
sampleScoredNfa(uint64_t seed = 0x5C0)
{
    Nfa nfa = compileRuleset(
        {"ab+c", "a.*d", "[bc]{2,3}e", "cat|dog", "x?yz"});
    return randomlyWeighted(std::move(nfa), seed);
}

std::vector<uint8_t>
sampleInput(size_t size, uint64_t seed)
{
    InputSpec spec;
    spec.kind = StreamKind::Text;
    spec.plantPatterns = {"abbc", "axxd", "bbce", "cat", "dog", "yz"};
    spec.plantsPer4k = 48.0;
    return buildInput(spec, size, seed);
}

SimOptions
simOpts(SimKernel k, ScoreSemiring sr = ScoreSemiring::MaxPlus)
{
    SimOptions opts;
    opts.kernel = k;
    opts.semiring = sr;
    return opts;
}

MatchOptions
engineOpts(SimKernel k, ScoreSemiring sr = ScoreSemiring::MaxPlus)
{
    MatchOptions opts;
    opts.kernel = k;
    opts.semiring = sr;
    return opts;
}

// ------------------------------------------------------------ sim kernels

// Property: every sim kernel reproduces the CPU oracle exactly —
// same reports, same order, same scores — under both mapping policies
// and both semirings.
class ScoredKernelEquality : public ::testing::TestWithParam<int>
{
};

TEST_P(ScoredKernelEquality, KernelsMatchOracleExactly)
{
    int param = GetParam();
    bool space = param % 2 == 1;
    ScoreSemiring sr = (param / 2) % 2 == 0 ? ScoreSemiring::MaxPlus
                                            : ScoreSemiring::MinPlus;
    Nfa nfa = sampleScoredNfa(0x5C0 + static_cast<uint64_t>(param));
    ASSERT_TRUE(nfa.hasWeights());
    MappedAutomaton m = space ? mapSpace(nfa) : mapPerformance(nfa);
    auto input = sampleInput(8 << 10, 0xABC + param);

    NfaEngine oracle(nfa, sr);
    std::vector<Report> expect = oracle.run(input);
    ASSERT_FALSE(expect.empty()) << "vacuous scored input";

    for (SimKernel k :
         {SimKernel::Sparse, SimKernel::Dense, SimKernel::Auto}) {
        CacheAutomatonSim sim(m, simOpts(k, sr));
        SimResult res = sim.run(input);
        EXPECT_EQ(res.reports, expect)
            << "kernel " << static_cast<int>(k) << " policy "
            << (space ? "space" : "perf") << " semiring "
            << semiringName(sr);
    }
}

INSTANTIATE_TEST_SUITE_P(Random, ScoredKernelEquality,
                         ::testing::Range(0, 8));

// Weights never gate transitions: stripping all weights must leave the
// report *set* (offsets, ids, states) unchanged — only scores differ.
TEST(ScoredSim, WeightsNeverGateTransitions)
{
    Nfa scored = sampleScoredNfa();
    Nfa plain = scored;
    for (StateId s = 0; s < plain.numStates(); ++s) {
        plain.state(s).outWeight.clear();
        plain.state(s).startWeight = 0;
    }
    ASSERT_FALSE(plain.hasWeights());

    auto input = sampleInput(8 << 10, 0xBEEF);
    MappedAutomaton ms = mapPerformance(scored);
    MappedAutomaton mp = mapPerformance(plain);
    CacheAutomatonSim ssim(ms);
    CacheAutomatonSim psim(mp);
    std::vector<Report> got = ssim.run(input).reports;
    std::vector<Report> want = psim.run(input).reports;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].offset, want[i].offset);
        EXPECT_EQ(got[i].reportId, want[i].reportId);
        EXPECT_EQ(got[i].state, want[i].state);
    }
}

// All-zero weights are indistinguishable from no weights: hasWeights()
// stays false (the scored kernels never engage) and the reports are
// bit-identical to the never-weighted automaton's, scores included.
TEST(ScoredSim, AllZeroWeightsBitIdentity)
{
    Nfa plain = compileRuleset({"ab+c", "cat|dog"});
    Nfa zeroed = plain;
    for (StateId s = 0; s < zeroed.numStates(); ++s)
        zeroed.state(s).outWeight.assign(zeroed.state(s).out.size(), 0);
    EXPECT_FALSE(zeroed.hasWeights());

    auto input = sampleInput(4 << 10, 0x2E20);
    MappedAutomaton ma = mapPerformance(plain);
    MappedAutomaton mb = mapPerformance(zeroed);
    CacheAutomatonSim a(ma);
    CacheAutomatonSim b(mb);
    EXPECT_FALSE(a.scored());
    EXPECT_FALSE(b.scored());
    std::vector<Report> ra = a.run(input).reports;
    std::vector<Report> rb = b.run(input).reports;
    EXPECT_EQ(ra, rb);
    for (const Report &r : ra)
        EXPECT_EQ(r.score, 0);
}

// §2.9 suspend/resume with scores: a checkpoint taken mid-stream must
// carry the frontier's accumulated scores, and resuming from it in a
// different engine instance must reproduce the uninterrupted run.
TEST(ScoredSim, CheckpointCarriesScoresAcrossRestore)
{
    Nfa nfa = sampleScoredNfa(0xC4EC);
    MappedAutomaton m = mapPerformance(nfa);
    auto input = sampleInput(8 << 10, 0xC4EC);
    const size_t half = input.size() / 2;

    CacheAutomatonSim whole(m);
    std::vector<Report> expect = whole.run(input).reports;

    CacheAutomatonSim head(m);
    head.reset();
    head.feed(input.data(), half);
    std::vector<Report> got = head.takeReports();
    SimCheckpoint ckpt = head.checkpoint();
    ASSERT_EQ(ckpt.enabledScores.size(), ckpt.enabledStates.size());
    EXPECT_TRUE(std::any_of(ckpt.enabledScores.begin(),
                            ckpt.enabledScores.end(),
                            [](Score s) { return s != 0; }))
        << "scored checkpoint lost its accumulated scores";

    CacheAutomatonSim tail(m);
    tail.restore(ckpt);
    tail.feed(input.data() + half, input.size() - half);
    std::vector<Report> rest = tail.takeReports();
    got.insert(got.end(), rest.begin(), rest.end());
    EXPECT_EQ(got, expect);
}

// ------------------------------------------------------------ MatchEngine

TEST(ScoredMatch, EngineMatchesOracleAcrossKernels)
{
    Nfa nfa = sampleScoredNfa(0x3A7C);
    MappedAutomaton m = mapPerformance(nfa);
    auto ctx = std::make_shared<MatchContext>(m);
    ASSERT_TRUE(ctx->scored());
    auto input = sampleInput(8 << 10, 0x3A7C);

    NfaEngine oracle(nfa);
    std::vector<Report> expect = oracle.run(input);
    ASSERT_FALSE(expect.empty());

    for (SimKernel k :
         {SimKernel::Sparse, SimKernel::Dense, SimKernel::Auto}) {
        if (k == SimKernel::Dense && !ctx->denseAvailable())
            continue;
        MatchEngine eng(ctx, engineOpts(k));
        eng.reset();
        eng.feed(input.data(), input.size());
        EXPECT_EQ(eng.takeReports(), expect)
            << "kernel " << static_cast<int>(k);

        // The final frontier's scores must equal the oracle's.
        std::vector<StateId> fr = eng.frontier();
        std::vector<Score> fs = eng.frontierScores();
        ASSERT_EQ(fr.size(), fs.size());
        EXPECT_EQ(fr, oracle.frontier());
        for (size_t i = 0; i < fr.size(); ++i)
            EXPECT_EQ(fs[i], oracle.stateScore(fr[i]))
                << "state " << fr[i];
    }
}

// setState with scores is the scored suspend/resume primitive: a run
// split at an arbitrary offset and resumed in a different engine must
// be indistinguishable from the uninterrupted run.
TEST(ScoredMatch, SetStateWithScoresResumesExactly)
{
    Nfa nfa = sampleScoredNfa(0x5E5);
    auto ctx = std::make_shared<MatchContext>(
        std::make_shared<const MappedAutomaton>(mapPerformance(nfa)));
    auto input = sampleInput(8 << 10, 0x5E5);
    const size_t cut = input.size() / 3;

    MatchEngine whole(ctx, engineOpts(SimKernel::Sparse));
    whole.reset();
    whole.feed(input.data(), input.size());
    std::vector<Report> expect = whole.takeReports();

    MatchEngine head(ctx, engineOpts(SimKernel::Sparse));
    head.reset();
    head.feed(input.data(), cut);
    std::vector<Report> got = head.takeReports();

    MatchEngine tail(ctx, engineOpts(SimKernel::Sparse));
    tail.setState(head.frontier(), head.frontierScores(), cut);
    tail.feed(input.data() + cut, input.size() - cut);
    std::vector<Report> rest = tail.takeReports();
    got.insert(got.end(), rest.begin(), rest.end());
    EXPECT_EQ(got, expect);
}

// Speculative chunk-parallel joins certify frontier-set equality only,
// which says nothing about scores — a scored matcher must fall back to
// serial execution and still reproduce the oracle exactly.
TEST(ScoredMatch, ParallelMatcherFallsBackToSerial)
{
    Nfa nfa = sampleScoredNfa(0x9A12);
    auto ctx = std::make_shared<MatchContext>(
        std::make_shared<const MappedAutomaton>(mapPerformance(nfa)));
    auto input = sampleInput(512 << 10, 0x9A12);

    NfaEngine oracle(nfa);
    std::vector<Report> expect = oracle.run(input);

    ParallelOptions popts;
    popts.degree = 4;
    popts.minChunkBytes = 4 << 10; // would chunk, were it unscored
    ParallelMatcher matcher(ctx, popts);
    MatchResult res = matcher.match(input.data(), input.size());
    EXPECT_EQ(res.reports, expect);
    EXPECT_EQ(matcher.stats().serialCalls, matcher.stats().calls)
        << "scored automaton must never speculate";

    // Frontier scores ride along in the result.
    ASSERT_EQ(res.frontierScores.size(), res.frontier.size());
    EXPECT_EQ(res.frontier, oracle.frontier());
    for (size_t i = 0; i < res.frontier.size(); ++i)
        EXPECT_EQ(res.frontierScores[i],
                  oracle.stateScore(res.frontier[i]));
}

// A weighted stream continued through match(frontier, scores, offset, …)
// in 16 KiB calls, each call handed the previous call's frontier and
// frontierScores, is the uninterrupted stream: every report and score,
// and the end frontier's scores, equal NfaEngine's.
TEST(ScoredMatch, ParallelMatcherContinuesWithScores)
{
    BioPatternOptions opt;
    opt.maxEdits = 2;
    opt.score = BioScoreParams{2, -1, -2, -1};
    BioWorkload w = makeBioWorkload(4, 12, opt, kDnaAlphabet, 0xC0471);
    auto ctx = std::make_shared<MatchContext>(
        std::make_shared<const MappedAutomaton>(mapPerformance(w.nfa)));
    ASSERT_TRUE(ctx->scored());
    const std::vector<uint8_t> input =
        bioSampleInput(w, 128 << 10, 0.02, 0xC0472);
    constexpr size_t kCall = 16 << 10;

    for (ScoreSemiring sr : {ScoreSemiring::MaxPlus, ScoreSemiring::MinPlus}) {
        SCOPED_TRACE(semiringName(sr));
        NfaEngine oracle(w.nfa, sr);
        const std::vector<Report> expect = oracle.run(input);
        ASSERT_FALSE(expect.empty());

        ParallelOptions popts;
        popts.degree = 2;
        popts.engine.semiring = sr;
        ParallelMatcher matcher(ctx, popts);
        MatchResult r = matcher.match(input.data(), kCall);
        std::vector<Report> got = r.reports;
        for (size_t pos = kCall; pos < input.size(); pos += kCall) {
            ASSERT_EQ(r.endOffset, pos);
            r = matcher.match(r.frontier, r.frontierScores, r.endOffset,
                              input.data() + pos,
                              std::min(kCall, input.size() - pos));
            got.insert(got.end(), r.reports.begin(), r.reports.end());
        }
        EXPECT_EQ(got, expect);
        EXPECT_EQ(r.frontier, oracle.frontier());
        ASSERT_EQ(r.frontierScores.size(), r.frontier.size());
        for (size_t i = 0; i < r.frontier.size(); ++i)
            EXPECT_EQ(r.frontierScores[i], oracle.stateScore(r.frontier[i]))
                << "state " << r.frontier[i];
    }
}

// ------------------------------------------------------------ CAAF WGHT

std::vector<uint8_t>
pack(const MappedAutomaton &m)
{
    persist::ArtifactMeta meta;
    meta.label = "score-test";
    return persist::packArtifact(m, buildConfigImage(m), meta);
}

TEST(ScoredArtifact, WeightSectionRoundTrips)
{
    Nfa nfa = sampleScoredNfa(0xCAAF);
    MappedAutomaton m = mapPerformance(nfa);
    std::vector<uint8_t> bytes = pack(m);

    persist::ArtifactReader reader(bytes);
    ASSERT_TRUE(reader.hasSection(persist::kSecWeights));
    Nfa back = reader.nfa();
    ASSERT_EQ(back.numStates(), nfa.numStates());
    EXPECT_TRUE(back.hasWeights());
    for (StateId s = 0; s < nfa.numStates(); ++s) {
        const NfaState &a = nfa.state(s);
        const NfaState &b = back.state(s);
        EXPECT_EQ(a.startWeight, b.startWeight) << "state " << s;
        ASSERT_EQ(a.out.size(), b.out.size()) << "state " << s;
        for (size_t k = 0; k < a.out.size(); ++k)
            EXPECT_EQ(nfa.edgeWeight(s, k), back.edgeWeight(s, k))
                << "state " << s << " edge " << k;
    }

    // A sim restored from the artifact honors the exact-score contract.
    persist::LoadedArtifact loaded = persist::loadArtifactBytes(bytes);
    auto input = sampleInput(4 << 10, 0xCAAF);
    CacheAutomatonSim sim(loaded.automaton);
    NfaEngine oracle(nfa);
    EXPECT_EQ(sim.run(input).reports, oracle.run(input));
}

// Unweighted automata must not grow a WGHT section — pre-scoring
// artifacts and fingerprints stay byte-identical.
TEST(ScoredArtifact, UnweightedArtifactHasNoWeightSection)
{
    Nfa nfa = compileRuleset({"ab+c", "cat|dog"});
    std::vector<uint8_t> bytes =
        pack(mapPerformance(nfa));
    persist::ArtifactReader reader(bytes);
    EXPECT_FALSE(reader.hasSection(persist::kSecWeights));
    EXPECT_FALSE(reader.nfa().hasWeights());
}

TEST(ScoredArtifact, CorruptWeightSectionRejected)
{
    Nfa nfa = sampleScoredNfa(0xBAD);
    std::vector<uint8_t> bytes =
        pack(mapPerformance(nfa));

    // Locate the WGHT section header by its fourcc and flip one payload
    // byte past the 16-byte (id|size|crc) header: the section CRC must
    // catch it.
    const uint8_t tag[] = {'W', 'G', 'H', 'T'};
    auto it = std::search(bytes.begin(), bytes.end(), std::begin(tag),
                          std::end(tag));
    ASSERT_NE(it, bytes.end());
    size_t payload = static_cast<size_t>(it - bytes.begin()) + 16;
    ASSERT_LT(payload, bytes.size());
    std::vector<uint8_t> mutant = bytes;
    mutant[payload + 2] ^= 0x40;
    EXPECT_THROW(persist::loadArtifactBytes(std::move(mutant)), CaError);

    // Truncation inside the WGHT payload must also reject cleanly.
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() +
                                 static_cast<long>(payload + 4));
    EXPECT_THROW(persist::loadArtifactBytes(std::move(cut)), CaError);
}

// Random bit flips anywhere in a weighted artifact either reject
// cleanly or load into a usable simulator (never UB, never a crash).
TEST(ScoredArtifact, BitFlipsLoadCleanlyOrThrow)
{
    Nfa nfa = sampleScoredNfa(0xF11);
    std::vector<uint8_t> bytes =
        pack(mapPerformance(nfa));
    Rng rng(0xF11B0);
    for (int iter = 0; iter < 100; ++iter) {
        std::vector<uint8_t> mutant = bytes;
        size_t pos = rng.below(mutant.size());
        mutant[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
        try {
            persist::LoadedArtifact loaded =
                persist::loadArtifactBytes(std::move(mutant));
            CacheAutomatonSim sim(loaded.automaton);
            const uint8_t probe[] = {'a', 'b', 'c'};
            sim.feed(probe, sizeof(probe));
        } catch (const CaError &) {
            // clean rejection is the expected path
        }
    }
}

// ------------------------------------------------------------ bio witness

/** Per-offset semiring-best over one pattern's reports. */
std::vector<BioWitnessHit>
aggregateHits(const std::vector<Report> &reports, uint32_t id,
              ScoreSemiring sr)
{
    std::map<uint64_t, Score> best;
    for (const Report &r : reports) {
        if (r.reportId != id)
            continue;
        auto [it, fresh] = best.emplace(r.offset, r.score);
        if (!fresh)
            it->second = scoreCombine(sr, it->second, r.score);
    }
    std::vector<BioWitnessHit> out;
    out.reserve(best.size());
    for (const auto &[off, sc] : best)
        out.push_back(BioWitnessHit{off, sc});
    return out;
}

// The scored Levenshtein automaton must agree with the independent
// Gotoh-style DP witness on every hit offset and every best score.
class BioWitnessEquality : public ::testing::TestWithParam<int>
{
};

TEST_P(BioWitnessEquality, AutomatonAgreesWithAlignmentWitness)
{
    int param = GetParam();
    BioPatternOptions opt;
    opt.maxEdits = 1 + param % 2;
    opt.anchored = false;
    if (param % 3 == 0)
        opt.score = BioScoreParams::linear(2, -1, -2);
    const std::string &alphabet =
        param % 2 == 0 ? kDnaAlphabet : kProteinAlphabet;

    BioWorkload w = makeBioWorkload(
        /*num_patterns=*/2, /*pattern_len=*/5 + param % 4, opt, alphabet,
        0xB10 + static_cast<uint64_t>(param));
    ASSERT_TRUE(w.nfa.hasWeights());
    std::vector<uint8_t> input =
        bioSampleInput(w, 4 << 10, 0.02, 0xFEED + param);

    // Engine under test: the mapped sim, which the other suites hold to
    // the oracle; the witness recomputes truth from the alignment
    // definition alone.
    MappedAutomaton m = mapPerformance(w.nfa);
    CacheAutomatonSim sim(m, simOpts(SimKernel::Auto, opt.semiring));
    std::vector<Report> reports = sim.run(input).reports;

    bool any = false;
    for (uint32_t id = 0; id < w.patterns.size(); ++id) {
        std::vector<BioWitnessHit> want = bioAlignWitness(
            w.patterns[id], input.data(), input.size(), opt);
        std::vector<BioWitnessHit> got =
            aggregateHits(reports, id, opt.semiring);
        EXPECT_EQ(got, want) << "pattern " << w.patterns[id];
        any = any || !want.empty();
    }
    EXPECT_TRUE(any) << "vacuous bio input: no witness hits at all";
}

INSTANTIATE_TEST_SUITE_P(Random, BioWitnessEquality,
                         ::testing::Range(0, 6));

TEST(Bio, AnchoredRestrictsToPrefixAlignments)
{
    BioPatternOptions opt;
    opt.maxEdits = 1;
    opt.anchored = true;
    Nfa nfa = bioLevenshteinNfa("ACGT", opt);
    std::string text = "ACGTTTACGT";
    NfaEngine oracle(nfa, opt.semiring);
    std::vector<Report> reports = oracle.run(
        reinterpret_cast<const uint8_t *>(text.data()), text.size());
    std::vector<BioWitnessHit> want = bioAlignWitness(
        "ACGT", reinterpret_cast<const uint8_t *>(text.data()),
        text.size(), opt);
    EXPECT_EQ(aggregateHits(reports, 0, opt.semiring), want);
    // Anchored: alignments start at offset 0 only, so no hit can end
    // past |P| + maxEdits symbols.
    for (const Report &r : reports)
        EXPECT_LT(r.offset, 4u + 1u + 1u);
}

TEST(Bio, InvalidParamsThrow)
{
    BioPatternOptions opt;
    opt.maxEdits = 4;
    EXPECT_THROW(bioLevenshteinNfa("ACG", opt), CaError);
    EXPECT_THROW(bioLevenshteinNfa("", BioPatternOptions{}), CaError);
}

} // namespace
} // namespace ca
