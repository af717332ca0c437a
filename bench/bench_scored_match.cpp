/**
 * @file
 * Scored vs plain Levenshtein matching throughput (docs/SCORING.md).
 *
 *   bench_scored_match [--smoke] [--metrics-out F] [--trace-out F]
 *
 * The scoring subsystem's two performance promises, measured on the
 * bioinformatics workload family:
 *
 *   1. Scored matching is affordable: a weighted Levenshtein automaton
 *      (affine-gap DNA alignment) through the serving engine
 *      (match::MatchEngine, no observer) under each kernel, against the
 *      *same automaton with its weights stripped*: identical topology,
 *      so the cost columns isolate exactly what score accumulation adds
 *      per kernel, under max-plus and under min-plus.
 *
 *   2. Unscored automata pay nothing: the unscored arms run the
 *      Scored=false kernels, which hold no score state (the score work
 *      is in if-constexpr blocks), and the guard section re-times the stripped automaton against a
 *      structurally identical one whose weight vectors are materialized
 *      but all-zero. hasWeights() is value-based, so both must take the
 *      unscored path; any daylight between them means the unscored path
 *      started keying on weight *presence* instead of weight *values*.
 *      Bar: <2%, matching the observability-plane precedent.
 *
 * Every arm is cross-checked against the CPU reference, NfaEngine, under
 * its semiring: report streams must match exactly, scores included (the
 * tests/score_test.cpp contract, re-enforced at bench scale). The
 * cycle-accurate simulator runs every arm too, untimed, against the
 * same reference. Any mismatch exits nonzero.
 *
 * Environment knobs: CA_BENCH_SCALE (pattern count), CA_BENCH_BYTES
 * (stream bytes, floored at 512 KiB outside --smoke so the guard's
 * timed arms outlast timer noise; reference cost scales with this too).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/nfa_engine.h"
#include "bench_common.h"
#include "compiler/mapping.h"
#include "core/string_utils.h"
#include "match/match_engine.h"
#include "nfa/glushkov.h"
#include "score/bioseq.h"

using namespace ca;
using namespace ca::bench;

namespace {

/**
 * Timed passes per arm: at least kMinPasses, and more until kMinSeconds
 * have been spent. The fastest pass is reported, so a scheduling hiccup
 * in one pass does not decide a row.
 */
constexpr int kMinPasses = 3;
constexpr double kMinSeconds = 0.25;

struct TimedRun
{
    double mbps = 0.0;
    std::vector<Report> reports;
};

using ContextPtr = std::shared_ptr<const match::MatchContext>;

ContextPtr
makeContext(const Nfa &nfa)
{
    return std::make_shared<const match::MatchContext>(
        std::make_shared<const MappedAutomaton>(mapPerformance(nfa)));
}

TimedRun
timeEngine(const ContextPtr &ctx, const std::vector<uint8_t> &input,
           SimKernel kernel, ScoreSemiring semiring, bool smoke)
{
    match::MatchOptions opts;
    opts.kernel = kernel;
    opts.semiring = semiring;
    match::MatchEngine eng(ctx, opts);
    // One untimed pass warms the cache, so the timed passes measure the
    // steady-state stepper.
    eng.feed(input.data(), std::min<size_t>(input.size(), 4096));

    TimedRun tr;
    double best_ms = 0.0;
    double spent_ms = 0.0;
    const int min_passes = smoke ? 1 : kMinPasses;
    const double min_ms = smoke ? 0.0 : kMinSeconds * 1e3;
    for (int pass = 0; pass < min_passes || spent_ms < min_ms; ++pass) {
        eng.reset();
        auto t0 = std::chrono::steady_clock::now();
        eng.feed(input.data(), input.size());
        auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        spent_ms += ms;
        if (pass == 0 || ms < best_ms)
            best_ms = ms;
        tr.reports = eng.takeReports();
    }
    tr.mbps = best_ms > 0.0
        ? (static_cast<double>(input.size()) / 1e6) / (best_ms / 1e3)
        : 0.0;
    return tr;
}

std::vector<Report>
simulate(const ContextPtr &ctx, const std::vector<uint8_t> &input,
         SimKernel kernel, ScoreSemiring semiring)
{
    SimOptions opts;
    opts.kernel = kernel;
    opts.semiring = semiring;
    CacheAutomatonSim sim(ctx->mapped(), opts);
    return sim.run(input).reports;
}

/** Same topology, no weights: the plain-Levenshtein comparison arm. */
Nfa
stripWeights(const Nfa &src)
{
    Nfa out = src;
    for (StateId s = 0; s < out.numStates(); ++s) {
        out.state(s).outWeight.clear();
        out.state(s).startWeight = 0;
    }
    return out;
}

/** Weight vectors materialized but all-zero: still an unscored automaton. */
Nfa
zeroWeights(const Nfa &src)
{
    Nfa out = src;
    for (StateId s = 0; s < out.numStates(); ++s) {
        NfaState &st = out.state(s);
        st.outWeight.assign(st.out.size(), 0);
        st.startWeight = 0;
    }
    return out;
}

bool
checkReference(const std::string &label, const std::vector<Report> &got,
               const std::vector<Report> &want)
{
    if (got == want)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s diverged from the CPU reference "
                 "(%zu reports vs %zu expected)\n",
                 label.c_str(), got.size(), want.size());
    return false;
}

std::string
costText(double plain_mbps, double scored_mbps)
{
    const double pct =
        plain_mbps > 0 ? (1.0 - scored_mbps / plain_mbps) * 100.0 : 0.0;
    return fixed(pct, 1) + "%";
}

} // namespace

int
main(int argc, char **argv)
{
    TelemetrySession telemetry(argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    BenchConfig cfg = BenchConfig::fromEnv();
    size_t stream_bytes = cfg.streamBytes;
    int reps = 3;
    if (smoke) {
        cfg.scale = std::min(cfg.scale, 0.25);
        stream_bytes = std::min<size_t>(stream_bytes, 8u << 10);
        reps = 1;
    } else {
        // Sub-second arms drown the <2% guard in timer noise; floor the
        // stream so each timed run is long enough to resolve it.
        stream_bytes = std::max<size_t>(stream_bytes, 512u << 10);
    }

    int patterns = std::max(2, static_cast<int>(8 * cfg.scale));
    BioPatternOptions popt;
    popt.maxEdits = 2;
    popt.score = BioScoreParams{2, -1, -2, -1}; // affine-gap DNA
    BioWorkload w =
        makeBioWorkload(patterns, 12, popt, kDnaAlphabet, cfg.seed);
    std::vector<uint8_t> input =
        bioSampleInput(w, stream_bytes, 0.01, cfg.seed + 1);

    Nfa plain_nfa = stripWeights(w.nfa);
    const ContextPtr scored_ctx = makeContext(w.nfa);
    const ContextPtr plain_ctx = makeContext(plain_nfa);

    std::printf("Scored match — MatchEngine, %d DNA patterns, k=%d affine "
                "gaps, %zu states, %.1f KiB stream\n\n",
                patterns, popt.maxEdits, w.nfa.numStates(),
                static_cast<double>(input.size()) / 1024.0);

    const std::vector<Report> plain_want = NfaEngine(plain_nfa).run(input);
    const std::vector<Report> max_want =
        NfaEngine(w.nfa, ScoreSemiring::MaxPlus).run(input);
    const std::vector<Report> min_want =
        NfaEngine(w.nfa, ScoreSemiring::MinPlus).run(input);
    std::fprintf(stderr, "reference: %zu scored reports\n",
                 max_want.size());

    bool ok = true;
    TablePrinter t({"Kernel", "Plain MB/s", "Max-plus MB/s",
                    "Min-plus MB/s", "Max-plus cost", "Min-plus cost"});
    struct KernelArm
    {
        const char *name;
        SimKernel kernel;
    };
    const KernelArm kernels[] = {
        {"sparse", SimKernel::Sparse},
        {"dense", SimKernel::Dense},
        {"auto", SimKernel::Auto},
    };
    struct ScoreArm
    {
        const char *name;
        const ContextPtr &ctx;
        ScoreSemiring semiring;
        const std::vector<Report> &want;
    };
    const ScoreArm arms[] = {
        {"plain", plain_ctx, ScoreSemiring::MaxPlus, plain_want},
        {"max-plus", scored_ctx, ScoreSemiring::MaxPlus, max_want},
        {"min-plus", scored_ctx, ScoreSemiring::MinPlus, min_want},
    };
    for (const KernelArm &k : kernels) {
        double arm_mbps[3] = {};
        for (size_t a = 0; a < 3; ++a) {
            const ScoreArm &arm = arms[a];
            const std::string label =
                std::string(arm.name) + "/" + k.name;
            TimedRun r =
                timeEngine(arm.ctx, input, k.kernel, arm.semiring, smoke);
            ok &= checkReference("engine " + label, r.reports, arm.want);
            ok &= checkReference(
                "sim " + label,
                simulate(arm.ctx, input, k.kernel, arm.semiring),
                arm.want);
            arm_mbps[a] = r.mbps;
        }
        t.addRow({k.name, fixed(arm_mbps[0], 2), fixed(arm_mbps[1], 2),
                  fixed(arm_mbps[2], 2), costText(arm_mbps[0], arm_mbps[1]),
                  costText(arm_mbps[0], arm_mbps[2])});
    }
    t.print();

    // Unscored-path overhead guard: stripped vs zero-materialized
    // weights, interleaved reps, best-rep estimator.
    const ContextPtr zeroed_ctx = makeContext(zeroWeights(w.nfa));
    double best_stripped = 0.0, best_zeroed = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        TimedRun a = timeEngine(plain_ctx, input, SimKernel::Auto,
                                ScoreSemiring::MaxPlus, smoke);
        TimedRun b = timeEngine(zeroed_ctx, input, SimKernel::Auto,
                                ScoreSemiring::MaxPlus, smoke);
        ok &= checkReference("guard stripped", a.reports, plain_want);
        ok &= checkReference("guard zeroed", b.reports, plain_want);
        best_stripped = std::max(best_stripped, a.mbps);
        best_zeroed = std::max(best_zeroed, b.mbps);
    }
    double overhead_pct = best_stripped > 0
        ? (1.0 - best_zeroed / best_stripped) * 100.0
        : 0.0;
    std::printf("\nunscored-path overhead (zeroed vs stripped weights): "
                "%.2f%% (target < 2%%)\n",
                overhead_pct);
    CA_GAUGE_SET("ca.bench.scored_unscored_overhead_pct", overhead_pct);
    if (smoke)
        std::printf("(smoke run: plumbing check, not a measurement — "
                    "the reference cross-checks still bind)\n");
    if (!ok) {
        std::fprintf(stderr,
                     "FAIL: scored/plain report streams diverged from "
                     "the reference\n");
        return 1;
    }
    return 0;
}
