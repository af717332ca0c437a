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
 *      (affine-gap DNA alignment) through each sim kernel and the
 *      functional MatchEngine, against the *same automaton with its
 *      weights stripped* — identical topology, so the table's
 *      scored-cost column isolates exactly what score accumulation
 *      adds per kernel.
 *
 *   2. Unscored automata pay nothing: the unscored arms run the exact
 *      pre-scoring kernels (Scored=false is an if-constexpr twin), and
 *      the guard section re-times the stripped automaton against a
 *      structurally identical one whose weight vectors are materialized
 *      but all-zero. hasWeights() is value-based, so both must take the
 *      unscored path; any daylight between them means the unscored path
 *      started keying on weight *presence* instead of weight *values*.
 *      Bar: <2%, matching the observability-plane precedent.
 *
 * Every timed run is cross-checked against the CPU reference, NfaEngine —
 * report streams must match exactly, scores included (the
 * tests/score_test.cpp contract, re-enforced at bench scale); any
 * mismatch exits nonzero.
 *
 * Environment knobs: CA_BENCH_SCALE (pattern count), CA_BENCH_BYTES
 * (stream bytes, floored at 512 KiB outside --smoke so the guard's
 * timed arms outlast timer noise; oracle cost scales with this too).
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

double
mbps(size_t bytes, double wall_ms)
{
    return wall_ms > 0.0
        ? (static_cast<double>(bytes) / 1e6) / (wall_ms / 1e3)
        : 0.0;
}

struct TimedRun
{
    double mbps = 0.0;
    std::vector<Report> reports;
};

TimedRun
timeSim(const MappedAutomaton &mapped, const std::vector<uint8_t> &input,
        SimKernel kernel)
{
    SimOptions opts;
    opts.kernel = kernel;
    CacheAutomatonSim sim(mapped, opts);
    sim.run(input.data(), std::min<size_t>(input.size(), 4096)); // warm
    auto t0 = std::chrono::steady_clock::now();
    SimResult r = sim.run(input);
    auto t1 = std::chrono::steady_clock::now();
    TimedRun tr;
    tr.mbps = mbps(input.size(),
                   std::chrono::duration<double, std::milli>(t1 - t0)
                       .count());
    tr.reports = std::move(r.reports);
    return tr;
}

TimedRun
timeEngine(const std::shared_ptr<const match::MatchContext> &ctx,
           const std::vector<uint8_t> &input)
{
    match::MatchEngine warm(ctx, {});
    warm.feed(input.data(), std::min<size_t>(input.size(), 4096));
    match::MatchEngine eng(ctx, {});
    auto t0 = std::chrono::steady_clock::now();
    eng.feed(input.data(), input.size());
    auto t1 = std::chrono::steady_clock::now();
    TimedRun tr;
    tr.mbps = mbps(input.size(),
                   std::chrono::duration<double, std::milli>(t1 - t0)
                       .count());
    tr.reports = eng.takeReports();
    return tr;
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
checkOracle(const char *label, const std::vector<Report> &got,
            const std::vector<Report> &want)
{
    if (got == want)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s diverged from the CPU reference "
                 "(%zu reports vs %zu expected)\n",
                 label, got.size(), want.size());
    return false;
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
    MappedAutomaton scored_m = mapPerformance(w.nfa);
    MappedAutomaton plain_m = mapPerformance(plain_nfa);

    std::printf("Scored match — %d DNA patterns, k=%d affine gaps, "
                "%zu states, %.1f KiB stream\n\n",
                patterns, popt.maxEdits, scored_m.nfa().numStates(),
                static_cast<double>(input.size()) / 1024.0);

    std::vector<Report> scored_want = NfaEngine(w.nfa).run(input);
    std::vector<Report> plain_want = NfaEngine(plain_nfa).run(input);
    std::fprintf(stderr, "oracle: %zu scored reports\n",
                 scored_want.size());

    bool ok = true;
    TablePrinter t({"Kernel", "Plain MB/s", "Scored MB/s", "Score cost"});
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
    for (const KernelArm &k : kernels) {
        TimedRun plain = timeSim(plain_m, input, k.kernel);
        TimedRun scored = timeSim(scored_m, input, k.kernel);
        ok &= checkOracle((std::string("plain sim/") + k.name).c_str(),
                          plain.reports, plain_want);
        ok &= checkOracle((std::string("scored sim/") + k.name).c_str(),
                          scored.reports, scored_want);
        double cost_pct = plain.mbps > 0
            ? (1.0 - scored.mbps / plain.mbps) * 100.0
            : 0.0;
        t.addRow({k.name, fixed(plain.mbps, 1), fixed(scored.mbps, 1),
                  fixed(cost_pct, 1) + "%"});
    }
    {
        auto plain_ctx = std::make_shared<match::MatchContext>(
            std::make_shared<const MappedAutomaton>(
                mapPerformance(plain_nfa)));
        auto scored_ctx = std::make_shared<match::MatchContext>(
            std::make_shared<const MappedAutomaton>(
                mapPerformance(w.nfa)));
        TimedRun plain = timeEngine(plain_ctx, input);
        TimedRun scored = timeEngine(scored_ctx, input);
        ok &= checkOracle("plain engine", plain.reports, plain_want);
        ok &= checkOracle("scored engine", scored.reports, scored_want);
        double cost_pct = plain.mbps > 0
            ? (1.0 - scored.mbps / plain.mbps) * 100.0
            : 0.0;
        t.addRow({"engine", fixed(plain.mbps, 1), fixed(scored.mbps, 1),
                  fixed(cost_pct, 1) + "%"});
    }
    t.print();

    // Unscored-path overhead guard: stripped vs zero-materialized
    // weights, interleaved reps, best-rep estimator.
    Nfa zeroed_nfa = zeroWeights(w.nfa);
    MappedAutomaton zeroed_m = mapPerformance(zeroed_nfa);
    double best_stripped = 0.0, best_zeroed = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        TimedRun a = timeSim(plain_m, input, SimKernel::Auto);
        TimedRun b = timeSim(zeroed_m, input, SimKernel::Auto);
        ok &= checkOracle("guard stripped", a.reports, plain_want);
        ok &= checkOracle("guard zeroed", b.reports, plain_want);
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
                    "the oracle cross-checks still bind)\n");
    if (!ok) {
        std::fprintf(stderr,
                     "FAIL: scored/plain report streams diverged from "
                     "the oracle\n");
        return 1;
    }
    return 0;
}
