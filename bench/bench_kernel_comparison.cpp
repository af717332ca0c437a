/**
 * @file
 * Sparse vs dense kernel comparison: the serving engine's throughput
 * (match::MatchEngine, no observer) under each per-symbol stepper
 * (SimKernel) across the benchmark suite, plus the Auto selector's
 * behaviour, as a function of the non-start frontier density.
 *
 * The sparse kernel pays O(enabled states) per symbol, the dense
 * bit-parallel kernel O(partitions with enabled states). Both seed each
 * next frontier from the same per-class start image, which serves the
 * fixed starts (all-input starts no edge enters), so which one wins is
 * governed by the rest of the frontier:
 * "Non-start" density, avg enabled states other than the fixed starts ÷
 * total states, which is also the Auto selector's signal. This bench
 * sweeps the suite under both kernels (and Auto), prints the
 * per-benchmark speedup against that density, and reports the observed
 * crossover — the numbers EXPERIMENTS.md records and the Auto default
 * threshold is set from.
 *
 * Every row also runs the cycle-accurate simulator, untimed, under each
 * kernel: report streams and every activity counter must agree across
 * kernels, and the engines' report streams must equal the simulator's.
 * A mismatch fails the run (bit-identity is a correctness contract, not
 * a goal).
 *
 * Usage:
 *   bench_kernel_comparison [--smoke] [--metrics-out F] [--trace-out F]
 *
 *   --smoke   tiny scale + stream for CI plumbing checks (seconds, not
 *             minutes); numbers are not meaningful at this size.
 *
 * Environment knobs: CA_BENCH_SCALE, CA_BENCH_BYTES, CA_FULL_INPUT
 * (see bench_common.h).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "compiler/mapping.h"
#include "core/string_utils.h"
#include "match/match_engine.h"
#include "nfa/glushkov.h"
#include "workload/suite.h"

using namespace ca;
using namespace ca::bench;

namespace {

/**
 * Timed passes per kernel: at least kMinPasses, and more until
 * kMinSeconds have been spent. The fastest pass is reported, so a
 * scheduling hiccup in one pass does not decide a row.
 */
constexpr int kMinPasses = 3;
constexpr double kMinSeconds = 0.25;

struct KernelRun
{
    double mbps = 0.0;
    double denseFraction = 0.0;
    std::vector<Report> reports;
};

KernelRun
timeEngine(const std::shared_ptr<const match::MatchContext> &ctx,
           const std::vector<uint8_t> &input, SimKernel kernel)
{
    match::MatchOptions opts;
    opts.kernel = kernel;
    match::MatchEngine eng(ctx, opts);
    // One untimed pass warms the cache, so the timed passes measure the
    // steady-state stepper.
    eng.feed(input.data(), std::min<size_t>(input.size(), 4096));

    KernelRun kr;
    double best_ms = 0.0;
    double spent_ms = 0.0;
    for (int pass = 0; pass < kMinPasses || spent_ms < kMinSeconds * 1e3;
         ++pass) {
        eng.reset();
        const KernelDecisionStats before = eng.kernelStats();
        auto t0 = std::chrono::steady_clock::now();
        eng.feed(input.data(), input.size());
        auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        spent_ms += ms;
        if (pass == 0 || ms < best_ms)
            best_ms = ms;
        const KernelDecisionStats after = eng.kernelStats();
        kr.denseFraction = input.empty()
            ? 0.0
            : static_cast<double>(after.denseSymbols - before.denseSymbols) /
                static_cast<double>(input.size());
        kr.reports = eng.takeReports();
    }
    kr.mbps = best_ms > 0.0
        ? (static_cast<double>(input.size()) / 1e6) / (best_ms / 1e3)
        : 0.0;
    return kr;
}

SimResult
simulate(const MappedAutomaton &mapped, const std::vector<uint8_t> &input,
         SimKernel kernel)
{
    SimOptions opts;
    opts.kernel = kernel;
    CacheAutomatonSim sim(mapped, opts);
    return sim.run(input);
}

/** Three significant digits: the suite spans 0.01 to 1000 MB/s. */
std::string
mbpsText(double mbps)
{
    return fixed(mbps, mbps >= 100 ? 0 : mbps >= 10 ? 1 : mbps >= 1 ? 2 : 3);
}

bool
sameStream(const SimResult &a, const SimResult &b)
{
    return a.reports == b.reports && a.totalActiveStates == b.totalActiveStates
        && a.totalEnabledStates == b.totalEnabledStates
        && a.totalActivePartitionCycles == b.totalActivePartitionCycles
        && a.totalG1Crossings == b.totalG1Crossings
        && a.totalG4Crossings == b.totalG4Crossings
        && a.fifoRefills == b.fifoRefills
        && a.outputBufferInterrupts == b.outputBufferInterrupts;
}

/**
 * The fixed starts: all-input starts that no edge enters. They are
 * enabled at every symbol, and neither kernel carries them in its
 * frontier.
 */
size_t
fixedStartCount(const Nfa &nfa)
{
    std::vector<bool> entered(nfa.numStates(), false);
    for (StateId s = 0; s < nfa.numStates(); ++s)
        for (StateId t : nfa.state(s).out)
            entered[t] = true;
    size_t n = 0;
    for (StateId s = 0; s < nfa.numStates(); ++s)
        if (nfa.state(s).start == StartType::AllInput && !entered[s])
            ++n;
    return n;
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
    if (smoke) {
        cfg.scale = std::min(cfg.scale, 0.05);
        cfg.streamBytes = std::min<size_t>(cfg.streamBytes, 16 << 10);
    }
    banner("Kernel comparison: MatchEngine sparse vs dense vs auto "
           "(DESIGN.md §7)",
           cfg);

    // "Active" = matched-state density (the Table 1 activity figure).
    // "Frontier" = avg enabled states ÷ total states, fixed starts
    // included (the hardware's enabled vector). "Non-start" leaves the
    // fixed starts out: the kernels' frontier, and Auto's signal.
    TablePrinter t({"Benchmark", "States", "Active", "Frontier",
                    "Non-start", "Sparse MB/s", "Dense MB/s",
                    "Dense/Sparse", "Auto MB/s", "Auto dense%",
                    "Auto/best"});

    // Crossover bookkeeping, in non-start density terms: the densest
    // non-start frontier where sparse still wins vs the sparsest where
    // dense wins.
    double sparse_wins_max_density = -1.0;
    double dense_wins_min_density = 2.0;
    std::string sparse_win_example;
    std::string dense_win_example;
    std::vector<double> suite_sparse, suite_dense, suite_auto;
    int auto_near_best = 0;
    int rows = 0;
    int mismatches = 0;

    auto evalRow = [&](const std::string &name, const Nfa &nfa,
                       const std::vector<uint8_t> &input, bool in_suite) {
        std::fprintf(stderr, "  %s...\n", name.c_str());
        MappedAutomaton mapped = mapPerformance(nfa);
        auto ctx = std::make_shared<const match::MatchContext>(mapped);

        KernelRun sp = timeEngine(ctx, input, SimKernel::Sparse);
        KernelRun de = timeEngine(ctx, input, SimKernel::Dense);
        KernelRun au = timeEngine(ctx, input, SimKernel::Auto);

        SimResult sim_sp = simulate(mapped, input, SimKernel::Sparse);
        SimResult sim_de = simulate(mapped, input, SimKernel::Dense);
        SimResult sim_au = simulate(mapped, input, SimKernel::Auto);
        if (!sameStream(sim_sp, sim_de) || !sameStream(sim_sp, sim_au)
            || sp.reports != sim_sp.reports || de.reports != sim_sp.reports
            || au.reports != sim_sp.reports) {
            std::fprintf(stderr,
                         "FATAL: kernel report streams or counters "
                         "diverge on %s\n",
                         name.c_str());
            ++mismatches;
            return;
        }

        const size_t states = nfa.numStates();
        const double symbols = static_cast<double>(sim_sp.symbols);
        const double per_symbol = states && sim_sp.symbols
            ? 1.0 / (symbols * static_cast<double>(states))
            : 0.0;
        const double active =
            static_cast<double>(sim_sp.totalActiveStates) * per_symbol;
        const double frontier =
            static_cast<double>(sim_sp.totalEnabledStates) * per_symbol;
        const double non_start =
            (static_cast<double>(sim_sp.totalEnabledStates) -
             symbols * static_cast<double>(fixedStartCount(nfa))) *
            per_symbol;
        const double ratio = sp.mbps > 0.0 ? de.mbps / sp.mbps : 0.0;
        const double best = std::max(sp.mbps, de.mbps);
        const double auto_vs_best = best > 0.0 ? au.mbps / best : 0.0;

        if (ratio > 1.0 && non_start < dense_wins_min_density) {
            dense_wins_min_density = non_start;
            dense_win_example = name;
        }
        if (ratio <= 1.0 && non_start > sparse_wins_max_density) {
            sparse_wins_max_density = non_start;
            sparse_win_example = name;
        }
        if (auto_vs_best >= 0.9)
            ++auto_near_best;
        ++rows;
        if (in_suite) {
            suite_sparse.push_back(sp.mbps);
            suite_dense.push_back(de.mbps);
            suite_auto.push_back(au.mbps);
        }

        t.addRow({name, std::to_string(states), fixed(active, 4),
                  fixed(frontier, 4), fixed(non_start, 4),
                  mbpsText(sp.mbps), mbpsText(de.mbps),
                  fixed(ratio, 2) + "x", mbpsText(au.mbps),
                  fixed(100.0 * au.denseFraction, 0) + "%",
                  fixed(auto_vs_best, 2)});

        // Not CA_GAUGE_SET: the macro caches one static gauge per call
        // site, which would pin these dynamic names to the first row.
        if (ca::telemetry::enabled()) {
            auto &reg = ca::telemetry::MetricsRegistry::global();
            reg.gauge("ca.bench.kernel.sparse_mbps." + name).set(sp.mbps);
            reg.gauge("ca.bench.kernel.dense_mbps." + name).set(de.mbps);
            reg.gauge("ca.bench.kernel.auto_mbps." + name).set(au.mbps);
            reg.gauge("ca.bench.kernel.nonstart_density." + name)
                .set(non_start);
        }
    };

    for (const Benchmark &b : benchmarkSuite()) {
        Nfa nfa = b.build(cfg.scale, cfg.seed);
        std::vector<uint8_t> input =
            benchmarkInput(b, cfg.streamBytes, cfg.seed + 1, cfg.scale,
                           cfg.seed);
        evalRow(b.name, nfa, input, true);
    }

    // A sparse-regime control the ANMLZoo-style suite lacks: anchored
    // rules leave almost nothing enabled after offset 0 (no all-input
    // starts), so the frontier stays far below one state per partition
    // and the frontier walk beats the partition scan.
    {
        std::vector<std::string> rules;
        int n_rules = std::max(2, static_cast<int>(200 * cfg.scale));
        for (int r = 0; r < n_rules; ++r) {
            std::string pat = "^";
            for (int j = 0; j < 60; ++j)
                pat += static_cast<char>('a' + (r * 7 + j * 13) % 26);
            rules.push_back(pat);
        }
        Nfa nfa = compileRuleset(rules);
        InputSpec spec;
        spec.kind = StreamKind::Text;
        std::vector<uint8_t> input =
            buildInput(spec, cfg.streamBytes, cfg.seed + 2);
        evalRow("Anchored(ctl)", nfa, input, false);
    }
    t.print();

    if (!sparse_win_example.empty())
        std::printf("\nDensest non-start frontier where sparse still won: "
                    "%.4f (%s)\n",
                    sparse_wins_max_density, sparse_win_example.c_str());
    else
        std::printf("\nSparse won nowhere at this scale\n");
    if (!dense_win_example.empty())
        std::printf("Sparsest non-start frontier where dense won:       "
                    "%.4f (%s)\n",
                    dense_wins_min_density, dense_win_example.c_str());
    std::printf("Auto threshold default: %.4f "
                "(MatchOptions::autoDensityThreshold)\n",
                match::MatchOptions{}.autoDensityThreshold);
    std::printf("Auto within 0.9x of the faster kernel on %d of %d rows\n",
                auto_near_best, rows);
    if (!suite_auto.empty())
        std::printf("Suite geomean MB/s: sparse %.2f, dense %.2f, "
                    "auto %.2f\n",
                    geomean(suite_sparse), geomean(suite_dense),
                    geomean(suite_auto));
    if (smoke)
        std::printf("\n(smoke run: scale %.2f, %zu-byte streams — "
                    "plumbing check only)\n", cfg.scale, cfg.streamBytes);
    if (mismatches) {
        std::fprintf(stderr, "%d benchmark(s) diverged between kernels\n",
                     mismatches);
        return 1;
    }
    return 0;
}
