/**
 * @file
 * ca_artifact: pack / inspect / verify compiled-automaton artifacts.
 *
 *   ca_artifact pack --out f.caa --benchmark Snort [--scale 0.1]
 *                    [--seed N] [--policy perf|space] [--label text]
 *   ca_artifact pack --out f.caa --pattern 'ab+c' [--pattern ...]
 *   ca_artifact pack --out f.caa --rules rules.txt
 *   ca_artifact inspect f.caa
 *   ca_artifact verify f.caa [--input-bytes 65536] [--seed N]
 *   ca_artifact fetch HEX --from host:port [--out f.caa]
 *
 * pack compiles+maps a ruleset and atomically publishes the artifact;
 * inspect prints the header, section table, and decoded summaries;
 * verify re-checks everything an artifact promises: checksums, structural
 * cross-validation, config-image equivalence against a fresh rebuild,
 * and report-stream equality between the restored sim and the CPU
 * oracle on a deterministic random input. Exit status 0 iff all checks
 * pass (CaError diagnostics go to stderr).
 *
 * fetch pulls the artifact for a fingerprint from a running ca_server
 * (docs/CLUSTER.md) — repeat --from for failover — fully validates it,
 * and publishes it atomically to --out (default: the fingerprint-
 * addressed cache name, ca-fp-<hex>.caa). Operators use it to pre-seed
 * --cache-dir directories before pointing a --fingerprint server at
 * them.
 */
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/nfa_engine.h"
#include "cli.h"
#include "cluster/replication.h"
#include "core/error.h"
#include "core/rng.h"
#include "nfa/glushkov.h"
#include "persist/artifact.h"
#include "persist/cache.h"
#include "sim/engine.h"
#include "telemetry/telemetry.h"
#include "workload/suite.h"

namespace {

using namespace ca;

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  ca_artifact pack --out <file> (--benchmark <name> | --rules "
        "<file> | --pattern <re>...)\n"
        "              [--scale S] [--seed N] [--policy perf|space] "
        "[--label text]\n"
        "  ca_artifact inspect <file>\n"
        "  ca_artifact verify <file> [--input-bytes N] [--seed N]\n"
        "  ca_artifact fetch <fingerprint-hex> --from <host:port> "
        "[--from ...] [--out <file>]\n");
    return 2;
}

int
cmdPack(const cli::Args &args)
{
    std::string out = args.opt("out");
    if (out.empty()) {
        std::fprintf(stderr, "pack: --out is required\n");
        return usage();
    }
    double scale = args.opt("scale").empty()
        ? 1.0
        : std::stod(args.opt("scale"));
    uint64_t seed = args.opt("seed").empty()
        ? kDefaultRuleSeed
        : std::stoull(args.opt("seed"));
    std::string policy = args.opt("policy", "perf");
    CA_FATAL_IF(policy != "perf" && policy != "space",
                "pack: unknown policy '" << policy << "'");

    Nfa nfa;
    std::string label = args.opt("label");
    if (!args.opt("benchmark").empty()) {
        const Benchmark &b = findBenchmark(args.opt("benchmark"));
        nfa = b.build(scale, seed);
        if (label.empty())
            label = b.name;
    } else if (!args.opt("rules").empty()) {
        nfa = compileRuleset(cli::readRulesFile(args.opt("rules")));
        if (label.empty())
            label = args.opt("rules");
    } else if (!args.optAll("pattern").empty()) {
        nfa = compileRuleset(args.optAll("pattern"));
        if (label.empty())
            label = "patterns";
    } else {
        std::fprintf(stderr,
                     "pack: one of --benchmark/--rules/--pattern "
                     "is required\n");
        return usage();
    }

    MappedAutomaton mapped = policy == "space" ? mapSpace(nfa)
                                               : mapPerformance(nfa);
    persist::ArtifactMeta meta;
    meta.label = label;
    persist::saveArtifact(out, mapped, meta);

    std::printf("packed %s: %zu states, %zu partitions, policy %s\n",
                out.c_str(), mapped.nfa().numStates(),
                mapped.numPartitions(), policy.c_str());
    return 0;
}

int
cmdInspect(const cli::Args &args)
{
    if (args.positional.empty()) {
        std::fprintf(stderr, "inspect: artifact path required\n");
        return usage();
    }
    persist::ArtifactReader reader(args.positional[0]);

    std::printf("artifact:  %s (%zu bytes)\n", args.positional[0].c_str(),
                reader.fileBytes());
    std::printf("format:    CAAF v%u\n", reader.version());
    std::printf("tool:      %s\n", reader.meta().tool.c_str());
    std::printf("label:     %s\n", reader.meta().label.c_str());
    std::printf("cache key: %016llx\n",
                static_cast<unsigned long long>(reader.meta().contentKey));

    std::printf("\nsections:\n");
    for (const persist::SectionInfo &s : reader.sections())
        std::printf("  %-4s  %10llu bytes  crc32 %08x\n",
                    persist::sectionName(s.id).c_str(),
                    static_cast<unsigned long long>(s.size), s.crc);

    MappedAutomaton mapped = reader.automaton();
    const Design &d = mapped.design();
    const MappingStats &st = mapped.stats();
    NfaStats ns = mapped.nfa().stats();
    std::printf("\ndesign:    %s (%d STEs/partition, G1 %d, G4 %d wires, "
                "%.1f GHz)\n",
                d.name.c_str(), d.partitionStes, d.g1WiresPerPartition,
                d.g4WiresPerPartition, d.operatingFreqHz / 1e9);
    std::printf("automaton: %zu states, %zu transitions, %zu reports\n",
                ns.numStates, ns.numTransitions, ns.numReportStates);
    if (mapped.nfa().hasWeights()) {
        size_t weighted_edges = 0, weighted_starts = 0;
        for (const NfaState &st : mapped.nfa().states()) {
            for (Weight w : st.outWeight)
                if (w != 0)
                    ++weighted_edges;
            if (st.startWeight != 0)
                ++weighted_starts;
        }
        std::printf("scoring:   weighted (%zu weighted edges, %zu weighted "
                    "starts)\n",
                    weighted_edges, weighted_starts);
    } else {
        std::printf("scoring:   unweighted\n");
    }
    std::printf("mapping:   %zu partitions, %.3f MB, %zu intra / %zu G1 / "
                "%zu G4 edges\n",
                st.partitions, st.utilizationMB, st.intraPartitionEdges,
                st.g1Edges, st.g4Edges);

    ConfigImage img = reader.image();
    std::printf("image:     %zu partitions, %zu routes, %zu config bits\n",
                img.partitions.size(), img.routes.size(), img.totalBits());
    return 0;
}

int
cmdVerify(const cli::Args &args)
{
    if (args.positional.empty()) {
        std::fprintf(stderr, "verify: artifact path required\n");
        return usage();
    }
    const std::string &path = args.positional[0];
    size_t input_bytes = args.opt("input-bytes").empty()
        ? (64u << 10)
        : std::stoull(args.opt("input-bytes"));
    uint64_t seed = args.opt("seed").empty()
        ? 0xCAFEu
        : std::stoull(args.opt("seed"));

    // 1. Checksums + structural cross-validation (throws on failure).
    persist::LoadedArtifact loaded = persist::loadArtifact(path);
    std::printf("checksums + structure: OK (%zu states, %zu partitions)\n",
                loaded.automaton->nfa().numStates(),
                loaded.automaton->numPartitions());

    // 2. The stored config image must equal a fresh rebuild from the
    //    stored automaton (catches stale or cross-wired sections).
    ConfigImage rebuilt = buildConfigImage(*loaded.automaton);
    if (!persist::configImagesEqual(loaded.image, rebuilt)) {
        std::fprintf(stderr,
                     "verify: stored config image differs from rebuild\n");
        return 1;
    }
    std::printf("config image rebuild:  OK (%zu config bits)\n",
                rebuilt.totalBits());

    // 3. The restored sim must report identically to the CPU oracle on
    //    a deterministic random stream, scores included (weighted
    //    artifacts restore scoring).
    Rng rng(seed);
    std::vector<uint8_t> input(input_bytes);
    for (uint8_t &b : input)
        b = rng.byte();
    CacheAutomatonSim sim(loaded.automaton);
    SimResult res = sim.run(input);
    std::vector<Report> expect = NfaEngine(loaded.automaton->nfa()).run(input);
    if (res.reports != expect) {
        std::fprintf(stderr,
                     "verify: restored sim reports diverge from oracle "
                     "(%zu vs %zu)\n",
                     res.reports.size(), expect.size());
        return 1;
    }
    std::printf("sim vs oracle:         OK (%zu reports over %zu bytes)\n",
                expect.size(), input.size());
    std::printf("verify: %s OK\n", path.c_str());
    return 0;
}

int
cmdFetch(const cli::Args &args)
{
    if (args.positional.empty()) {
        std::fprintf(stderr, "fetch: fingerprint (hex) required\n");
        return usage();
    }
    std::vector<std::string> from = args.optAll("from");
    if (from.empty()) {
        std::fprintf(stderr, "fetch: --from host:port required\n");
        return usage();
    }
    uint64_t fp = std::stoull(args.positional[0], nullptr, 16);
    std::vector<cluster::PeerAddress> peers;
    for (const std::string &spec : from)
        peers.push_back(cluster::parsePeer(spec));

    cluster::Replicator repl(std::move(peers));
    std::vector<uint8_t> bytes = repl.fetchBytes(fp);

    std::string out = args.opt("out");
    if (out.empty()) {
        std::ostringstream os;
        os << std::hex << fp;
        std::string hex = os.str();
        out = "ca-fp-" + std::string(16 - hex.size(), '0') + hex + ".caa";
    }
    persist::writeBytesAtomic(out, bytes);
    std::printf("fetched %016llx: %zu bytes -> %s\n",
                static_cast<unsigned long long>(fp), bytes.size(),
                out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ca::telemetry::CliSession session(argc, argv);
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    struct Command
    {
        const char *name;
        int (*run)(const ca::cli::Args &);
        std::vector<ca::cli::Option> options;
    };
    const Command commands[] = {
        {"pack", cmdPack,
         {{"out"}, {"benchmark"}, {"rules"}, {"pattern"}, {"scale"},
          {"seed"}, {"policy"}, {"label"}}},
        {"inspect", cmdInspect, {}},
        {"verify", cmdVerify, {{"input-bytes"}, {"seed"}}},
        {"fetch", cmdFetch, {{"from"}, {"out"}}},
    };
    for (const Command &c : commands) {
        if (cmd != c.name)
            continue;
        const std::string tool = "ca_artifact " + cmd;
        std::optional<ca::cli::Args> args =
            ca::cli::parseArgs(argc, argv, 2, tool.c_str(), c.options);
        if (!args)
            return usage();
        try {
            return c.run(*args);
        } catch (const ca::CaError &e) {
            std::fprintf(stderr, "%s: %s\n", tool.c_str(), e.what());
            return 1;
        }
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
}
