/**
 * @file
 * The four serving workloads. README.md records why each exists and
 * which layers it is meant to move.
 */
#include <algorithm>
#include <string>

#include "bench.h"
#include "core/error.h"
#include "core/rng.h"
#include "nfa/glushkov.h"
#include "score/bioseq.h"
#include "workload/input_gen.h"
#include "workload/rulegen.h"
#include "workload/suite.h"
#include "workload/witness.h"

namespace perfbench {

using namespace ca;

namespace {

/** Rule seeds are fixed: every input seed is served by one automaton. */
constexpr uint64_t kRuleSeed = kDefaultRuleSeed;

/** Per-input seeds, so input i of seed s never repeats input j of s. */
uint64_t
inputSeed(uint64_t seed, size_t i)
{
    uint64_t state = seed * 0x100000001b3ull + i;
    return splitmix64(state);
}

net::MatchServerOptions
serverOptions()
{
    // ca_server's defaults, with the worker count pinned so a host with
    // more threads still measures the same configuration.
    net::MatchServerOptions o;
    o.stream.workers = 2;
    return o;
}

Workload
snortBulk(uint64_t seed, bool small)
{
    Workload w;
    w.name = "snort_bulk";
    w.loop = Loop::Closed;
    w.connections = 2;
    w.streamsPerConnection = 2;
    w.requestBytes = 32u << 10;
    w.server = serverOptions();

    const int rules_n = small ? 40 : 200;
    auto rules = std::make_shared<std::vector<std::string>>(
        genSnortRules(rules_n, kRuleSeed));
    w.compile = [rules] { return compileRuleset(*rules); };
    w.ruleset = "genSnortRules(" + std::to_string(rules_n) + ")";

    InputSpec spec;
    spec.kind = StreamKind::Payload;
    spec.plantPatterns.assign(rules->begin(), rules->begin() + 32);
    spec.plantsPer4k = 2.0;
    const size_t bytes = small ? (256u << 10) : (4u << 20);
    for (size_t i = 0; i < 4; ++i)
        w.inputs.push_back(buildInput(spec, bytes, inputSeed(seed, i)));
    return w;
}

/** Anchored request-header rules: "^METHOD /word/word..." shapes. */
std::vector<std::string>
headerRules(int n)
{
    static const char *methods[] = {"GET", "POST", "PUT", "DELETE"};
    const std::vector<std::string> &lex = wordLexicon();
    Rng rng(kRuleSeed);
    std::vector<std::string> rules;
    for (int i = 0; i < n; ++i) {
        std::string r = "^";
        r += methods[rng.below(4)];
        r += " /";
        r += lex[rng.below(lex.size())];
        r += "/";
        r += lex[rng.below(lex.size())];
        switch (rng.below(3)) {
          case 0: r += "/[0-9]{2,6}"; break;
          case 1: r += "\\?id=[a-f0-9]+"; break;
          default: r += " HTTP/1\\.[01]"; break;
        }
        rules.push_back(std::move(r));
    }
    return rules;
}

Workload
faninRequests(uint64_t seed, bool small)
{
    Workload w;
    w.name = "fanin_requests";
    w.loop = Loop::Open;
    w.connections = 4;
    // A quarter of the capacity measured when the benchmark was added;
    // README.md ("Offered rate") says why not half.
    w.rate = small ? 2000.0 : 8000.0;
    w.server = serverOptions();

    auto rules = std::make_shared<std::vector<std::string>>(headerRules(24));
    w.compile = [rules] { return compileRuleset(*rules); };
    w.ruleset = "24 anchored header rules";

    // A fixed share of messages opens with a rule witness, so reports
    // fire; the rest open with a header no rule starts with.
    Rng rng(inputSeed(seed, 0));
    InputSpec body;
    body.kind = StreamKind::Payload;
    const size_t count = small ? 256 : 4096;
    for (size_t i = 0; i < count; ++i) {
        const size_t size = 512 + rng.below(4096 - 512 + 1);
        std::string head = rng.chance(0.3)
            ? sampleWitness((*rules)[rng.below(rules->size())], rng)
            : std::string("X-Trace: ") + std::to_string(rng.next());
        std::vector<uint8_t> msg(head.begin(), head.end());
        std::vector<uint8_t> rest = buildInput(body, size, rng.next());
        msg.insert(msg.end(), rest.begin(), rest.end());
        msg.resize(std::max(size, head.size()));
        w.inputs.push_back(std::move(msg));
    }
    return w;
}

Workload
fermiParallel(uint64_t seed, bool small)
{
    Workload w;
    w.name = "fermi_parallel";
    w.loop = Loop::Closed;
    w.connections = 1;
    w.streamsPerConnection = 1;
    // One degree-3 slice budget (3 x sliceSymbols), so every slice
    // reaches matchParallelMinBytes and splits into 3 chunks.
    w.requestBytes = 192u << 10;
    w.server = serverOptions();
    w.server.stream.matchParallelism = 3;

    const double scale = small ? 0.0025 : 0.005;
    const Benchmark &b = findBenchmark("Fermi");
    auto rules = std::make_shared<std::vector<std::string>>(
        b.rules(scale, kRuleSeed));
    w.compile = [rules] { return compileRuleset(*rules); };
    w.ruleset = "Fermi suite rules at scale " + std::to_string(scale) +
        " (" + std::to_string(rules->size()) + " rules)";

    const size_t bytes = small ? (1u << 20) : (8u << 20);
    for (size_t i = 0; i < 4; ++i)
        w.inputs.push_back(
            benchmarkInput(b, bytes, inputSeed(seed, i), scale, kRuleSeed));
    return w;
}

Workload
bioScored(uint64_t seed, bool small)
{
    Workload w;
    w.name = "bio_scored";
    w.loop = Loop::Closed;
    w.connections = 2;
    w.streamsPerConnection = 1;
    w.requestBytes = 16u << 10;
    w.server = serverOptions();

    BioPatternOptions opt;
    opt.maxEdits = 2;
    opt.score = BioScoreParams{2, -1, -2, -1}; // affine-gap DNA
    const int patterns = small ? 4 : 8;
    auto bio = std::make_shared<BioWorkload>(
        makeBioWorkload(patterns, 12, opt, kDnaAlphabet, kRuleSeed));
    // Compile from the pattern text, as makeBioWorkload does.
    w.compile = [bio] {
        Nfa nfa;
        for (size_t r = 0; r < bio->patterns.size(); ++r)
            nfa.merge(bioLevenshteinNfa(bio->patterns[r], bio->options,
                                        static_cast<uint32_t>(r)));
        nfa.validate();
        return nfa;
    };
    w.ruleset = std::to_string(patterns) +
        " scored Levenshtein DNA patterns (length 12, k=2, affine gaps)";

    const size_t bytes = small ? (128u << 10) : (2u << 20);
    for (size_t i = 0; i < 4; ++i)
        w.inputs.push_back(
            bioSampleInput(*bio, bytes, 0.02, inputSeed(seed, i)));
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "snort_bulk", "fanin_requests", "fermi_parallel", "bio_scored"};
    return names;
}

Workload
makeWorkload(const std::string &name, uint64_t seed, bool small)
{
    if (name == "snort_bulk")
        return snortBulk(seed, small);
    if (name == "fanin_requests")
        return faninRequests(seed, small);
    if (name == "fermi_parallel")
        return fermiParallel(seed, small);
    if (name == "bio_scored")
        return bioScored(seed, small);
    CA_THROW("unknown workload '" << name << "'");
}

} // namespace perfbench
