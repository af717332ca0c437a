/**
 * @file
 * ca_client: stream bytes to a ca_server and collect match reports.
 *
 *   ca_client --port N [--host H] file1 [file2 ...]
 *   ca_client --port N --gen-benchmark Snort --gen-bytes 1048576
 *
 * Each positional file (or the generated input) becomes one stream on a
 * single connection; bytes are sent in --chunk-bytes chunks, the stream
 * is flushed and closed, and the report count (plus the first reports
 * with --print N) is printed per stream.
 *
 * Options:
 *   --host H          server host (default 127.0.0.1)
 *   --port N          server port (required)
 *   --chunk-bytes N   DATA chunk size (default 65536)
 *   --fingerprint HEX require this automaton fingerprint in HELLO
 *   --gen-benchmark B generate the benchmark's input instead of files
 *   --gen-bytes N     generated input length (default 1 MiB)
 *   --gen-scale S     ruleset scale used for witness planting
 *   --seed N          generated input seed
 *   --print N         print the first N reports of each stream
 *   --metrics-out F / --trace-out F   telemetry artifacts at exit
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli.h"
#include "core/error.h"
#include "net/client.h"
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
        "  ca_client --port N [--host H] [--chunk-bytes N] "
        "[--fingerprint HEX]\n"
        "            [--print N] [--metrics-out F] [--trace-out F]\n"
        "            (<input-file>... | --gen-benchmark B "
        "[--gen-bytes N] [--seed N])\n");
    return 2;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    CA_FATAL_IF(!is, "cannot open input file " << path);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(is),
                                std::istreambuf_iterator<char>());
}

int
run(const cli::Args &args)
{
    if (args.opt("port").empty()) {
        std::fprintf(stderr, "ca_client: --port is required\n");
        return usage();
    }
    uint16_t port = static_cast<uint16_t>(std::stoul(args.opt("port")));
    std::string host = args.opt("host", "127.0.0.1");
    size_t chunk_bytes = args.opt("chunk-bytes").empty()
        ? (64u << 10)
        : std::stoull(args.opt("chunk-bytes"));
    CA_FATAL_IF(chunk_bytes == 0, "ca_client: --chunk-bytes must be > 0");
    size_t print_n = args.opt("print").empty()
        ? 0
        : std::stoull(args.opt("print"));

    // Assemble (name, bytes) inputs: files, or one generated stream.
    std::vector<std::pair<std::string, std::vector<uint8_t>>> inputs;
    if (!args.opt("gen-benchmark").empty()) {
        const Benchmark &b = findBenchmark(args.opt("gen-benchmark"));
        size_t gen_bytes = args.opt("gen-bytes").empty()
            ? (1u << 20)
            : std::stoull(args.opt("gen-bytes"));
        uint64_t seed = args.opt("seed").empty()
            ? 0xCAFEu
            : std::stoull(args.opt("seed"));
        double scale = args.opt("gen-scale").empty()
            ? 1.0
            : std::stod(args.opt("gen-scale"));
        inputs.emplace_back(b.name + " (generated)",
                            benchmarkInput(b, gen_bytes, seed, scale));
    } else if (!args.positional.empty()) {
        for (const std::string &path : args.positional)
            inputs.emplace_back(path, readFile(path));
    } else {
        std::fprintf(stderr,
                     "ca_client: input files or --gen-benchmark "
                     "required\n");
        return usage();
    }

    net::ClientOptions copts;
    if (!args.opt("fingerprint").empty())
        copts.expectedFingerprint =
            std::stoull(args.opt("fingerprint"), nullptr, 16);

    net::MatchClient client;
    client.connect(host, port, copts);
    std::printf("connected to %s:%u (fingerprint %016llx)\n",
                host.c_str(), static_cast<unsigned>(port),
                static_cast<unsigned long long>(
                    client.serverFingerprint()));

    uint64_t total_reports = 0;
    for (const auto &[name, bytes] : inputs) {
        uint32_t stream = client.openStream();
        for (size_t pos = 0; pos < bytes.size(); pos += chunk_bytes) {
            size_t n = std::min(chunk_bytes, bytes.size() - pos);
            client.send(stream, bytes.data() + pos, n);
        }
        if (bytes.empty())
            client.send(stream, bytes.data(), 0);
        client.flush(stream);
        net::StreamSummary sum = client.closeStream(stream);
        std::vector<Report> reports = client.takeReports(stream);
        CA_FATAL_IF(reports.size() != sum.reports,
                    "ca_client: server reported " << sum.reports
                        << " reports but delivered " << reports.size());
        std::printf("%s: %zu bytes, %zu reports\n", name.c_str(),
                    bytes.size(), reports.size());
        for (size_t i = 0; i < std::min(print_n, reports.size()); ++i)
            std::printf("  offset %llu  report %u  state %u\n",
                        static_cast<unsigned long long>(
                            reports[i].offset),
                        reports[i].reportId, reports[i].state);
        total_reports += reports.size();
    }
    client.close();
    std::printf("total: %zu streams, %llu reports\n", inputs.size(),
                static_cast<unsigned long long>(total_reports));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ca::telemetry::CliSession session(argc, argv);
    std::optional<ca::cli::Args> args = ca::cli::parseArgs(
        argc, argv, 1, "ca_client",
        {{"host"}, {"port"}, {"chunk-bytes"}, {"fingerprint"},
         {"gen-benchmark"}, {"gen-bytes"}, {"gen-scale"}, {"seed"},
         {"print"}});
    if (!args)
        return usage();
    try {
        return run(*args);
    } catch (const ca::CaError &e) {
        std::fprintf(stderr, "ca_client: %s\n", e.what());
        return 1;
    }
}
