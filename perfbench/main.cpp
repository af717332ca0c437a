/**
 * @file
 * perfbench: one serving benchmark for the match service (README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--source ID]
 *   perfbench --selftest [--seed N]
 *
 * Untraced runs print the end-to-end metrics; traced runs replay each
 * layer in isolation and print the per-layer metrics. Both check every
 * delivered report against a serial MatchEngine run and exit 1 on any
 * mismatch or failed request; the last stdout line is the JSON result.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "match/match_engine.h"
#include "sim/engine.h"
#include "telemetry/runtime.h"

extern char **environ;

namespace {

using namespace perfbench;
using namespace ca;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string source = "unknown";
    bool selftest = false;
};

/**
 * Environment overrides that would change the program under test. A
 * stray CA_SIM_KERNEL=dense from a CI shell measures another kernel.
 */
bool
overrideSet(std::string &which)
{
    static const char *exact[] = {"CA_SIM_KERNEL", "CA_MATCH_PARALLEL",
                                  "CA_FULL_INPUT", "CA_TELEMETRY",
                                  "CA_LOG"};
    for (char **e = environ; e && *e; ++e) {
        const std::string kv = *e;
        const std::string key = kv.substr(0, kv.find('='));
        bool hit = key.rfind("CA_BENCH_", 0) == 0;
        for (const char *x : exact)
            hit = hit || key == x;
        if (hit) {
            which = key;
            return true;
        }
    }
    return false;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

double
valueOf(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    return 0.0;
}

void
printMetric(const Metric &m, const std::string &note = {})
{
    std::printf("  %-28s %14.6f %-9s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note.c_str());
}

std::string
jsonResult(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", finite(metrics[i].value));
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return s + "}}";
}

std::string
serverLine(const Workload &w)
{
    const net::MatchServerOptions &o = w.server;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "server: workers=%zu kernel=%s queue_depth=%zu slice=%llu "
        "match_parallel=%zu match_parallel_min=%zu report_batch=%zu "
        "max_frame=%u max_conns=%zu",
        o.stream.workers, kernelName(o.stream.sim.kernel),
        o.stream.sessionQueueDepth,
        static_cast<unsigned long long>(o.stream.sliceSymbols),
        o.stream.matchParallelism, o.stream.matchParallelMinBytes,
        o.reportBatch, o.maxFramePayload, o.maxConnections);
    return buf;
}

std::string
loadLine(const Workload &w)
{
    char buf[256];
    if (w.loop == Loop::Closed)
        std::snprintf(buf, sizeof buf,
                      "load: closed loop, %zu connection(s) x %zu "
                      "stream(s), %zu-byte DATA + FLUSH per request",
                      w.connections, w.streamsPerConnection, w.requestBytes);
    else
        std::snprintf(buf, sizeof buf,
                      "load: open loop, %.1f requests/s over %zu "
                      "connections, OPEN_STREAM + DATA + CLOSE_STREAM",
                      w.rate, w.connections);
    return buf;
}

/** Runs one workload; returns the exit status (0 correct, 1 not). */
int
runWorkload(const std::string &name, const Options &opt)
{
    const Workload w = makeWorkload(name, opt.seed, opt.selftest);
    size_t input_bytes = 0;
    for (const std::vector<uint8_t> &in : w.inputs)
        input_bytes += in.size();
    std::printf("== perfbench %s seed=%llu seconds=%g trace=%d\n",
                name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("stamp: build=%s source=%s nproc=%u telemetry=compiled:%d,"
                "enabled:0 env_overrides=none\n",
                CA_PERFBENCH_BUILD_TYPE, opt.source.c_str(),
                std::thread::hardware_concurrency(), CA_TELEMETRY);
    std::printf("%s\n%s\n", serverLine(w).c_str(), loadLine(w).c_str());
    std::printf("workload: %s; %zu inputs, %.1f MB\n", w.ruleset.c_str(),
                w.inputs.size(), static_cast<double>(input_bytes) / 1e6);

    // Reference outputs, before and outside every timed window.
    std::vector<std::vector<Report>> ref;
    {
        const Nfa nfa = w.compile();
        const MappedAutomaton mapped = mapPerformance(nfa);
        ref = referenceReports(w, mapped);
    }
    const double rss_before = rssNowMB();

    // Set-up, several times: ruleset text to a server answering HELLO.
    SpanLog setup_log(opt.trace);
    const int reps = opt.selftest ? 3 : 21;
    std::vector<SetupTimes> times;
    Served served;
    for (int k = 0; k < reps; ++k) {
        served.server.reset();
        served.automaton.reset();
        served = setUp(w, setup_log);
        times.push_back(served.times);
    }
    auto med = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : times)
            v.push_back(t.*field);
        return median(v);
    };
    // The fastest set-up: noise within a run only ever adds time.
    double setup_s = times.front().totalS;
    for (const SetupTimes &t : times)
        setup_s = std::min(setup_s, t.totalS);
    const Connector sockets = socketConnector(served.server->port());

    // The timed window. A traced run splits it: untraced half, then the
    // same traffic with spans on, so the two can be compared.
    const double rss_window0 = rssNowMB();
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    DriveResult d = drive(w, ref, untraced_s, sockets, false);
    const double rss_peak = rssPeakMB() - rss_before;
    const double rss_growth = rssNowMB() - rss_window0;
    DriveResult traced;
    const net::NetServerStats net0 = served.server->stats();
    if (opt.trace)
        traced = drive(w, ref, opt.seconds / 2, sockets, true);
    const net::NetServerStats net1 = served.server->stats();

    // Which share of the served symbols the ParallelMatcher took: the
    // per-worker simulators count every symbol they ran themselves.
    const net::StatsReplyBody snap = served.server->statsSnapshot(
        0, net::statsSectionBit(net::StatsSection::Totals) |
               net::statsSectionBit(net::StatsSection::Kernels));
    uint64_t sim_symbols = 0;
    for (const KernelDecisionStats &k : snap.kernels)
        sim_symbols += k.sparseSymbols + k.denseSymbols;
    const uint64_t served_symbols = snap.totals.streamSymbols;
    const double parallel_share = served_symbols
        ? 1.0 - static_cast<double>(sim_symbols) /
            static_cast<double>(served_symbols)
        : 0.0;

    std::vector<std::string> errors = d.errors;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (w.server.stream.matchParallelism > 1 && sim_symbols >= served_symbols)
        errors.push_back("the ParallelMatcher never ran a slice");

    std::printf("\nend to end (%s):\n",
                opt.trace ? "untraced half of the window" : "untraced");
    // The metrics BENCHMARK.json gates. The p99s are printed beside them
    // but not gated: their run-to-run spread on a shared host is wider
    // than any bound (README.md, "Which workloads and metrics
    // BENCHMARK.json gates").
    const std::vector<Metric> e2e = {
        {"setup_s", setup_s, "s"},
        {"goodput_mbps", d.slicedGoodputMBps(kSlices), "MB/s"},
        {"flush_p50_ms", d.flushMs.percentile(50), "ms"},
        {"request_p50_ms", d.requestMs.percentile(50), "ms"},
        {"rss_peak_mb", rss_peak, "MB"},
    };
    auto samples = [](const Samples &s, double p) {
        return " (n=" + std::to_string(s.size()) + ", " +
            std::to_string(s.beyond(p)) + " beyond" +
            (s.size() < kMinSamples
                 ? ", FEWER THAN " + std::to_string(kMinSamples) + " SAMPLES"
                 : std::string()) +
            ")";
    };
    printMetric(e2e[0], " (fastest of " + std::to_string(reps) +
                            " set-ups; median " +
                            std::to_string(med(&SetupTimes::totalS)) + ")");
    printMetric(e2e[1], " (median of " + std::to_string(kSlices) +
                            " time slices; whole window " +
                            std::to_string(d.goodputMBps()) + ": " +
                            std::to_string(d.bytes) + " bytes in " +
                            std::to_string(d.wallS) + " s)");
    printMetric(e2e[2], samples(d.flushMs, 50));
    printMetric({"flush_p99_ms", d.flushMs.percentile(99), "ms"},
                samples(d.flushMs, 99));
    printMetric(e2e[3], samples(d.requestMs, 50));
    printMetric({"request_p99_ms", d.requestMs.percentile(99), "ms"},
                samples(d.requestMs, 99));
    printMetric(e2e[4], " (peak RSS over RSS before set-up)");
    if (w.loop == Loop::Open) {
        printMetric({"gen_lag_p99_ms", d.lagMs.percentile(99), "ms"},
                    samples(d.lagMs, 99));
        const bool backlog = d.lagSecondHalfMs >
            std::max(1.0, 2.0 * d.lagFirstHalfMs);
        std::printf("  %-28s %14.6f ms        (first half %.6f ms)%s\n",
                    "gen_lag_mean_second_half_ms", d.lagSecondHalfMs,
                    d.lagFirstHalfMs,
                    backlog ? "  BACKLOG GROWING: rate above capacity" : "");
        printMetric({"requests_per_s",
                     static_cast<double>(d.requests) / d.wallS, "1/s"});
    } else {
        std::printf("  %-28s %14s\n", "gen_lag_p99_ms", "n/a (closed loop)");
    }
    const double failed_frac = d.streams
        ? static_cast<double>(d.failedStreams) /
            static_cast<double>(d.streams)
        : 0.0;
    printMetric({"failed_frac", failed_frac, "fraction"},
                " (" + std::to_string(d.failedStreams) + " of " +
                    std::to_string(d.streams) + " streams)");
    printMetric({"rss_window_growth_mb", rss_growth, "MB"});
    printMetric({"parallel_share", parallel_share, "fraction"},
                " (served symbols the ParallelMatcher ran)");

    std::vector<Metric> result = e2e;
    if (opt.trace) {
        // Compile and load layers, from the set-up passes above.
        std::vector<double> ctx_ms;
        for (int k = 0; k < reps; ++k) {
            ScopedSpan span(setup_log, "match.context");
            const auto a = Clock::now();
            match::MatchContext ctx(served.automaton);
            ctx_ms.push_back(msSince(a));
        }
        std::vector<Metric> layers = {
            {"nfa.compile_ms", med(&SetupTimes::compileMs), "ms"},
            {"compiler.map_ms", med(&SetupTimes::mapMs), "ms"},
            {"compiler.partitions",
             static_cast<double>(times.back().partitions), "count"},
            {"persist.pack_ms", med(&SetupTimes::packMs), "ms"},
            {"persist.load_ms", med(&SetupTimes::loadMs), "ms"},
            {"persist.artifact_kb",
             static_cast<double>(times.back().artifactBytes) / 1024.0,
             "KiB"},
            {"match.context_ms", median(ctx_ms), "ms"},
            {"server.start_ms", med(&SetupTimes::startMs), "ms"},
        };
        SpanLog layer_log(true, 100);
        const LayerResult isolated = layerMetrics(
            {w, ref, served.automaton, opt.seconds, layer_log});
        errors.insert(errors.end(), isolated.errors.begin(),
                      isolated.errors.end());
        layers.insert(layers.end(), isolated.metrics.begin(),
                      isolated.metrics.end());

        // Wire layer, from the traced half of the window.
        const double in_bytes = static_cast<double>(net1.bytesIn - net0.bytesIn);
        const double socket_ms = d.requestMs.mean();
        const double inproc_ms = isolated.inprocRequestMeanMs;
        const double send_ms = traced.spans.totalMs("net.send") /
            static_cast<double>(std::max<uint64_t>(traced.requests, 1));
        layers.push_back(
            {"net.frames_in",
             static_cast<double>(net1.framesIn - net0.framesIn) * 1e6 /
                 in_bytes,
             "count/MB"});
        layers.push_back(
            {"net.frames_out",
             static_cast<double>(net1.framesOut - net0.framesOut) * 1e6 /
                 in_bytes,
             "count/MB"});
        layers.push_back(
            {"net.bytes_out_per_in",
             static_cast<double>(net1.bytesOut - net0.bytesOut) / in_bytes,
             "fraction"});
        layers.push_back({"net.send_block_ms", send_ms, "ms"});
        layers.push_back(
            {"net.overhead_frac", 1.0 - inproc_ms / socket_ms, "fraction"});

        // Attribution. Per request, the blocking layers are the
        // in-process request (kernel + runtime) plus the wire work the
        // socket path adds: client send, frame decode, report encode.
        const double requests = static_cast<double>(std::max<uint64_t>(
            d.requests, 1));
        const double mb_req = static_cast<double>(d.bytes) / 1e6 / requests;
        const double decode_ms =
            mb_req / valueOf(layers, "net.decode_mbps") * 1e3;
        const double encode_ms = static_cast<double>(d.reportRows) /
            requests / static_cast<double>(w.server.reportBatch) *
            valueOf(layers, "net.report_encode_us") / 1e3;
        // Slices of a parallel server run on the ParallelMatcher.
        const double kernel_ms = mb_req /
            valueOf(layers, w.server.stream.matchParallelism > 1
                                ? "match.parallel_mbps"
                                : "sim.feed_mbps") *
            1e3;
        const double explained = inproc_ms + send_ms + decode_ms + encode_ms;
        layers.push_back({"trace.overhead_frac",
                          traced.requestMs.percentile(50) /
                                  d.requestMs.percentile(50) -
                              1.0,
                          "fraction"});
        layers.push_back({"trace.unexplained_frac",
                          1.0 - explained / socket_ms, "fraction"});

        std::printf("\nper layer (traced):\n");
        for (const Metric &m : layers)
            printMetric(m);
        std::printf("\nattribution per request (mean ms): socket %.4f = "
                    "in-process %.4f [serial kernel alone %.4f] + send %.4f "
                    "+ decode %.4f + encode %.4f + unexplained %.4f\n",
                    socket_ms, inproc_ms, kernel_ms, send_ms, decode_ms,
                    encode_ms, socket_ms - explained);
        result = layers;

        if (!opt.traceOut.empty()) {
            SpanLog all(true);
            all.append(setup_log);
            all.append(traced.spans);
            all.append(layer_log);
            if (writeTrace(opt.traceOut, all, kMaxTraceSpans))
                std::printf("spans: %zu recorded, first %zu written to %s\n",
                            all.spans().size(),
                            std::min(all.spans().size(), kMaxTraceSpans),
                            opt.traceOut.c_str());
            else
                errors.push_back("cannot write " + opt.traceOut);
        }
    }
    served.server->stop();

    const bool correct = errors.empty();
    for (size_t i = 0; i < errors.size() && i < 8; ++i)
        std::printf("FAILED: %s\n", errors[i].c_str());
    const uint64_t attempted = std::max<uint64_t>(
        d.requests + traced.requests, 1);
    uint64_t failed = d.failedRequests + traced.failedRequests;
    if (!correct)
        failed = std::max<uint64_t>(failed, 1);
    std::printf("%s\n", jsonResult(correct, attempted,
                                   std::min(failed, attempted), result)
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME|all --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--source ID]\n"
                 "       perfbench --selftest [--seed N]\n"
                 "workloads:");
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (a == "--trace-out")
                opt.traceOut = value();
            else if (a == "--source")
                opt.source = value();
            else if (a == "--selftest")
                opt.selftest = true;
            else
                return usage();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
            return usage();
        }
    }
    std::string which;
    if (overrideSet(which)) {
        std::fprintf(stderr,
                     "perfbench: refusing to run with %s set; it changes "
                     "the program under test\n",
                     which.c_str());
        return 2;
    }
    telemetry::setEnabled(false);

    std::vector<std::string> names;
    std::vector<bool> traces = {opt.trace};
    if (opt.selftest) {
        names = workloadNames();
        traces = {false, true};
        opt.seconds = 1.0;
    } else if (opt.workload == "all") {
        names = workloadNames();
    } else if (std::find(workloadNames().begin(), workloadNames().end(),
                         opt.workload) != workloadNames().end()) {
        names = {opt.workload};
    } else {
        return usage();
    }
    if (opt.seconds <= 0)
        return usage();

    int status = 0;
    try {
        for (bool t : traces)
            for (const std::string &n : names) {
                Options o = opt;
                o.trace = t;
                status = std::max(status, runWorkload(n, o));
            }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (opt.selftest)
        std::printf("selftest: %s\n", status == 0 ? "ok" : "FAILED");
    return status;
}
