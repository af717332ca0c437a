/**
 * @file
 * ca_top: a live terminal dashboard for a running ca_server, in the
 * spirit of top(1) (docs/OBSERVABILITY.md).
 *
 *   ca_top --port N [--host H] [--interval-ms N] [--count N] [--once]
 *          [--no-clear]
 *
 * Options:
 *   --host H         server address (default 127.0.0.1)
 *   --port N         server match port (required)
 *   --interval-ms N  poll period (default 1000)
 *   --count N        exit after N refreshes (default: until ^C)
 *   --once           single poll, plain print (same as --count 1
 *                    --no-clear; for scripts and CI smoke tests)
 *   --no-clear       append refreshes instead of redrawing in place
 *
 * ca_top speaks the in-band STATS protocol over an ordinary client
 * connection — no second port to open, and the numbers come from the
 * same snapshot path the Prometheus endpoint serves. Each refresh shows
 * the server totals with interval rates (derived from consecutive
 * polls), the per-session table, and each worker's sparse/dense kernel
 * mix. When the server was built without telemetry, or telemetry is
 * disabled at runtime, the header line says so instead of showing a
 * misleading wall of zeros.
 */
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "net/client.h"
#include "telemetry/snapshot.h"

namespace {

using namespace ca;

std::sig_atomic_t volatile g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ca_top --port N [--host H] [--interval-ms N]\n"
                 "              [--count N] [--once] [--no-clear]\n");
    return 2;
}

/** "12.3M", "456k" — compact magnitudes for fixed-width columns. */
std::string
human(double v)
{
    char buf[32];
    if (v >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
}

/** Interval rate between two polls (0 when time stood still). */
double
rate(uint64_t now, uint64_t then, double dtSec)
{
    if (dtSec <= 0 || now < then)
        return 0;
    return static_cast<double>(now - then) / dtSec;
}

void
render(const net::StatsReplyBody &b, const net::StatsReplyBody &prev,
       bool havePrev, bool clear)
{
    const net::WireServerTotals &t = b.totals;
    double dt = havePrev
        ? static_cast<double>(t.uptimeMicros -
                              prev.totals.uptimeMicros) /
            1e6
        : 0;
    if (clear)
        std::printf("\x1b[H\x1b[2J"); // home + clear: redraw in place

    std::printf("ca_top — uptime %.1fs, %u workers, %llu conns",
                static_cast<double>(t.uptimeMicros) / 1e6, t.workers,
                static_cast<unsigned long long>(t.activeConnections));
    if (!b.telemetryEnabled)
        std::printf("   [telemetry disabled]");
    std::printf("\n");
    std::printf("automaton     fingerprint %016llx, epoch %llu%s",
                static_cast<unsigned long long>(t.automatonFp),
                static_cast<unsigned long long>(t.epoch),
                t.automatonWeighted ? ", weighted" : "");
    if (t.epochsDraining)
        std::printf(" (+%llu draining)",
                    static_cast<unsigned long long>(t.epochsDraining));
    std::printf("\n\n");

    std::printf("totals        symbols %-10s reports %-10s bytes in "
                "%-10s out %-10s\n",
                human(static_cast<double>(t.streamSymbols)).c_str(),
                human(static_cast<double>(t.streamReports)).c_str(),
                human(static_cast<double>(t.bytesIn)).c_str(),
                human(static_cast<double>(t.bytesOut)).c_str());
    if (havePrev)
        std::printf(
            "rates/s       symbols %-10s reports %-10s bytes in "
            "%-10s out %-10s\n",
            human(rate(t.streamSymbols, prev.totals.streamSymbols, dt))
                .c_str(),
            human(rate(t.streamReports, prev.totals.streamReports, dt))
                .c_str(),
            human(rate(t.bytesIn, prev.totals.bytesIn, dt)).c_str(),
            human(rate(t.bytesOut, prev.totals.bytesOut, dt)).c_str());
    std::printf("lifecycle     conns %llu/%llu acc/rej, streams %llu "
                "open %llu closed, slices %llu, ctx %llu\n",
                static_cast<unsigned long long>(t.connectionsAccepted),
                static_cast<unsigned long long>(t.connectionsRejected),
                static_cast<unsigned long long>(t.streamsOpened),
                static_cast<unsigned long long>(t.streamsClosed),
                static_cast<unsigned long long>(t.slices),
                static_cast<unsigned long long>(t.contextSwitches));
    if (t.automatonWeighted)
        std::printf("scoring       scored reports sent %s\n",
                    human(static_cast<double>(t.scoredReportsSent))
                        .c_str());
    std::printf("errors        protocol %llu, idle %llu, write %llu, "
                "slow-consumer %llu\n",
                static_cast<unsigned long long>(t.protocolErrors),
                static_cast<unsigned long long>(t.idleTimeouts),
                static_cast<unsigned long long>(t.writeTimeouts),
                static_cast<unsigned long long>(t.slowConsumerDrops));
    std::printf("cluster       swaps %llu ok / %llu failed, epochs "
                "retired %llu, artifact q %llu served %llu chunks "
                "(%s)\n\n",
                static_cast<unsigned long long>(t.swapsCompleted),
                static_cast<unsigned long long>(t.swapsFailed),
                static_cast<unsigned long long>(t.epochsRetired),
                static_cast<unsigned long long>(t.artifactQueries),
                static_cast<unsigned long long>(t.artifactChunksServed),
                human(static_cast<double>(t.artifactBytesServed)).c_str());

    size_t live = 0;
    for (const runtime::SessionLiveStats &s : b.sessions)
        if (!s.closed)
            ++live;
    std::printf("sessions (%zu live / %zu total)\n", live,
                b.sessions.size());
    std::printf("  %6s %10s %10s %8s %9s %7s %6s %s\n", "id", "symbols",
                "sym/s", "reports", "queued", "stalls", "susp", "state");
    for (const runtime::SessionLiveStats &s : b.sessions) {
        if (s.closed)
            continue;
        const char *state = s.suspended ? "suspended"
            : s.closing                 ? "closing"
                                        : "running";
        std::printf("  %6u %10s %10s %8s %9s %7llu %6llu %s\n", s.id,
                    human(static_cast<double>(s.stats.symbols)).c_str(),
                    human(s.symbolsPerSec).c_str(),
                    human(static_cast<double>(s.stats.reports)).c_str(),
                    human(static_cast<double>(s.queuedBytes)).c_str(),
                    static_cast<unsigned long long>(
                        s.stats.queueFullStalls),
                    static_cast<unsigned long long>(s.stats.suspensions),
                    state);
    }

    std::printf("\nkernels\n");
    std::printf("  %6s %10s %10s %8s %9s %s\n", "worker", "sparse",
                "dense", "flips", "density", "last");
    for (size_t w = 0; w < b.kernels.size(); ++w) {
        const KernelDecisionStats &k = b.kernels[w];
        const char *last = k.lastKernel < 0 ? "-"
            : k.lastKernel == 0             ? "sparse"
                                            : "dense";
        std::printf("  %6zu %10s %10s %8llu %9.3f %s\n", w,
                    human(static_cast<double>(k.sparseBlocks)).c_str(),
                    human(static_cast<double>(k.denseBlocks)).c_str(),
                    static_cast<unsigned long long>(k.kernelFlips),
                    k.densityEwma, last);
    }

    // Registry highlights: the handful of process metrics that aren't
    // already covered by a dedicated panel above.
    if (b.telemetryEnabled && !b.metricsSnapshot.empty()) {
        telemetry::MetricsSnapshot snap =
            telemetry::MetricsSnapshot::deserialize(b.metricsSnapshot);

        // Chunk-parallel matching (docs/MATCH.md): the ca.match.*
        // counters travel in the registry image, so a server with
        // --match-parallel off (or no parallel traffic yet) simply has
        // no ca.match.chunks and the line is omitted.
        auto counterOf = [&](const char *name) -> uint64_t {
            const telemetry::MetricValue *v = snap.find(name);
            return v != nullptr ? v->counter : 0;
        };
        uint64_t mchunks = counterOf("ca.match.chunks");
        if (mchunks > 0) {
            uint64_t hits = counterOf("ca.match.speculation_hits");
            uint64_t replays = counterOf("ca.match.replays");
            uint64_t spec = hits + replays;
            double hit_pct = spec == 0
                ? 100.0
                : 100.0 * static_cast<double>(hits) /
                    static_cast<double>(spec);
            std::printf("\nmatch (chunk-parallel)\n");
            std::printf("  %10s %10s %10s %8s %10s %10s\n", "chunks",
                        "spec hits", "replays", "hit%", "replayed",
                        "join ms");
            std::printf(
                "  %10s %10s %10s %7.1f%% %10s %10.1f\n",
                human(static_cast<double>(mchunks)).c_str(),
                human(static_cast<double>(hits)).c_str(),
                human(static_cast<double>(replays)).c_str(), hit_pct,
                human(static_cast<double>(
                          counterOf("ca.match.replayed_bytes")))
                    .c_str(),
                static_cast<double>(counterOf("ca.match.join_micros")) /
                    1e3);
        }

        std::printf("\nprocess metrics: %zu registered\n",
                    snap.size());
    }
    std::fflush(stdout);
}

struct Options
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int intervalMs = 1000;
    long count = -1;
    bool clear = true;
};

int
runTop(const Options &o)
{
    net::MatchClient client;
    client.connect(o.host, o.port);

    net::StatsReplyBody prev;
    bool havePrev = false;
    for (long i = 0; (o.count < 0 || i < o.count) && !g_stop; ++i) {
        if (i > 0) {
            int waited = 0;
            while (waited < o.intervalMs && !g_stop) {
                int step = std::min(50, o.intervalMs - waited);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(step));
                waited += step;
            }
            if (g_stop)
                break;
        }
        net::StatsReplyBody b = client.requestStats();
        render(b, prev, havePrev, o.clear);
        prev = std::move(b);
        havePrev = true;
    }
    client.close();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            size_t eq = a.find('=');
            if (eq != std::string::npos)
                return a.substr(eq + 1);
            CA_FATAL_IF(i + 1 >= argc, "ca_top: " << a << " needs a value");
            return argv[++i];
        };
        std::string key = a.substr(0, a.find('='));
        try {
            if (key == "--host")
                o.host = value();
            else if (key == "--port")
                o.port = static_cast<uint16_t>(std::stoul(value()));
            else if (key == "--interval-ms")
                o.intervalMs = std::stoi(value());
            else if (key == "--count")
                o.count = std::stol(value());
            else if (key == "--once") {
                o.count = 1;
                o.clear = false;
            } else if (key == "--no-clear")
                o.clear = false;
            else
                return usage();
        } catch (const ca::CaError &e) {
            std::fprintf(stderr, "ca_top: %s\n", e.what());
            return 2;
        }
    }
    if (o.port == 0)
        return usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    try {
        return runTop(o);
    } catch (const ca::CaError &e) {
        std::fprintf(stderr, "ca_top: %s\n", e.what());
        return 1;
    }
}
