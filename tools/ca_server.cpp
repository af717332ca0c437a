/**
 * @file
 * ca_server: serve a compiled automaton over TCP (docs/NET.md).
 *
 *   ca_server --artifact f.caa [--port N] [...]
 *   ca_server --benchmark Snort [--scale 0.1] [--seed N] [--port N]
 *   ca_server --rules rules.txt | --pattern 're' [--pattern ...]
 *   ca_server --fingerprint HEX --peer host:port [--cache-dir DIR]
 *
 * Options:
 *   --port N            bind port (default 0 = ephemeral, printed)
 *   --bind ADDR         bind address (default 127.0.0.1)
 *   --workers N         simulation worker threads
 *   --max-conns N       admission cap (over-cap connects get BUSY)
 *   --max-streams N     streams per connection
 *   --queue-depth N     per-session submit queue depth (backpressure)
 *   --kernel K          simulator kernel: sparse | dense | auto (default)
 *   --match-parallel P  chunk-parallel single-stream matching
 *                       (docs/MATCH.md): off (default) | auto | thread
 *                       count >= 2
 *   --idle-timeout-ms N idle connection teardown (<=0 disables)
 *   --duration-s N      exit after N seconds (default: run until signal)
 *   --metrics-out F / --trace-out F   telemetry artifacts at shutdown
 *   --stats-port N      scrapeable stats endpoint (Prometheus text,
 *                       docs/OBSERVABILITY.md); prints the bound port
 *   --stats-bind ADDR   stats endpoint bind address (default = --bind)
 *   --stats-interval-s N  re-export live gauges (and rewrite
 *                       --metrics-out, when given) every N seconds
 *
 * Cluster plane (docs/CLUSTER.md):
 *   --peer HOST:PORT    peer server to replicate artifacts from
 *                       (repeatable; tried in order)
 *   --cache-dir DIR     fingerprint-addressed artifact cache; remote
 *                       pulls are published here atomically
 *   --fingerprint HEX   serve this artifact, pulling it from the cache
 *                       or peers (no local compile at all)
 *   --admin-port N      open the admin listener; SWAP requests are only
 *                       honored there (0 = ephemeral, printed)
 *   --admin-bind ADDR   admin bind address (default = --bind)
 *   --watch-artifact    hot-swap automatically when the --artifact file
 *                       is republished (mtime poll, 1 s)
 *
 * SIGHUP reloads the --artifact file as a zero-downtime hot swap: live
 * streams drain on the old ruleset, new streams match the new one.
 *
 * The server prints "listening on HOST:PORT" and "fingerprint HEX" on
 * stdout (line-buffered, so scripts can scrape them), serves until
 * SIGINT/SIGTERM or --duration-s, then shuts down gracefully: open
 * sessions drain, pending reports are delivered, and final ServerStats /
 * NetServerStats are printed and exported as ca.net.* gauges. The final
 * flush runs on *every* exit path — signal, --duration-s, or an error
 * unwinding out of the serve loop — so the telemetry artifacts always
 * reflect the server's last known state.
 */
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "cluster/replication.h"
#include "compiler/mapping.h"
#include "core/error.h"
#include "match/parallel_matcher.h"
#include "net/match_server.h"
#include "net/stats_listener.h"
#include "nfa/glushkov.h"
#include "telemetry/metrics.h"
#include "telemetry/runtime.h"
#include "telemetry/snapshot.h"
#include "telemetry/telemetry.h"
#include "workload/suite.h"

namespace {

using namespace ca;

std::sig_atomic_t volatile g_stop = 0;
std::sig_atomic_t volatile g_hup = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
onHangup(int)
{
    g_hup = 1;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  ca_server (--artifact <file> | --benchmark <name> | --rules "
        "<file> | --pattern <re>...)\n"
        "            [--port N] [--bind ADDR] [--workers N] "
        "[--max-conns N]\n"
        "            [--max-streams N] [--queue-depth N] "
        "[--idle-timeout-ms N]\n"
        "            [--kernel sparse|dense|auto] "
        "[--match-parallel off|auto|N]\n"
        "            [--scale S] [--seed N] [--duration-s N]\n"
        "            [--metrics-out F] [--trace-out F]\n"
        "            [--stats-port N] [--stats-bind ADDR] "
        "[--stats-interval-s N]\n"
        "            [--peer HOST:PORT ...] [--cache-dir DIR] "
        "[--fingerprint HEX]\n"
        "            [--admin-port N] [--admin-bind ADDR] "
        "[--watch-artifact]\n");
    return 2;
}

void
exportShutdownGauges(const net::MatchServer &server)
{
    net::NetServerStats n = server.stats();
    runtime::ServerStats s = server.streamStats();
    CA_GAUGE_SET("ca.net.final_connections_accepted",
                 static_cast<double>(n.connectionsAccepted));
    CA_GAUGE_SET("ca.net.final_connections_rejected",
                 static_cast<double>(n.connectionsRejected));
    CA_GAUGE_SET("ca.net.final_streams_opened",
                 static_cast<double>(n.streamsOpened));
    CA_GAUGE_SET("ca.net.final_frames_in",
                 static_cast<double>(n.framesIn));
    CA_GAUGE_SET("ca.net.final_frames_out",
                 static_cast<double>(n.framesOut));
    CA_GAUGE_SET("ca.net.final_bytes_in",
                 static_cast<double>(n.bytesIn));
    CA_GAUGE_SET("ca.net.final_bytes_out",
                 static_cast<double>(n.bytesOut));
    CA_GAUGE_SET("ca.net.final_reports_sent",
                 static_cast<double>(n.reportsSent));
    CA_GAUGE_SET("ca.net.final_protocol_errors",
                 static_cast<double>(n.protocolErrors));
    CA_GAUGE_SET("ca.net.final_slow_consumer_drops",
                 static_cast<double>(n.slowConsumerDrops));
    CA_GAUGE_SET("ca.net.final_stream_symbols",
                 static_cast<double>(s.symbols));
    CA_GAUGE_SET("ca.net.final_stream_reports",
                 static_cast<double>(s.reports));
    CA_GAUGE_SET("ca.net.final_context_switches",
                 static_cast<double>(s.contextSwitches));
}

/**
 * Renders the scrape page: server totals, per-session and per-worker
 * series (with labels), then the process metrics registry — all in the
 * Prometheus text exposition format.
 */
std::string
renderStatsPage(const net::MatchServer &server)
{
    net::StatsReplyBody b = server.statsSnapshot();
    std::ostringstream os;
    auto counter = [&](const char *name, uint64_t v) {
        os << "# TYPE " << name << " counter\n"
           << name << " " << v << "\n";
    };
    auto gauge = [&](const char *name, double v) {
        os << "# TYPE " << name << " gauge\n"
           << name << " " << v << "\n";
    };
    const net::WireServerTotals &t = b.totals;
    gauge("ca_server_uptime_seconds",
          static_cast<double>(t.uptimeMicros) / 1e6);
    gauge("ca_server_workers", t.workers);
    gauge("ca_server_active_connections",
          static_cast<double>(t.activeConnections));
    gauge("ca_server_telemetry_enabled", b.telemetryEnabled);
    counter("ca_net_connections_accepted_total", t.connectionsAccepted);
    counter("ca_net_connections_rejected_total", t.connectionsRejected);
    counter("ca_net_connections_closed_total", t.connectionsClosed);
    counter("ca_net_streams_opened_total", t.streamsOpened);
    counter("ca_net_streams_closed_total", t.streamsClosed);
    counter("ca_net_frames_in_total", t.framesIn);
    counter("ca_net_frames_out_total", t.framesOut);
    counter("ca_net_bytes_in_total", t.bytesIn);
    counter("ca_net_bytes_out_total", t.bytesOut);
    counter("ca_net_reports_sent_total", t.reportsSent);
    counter("ca_net_scored_reports_sent_total", t.scoredReportsSent);
    gauge("ca_server_automaton_weighted",
          static_cast<double>(t.automatonWeighted));
    counter("ca_net_protocol_errors_total", t.protocolErrors);
    counter("ca_net_idle_timeouts_total", t.idleTimeouts);
    counter("ca_net_write_timeouts_total", t.writeTimeouts);
    counter("ca_net_slow_consumer_drops_total", t.slowConsumerDrops);
    counter("ca_runtime_sessions_opened_total", t.sessionsOpened);
    counter("ca_runtime_sessions_closed_total", t.sessionsClosed);
    counter("ca_runtime_symbols_total", t.streamSymbols);
    counter("ca_runtime_reports_total", t.streamReports);
    counter("ca_runtime_slices_total", t.slices);
    counter("ca_runtime_context_switches_total", t.contextSwitches);

    // Cluster plane: which automaton generation is serving, and the
    // replication/swap counters (docs/CLUSTER.md).
    gauge("ca_cluster_epoch", static_cast<double>(t.epoch));
    {
        std::ostringstream fp;
        fp << std::hex;
        fp.width(16);
        fp.fill('0');
        fp << t.automatonFp;
        os << "# TYPE ca_cluster_automaton_info gauge\n"
           << "ca_cluster_automaton_info{fingerprint=\"" << fp.str()
           << "\"} 1\n";
    }
    gauge("ca_cluster_epochs_draining",
          static_cast<double>(t.epochsDraining));
    counter("ca_cluster_swaps_completed_total", t.swapsCompleted);
    counter("ca_cluster_swaps_failed_total", t.swapsFailed);
    counter("ca_cluster_epochs_retired_total", t.epochsRetired);
    counter("ca_cluster_artifact_queries_total", t.artifactQueries);
    counter("ca_cluster_artifact_chunks_served_total",
            t.artifactChunksServed);
    counter("ca_cluster_artifact_bytes_served_total",
            t.artifactBytesServed);

    os << "# TYPE ca_session_symbols_per_second gauge\n";
    for (const runtime::SessionLiveStats &s : b.sessions)
        if (!s.closed)
            os << "ca_session_symbols_per_second{session=\"" << s.id
               << "\"} " << s.symbolsPerSec << "\n";
    os << "# TYPE ca_session_queued_bytes gauge\n";
    for (const runtime::SessionLiveStats &s : b.sessions)
        if (!s.closed)
            os << "ca_session_queued_bytes{session=\"" << s.id << "\"} "
               << s.queuedBytes << "\n";

    os << "# TYPE ca_kernel_blocks_total counter\n";
    for (size_t w = 0; w < b.kernels.size(); ++w) {
        const KernelDecisionStats &k = b.kernels[w];
        os << "ca_kernel_blocks_total{worker=\"" << w
           << "\",kernel=\"sparse\"} " << k.sparseBlocks << "\n";
        os << "ca_kernel_blocks_total{worker=\"" << w
           << "\",kernel=\"dense\"} " << k.denseBlocks << "\n";
    }
    os << "# TYPE ca_kernel_flips_total counter\n";
    for (size_t w = 0; w < b.kernels.size(); ++w)
        os << "ca_kernel_flips_total{worker=\"" << w << "\"} "
           << b.kernels[w].kernelFlips << "\n";
    os << "# TYPE ca_kernel_density_ewma gauge\n";
    for (size_t w = 0; w < b.kernels.size(); ++w)
        os << "ca_kernel_density_ewma{worker=\"" << w << "\"} "
           << b.kernels[w].densityEwma << "\n";

    // Whatever the process-wide registry holds (empty while telemetry
    // is disabled — the page above still works).
    telemetry::MetricsSnapshot snap;
    if (!b.metricsSnapshot.empty())
        snap = telemetry::MetricsSnapshot::deserialize(b.metricsSnapshot);
    os << snap.prometheusText();
    return os.str();
}

int
run(const cli::Args &args)
{
    net::MatchServerOptions opts;
    opts.bindAddress = args.opt("bind", "127.0.0.1");
    if (!args.opt("port").empty())
        opts.port = static_cast<uint16_t>(std::stoul(args.opt("port")));
    if (!args.opt("max-conns").empty())
        opts.maxConnections = std::stoull(args.opt("max-conns"));
    if (!args.opt("max-streams").empty())
        opts.maxStreamsPerConnection =
            std::stoull(args.opt("max-streams"));
    if (!args.opt("idle-timeout-ms").empty())
        opts.idleTimeoutMs = std::stoi(args.opt("idle-timeout-ms"));
    if (!args.opt("workers").empty())
        opts.stream.workers = std::stoull(args.opt("workers"));
    if (!args.opt("queue-depth").empty())
        opts.stream.sessionQueueDepth =
            std::stoull(args.opt("queue-depth"));
    if (!args.opt("kernel").empty()) {
        const std::string kernel = args.opt("kernel");
        if (std::optional<SimKernel> k = parseKernelName(kernel)) {
            opts.stream.sim.kernel = *k;
        } else {
            std::fprintf(stderr, "ca_server: unknown --kernel %s\n",
                         kernel.c_str());
            return usage();
        }
    }
    if (!args.opt("match-parallel").empty()) {
        const std::string mp = args.opt("match-parallel");
        if (std::optional<size_t> deg = match::parseMatchParallel(mp)) {
            opts.stream.matchParallelism = *deg;
        } else {
            std::fprintf(stderr,
                         "ca_server: bad --match-parallel %s "
                         "(off|auto|<count>)\n",
                         mp.c_str());
            return usage();
        }
    }

    // Register before the (possibly long) compile/load so an early ^C
    // still lands in the orderly-shutdown path below.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGHUP, onHangup);

    if (!args.opt("admin-port").empty()) {
        opts.adminEnabled = true;
        opts.adminPort = static_cast<uint16_t>(
            std::stoul(args.opt("admin-port")));
        opts.adminBindAddress = args.opt("admin-bind");
    }

    // Cluster wiring: peers feed a Replicator; --cache-dir persists the
    // pulls (and serves them back to other peers via artifactResolver).
    std::unique_ptr<cluster::Replicator> replicator;
    std::vector<cluster::PeerAddress> peers;
    for (const std::string &spec : args.optAll("peer"))
        peers.push_back(cluster::parsePeer(spec));
    if (!peers.empty())
        replicator = std::make_unique<cluster::Replicator>(peers);
    std::unique_ptr<persist::ArtifactCache> cache;
    if (!args.opt("cache-dir").empty()) {
        cache =
            std::make_unique<persist::ArtifactCache>(args.opt("cache-dir"));
        if (replicator)
            cache->setRemoteFetcher(replicator->cacheFetcher());
    }
    if (cache) {
        persist::ArtifactCache *c = cache.get();
        opts.artifactResolver = [c](uint64_t fp) {
            return c->tryReadBytesByFingerprint(fp);
        };
    }
    {
        persist::ArtifactCache *c = cache.get();
        cluster::Replicator *r = replicator.get();
        opts.swapLoader = [c, r](uint64_t fp, const std::string &source)
            -> persist::LoadedArtifact {
            if (!source.empty())
                return persist::loadArtifact(source);
            CA_FATAL_IF(fp == 0, "SWAP needs a fingerprint or a source");
            if (c)
                return c->getOrFetch(fp);
            if (r)
                return r->fetch(fp);
            CA_THROW("no --cache-dir or --peer to resolve the swap "
                     "fingerprint");
        };
    }

    // The observability flags imply the operator wants live metrics:
    // turn the runtime telemetry switch on even without CA_TELEMETRY=1
    // in the environment.
    if (!args.opt("stats-port").empty() ||
        !args.opt("stats-interval-s").empty())
        telemetry::setEnabled(true);

    std::unique_ptr<net::MatchServer> server;
    if (!args.opt("fingerprint").empty()) {
        // Fingerprint-only start: no rules, no compile — the artifact
        // comes from the local cache or is replicated from a peer.
        uint64_t fp = std::stoull(args.opt("fingerprint"), nullptr, 16);
        persist::LoadedArtifact loaded;
        if (cache) {
            loaded = cache->getOrFetch(fp);
        } else if (replicator) {
            loaded = replicator->fetch(fp);
        } else {
            std::fprintf(stderr,
                         "ca_server: --fingerprint needs --peer and/or "
                         "--cache-dir\n");
            return usage();
        }
        server = std::make_unique<net::MatchServer>(
            std::move(loaded.automaton), opts);
        std::printf("serving replicated artifact %016llx\n",
                    static_cast<unsigned long long>(fp));
    } else if (!args.opt("artifact").empty()) {
        server = net::MatchServer::fromArtifact(args.opt("artifact"),
                                                opts);
        std::printf("serving artifact %s\n",
                    args.opt("artifact").c_str());
    } else {
        double scale = args.opt("scale").empty()
            ? 1.0
            : std::stod(args.opt("scale"));
        uint64_t seed = args.opt("seed").empty()
            ? kDefaultRuleSeed
            : std::stoull(args.opt("seed"));
        Nfa nfa;
        if (!args.opt("benchmark").empty()) {
            nfa = findBenchmark(args.opt("benchmark")).build(scale, seed);
        } else if (!args.opt("rules").empty()) {
            nfa = compileRuleset(cli::readRulesFile(args.opt("rules")));
        } else if (!args.optAll("pattern").empty()) {
            nfa = compileRuleset(args.optAll("pattern"));
        } else {
            std::fprintf(stderr,
                         "ca_server: one of --artifact/--fingerprint/"
                         "--benchmark/--rules/--pattern is required\n");
            return usage();
        }
        auto mapped =
            std::make_shared<MappedAutomaton>(mapPerformance(nfa));
        server = std::make_unique<net::MatchServer>(std::move(mapped),
                                                    opts);
    }

    std::printf("listening on %s:%u\n", opts.bindAddress.c_str(),
                static_cast<unsigned>(server->port()));
    if (opts.adminEnabled)
        std::printf("admin listening on %s:%u\n",
                    (opts.adminBindAddress.empty()
                         ? opts.bindAddress
                         : opts.adminBindAddress)
                        .c_str(),
                    static_cast<unsigned>(server->adminPort()));
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(server->fingerprint()));
    std::fflush(stdout);

    // Scrapeable stats endpoint (docs/OBSERVABILITY.md).
    std::unique_ptr<net::StatsListener> stats_listener;
    if (!args.opt("stats-port").empty()) {
        net::StatsListenerOptions sopts;
        sopts.bindAddress = args.opt("stats-bind", opts.bindAddress);
        sopts.port = static_cast<uint16_t>(
            std::stoul(args.opt("stats-port")));
        net::MatchServer *raw = server.get();
        stats_listener = std::make_unique<net::StatsListener>(
            [raw] { return renderStatsPage(*raw); }, sopts);
        std::printf("stats listening on %s:%u\n",
                    sopts.bindAddress.c_str(),
                    static_cast<unsigned>(stats_listener->port()));
        std::fflush(stdout);
    }

    // Whatever ends this serve — signal, --duration-s, or an exception
    // unwinding out of the loop — the shutdown flush must still run, so
    // it rides an RAII guard instead of straight-line code.
    struct ShutdownFlush
    {
        net::MatchServer &server;
        net::StatsListener *listener;
        const std::string metricsPath;
        ~ShutdownFlush()
        {
            if (listener)
                listener->stop(); // stop scraping a dying server
            server.stop();
            exportShutdownGauges(server);
            if (!metricsPath.empty())
                ca::telemetry::dumpMetrics(metricsPath);
        }
    } flush_guard{*server, stats_listener.get(),
                  args.opt("metrics-out")};

    long duration_ms = args.opt("duration-s").empty()
        ? -1
        : std::stol(args.opt("duration-s")) * 1000;
    long interval_ms = args.opt("stats-interval-s").empty()
        ? -1
        : std::stol(args.opt("stats-interval-s")) * 1000;
    const std::string artifact_path = args.opt("artifact");
    const bool watch_artifact = args.has("watch-artifact");
    auto artifactMtime = [&artifact_path] {
        std::error_code ec;
        return std::filesystem::last_write_time(artifact_path, ec);
    };
    std::filesystem::file_time_type last_mtime{};
    if (watch_artifact && !artifact_path.empty())
        last_mtime = artifactMtime();
    auto hotSwap = [&](const char *why) {
        if (artifact_path.empty()) {
            std::fprintf(stderr,
                         "ca_server: %s ignored (no --artifact to "
                         "reload)\n",
                         why);
            return;
        }
        try {
            net::MatchServer::SwapResult r =
                server->swapFromArtifact(artifact_path);
            std::printf("%s: %s %016llx -> %016llx (epoch %llu)\n", why,
                        r.swapped ? "swapped" : "unchanged",
                        static_cast<unsigned long long>(r.oldFingerprint),
                        static_cast<unsigned long long>(r.newFingerprint),
                        static_cast<unsigned long long>(r.epoch));
            std::fflush(stdout);
        } catch (const CaError &e) {
            // A bad artifact must never take down the serving epoch.
            std::fprintf(stderr, "ca_server: %s swap failed: %s\n", why,
                         e.what());
        }
    };
    long waited_ms = 0;
    long last_flush_ms = 0;
    long last_watch_ms = 0;
    while (!g_stop && (duration_ms < 0 || waited_ms < duration_ms)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        waited_ms += 50;
        if (g_hup) {
            g_hup = 0;
            hotSwap("SIGHUP");
        }
        if (watch_artifact && !artifact_path.empty() &&
            waited_ms - last_watch_ms >= 1000) {
            last_watch_ms = waited_ms;
            std::filesystem::file_time_type now_mtime = artifactMtime();
            if (now_mtime != last_mtime) {
                last_mtime = now_mtime;
                hotSwap("watch-artifact");
            }
        }
        if (interval_ms > 0 && waited_ms - last_flush_ms >= interval_ms) {
            last_flush_ms = waited_ms;
            // Periodic flush: refresh the exported gauges and rewrite
            // the metrics artifact so a crash loses at most one window.
            exportShutdownGauges(*server);
            if (!args.opt("metrics-out").empty())
                telemetry::dumpMetrics(args.opt("metrics-out"));
        }
    }

    std::printf("shutting down (%zu active connections)...\n",
                server->activeConnections());
    // Orderly path: stop now so the printed totals are final (the guard
    // re-runs these — both stops are idempotent).
    if (stats_listener)
        stats_listener->stop();
    server->stop();

    net::NetServerStats n = server->stats();
    runtime::ServerStats s = server->streamStats();
    std::printf("connections: %llu accepted, %llu rejected, "
                "%llu closed\n",
                static_cast<unsigned long long>(n.connectionsAccepted),
                static_cast<unsigned long long>(n.connectionsRejected),
                static_cast<unsigned long long>(n.connectionsClosed));
    std::printf("streams:     %llu opened, %llu closed\n",
                static_cast<unsigned long long>(n.streamsOpened),
                static_cast<unsigned long long>(n.streamsClosed));
    std::printf("frames:      %llu in (%llu bytes), %llu out "
                "(%llu bytes)\n",
                static_cast<unsigned long long>(n.framesIn),
                static_cast<unsigned long long>(n.bytesIn),
                static_cast<unsigned long long>(n.framesOut),
                static_cast<unsigned long long>(n.bytesOut));
    std::printf("reports:     %llu sent (%llu scored); errors: "
                "%llu protocol, %llu idle, %llu write, %llu "
                "slow-consumer\n",
                static_cast<unsigned long long>(n.reportsSent),
                static_cast<unsigned long long>(n.scoredReportsSent),
                static_cast<unsigned long long>(n.protocolErrors),
                static_cast<unsigned long long>(n.idleTimeouts),
                static_cast<unsigned long long>(n.writeTimeouts),
                static_cast<unsigned long long>(n.slowConsumerDrops));
    std::printf("runtime:     %llu symbols, %llu reports, %llu slices, "
                "%llu context switches\n",
                static_cast<unsigned long long>(s.symbols),
                static_cast<unsigned long long>(s.reports),
                static_cast<unsigned long long>(s.slices),
                static_cast<unsigned long long>(s.contextSwitches));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ca::telemetry::CliSession session(argc, argv);
    std::optional<ca::cli::Args> args = ca::cli::parseArgs(
        argc, argv, 1, "ca_server",
        {{"artifact"}, {"benchmark"}, {"rules"}, {"pattern"}, {"scale"},
         {"seed"}, {"port"}, {"bind"}, {"workers"}, {"max-conns"},
         {"max-streams"}, {"queue-depth"}, {"kernel"}, {"match-parallel"},
         {"idle-timeout-ms"}, {"duration-s"}, {"stats-port"},
         {"stats-bind"}, {"stats-interval-s"}, {"peer"}, {"cache-dir"},
         {"fingerprint"}, {"admin-port"}, {"admin-bind"},
         {"watch-artifact", false}});
    if (!args)
        return usage();
    try {
        return run(*args);
    } catch (const ca::CaError &e) {
        std::fprintf(stderr, "ca_server: %s\n", e.what());
        return 1;
    }
}
