/**
 * @file
 * The per-layer pass of the traced run: the workload's own inputs
 * replayed through the kernel, runtime and wire layers in isolation,
 * each call wrapped in a span. README.md maps every metric to the
 * end-to-end metric and workload it should move.
 */
#include <algorithm>

#include "bench.h"
#include "match/match_engine.h"
#include "match/parallel_matcher.h"
#include "net/protocol.h"
#include "runtime/stream_server.h"
#include "sim/engine.h"

namespace perfbench {

using namespace ca;

namespace {

/**
 * Calls @p piece(input, offset, size) over the workload's requests in
 * serving order (each input is one stream cut into @p piece_bytes
 * pieces; an open-loop message is one piece), cycling through the
 * inputs until @p budget_s has passed. @p fresh(input) runs before each
 * stream's first piece.
 */
template <typename Fresh, typename Piece>
void
replay(const Workload &w, double budget_s, size_t piece_bytes, Fresh fresh,
       Piece piece)
{
    const auto start = Clock::now();
    for (size_t i = 0;; i = (i + 1) % w.inputs.size()) {
        const std::vector<uint8_t> &in = w.inputs[i];
        fresh(i);
        for (size_t pos = 0; pos < in.size(); pos += piece_bytes) {
            piece(i, pos, std::min(piece_bytes, in.size() - pos));
            if (msSince(start) > budget_s * 1e3)
                return;
        }
    }
}

size_t
pieceBytes(const Workload &w)
{
    return w.loop == Loop::Closed ? w.requestBytes : size_t{1} << 30;
}

} // namespace

LayerResult
layerMetrics(const LayerContext &c)
{
    const Workload &w = c.w;
    SpanLog &log = c.log;
    LayerResult result;
    std::vector<Metric> &out = result.metrics;
    auto mbps = [](uint64_t bytes, double ms) {
        return ms > 0 ? static_cast<double>(bytes) / 1e3 / ms : 0.0;
    };

    // --- kernel: the serving simulator, serially ------------------------
    const SimOptions &sim_opts = w.server.stream.sim;
    {
        CacheAutomatonSim sim(c.automaton, sim_opts);
        uint64_t bytes = 0;
        replay(
            w, 0.08 * c.seconds, pieceBytes(w), [&](size_t) { sim.reset(); },
            [&](size_t i, size_t pos, size_t n) {
                ScopedSpan span(log, "sim.feed");
                sim.feed(w.inputs[i].data() + pos, n);
                sim.takeReports();
                bytes += n;
            });
        out.push_back(
            {"sim.feed_mbps", mbps(bytes, log.totalMs("sim.feed")), "MB/s"});

        // One slice hand-off at the workload's own frontier: the state
        // after its first request.
        sim.reset();
        sim.feed(w.inputs[0].data(),
                 std::min(pieceBytes(w), w.inputs[0].size()));
        SimCheckpoint ckpt = sim.checkpoint();
        for (int k = 0; k < 2000; ++k) {
            ScopedSpan span(log, "sim.handoff");
            sim.restore(ckpt);
            ckpt = sim.checkpoint();
            sim.takeReports();
        }
        out.push_back({"sim.handoff_us",
                       log.durations("sim.handoff").percentile(50) * 1e3,
                       "us"});
    }

    // --- kernel: the functional engine (scored on weighted rulesets) ----
    auto ctx = std::make_shared<const match::MatchContext>(c.automaton);
    match::MatchOptions eng_opts;
    eng_opts.kernel = sim_opts.kernel;
    eng_opts.autoDensityThreshold = sim_opts.autoDensityThreshold;
    eng_opts.autoEwmaAlpha = sim_opts.autoEwmaAlpha;
    eng_opts.autoBlockSymbols = sim_opts.autoBlockSymbols;
    eng_opts.semiring = sim_opts.semiring;
    {
        std::unique_ptr<match::MatchEngine> eng;
        uint64_t bytes = 0, dense = 0, all = 0;
        auto retire = [&] {
            if (eng) {
                dense += eng->denseSymbols();
                all += eng->denseSymbols() + eng->sparseSymbols();
            }
        };
        replay(
            w, 0.05 * c.seconds, pieceBytes(w),
            [&](size_t) {
                retire();
                eng = std::make_unique<match::MatchEngine>(ctx, eng_opts);
            },
            [&](size_t i, size_t pos, size_t n) {
                ScopedSpan span(log, "match.feed");
                eng->feed(w.inputs[i].data() + pos, n);
                eng->takeReports();
                bytes += n;
            });
        retire();
        out.push_back({"match.feed_mbps",
                       mbps(bytes, log.totalMs("match.feed")), "MB/s"});
        out.push_back({"match.dense_frac",
                       all ? static_cast<double>(dense) /
                               static_cast<double>(all)
                           : 0.0,
                       "fraction"});
    }

    // --- kernel: ParallelMatcher at degree 3, on server-sized slices ----
    {
        match::ParallelOptions popts;
        popts.degree = 3;
        popts.engine = eng_opts;
        match::ParallelMatcher pm(ctx, popts);
        const size_t slice = static_cast<size_t>(
            w.server.stream.sliceSymbols * popts.degree);
        std::vector<StateId> frontier;
        uint64_t offset = 0;
        replay(
            w, 0.06 * c.seconds, slice,
            [&](size_t) {
                frontier = ctx->startFrontier();
                offset = 0;
            },
            [&](size_t i, size_t pos, size_t n) {
                ScopedSpan span(log, "match.parallel");
                match::MatchResult r =
                    pm.match(frontier, offset, w.inputs[i].data() + pos, n);
                frontier = std::move(r.frontier);
                offset = r.endOffset;
            });
        const match::ParallelStats s = pm.stats();
        const uint64_t speculative = s.speculationHits + s.replays;
        out.push_back({"match.parallel_mbps",
                       mbps(s.bytes, log.totalMs("match.parallel")),
                       "MB/s"});
        out.push_back({"match.parallel_calls",
                       static_cast<double>(s.calls - s.serialCalls),
                       "count"});
        out.push_back({"match.spec_hit_ratio",
                       speculative ? static_cast<double>(s.speculationHits) /
                               static_cast<double>(speculative)
                                   : 0.0,
                       "fraction"});
        out.push_back({"match.spec_chunks",
                       static_cast<double>(speculative), "count"});
        out.push_back({"match.replayed_frac",
                       s.bytes ? static_cast<double>(s.replayedBytes) /
                               static_cast<double>(s.bytes)
                               : 0.0,
                       "fraction"});
    }

    // --- runtime: the same sessions and chunking, no sockets ------------
    {
        std::shared_ptr<InProcess> in = makeInProcess(c.automaton, w);
        DriveResult r = drive(w, c.ref, 0.18 * c.seconds,
                              inProcessConnector(in), /*traced=*/true);
        const runtime::ServerStats st = inProcessServer(*in).stats();
        const double mb = static_cast<double>(r.bytes) / 1e6;
        const double requests = static_cast<double>(r.requests);
        out.push_back({"runtime.inproc_mbps", r.goodputMBps(), "MB/s"});
        out.push_back({"runtime.request_us",
                       r.requestMs.percentile(50) * 1e3, "us"});
        out.push_back({"runtime.submit_block_ms",
                       r.spans.totalMs("runtime.submit") / requests, "ms"});
        out.push_back({"runtime.slices",
                       static_cast<double>(st.slices) / mb, "count/MB"});
        out.push_back({"runtime.context_switches",
                       static_cast<double>(st.contextSwitches) / mb,
                       "count/MB"});
        result.inprocRequestMeanMs = r.requestMs.mean();
        result.errors = r.errors;
        log.append(r.spans);
    }

    // --- net: frame decode of the inbound bytes, report encode ----------
    {
        // The frames a client sends for the workload's inputs (up to
        // 8 MiB of them), cut as the generators cut them.
        std::vector<uint8_t> wire;
        const size_t piece = pieceBytes(w);
        for (size_t i = 0; i < w.inputs.size() && wire.size() < (8u << 20);
             ++i) {
            const std::vector<uint8_t> &in = w.inputs[i];
            net::appendOpenStream(wire, 1);
            for (size_t pos = 0; pos < in.size(); pos += piece) {
                net::appendData(wire, 1, in.data() + pos,
                                std::min(piece, in.size() - pos));
                if (w.loop == Loop::Closed)
                    net::appendFlush(wire, 1, pos);
            }
            net::appendCloseStream(wire, 1);
        }
        uint64_t bytes = 0;
        const auto start = Clock::now();
        while (msSince(start) < 0.03 * c.seconds * 1e3) {
            ScopedSpan span(log, "net.decode");
            net::FrameDecoder dec;
            for (size_t pos = 0; pos < wire.size(); pos += 64u << 10) {
                dec.append(wire.data() + pos,
                           std::min<size_t>(64u << 10, wire.size() - pos));
                while (dec.next()) {
                }
            }
            bytes += wire.size();
        }
        out.push_back({"net.decode_mbps",
                       mbps(bytes, log.totalMs("net.decode")), "MB/s"});

        // One server-sized batch of this workload's own rows, repeated
        // when it has fewer.
        const size_t batch = w.server.reportBatch;
        std::vector<Report> rows;
        for (const std::vector<Report> &r : c.ref)
            rows.insert(rows.end(), r.begin(),
                        r.begin() + static_cast<long>(std::min(
                                        r.size(), batch - rows.size())));
        if (rows.empty())
            rows.push_back(Report{});
        for (size_t k = 0; rows.size() < batch; ++k)
            rows.push_back(rows[k]);
        const bool scored = c.automaton->nfa().hasWeights();
        std::vector<uint8_t> frame;
        for (int k = 0; k < 4000; ++k) {
            ScopedSpan span(log, "net.report_encode");
            frame.clear();
            if (scored)
                net::appendScoredReports(frame, 1, rows.data(), rows.size());
            else
                net::appendReports(frame, 1, rows.data(), rows.size());
        }
        out.push_back({"net.report_encode_us",
                       log.durations("net.report_encode").percentile(50) *
                           1e3,
                       "us"});
    }
    return result;
}

} // namespace perfbench
