#include "runtime/stream_server.h"

#include <chrono>
#include <cmath>

#include "core/error.h"
#include "persist/artifact.h"
#include "telemetry/telemetry.h"

namespace ca::runtime {

StreamServer::StreamServer(const MappedAutomaton &mapped,
                           const StreamServerOptions &opts)
    : StreamServer(std::make_shared<const match::MatchContext>(mapped), opts)
{
}

StreamServer::StreamServer(std::shared_ptr<const MappedAutomaton> mapped,
                           const StreamServerOptions &opts)
    : StreamServer(
          std::make_shared<const match::MatchContext>(std::move(mapped)),
          opts)
{
}

std::unique_ptr<StreamServer>
StreamServer::fromArtifact(const std::string &path,
                           const StreamServerOptions &opts)
{
    CA_TRACE_SCOPE("ca.runtime.server_from_artifact");
    persist::LoadedArtifact loaded = persist::loadArtifact(path);
    return std::make_unique<StreamServer>(std::move(loaded.automaton),
                                          opts);
}

StreamServer::StreamServer(std::shared_ptr<const match::MatchContext> ctx,
                           const StreamServerOptions &opts)
    : ctx_(std::move(ctx)), opts_(opts)
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.sessionQueueDepth == 0)
        opts_.sessionQueueDepth = 1;
    if (opts_.sliceSymbols == 0)
        opts_.sliceSymbols = 1;
    if (opts_.matchParallelMinBytes == 0)
        opts_.matchParallelMinBytes = 1;
    // $CA_SIM_KERNEL pins every engine below, as it pins the simulator.
    if (std::optional<SimKernel> k = simKernelEnvOverride())
        opts_.sim.kernel = *k;

    engines_.reserve(opts_.workers);
    for (size_t i = 0; i < opts_.workers; ++i)
        engines_.push_back(
            std::make_unique<match::MatchEngine>(ctx_, opts_.sim));

    // The ParallelMatcher runs a weighted automaton serially, under its
    // call lock (speculation cannot certify scores), so it would only
    // serialize the workers: weighted automata stay on their engines.
    if (opts_.matchParallelism > 1 && !ctx_->scored()) {
        match::ParallelOptions popts;
        popts.degree = opts_.matchParallelism;
        popts.engine = opts_.sim;
        matcher_ = std::make_unique<match::ParallelMatcher>(ctx_, popts);
        opts_.matchParallelism = matcher_->degree();
    } else {
        opts_.matchParallelism = 0;
    }

    workers_.reserve(opts_.workers);
    for (size_t i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

StreamServer::~StreamServer()
{
    closeAll();
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        stopping_ = true;
    }
    sched_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

StreamSession &
StreamServer::open(ReportSink &sink)
{
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    const uint32_t id = next_session_id_++;
    std::unique_ptr<StreamSession> &session = sessions_[id];
    session.reset(new StreamSession(*this, id, sink));
    session->checkpoint_ = ctx_->startCheckpoint();
    ++stats_.sessionsOpened;
    return *session;
}

StreamSession &
StreamServer::open(ReportSink &sink, const SimCheckpoint &resume_from)
{
    // Check here, on the caller's thread, by the engine's own rules: a
    // checkpoint the engine rejects would otherwise throw on a worker
    // thread at the first slice, where nothing can catch it.
    match::MatchEngine(ctx_, opts_.sim).restore(resume_from);
    StreamSession &session = open(sink);
    // No worker has seen the session yet, so its suspended state can be
    // seeded without locking.
    session.checkpoint_ = resume_from;
    return session;
}

void
StreamServer::release(StreamSession &session)
{
    CA_FATAL_IF(!session.closed(),
                "release() of session " << session.id() << " before close()");
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session.id());
    CA_FATAL_IF(it == sessions_.end() || it->second.get() != &session,
                "release() of a session this server does not hold");
    sessions_.erase(it);
}

void
StreamServer::closeAll()
{
    std::vector<StreamSession *> to_close;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        for (auto &[id, s] : sessions_)
            to_close.push_back(s.get());
    }
    for (StreamSession *s : to_close)
        if (!s->closed())
            s->close();
}

ServerStats
StreamServer::stats() const
{
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    return stats_;
}

ServerInspect
StreamServer::inspect() const
{
    ServerInspect out;
    out.workers = workers_.size();
    out.kernels.reserve(engines_.size());
    for (const auto &engine : engines_)
        out.kernels.push_back(engine->kernelStats());
    if (matcher_) {
        out.matchParallelism = matcher_->degree();
        out.match = matcher_->stats();
    }
    // release() frees sessions under sessions_mutex_, so hold it across
    // the live() reads; no path takes a session's mutex before it.
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    out.totals = stats_;
    out.sessions.reserve(sessions_.size());
    for (const auto &[id, s] : sessions_)
        out.sessions.push_back(s->live());
    return out;
}

void
StreamServer::schedule(StreamSession *session)
{
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        run_queue_.push_back(session);
    }
    sched_cv_.notify_one();
}

void
StreamServer::workerLoop(size_t worker_index)
{
    // Per-stream state arrives as a SimCheckpoint; the engine only ever
    // holds the state of the session it is running.
    match::MatchEngine &engine = *engines_[worker_index];
    std::vector<uint8_t> buf;
    buf.reserve(static_cast<size_t>(
        std::min<uint64_t>(opts_.sliceSymbols, 1u << 20)));

    for (;;) {
        StreamSession *session = nullptr;
        {
            std::unique_lock<std::mutex> lock(sched_mutex_);
            sched_cv_.wait(lock, [&] {
                return stopping_ || !run_queue_.empty();
            });
            if (run_queue_.empty())
                return; // stopping, queue drained
            session = run_queue_.front();
            run_queue_.pop_front();
        }
        runSlice(*session, engine, worker_index, buf);
    }
}

void
StreamServer::runSlice(StreamSession &s, match::MatchEngine &engine,
                       size_t worker_index, std::vector<uint8_t> &buf)
{
    CA_TRACE_SCOPE_CAT("ca.runtime.slice", "ca.runtime");
    {
        std::lock_guard<std::mutex> lock(s.mutex_);
        if (s.suspended_) {
            // suspend() won the race before this slice started; park the
            // session until resume()/close() reschedules it.
            s.run_state_ = StreamSession::RunState::Idle;
            s.drain_cv_.notify_all();
            return;
        }
        s.run_state_ = StreamSession::RunState::Running;
        ++s.stats_.slices;
        if (worker_index < 64)
            s.stats_.workerMask |= uint64_t{1} << worker_index;
    }

    // A slice with the ParallelMatcher enabled gets a degree-times
    // larger quantum: the point is to hand one hot stream enough bytes
    // for every matcher thread to get a full chunk.
    uint64_t budget = opts_.sliceSymbols;
    if (matcher_)
        budget *= matcher_->degree();
    uint64_t fed = 0;
    std::vector<Report> reports;
    auto append = [&reports](std::vector<Report> r) {
        if (reports.empty())
            reports = std::move(r);
        else
            reports.insert(reports.end(), r.begin(), r.end());
    };

    // The session's automaton state lives in s.checkpoint_; only the
    // worker owning Running touches it. Resume it (§2.9) into this
    // worker's engine for the slice, and suspend it back at the end.
    engine.restore(s.checkpoint_);
    while (budget > 0) {
        size_t n = s.takeInput(buf, static_cast<size_t>(budget));
        if (n == 0)
            break;
        // Large gathered chunks route to the shared ParallelMatcher.
        // tryMatch: if another session holds the matcher, fall through
        // to the serial engine instead of queueing.
        std::optional<match::MatchResult> par;
        if (matcher_ && n >= opts_.matchParallelMinBytes)
            par = matcher_->tryMatch(engine.frontier(),
                                     engine.streamOffset(), buf.data(), n);
        if (par) {
            append(engine.takeReports());
            append(std::move(par->reports));
            engine.setState(par->frontier, par->endOffset);
        } else {
            engine.feed(buf.data(), n);
        }
        fed += n;
        budget -= n;
    }
    append(engine.takeReports());
    s.checkpoint_ = engine.checkpoint();

    // Suspend: the automaton state is saved, so drain the output buffer
    // to the sink in stream order (the session is not yet requeued, so
    // no other worker can interleave deliveries).
    if (!reports.empty())
        s.sink_.onReports(s.id_, reports.data(), reports.size());

    // Aggregate into the server totals *before* the session's state
    // transition below: once close()/flush() observe the transition and
    // return, the server stats must already include this slice.
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        stats_.symbols += fed;
        stats_.reports += reports.size();
        ++stats_.slices;
    }

    bool reschedule = false;
    bool finalize = false;
    bool context_switch = false;
    SessionSummary summary;
    {
        std::lock_guard<std::mutex> lock(s.mutex_);
        s.stats_.symbols += fed;
        s.stats_.reports += reports.size();
        // Throughput EWMA with a ~1 s time constant: alpha follows the
        // actual gap between slices, so bursts of short slices and long
        // idle gaps both decay correctly.
        auto now = std::chrono::steady_clock::now();
        if (s.rate_updated_.time_since_epoch().count() != 0) {
            double dt = std::chrono::duration<double>(
                            now - s.rate_updated_)
                            .count();
            if (dt > 0) {
                double inst = static_cast<double>(fed) / dt;
                double alpha = 1.0 - std::exp(-dt);
                s.rate_ewma_ += alpha * (inst - s.rate_ewma_);
            }
        }
        s.rate_updated_ = now;
        if (s.suspended_) {
            s.run_state_ = StreamSession::RunState::Idle;
            s.drain_cv_.notify_all();
        } else if (s.queued_bytes_ > 0) {
            // More input arrived (or the quantum expired first): context
            // switch — back of the run queue, round-robin.
            s.run_state_ = StreamSession::RunState::Queued;
            reschedule = true;
            context_switch = true;
            ++s.stats_.contextSwitches;
        } else if (s.close_requested_ && !s.finalized_) {
            finalize = true; // sink call happens outside the lock
            summary = SessionSummary{s.stats_.symbols, s.stats_.reports};
        } else {
            s.run_state_ = StreamSession::RunState::Idle;
            s.drain_cv_.notify_all();
        }
    }
    if (context_switch) {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        ++stats_.contextSwitches;
    }
    if (reschedule)
        schedule(&s);
    if (finalize) {
        s.sink_.onClose(s.id_, summary);
        {
            std::lock_guard<std::mutex> lock(sessions_mutex_);
            ++stats_.sessionsClosed;
        }
        std::lock_guard<std::mutex> lock(s.mutex_);
        s.finalized_ = true;
        s.run_state_ = StreamSession::RunState::Idle;
        s.drain_cv_.notify_all();
    }
}

} // namespace ca::runtime
