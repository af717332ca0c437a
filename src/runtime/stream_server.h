/**
 * @file
 * Multi-stream runtime: a worker pool time-multiplexing many stream
 * sessions over one immutable mapped automaton.
 *
 * The paper's system integration (§2.8-2.9) gives the Cache Automaton an
 * input FIFO, an output report buffer, and OS suspend/resume of the
 * active-state vector so one accelerator serves many streams. The
 * StreamServer is that OS layer in software:
 *
 *   - One MatchContext per server: the mapped automaton's immutable
 *     tables, built once and read by every worker engine and by the
 *     ParallelMatcher.
 *   - One match::MatchEngine per worker (the functional engine; the
 *     cycle-accurate simulator's hardware accounting has no place on
 *     the serving path). Per-stream state lives in each session's
 *     SimCheckpoint, which a slice restores into the worker's engine
 *     and checkpoints back.
 *   - N StreamSessions, each an independent stream with a bounded chunk
 *     queue and a ReportSink.
 *   - A fixed pool of workers executing sessions in round-robin
 *     scheduling slices of at most `sliceSymbols` input bytes; a session
 *     with work left re-enters the tail of the run queue (a context
 *     switch), so sessions may far outnumber workers and still make
 *     fair progress.
 *
 * Determinism: each session's delivered report stream is byte-identical
 * to a single-threaded run over the concatenation of its chunks, for
 * every worker count, slice length, and scheduling interleaving
 * (enforced by tests/runtime_test.cpp against the CPU oracle, NfaEngine).
 */
#ifndef CA_RUNTIME_STREAM_SERVER_H
#define CA_RUNTIME_STREAM_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "compiler/mapping.h"
#include "match/match_engine.h"
#include "match/parallel_matcher.h"
#include "runtime/stream_session.h"
#include "sim/engine.h"

namespace ca::runtime {

/** Server configuration. */
struct StreamServerOptions
{
    /** Worker threads (clamped to >= 1). */
    size_t workers = 4;
    /** Max queued chunks per session before submit() blocks. */
    size_t sessionQueueDepth = 16;
    /**
     * Context-switch quantum: max input bytes one scheduling slice feeds
     * before the session is suspended and requeued (clamped to >= 1).
     */
    uint64_t sliceSymbols = 64 << 10;
    /**
     * Kernel options for every engine the server runs (the per-worker
     * engines and the ParallelMatcher's): the match::MatchOptions part —
     * the kernel (Sparse/Dense/Auto; with Auto each worker adapts per
     * slice to the density of the streams it happens to run), the Auto
     * knobs and the semiring. $CA_SIM_KERNEL, when set, overrides the
     * kernel. The hardware-model fields (collectReports, recordTrace,
     * fifoRefillSymbols, outputBufferDepth) do not apply: workers run
     * the functional engine, which always collects reports.
     */
    SimOptions sim;
    /**
     * Chunk-parallel single-stream matching (docs/MATCH.md): degree of
     * the shared ParallelMatcher, including the calling worker. 0 or 1
     * disables it; N >= 2 fans large submitted chunks of one session
     * out across N threads with SFA-style speculative joins
     * (`ca_server --match-parallel off|auto|N` sets it).
     */
    size_t matchParallelism = 0;
    /**
     * Minimum gathered input (bytes) before a slice routes through the
     * ParallelMatcher; smaller slices stay on the worker's serial
     * engine (speculation cannot amortize its warm-up on them).
     */
    size_t matchParallelMinBytes = 128 << 10;
};

/** Aggregate server accounting (all sessions, since construction). */
struct ServerStats
{
    uint64_t sessionsOpened = 0;
    uint64_t sessionsClosed = 0;
    uint64_t symbols = 0;
    uint64_t reports = 0;
    uint64_t slices = 0;
    uint64_t contextSwitches = 0;
};

/**
 * Point-in-time view of the whole runtime for the observability plane
 * (docs/OBSERVABILITY.md): aggregate totals, every session's live
 * stats, and each worker engine's kernel-decision counters.
 */
struct ServerInspect
{
    ServerStats totals;
    size_t workers = 0;
    /** Every session the server holds (closed ones until release()). */
    std::vector<SessionLiveStats> sessions;
    /** One entry per worker, indexed by worker id. */
    std::vector<KernelDecisionStats> kernels;
    /** Resolved ParallelMatcher degree (0 when disabled). */
    size_t matchParallelism = 0;
    /** Cumulative speculation statistics (zero when disabled). */
    match::ParallelStats match;
};

/** The multi-stream runtime (one per mapped automaton). */
class StreamServer
{
  public:
    explicit StreamServer(const MappedAutomaton &mapped,
                          const StreamServerOptions &opts = {});

    /**
     * Co-owning variant for automata loaded from a persist artifact:
     * the server keeps the loaded automaton alive for its lifetime.
     * @throws CaError when @p mapped is null.
     */
    explicit StreamServer(std::shared_ptr<const MappedAutomaton> mapped,
                          const StreamServerOptions &opts = {});

    /**
     * Warm-starts a server from an on-disk artifact (docs/PERSIST.md):
     * loads, checksum-verifies, and cross-validates the compiled
     * automaton, then serves it — no compile pipeline on the process's
     * critical path. @throws CaError on a missing/corrupt artifact.
     */
    static std::unique_ptr<StreamServer>
    fromArtifact(const std::string &path,
                 const StreamServerOptions &opts = {});

    /** Closes every open session (draining them), then joins workers. */
    ~StreamServer();

    StreamServer(const StreamServer &) = delete;
    StreamServer &operator=(const StreamServer &) = delete;

    /**
     * Opens a new session at the context's startCheckpoint(), reporting
     * into @p sink, which must outlive the session's close(). The session
     * lives until release() or the server's destruction.
     */
    StreamSession &open(ReportSink &sink);

    /**
     * Opens a session resuming from a suspended automaton state (§2.9):
     * the first slice restore()s @p resume_from instead of resetting,
     * so report offsets continue the original stream's numbering. The
     * checkpoint must come from the same mapped automaton.
     * @throws CaError when a scratch engine's restore() rejects it (a
     * state outside the automaton, scores not parallel to the states).
     */
    StreamSession &open(ReportSink &sink,
                        const SimCheckpoint &resume_from);

    /**
     * Frees @p session after its close() returned: it leaves inspect(),
     * its counts stay in stats(). Must not race closeAll().
     * @throws CaError when @p session is open or not this server's.
     */
    void release(StreamSession &session);

    /** close() on every session still held. */
    void closeAll();

    size_t workerCount() const { return workers_.size(); }
    const MappedAutomaton &mapped() const { return ctx_->mapped(); }
    const StreamServerOptions &options() const { return opts_; }

    ServerStats stats() const;

    /**
     * The shared chunk-parallel matcher; null when matchParallelism
     * resolved to off. Exposed for benches and tests — traffic should
     * flow through sessions, which route to it automatically.
     */
    match::ParallelMatcher *parallelMatcher() { return matcher_.get(); }

    /**
     * Live snapshot of totals, every session held, and per-worker kernel
     * decisions. Safe to call concurrently with running traffic (takes
     * each session's mutex briefly; kernel counters are relaxed
     * atomics). Must not race the server's destructor.
     */
    ServerInspect inspect() const;

  private:
    friend class StreamSession;

    /** Appends @p session to the run queue and wakes a worker. */
    void schedule(StreamSession *session);

    void workerLoop(size_t worker_index);

    /** Both public constructors: serves the automaton behind @p ctx. */
    StreamServer(std::shared_ptr<const match::MatchContext> ctx,
                 const StreamServerOptions &opts);

    /** Runs one scheduling slice of @p session on @p engine. */
    void runSlice(StreamSession &session, match::MatchEngine &engine,
                  size_t worker_index, std::vector<uint8_t> &buf);

    /**
     * The automaton's tables, shared by every engine below (and
     * co-owning a loaded automaton).
     */
    std::shared_ptr<const match::MatchContext> ctx_;
    StreamServerOptions opts_;

    /**
     * Chunk-parallel matching (null when disabled): one ParallelMatcher
     * shares its engine pool across all sessions. tryMatch()'s
     * non-blocking contract keeps concurrent sessions on their serial
     * engines.
     */
    std::unique_ptr<match::ParallelMatcher> matcher_;

    // Scheduler: run queue of sessions owed a slice.
    mutable std::mutex sched_mutex_;
    std::condition_variable sched_cv_;
    std::deque<StreamSession *> run_queue_;
    bool stopping_ = false;

    // Sessions by id (owned; stable addresses until release()).
    mutable std::mutex sessions_mutex_;
    std::map<uint32_t, std::unique_ptr<StreamSession>> sessions_;
    uint32_t next_session_id_ = 0;

    ServerStats stats_; ///< Guarded by sessions_mutex_.

    /**
     * One engine per worker, indexed by worker id. Built with the
     * server and never replaced, so inspect() reads their kernel
     * counters without a lock.
     */
    std::vector<std::unique_ptr<match::MatchEngine>> engines_;

    std::vector<std::thread> workers_;
};

} // namespace ca::runtime

#endif // CA_RUNTIME_STREAM_SERVER_H
