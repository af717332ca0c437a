/**
 * @file
 * One input stream's session on a StreamServer.
 *
 * A session is the runtime's unit of multiplexing (§2.8-2.9): producers
 * submit stream chunks into a bounded queue (backpressure: submit()
 * blocks when full, trySubmit() refuses), workers drain the queue in
 * scheduling slices, and the session's automaton state travels between
 * workers as a SimCheckpoint — the paper's suspend/resume context
 * switch, so sessions can outnumber workers.
 *
 * Thread model: any number of threads may submit to *different*
 * sessions; per session, producers may also race (chunk order then
 * follows lock acquisition). flush()/close() may be called from any
 * producer thread. All report delivery happens on worker threads, in
 * stream order per session (see report_sink.h).
 */
#ifndef CA_RUNTIME_STREAM_SESSION_H
#define CA_RUNTIME_STREAM_SESSION_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "runtime/report_sink.h"
#include "match/match_engine.h"

namespace ca::runtime {

class StreamServer;

/** Point-in-time accounting for one session. */
struct SessionStats
{
    uint64_t symbols = 0;         ///< Stream bytes simulated so far.
    uint64_t bytesSubmitted = 0;  ///< Bytes accepted into the queue.
    uint64_t chunksSubmitted = 0; ///< Chunks accepted into the queue.
    uint64_t reports = 0;         ///< Reports delivered to the sink.
    uint64_t slices = 0;          ///< Scheduling slices executed.
    uint64_t contextSwitches = 0; ///< Suspensions with work remaining.
    uint64_t queueFullStalls = 0; ///< submit() calls that had to block.
    uint64_t suspensions = 0;     ///< §2.9 suspend() calls taken.
    /** Bit i set when worker i ran a slice of this session. */
    uint64_t workerMask = 0;
};

/**
 * Live point-in-time view of one session, for the observability plane
 * (StreamServer::inspect(), STATS replies, ca_top).
 */
struct SessionLiveStats
{
    uint32_t id = 0;
    SessionStats stats;
    uint64_t queuedBytes = 0;  ///< Submitted but not yet simulated.
    uint32_t queuedChunks = 0; ///< Chunks waiting in the queue.
    bool suspended = false;
    bool closing = false;      ///< close() requested, drain pending.
    bool closed = false;       ///< Fully drained and finalized.
    /** EWMA (~1 s time constant) of simulated symbols per second. */
    double symbolsPerSec = 0.0;
};

/**
 * Handle to one open stream. Created by StreamServer::open() and owned
 * by the server; valid until StreamServer::release() or the server's
 * destruction. Lifecycle: open → submit()* → [flush()]* → close() →
 * [release()].
 */
class StreamSession
{
  public:
    uint32_t id() const { return id_; }

    /**
     * Queues a copy of @p data for simulation, blocking while the queue
     * is at capacity. Rejects (CaError) after close(). Empty chunks are
     * accepted and ignored.
     */
    void submit(const uint8_t *data, size_t size);

    void
    submit(const std::vector<uint8_t> &chunk)
    {
        submit(chunk.data(), chunk.size());
    }

    /** Non-blocking submit; false when the queue is full. */
    bool trySubmit(const uint8_t *data, size_t size);

    /**
     * Blocks until every chunk submitted before this call has been
     * simulated and its reports delivered to the sink.
     */
    void flush();

    /**
     * Declares end-of-stream and blocks until the queue is drained and
     * the sink's onClose() has run. Implicitly resume()s a suspended
     * session so the drain can complete. Idempotent.
     */
    void close();

    bool closed() const;

    /**
     * §2.9 suspend: takes the session off the scheduler (queued input
     * is retained; producers may keep submitting up to the queue bound)
     * and blocks until the in-flight slice, if any, has finished.
     * Returns the suspended automaton state — the active-state vector
     * and input offset the hardware would save — which can seed a new
     * session via StreamServer::open(sink, checkpoint), including on a
     * different server over the same mapped automaton.
     */
    SimCheckpoint suspend();

    /** Puts a suspended session back on the scheduler. */
    void resume();

    SessionStats stats() const;

    /** Live view: stats plus queue depth, state, and throughput EWMA. */
    SessionLiveStats live() const;

  private:
    friend class StreamServer;

    StreamSession(StreamServer &server, uint32_t id, ReportSink &sink);

    StreamSession(const StreamSession &) = delete;
    StreamSession &operator=(const StreamSession &) = delete;

    /** Scheduler visibility (guarded by mutex_). */
    enum class RunState {
        Idle,   ///< Not queued; scheduled on next submit/close.
        Queued, ///< In the server run queue awaiting a worker.
        Running ///< A worker is executing a slice.
    };

    /**
     * The one enqueue path behind submit() (@p block) and trySubmit():
     * on a full queue it blocks or returns false; true once queued.
     */
    bool enqueue(const uint8_t *data, size_t size, bool block);

    // --- Worker-side interface (called by StreamServer) ---------------

    /**
     * Copies up to @p max_bytes of queued input into @p out (possibly
     * spanning chunks), advancing the queue and waking blocked
     * producers. Returns the number of bytes taken.
     */
    size_t takeInput(std::vector<uint8_t> &out, size_t max_bytes);

    StreamServer &server_;
    const uint32_t id_;
    ReportSink &sink_;

    mutable std::mutex mutex_;
    /** Producers blocked on a full queue. */
    std::condition_variable space_cv_;
    /** flush()/close() waiters. */
    std::condition_variable drain_cv_;

    std::deque<std::vector<uint8_t>> chunks_;
    /** Read offset into chunks_.front() (suspend mid-chunk). */
    size_t front_pos_ = 0;
    /** Total queued-but-unsimulated bytes (fast has-work checks). */
    size_t queued_bytes_ = 0;

    RunState run_state_ = RunState::Idle;
    bool close_requested_ = false;
    bool finalized_ = false;
    bool suspended_ = false;

    /**
     * Suspended automaton state (§2.9), seeded at open() with the
     * context's startCheckpoint(). Between slices only suspend() reads it;
     * while Running only the owning worker touches it (handoff between
     * workers is ordered by the scheduler and session mutexes).
     */
    SimCheckpoint checkpoint_;

    SessionStats stats_;

    /** Throughput EWMA state (guarded by mutex_, updated per slice). */
    double rate_ewma_ = 0.0;
    std::chrono::steady_clock::time_point rate_updated_{};
};

} // namespace ca::runtime

#endif // CA_RUNTIME_STREAM_SESSION_H
