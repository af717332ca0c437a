/**
 * @file
 * Chunk-parallel single-stream matching (docs/MATCH.md).
 *
 * The SFA idea (PAPERS.md: *Simultaneous Finite Automata*) applied to
 * the mapped automaton: split one buffer into N chunks, run chunk 0
 * exactly from the incoming frontier, and run chunks 1..N-1
 * *speculatively* in parallel. Each speculative chunk seeds from the
 * reachable-frontier overapproximation and composes the frontier
 * transformer over a warm-up window (the tail of the preceding chunk,
 * reports suppressed); because one automaton step is monotone in the
 * frontier and the seed contains every reachable frontier, the
 * speculative start frontier is always a superset of the true one —
 * when the warm-up has converged to *equality*, the chunk's reports and
 * end frontier are exact and the join is free. On a miss the joiner
 * replays the chunk from the exact frontier (counted; `ca.match.*`).
 *
 * The joiner walks chunks left to right, so the returned report stream
 * is byte-identical to a serial MatchEngine run — tests/match_test.cpp
 * and bench_parallel_match enforce this against the oracle on every
 * suite ruleset.
 */
#ifndef CA_MATCH_PARALLEL_MATCHER_H
#define CA_MATCH_PARALLEL_MATCHER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "match/match_engine.h"

namespace ca::match {

/** ParallelMatcher controls. */
struct ParallelOptions
{
    /**
     * Worker count including the calling thread; 0 = one per hardware
     * thread. Degree 1 always runs serially.
     */
    size_t degree = 0;
    /**
     * Buffers shorter than 2x this run serially; otherwise the chunk
     * count is capped so no chunk is smaller than this (speculation
     * must amortize its warm-up window).
     */
    size_t minChunkBytes = 64 << 10;
    /**
     * Speculative warm-up window: how many tail bytes of the preceding
     * chunk each speculative chunk replays (reports off) to converge
     * the overapproximated frontier before its own bytes begin.
     */
    size_t overlapBytes = 4 << 10;
    /** Per-engine kernel options. */
    MatchOptions engine;
};

/** Cumulative speculation statistics (mirrors the ca.match.* counters). */
struct ParallelStats
{
    uint64_t calls = 0;        ///< match()/tryMatch() invocations.
    uint64_t serialCalls = 0;  ///< Calls that ran without chunking.
    uint64_t bytes = 0;        ///< Total input bytes matched.
    uint64_t chunks = 0;       ///< Chunks executed (incl. chunk 0).
    uint64_t speculationHits = 0; ///< Speculative chunks joined for free.
    uint64_t replays = 0;      ///< Speculative chunks replayed exactly.
    uint64_t replayedBytes = 0;
    uint64_t joinMicros = 0;   ///< Wall time in the join walk (waits,
                               ///< frontier compares, replays).
};

/** One match() call's output. */
struct MatchResult
{
    std::vector<Report> reports;
    /** Exact frontier after the last byte, sorted ascending. */
    std::vector<StateId> frontier;
    /** Per-state scores parallel to frontier; empty when unweighted. */
    std::vector<Score> frontierScores;
    /** Absolute stream offset after the last byte. */
    uint64_t endOffset = 0;
};

/**
 * A persistent pool of MatchEngines that match one buffer with
 * speculative chunk parallelism. One matcher serializes its calls (it
 * owns one set of engines); tryMatch() is the non-blocking variant the
 * StreamServer uses so concurrent sessions fall back to their serial
 * per-worker engines instead of queueing here.
 */
class ParallelMatcher
{
  public:
    explicit ParallelMatcher(std::shared_ptr<const MatchContext> ctx,
                             const ParallelOptions &opts = {});
    ~ParallelMatcher();

    ParallelMatcher(const ParallelMatcher &) = delete;
    ParallelMatcher &operator=(const ParallelMatcher &) = delete;

    /**
     * Matches a whole stream from offset 0, from the context's
     * startCheckpoint().
     */
    MatchResult match(const uint8_t *data, size_t size);

    /**
     * Matches a buffer continuing from an arbitrary frontier/offset, with
     * the per-state scores parallel to @p frontier (a previous call's
     * frontierScores). An empty @p scores means all-zero, as in
     * MatchEngine::setState.
     */
    MatchResult match(const std::vector<StateId> &frontier,
                      const std::vector<Score> &scores, uint64_t offset,
                      const uint8_t *data, size_t size);

    /** match() from @p frontier with every state at score 0. */
    MatchResult match(const std::vector<StateId> &frontier,
                      uint64_t offset, const uint8_t *data, size_t size);

    /** match(), unless another call is in flight (then nullopt). */
    std::optional<MatchResult> tryMatch(
        const std::vector<StateId> &frontier,
        const std::vector<Score> &scores, uint64_t offset,
        const uint8_t *data, size_t size);

    /** tryMatch() from @p frontier with every state at score 0. */
    std::optional<MatchResult> tryMatch(
        const std::vector<StateId> &frontier, uint64_t offset,
        const uint8_t *data, size_t size);

    /** Resolved worker count (>= 1), including the calling thread. */
    size_t degree() const { return degree_; }

    const MatchContext &context() const { return *ctx_; }

    ParallelStats stats() const;

  private:
    struct Chunk
    {
        const uint8_t *warm = nullptr; ///< Warm-up window bytes.
        size_t warmLen = 0;
        const uint8_t *data = nullptr; ///< The chunk body.
        size_t len = 0;
        uint64_t base = 0;             ///< Absolute offset of data[0].
        std::vector<StateId> specStart; ///< Frontier after warm-up.
        std::vector<StateId> end;       ///< Frontier after the body.
        std::vector<Report> reports;
        bool done = false;
    };

    MatchResult runLocked(const std::vector<StateId> &frontier,
                          const std::vector<Score> &scores, uint64_t offset,
                          const uint8_t *data, size_t size);
    void runSerial(MatchResult &out, const std::vector<StateId> &frontier,
                   const std::vector<Score> &scores, uint64_t offset,
                   const uint8_t *data, size_t size);
    void workerLoop();
    void runChunk(MatchEngine &eng, Chunk &c);

    std::shared_ptr<const MatchContext> ctx_;
    ParallelOptions opts_;
    size_t degree_ = 1;

    /** The calling thread's engine: chunk 0, replays, serial calls. */
    MatchEngine join_engine_;

    std::mutex call_mu_; ///< Serializes match() calls.

    // Work queue (guarded by mu_). Chunks live in the caller's frame
    // for the duration of the call; the queue holds borrowed pointers.
    std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::deque<Chunk *> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;

    mutable std::mutex stats_mu_;
    ParallelStats stats_;
};

/**
 * Parses a --match-parallel value into a degree:
 * "off"/"0"/"1" = disabled (0), "auto" = one per hardware thread,
 * an integer >= 2 = that many workers. nullopt on anything else.
 */
std::optional<size_t> parseMatchParallel(std::string_view value);

} // namespace ca::match

#endif // CA_MATCH_PARALLEL_MATCHER_H
