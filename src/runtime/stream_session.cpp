#include "runtime/stream_session.h"

#include <algorithm>

#include "core/error.h"
#include "runtime/stream_server.h"
#include "telemetry/telemetry.h"

namespace ca::runtime {

StreamSession::StreamSession(StreamServer &server, uint32_t id,
                             ReportSink &sink)
    : server_(server), id_(id), sink_(sink)
{
}

void
StreamSession::submit(const uint8_t *data, size_t size)
{
    enqueue(data, size, true);
}

bool
StreamSession::trySubmit(const uint8_t *data, size_t size)
{
    return enqueue(data, size, false);
}

bool
StreamSession::enqueue(const uint8_t *data, size_t size, bool block)
{
    if (size == 0)
        return true;
    const char *caller = block ? "submit()" : "trySubmit()";
    bool need_schedule = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        CA_FATAL_IF(close_requested_,
                    caller << " on closed session " << id_);
        const size_t depth = server_.options().sessionQueueDepth;
        if (chunks_.size() >= depth) {
            if (!block)
                return false;
            ++stats_.queueFullStalls;
            CA_COUNTER_ADD("ca.runtime.queue_full_stalls", 1);
            space_cv_.wait(lock, [&] {
                return chunks_.size() < depth || close_requested_;
            });
            CA_FATAL_IF(close_requested_,
                        "session " << id_ << " closed during " << caller);
        }
        chunks_.emplace_back(data, data + size);
        queued_bytes_ += size;
        stats_.bytesSubmitted += size;
        ++stats_.chunksSubmitted;
        CA_COUNTER_ADD("ca.runtime.chunks", 1);
        if (run_state_ == RunState::Idle && !suspended_) {
            run_state_ = RunState::Queued;
            need_schedule = true;
        }
    }
    if (need_schedule)
        server_.schedule(this);
    return true;
}

void
StreamSession::flush()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drain_cv_.wait(lock, [&] {
        return queued_bytes_ == 0 && run_state_ == RunState::Idle;
    });
}

void
StreamSession::close()
{
    bool need_schedule = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!close_requested_) {
            close_requested_ = true;
            suspended_ = false; // close drains; a paused drain would hang
            space_cv_.notify_all();
            if (run_state_ == RunState::Idle && !finalized_) {
                run_state_ = RunState::Queued;
                need_schedule = true;
            }
        }
    }
    if (need_schedule)
        server_.schedule(this);
    std::unique_lock<std::mutex> lock(mutex_);
    drain_cv_.wait(lock, [&] { return finalized_; });
}

bool
StreamSession::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return finalized_;
}

SimCheckpoint
StreamSession::suspend()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (!suspended_) {
        suspended_ = true;
        ++stats_.suspensions;
        CA_COUNTER_ADD("ca.runtime.suspensions", 1);
    }
    // An in-flight slice finishes its quantum; a queued-but-unstarted
    // slice is skipped by the worker (runSlice's suspended_ check).
    drain_cv_.wait(lock, [&] { return run_state_ != RunState::Running; });
    return checkpoint_;
}

void
StreamSession::resume()
{
    bool need_schedule = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        suspended_ = false;
        if (run_state_ == RunState::Idle && !finalized_ &&
            (queued_bytes_ > 0 || close_requested_)) {
            run_state_ = RunState::Queued;
            need_schedule = true;
        }
    }
    if (need_schedule)
        server_.schedule(this);
}

SessionStats
StreamSession::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

SessionLiveStats
StreamSession::live() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SessionLiveStats v;
    v.id = id_;
    v.stats = stats_;
    v.queuedBytes = queued_bytes_;
    v.queuedChunks = static_cast<uint32_t>(chunks_.size());
    v.suspended = suspended_;
    v.closing = close_requested_ && !finalized_;
    v.closed = finalized_;
    v.symbolsPerSec = rate_ewma_;
    return v;
}

size_t
StreamSession::takeInput(std::vector<uint8_t> &out, size_t max_bytes)
{
    out.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    bool freed_slot = false;
    while (out.size() < max_bytes && !chunks_.empty()) {
        const std::vector<uint8_t> &front = chunks_.front();
        size_t n = std::min(max_bytes - out.size(),
                            front.size() - front_pos_);
        out.insert(out.end(), front.begin() + front_pos_,
                   front.begin() + front_pos_ + n);
        front_pos_ += n;
        queued_bytes_ -= n;
        if (front_pos_ == front.size()) {
            chunks_.pop_front();
            front_pos_ = 0;
            freed_slot = true;
        }
    }
    if (freed_slot)
        space_cv_.notify_all();
    return out.size();
}

} // namespace ca::runtime
