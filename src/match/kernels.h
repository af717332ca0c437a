/**
 * @file
 * The sparse and dense per-symbol steppers and the block loop that
 * dispatches between them, templated on a kernel observer
 * (match::NullObserver documents the hooks).
 *
 * Both steppers, scored and unscored alike, take one step shape
 * (docs/MATCH.md): the next frontier starts as the start image of the
 * byte's class (MatchContext), the frontier's matched edges go on top,
 * and the symbol's reports go through one (state, score) buffer. The
 * fixed starts decide only the class (the empty class 0 until they are
 * live) and the observer's fixedStarts() call.
 *
 * Included by match_engine.cpp, which instantiates them with
 * NullObserver, and by the simulator, which instantiates them with its
 * ActivityObserver. Every hook is an inline call on a concrete type, so
 * the NullObserver instantiation is token-for-token the bare kernel.
 */
#ifndef CA_MATCH_KERNELS_H
#define CA_MATCH_KERNELS_H

#include <algorithm>
#include <bit>

#include "match/match_engine.h"

namespace ca::match {

/** Dense-kernel partition geometry (§2.2: 256 STEs per 8 KB array). */
inline constexpr uint32_t kSlotsPerPartition = 256;
inline constexpr uint32_t kWordsPerPartition = kSlotsPerPartition / 64;

template <class Obs>
void
MatchEngine::feed(const uint8_t *data, size_t size, Obs &obs)
{
    const bool auto_kernel = opts_.kernel == SimKernel::Auto;
    size_t pos = 0;
    while (pos < size) {
        const bool use_dense = chooseDense();
        size_t block = size - pos;
        if (auto_kernel && opts_.autoBlockSymbols > 0) {
            // The block after a seed is a short probe (see chooseDense).
            const uint32_t cap = density_probe_
                ? std::max(opts_.autoBlockSymbols / 16, 1u)
                : opts_.autoBlockSymbols;
            block = std::min(block, static_cast<size_t>(cap));
        }
        countBlock(use_dense, block);
        obs.block(use_dense, block);

        if (use_dense && !dense_active_)
            syncDenseFromSparse();
        else if (!use_dense && dense_active_)
            syncSparseFromDense();

        double mean_frontier = 0.0;
        if (frontierSize() == 0 && ctx_->all_input_.empty()) {
            // A dead stream stays dead: with no enabled states and no
            // always-on starts, no future symbol can fire anything, so
            // the block is skipped, not stepped. This is what makes
            // replaying past a died-out anchored ruleset nearly free.
            obs.skip(offset_, block);
            offset_ += block;
        } else if (!auto_kernel) {
            runKernel(use_dense, data + pos, block, obs);
        } else {
            // Auto wants the block's mean frontier, not one instant's:
            // frontiers come in bursts, and the bursts decide which
            // kernel is cheaper. Sample after each sixteenth.
            const size_t part = std::max<size_t>(block / 16, 1);
            size_t sum = 0, samples = 0;
            for (size_t done = 0; done < block; done += part) {
                runKernel(use_dense, data + pos + done,
                          std::min(part, block - done), obs);
                sum += frontierSize();
                ++samples;
            }
            mean_frontier =
                static_cast<double>(sum) / static_cast<double>(samples);
        }
        pos += block;
        if (auto_kernel)
            sampleDensity(mean_frontier);
    }
}

template <class Obs>
void
MatchEngine::runKernel(bool dense, const uint8_t *data, size_t size,
                       Obs &obs)
{
    if (dense) {
        if (ctx_->scored())
            feedDenseImpl<true>(data, size, obs);
        else
            feedDenseImpl<false>(data, size, obs);
    } else {
        if (ctx_->scored())
            feedSparseImpl<true>(data, size, obs);
        else
            feedSparseImpl<false>(data, size, obs);
    }
}

// The steppers stay out of line: inlined into runKernel, their one call
// site each, they shared one register allocation, and GCC spilled the
// dense frontier pointer in the partition scan.
template <bool Scored, class Obs>
[[gnu::noinline]] void
MatchEngine::feedSparseImpl(const uint8_t *data, size_t size, Obs &obs)
{
    const MatchContext &cx = *ctx_;
    const uint64_t *labels = cx.labels_.data();
    const uint64_t *report_info = cx.report_info_.data();
    const uint32_t *succ_xadj = cx.succ_xadj_.data();
    const StateId *succ = cx.succ_.data();
    const StateId *image_state = cx.image_state_.data();
    const Score *image_score =
        cx.image_score_[static_cast<size_t>(opts_.semiring)].data();
    const bool gather_reports = collect_ || Obs::kCountsReports;
    bool fixed = fixed_live_;

    for (size_t i = 0; i < size; ++i) {
        uint8_t c = data[i];
        const uint64_t label_bit = uint64_t{1} << (c & 63);
        const size_t label_word = c >> 6;
        const uint16_t cls = fixed ? cx.byte_class_[c] : 0;
        const MatchContext::ClassBegin &run = cx.class_begin_[cls];
        const MatchContext::ClassBegin &run_end = cx.class_begin_[cls + 1];

        // State-match phase: the frontier's states, then the class's
        // reporting fixed starts.
        if (fixed)
            obs.fixedStarts(c);
        obs.sparseFrontier(enabled_);
        active_scratch_.clear();
        for (StateId s : enabled_) {
            if (!(labels[s * 4 + label_word] & label_bit))
                continue;
            active_scratch_.push_back(s);
            obs.sparseMatch(s);
            if (gather_reports && (report_info[s] & 1))
                cycle_reports_.emplace_back(s, Scored ? score_cur_[s] : 0);
        }
        if (gather_reports) {
            for (uint32_t k = run.report; k < run_end.report; ++k)
                cycle_reports_.push_back(cx.class_report_[k]);
        }
        obs.symbolEnd(offset_, emitCycleReports());

        // State-transition phase. Clear only the bits set last cycle (the
        // mask is as wide as the NFA; a full clear would dominate).
        for (StateId s : enabled_)
            enabled_mask_.resetUnchecked(s);
        enabled_.clear();
        // Enables t; scored runs ⊕ the candidate score into it.
        auto enable = [&](StateId t, [[maybe_unused]] Score cand) {
            if (!enabled_mask_.testUnchecked(t)) {
                enabled_mask_.setUnchecked(t);
                enabled_.push_back(t);
                if constexpr (Scored)
                    score_nxt_[t] = cand;
            } else if constexpr (Scored) {
                score_nxt_[t] =
                    scoreCombine(opts_.semiring, score_nxt_[t], cand);
            }
        };
        // The next frontier starts as the class's image.
        for (uint32_t k = run.target; k < run_end.target; ++k)
            enable(image_state[k], Scored ? image_score[k] : 0);
        for (StateId s : active_scratch_) {
            uint32_t end = succ_xadj[s + 1];
            for (uint32_t e = succ_xadj[s]; e < end; ++e) {
                Score cand = 0; // ⊗ along the edge
                if constexpr (Scored)
                    cand = score_cur_[s] + static_cast<Score>(cx.succ_w_[e]);
                enable(succ[e], cand);
            }
        }
        if constexpr (Scored)
            score_cur_.swap(score_nxt_);
        ++offset_;
        fixed = true;
    }
    if (size > 0)
        fixed_live_ = true;
}

template <bool Scored, class Obs>
[[gnu::noinline]] void
MatchEngine::feedDenseImpl(const uint8_t *data, size_t size, Obs &obs)
{
    const MatchContext &cx = *ctx_;
    const uint32_t P = cx.dense_partitions_;
    const size_t words = static_cast<size_t>(P) * kWordsPerPartition;
    uint64_t *cur = dense_cur_.raw().data();
    uint64_t *nxt = dense_nxt_.raw().data();
    const uint64_t *rep_mask = cx.dense_report_.data();
    const uint64_t *lswitch = cx.dense_lswitch_.data();
    const bool gather_reports = collect_ || Obs::kCountsReports;
    // Scored runs keep the word-parallel row read for matching and
    // relax each matched state's weighted edges, flat over the dense
    // CSR. A target's nxt bit tells its first write this symbol from a
    // ⊕, so the score vector is never cleared.
    Score *scur = Scored ? dense_score_cur_.data() : nullptr;
    Score *snxt = Scored ? dense_score_nxt_.data() : nullptr;
    const ScoreSemiring semiring = opts_.semiring;
    const uint32_t *dsucc_xadj = cx.dense_succ_xadj_.data();
    const uint32_t *dsucc = cx.dense_succ_.data();
    const Weight *dsucc_w = cx.dense_succ_w_.data();
    const uint32_t *image_dense = cx.image_dense_.data();
    const Score *image_score =
        cx.image_score_[static_cast<size_t>(semiring)].data();
    bool fixed = fixed_live_;
    // Sets target ti's next bit; its score is cand on the first write,
    // else cand ⊕ the score so far. The choice is a mask, not ?:, so the
    // inner loop carries no data-dependent branch.
    [[maybe_unused]] auto relax = [&](uint32_t ti, Score cand) {
        uint64_t &word = nxt[ti >> 6];
        const Score seen = -static_cast<Score>((word >> (ti & 63)) & 1);
        const Score both = scoreCombine(semiring, snxt[ti], cand);
        snxt[ti] = (both & seen) | (cand & ~seen);
        word |= uint64_t{1} << (ti & 63);
    };

    for (size_t i = 0; i < size; ++i) {
        uint8_t c = data[i];
        const uint16_t cls = fixed ? cx.byte_class_[c] : 0;
        const MatchContext::ClassBegin &run = cx.class_begin_[cls];
        const MatchContext::ClassBegin &run_end = cx.class_begin_[cls + 1];
        // The next frontier starts as the class's image, its scores
        // stored outright, so the frontier's edges below ⊕ into it. The
        // class's reports go in first too: emission sorts them.
        std::fill(nxt, nxt + words, 0);
        for (uint32_t k = run.word; k < run_end.word; ++k)
            nxt[cx.image_word_[k].first] |= cx.image_word_[k].second;
        if constexpr (Scored) {
            for (uint32_t k = run.target; k < run_end.target; ++k)
                snxt[image_dense[k]] = image_score[k];
        }
        if (gather_reports) {
            for (uint32_t k = run.report; k < run_end.report; ++k)
                cycle_reports_.push_back(cx.class_report_[k]);
        }

        if (fixed)
            obs.fixedStarts(c);
        const uint64_t *rows = &cx.dense_rows_[static_cast<size_t>(c) *
                                               words];
        // The frontier holds no fixed start, so a partition whose only
        // enabled states are fixed starts is skipped here.
        for (uint32_t p = 0; p < P; ++p) {
            const size_t base = static_cast<size_t>(p) *
                kWordsPerPartition;
            const uint64_t e0 = cur[base + 0];
            const uint64_t e1 = cur[base + 1];
            const uint64_t e2 = cur[base + 2];
            const uint64_t e3 = cur[base + 3];
            if (!(e0 | e1 | e2 | e3))
                continue;
            obs.densePartition(p, e0, e1, e2, e3);
            // The §2.2 row read: the SRAM row *is* the match vector.
            uint64_t m[4] = {e0 & rows[base + 0], e1 & rows[base + 1],
                             e2 & rows[base + 2], e3 & rows[base + 3]};
            if (!(m[0] | m[1] | m[2] | m[3]))
                continue;
            for (int w = 0; w < 4; ++w) {
                uint64_t mw = m[w];
                if (!mw)
                    continue;
                obs.denseMatch(base + static_cast<size_t>(w), mw);
                if (gather_reports) {
                    uint64_t rw = mw & rep_mask[base + w];
                    while (rw) {
                        int b = std::countr_zero(rw);
                        uint32_t di = static_cast<uint32_t>(
                            (base + static_cast<size_t>(w)) * 64 +
                            static_cast<size_t>(b));
                        cycle_reports_.emplace_back(cx.state_of_dense_[di],
                                                    Scored ? scur[di] : 0);
                        rw &= rw - 1;
                    }
                }
                // Transition: matched states drive their L-switch rows
                // (4-word OR) and their few G-switch wires; scored runs
                // relax their weighted edges instead.
                while (mw) {
                    int b = std::countr_zero(mw);
                    uint32_t di = static_cast<uint32_t>(
                        (base + static_cast<size_t>(w)) * 64 +
                        static_cast<size_t>(b));
                    if constexpr (Scored) {
                        const Score from = scur[di];
                        const uint32_t end = dsucc_xadj[di + 1];
                        for (uint32_t e = dsucc_xadj[di]; e < end; ++e)
                            relax(dsucc[e],
                                  from + static_cast<Score>(dsucc_w[e]));
                    } else {
                        const uint64_t *row = lswitch +
                            static_cast<size_t>(di) * kWordsPerPartition;
                        nxt[base + 0] |= row[0];
                        nxt[base + 1] |= row[1];
                        nxt[base + 2] |= row[2];
                        nxt[base + 3] |= row[3];
                        for (uint32_t e = cx.dense_cross_xadj_[di];
                             e < cx.dense_cross_xadj_[di + 1]; ++e) {
                            uint32_t ti = cx.dense_cross_[e];
                            nxt[ti >> 6] |= uint64_t{1} << (ti & 63);
                        }
                    }
                    mw &= mw - 1;
                }
            }
        }
        obs.symbolEnd(offset_, emitCycleReports());

        std::swap(cur, nxt);
        if constexpr (Scored)
            std::swap(scur, snxt);
        ++offset_;
        fixed = true;
    }
    if (size > 0)
        fixed_live_ = true;
    // An odd symbol count leaves the live frontier in dense_nxt_'s
    // storage; swap the vectors so dense_cur_ owns it again.
    if (cur != dense_cur_.raw().data())
        std::swap(dense_cur_, dense_nxt_);
    if constexpr (Scored) {
        if (scur != dense_score_cur_.data())
            dense_score_cur_.swap(dense_score_nxt_);
    }
}

} // namespace ca::match

#endif // CA_MATCH_KERNELS_H
