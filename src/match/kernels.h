/**
 * @file
 * The sparse and dense per-symbol steppers and the block loop that
 * dispatches between them, templated on a kernel observer
 * (match::NullObserver documents the hooks).
 *
 * Every stepper, scored and unscored alike, takes one step shape
 * (docs/MATCH.md): the next frontier starts as the start image of the
 * byte's class (MatchContext), the frontier's matched edges go on top,
 * and the symbol's reports go through one (state, score) buffer. The
 * fixed starts decide only the class (the empty class 0 until they are
 * live) and the observer's fixedStarts() call. All step the engine's
 * one frontier bitvector and score pair over the context's tables, all
 * indexed by slot; only the unweighted dense steps read their own
 * successor tables in place of the successor CSR. The dense kernel has
 * two steps. The shift step (feedShiftImpl) visits the frontier's live
 * (non-zero) words, serves every matched state's self and next edges
 * (slot k to k and to k + 1) a word at a time, and walks L-switch rows
 * and G-switch wires for the few exception states only: O(live words +
 * matched exception states) per symbol. The partition scan
 * (feedDenseImpl) serves weighted automata and those where most states
 * have exception edges: O(partitions) per symbol.
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

        // Both kernels step cur_; only the sparse one needs its worklist.
        if (use_dense)
            dense_active_ = true;
        else if (dense_active_)
            rebuildWorklist();

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
        else if (!ctx_->shift_.empty())
            feedShiftImpl(data, size, obs);
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
// dense frontier pointer in the partition scan. Each starts on a cache
// line, so their speed does not move with the size of the code linked
// before them.
template <bool Scored, class Obs>
[[gnu::noinline, gnu::aligned(64)]] void
MatchEngine::feedSparseImpl(const uint8_t *data, size_t size, Obs &obs)
{
    const MatchContext &cx = *ctx_;
    const size_t words = cx.slot_words_;
    const uint64_t *rep_mask = cx.report_mask_.data();
    const uint32_t *succ_xadj = cx.succ_xadj_.data();
    const uint32_t *succ = cx.succ_.data();
    const uint32_t *image_slot = cx.image_slot_.data();
    const Score *image_score =
        cx.image_score_[static_cast<size_t>(opts_.semiring)].data();
    const bool gather_reports = collect_ || Obs::kCountsReports;
    bool fixed = fixed_live_;
    auto test = [](const uint64_t *bits, uint32_t k) {
        return (bits[k >> 6] >> (k & 63)) & 1;
    };

    for (size_t i = 0; i < size; ++i) {
        uint8_t c = data[i];
        const uint64_t *row = cx.rows_.data() + static_cast<size_t>(c) * words;
        const uint16_t cls = fixed ? cx.byte_class_[c] : 0;
        const MatchContext::ClassBegin &run = cx.class_begin_[cls];
        const MatchContext::ClassBegin &run_end = cx.class_begin_[cls + 1];

        // State-match phase: the frontier's slots, each one bit of the
        // symbol's row, then the class's reporting fixed starts.
        if (fixed)
            obs.fixedStarts(c);
        obs.sparseFrontier(enabled_);
        active_scratch_.clear();
        for (uint32_t k : enabled_) {
            if (!test(row, k))
                continue;
            active_scratch_.push_back(k);
            obs.sparseMatch(k);
            if (gather_reports && test(rep_mask, k))
                cycle_reports_.emplace_back(cx.state_of_slot_[k],
                                            Scored ? score_cur_[k] : 0);
        }
        if (gather_reports) {
            for (uint32_t k = run.report; k < run_end.report; ++k)
                cycle_reports_.push_back(cx.class_report_[k]);
        }
        obs.symbolEnd(offset_, emitCycleReports());

        // State-transition phase. Clear only the bits set last cycle (the
        // frontier is as wide as the slot space; a full clear would
        // dominate).
        for (uint32_t k : enabled_)
            cur_.resetUnchecked(k);
        enabled_.clear();
        // Enables t; scored runs ⊕ the candidate score into it.
        auto enable = [&](uint32_t t, [[maybe_unused]] Score cand) {
            if (!cur_.testUnchecked(t)) {
                cur_.setUnchecked(t);
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
            enable(image_slot[k], Scored ? image_score[k] : 0);
        for (uint32_t k : active_scratch_) {
            const uint32_t end = succ_xadj[k + 1];
            for (uint32_t e = succ_xadj[k]; e < end; ++e) {
                Score cand = 0; // ⊗ along the edge
                if constexpr (Scored)
                    cand = score_cur_[k] + static_cast<Score>(cx.succ_w_[e]);
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
[[gnu::noinline, gnu::aligned(64)]] void
MatchEngine::feedDenseImpl(const uint8_t *data, size_t size, Obs &obs)
{
    const MatchContext &cx = *ctx_;
    const uint32_t P = cx.dense_partitions_;
    const size_t words = cx.slot_words_;
    uint64_t *cur = cur_.raw().data();
    uint64_t *nxt = nxt_.raw().data();
    const uint64_t *rep_mask = cx.report_mask_.data();
    const uint64_t *lswitch = cx.lswitch_.data();
    const bool gather_reports = collect_ || Obs::kCountsReports;
    // Scored runs keep the word-parallel row read for matching and
    // relax each matched state's weighted edges, flat over the slot
    // CSR. A target's nxt bit tells its first write this symbol from a
    // ⊕, so the score vector is never cleared.
    Score *scur = Scored ? score_cur_.data() : nullptr;
    Score *snxt = Scored ? score_nxt_.data() : nullptr;
    const ScoreSemiring semiring = opts_.semiring;
    const uint32_t *succ_xadj = cx.succ_xadj_.data();
    const uint32_t *succ = cx.succ_.data();
    const Weight *succ_w = cx.succ_w_.data();
    const uint32_t *image_slot = cx.image_slot_.data();
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
                snxt[image_slot[k]] = image_score[k];
        }
        if (gather_reports) {
            for (uint32_t k = run.report; k < run_end.report; ++k)
                cycle_reports_.push_back(cx.class_report_[k]);
        }

        if (fixed)
            obs.fixedStarts(c);
        const uint64_t *rows = &cx.rows_[static_cast<size_t>(c) * words];
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
                        cycle_reports_.emplace_back(cx.state_of_slot_[di],
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
                        const uint32_t end = succ_xadj[di + 1];
                        for (uint32_t e = succ_xadj[di]; e < end; ++e)
                            relax(succ[e],
                                  from + static_cast<Score>(succ_w[e]));
                    } else {
                        const uint64_t *row = lswitch +
                            static_cast<size_t>(di) * kWordsPerPartition;
                        nxt[base + 0] |= row[0];
                        nxt[base + 1] |= row[1];
                        nxt[base + 2] |= row[2];
                        nxt[base + 3] |= row[3];
                        for (uint32_t e = cx.cross_xadj_[di];
                             e < cx.cross_xadj_[di + 1]; ++e) {
                            uint32_t ti = cx.cross_[e];
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
    // An odd symbol count leaves the live frontier in nxt_'s storage;
    // swap the vectors so cur_ owns it again.
    if (cur != cur_.raw().data())
        std::swap(cur_, nxt_);
    if constexpr (Scored) {
        if (scur != score_cur_.data())
            score_cur_.swap(score_nxt_);
    }
}

template <class Obs>
[[gnu::noinline, gnu::aligned(64)]] void
MatchEngine::feedShiftImpl(const uint8_t *data, size_t size, Obs &obs)
{
    const MatchContext &cx = *ctx_;
    const size_t words = cx.slot_words_;
    uint64_t *cur = cur_.raw().data();
    uint64_t *nxt = nxt_.raw().data();
    const uint64_t *rep_mask = cx.report_mask_.data();
    const MatchContext::ShiftWord *shift = cx.shift_.data();
    const uint64_t *lswitch = cx.lswitch_.data();
    const bool gather_reports = collect_ || Obs::kCountsReports;
    // The step visits only cur's live (non-zero) words, one summary bit
    // each, and clears each word as it reads it, so nxt and its summary
    // are all zero when a symbol begins.
    uint64_t *live = live_cur_.data();
    uint64_t *live_nxt = live_nxt_.data();
    const size_t live_words = live_cur_.size();
    std::pair<size_t, uint64_t> *queue = dense_queue_.data();
    std::fill(nxt, nxt + words, 0);
    std::fill(live, live + live_words, 0);
    std::fill(live_nxt, live_nxt + live_words, 0);
    for (size_t w = 0; w < words; ++w)
        live[w >> 6] |= uint64_t{cur[w] != 0} << (w & 63);
    // ORs bits into nxt word w and keeps its summary bit.
    auto put = [&](size_t w, uint64_t bits) {
        nxt[w] |= bits;
        live_nxt[w >> 6] |= uint64_t{bits != 0} << (w & 63);
    };
    bool fixed = fixed_live_;

    for (size_t i = 0; i < size; ++i) {
        uint8_t c = data[i];
        const uint16_t cls = fixed ? cx.byte_class_[c] : 0;
        const MatchContext::ClassBegin &run = cx.class_begin_[cls];
        const MatchContext::ClassBegin &run_end = cx.class_begin_[cls + 1];
        // The next frontier starts as the class's image. The class's
        // reports go in first too: emission sorts them.
        for (uint32_t k = run.word; k < run_end.word; ++k)
            put(cx.image_word_[k].first, cx.image_word_[k].second);
        if (gather_reports) {
            for (uint32_t k = run.report; k < run_end.report; ++k)
                cycle_reports_.push_back(cx.class_report_[k]);
        }

        if (fixed)
            obs.fixedStarts(c);
        const uint64_t *rows = &cx.rows_[static_cast<size_t>(c) * words];
        // The live words, ascending. A word's matched self and next
        // edges take two ANDs and a shift for all its states, bit 63's
        // next edge carrying into the following word (the last slot has
        // no next slot, so the last word carries nothing into the
        // frontier's spare word). A word whose matched states report or
        // have an exception edge is queued for the walk below, which
        // keeps the word loop free of branches and of the walk's
        // registers.
        size_t queued = 0;
        uint32_t seen_p = cx.dense_partitions_;
        for (size_t lw = 0; lw < live_words; ++lw) {
            uint64_t bits = live[lw];
            if (!bits)
                continue;
            live[lw] = 0;
            // nxt's summary bits for the words this summary word
            // covers; the carry of its word 63, if live, goes to the
            // next summary word.
            uint64_t here = 0;
            uint64_t last_carry = 0;
            for (; bits; bits &= bits - 1) {
                const int b = std::countr_zero(bits);
                const size_t w = lw * 64 + static_cast<size_t>(b);
                const auto p = static_cast<uint32_t>(w / kWordsPerPartition);
                if (p != seen_p) {
                    // The partition's first live word: the words before
                    // it are zero and the rest not yet read.
                    const size_t base = w & ~(kWordsPerPartition - 1);
                    seen_p = p;
                    obs.densePartition(p, cur[base + 0], cur[base + 1],
                                       cur[base + 2], cur[base + 3]);
                }
                // The §2.2 row read: the SRAM row *is* the match vector.
                const uint64_t m = cur[w] & rows[w];
                cur[w] = 0;
                if (m)
                    obs.denseMatch(w, m);
                const MatchContext::ShiftWord &sh = shift[w];
                const uint64_t fwd = m & sh.next;
                const uint64_t stay = (m & sh.self) | (fwd << 1);
                const uint64_t carry = fwd >> 63;
                nxt[w] |= stay;
                nxt[w + 1] |= carry;
                here |= (uint64_t{stay != 0} | (carry << 1)) << b;
                last_carry = carry << b;
                queue[queued] = {w, m};
                queued += (m & (sh.exception | rep_mask[w])) != 0;
            }
            live_nxt[lw] |= here;
            if (last_carry >> 63)
                live_nxt[lw + 1] |= 1;
        }
        // The queued words, ascending: reports, then the exception
        // states' L-switch rows (4-word OR) and their few G-switch
        // wires. The rows' summary bits gather in a register, one
        // summary word at a time.
        size_t acc_lw = 0;
        uint64_t acc = 0;
        for (size_t q = 0; q < queued; ++q) {
            const auto [w, m] = queue[q];
            if (gather_reports) {
                for (uint64_t rw = m & rep_mask[w]; rw; rw &= rw - 1) {
                    const uint32_t di = static_cast<uint32_t>(
                        w * 64 + static_cast<size_t>(std::countr_zero(rw)));
                    cycle_reports_.emplace_back(cx.state_of_slot_[di], 0);
                }
            }
            const uint64_t x = m & shift[w].exception;
            if (!x)
                continue;
            const size_t base = w & ~(kWordsPerPartition - 1);
            uint64_t *part = nxt + base;
            for (uint64_t xb = x; xb; xb &= xb - 1) {
                const uint32_t di = static_cast<uint32_t>(
                    w * 64 + static_cast<size_t>(std::countr_zero(xb)));
                const uint64_t *row = lswitch +
                    static_cast<size_t>(di) * kWordsPerPartition;
                part[0] |= row[0];
                part[1] |= row[1];
                part[2] |= row[2];
                part[3] |= row[3];
                for (uint32_t e = cx.cross_xadj_[di];
                     e < cx.cross_xadj_[di + 1]; ++e) {
                    const uint32_t ti = cx.cross_[e];
                    put(ti >> 6, uint64_t{1} << (ti & 63));
                }
            }
            if (base >> 6 != acc_lw) {
                live_nxt[acc_lw] |= acc;
                acc = 0;
                acc_lw = base >> 6;
            }
            acc |= (uint64_t{part[0] != 0} | uint64_t{part[1] != 0} << 1 |
                    uint64_t{part[2] != 0} << 2 |
                    uint64_t{part[3] != 0} << 3)
                << (base & 63);
        }
        live_nxt[acc_lw] |= acc;
        obs.symbolEnd(offset_, emitCycleReports());

        std::swap(cur, nxt);
        std::swap(live, live_nxt);
        ++offset_;
        fixed = true;
    }
    if (size > 0)
        fixed_live_ = true;
    // An odd symbol count leaves the live frontier in nxt_'s storage;
    // swap the vectors so cur_ owns it again.
    if (cur != cur_.raw().data())
        std::swap(cur_, nxt_);
}

} // namespace ca::match

#endif // CA_MATCH_KERNELS_H
