#include "match/match_engine.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>

#include "core/error.h"
#include "core/logging.h"
#include "match/kernels.h"

namespace ca {

std::optional<SimKernel>
parseKernelName(std::string_view name)
{
    if (name == "sparse")
        return SimKernel::Sparse;
    if (name == "dense")
        return SimKernel::Dense;
    if (name == "auto")
        return SimKernel::Auto;
    return std::nullopt;
}

const char *
kernelName(SimKernel k)
{
    switch (k) {
    case SimKernel::Sparse:
        return "sparse";
    case SimKernel::Dense:
        return "dense";
    case SimKernel::Auto:
        return "auto";
    }
    return "auto";
}

std::optional<SimKernel>
simKernelEnvOverride()
{
    static const std::optional<SimKernel> parsed = [] {
        std::optional<SimKernel> out;
        const char *env = std::getenv("CA_SIM_KERNEL");
        if (!env || !*env)
            return out;
        out = parseKernelName(env);
        if (!out) {
            CA_WARN("CA_SIM_KERNEL=" << env
                                     << " is not sparse/dense/auto; "
                                        "falling back to auto");
            out = SimKernel::Auto;
        }
        return out;
    }();
    return parsed;
}

} // namespace ca

namespace ca::match {

namespace {

/** Null-checks before the delegating ctor dereferences. */
const MappedAutomaton &
requireAutomaton(const std::shared_ptr<const MappedAutomaton> &mapped)
{
    CA_FATAL_IF(!mapped, "MatchContext: null mapped automaton");
    return *mapped;
}

} // namespace

MatchContext::MatchContext(std::shared_ptr<const MappedAutomaton> mapped)
    : MatchContext(requireAutomaton(mapped))
{
    owned_ = std::move(mapped);
}

MatchContext::MatchContext(const MappedAutomaton &mapped) : mapped_(mapped)
{
    num_states_ = mapped.nfa().numStates();
    buildSparseTables();
    buildDenseTables();
    buildStartTables();
    buildFrontiers();
}

void
MatchContext::buildSparseTables()
{
    // Flatten labels, successors, and report attributes so the
    // per-symbol loop touches dense arrays instead of NfaState objects.
    const Nfa &nfa = mapped_.nfa();
    labels_.resize(num_states_ * 4);
    report_info_.resize(num_states_);
    succ_xadj_.assign(num_states_ + 1, 0);
    for (StateId s = 0; s < num_states_; ++s) {
        const NfaState &st = nfa.state(s);
        if (st.start != StartType::None)
            start_frontier_.push_back(s);
        if (st.start == StartType::AllInput)
            all_input_.push_back(s);
        const auto &words = st.label.raw();
        for (int w = 0; w < 4; ++w)
            labels_[s * 4 + w] = words[w];
        report_info_[s] =
            (static_cast<uint64_t>(st.reportId) << 1) | (st.report ? 1 : 0);
        succ_xadj_[s + 1] =
            succ_xadj_[s] + static_cast<uint32_t>(st.out.size());
    }
    succ_.resize(succ_xadj_.back());
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t base = succ_xadj_[s];
        const auto &out = nfa.state(s).out;
        for (size_t i = 0; i < out.size(); ++i)
            succ_[base + i] = out[i];
    }

    // Weighted automata additionally flatten the edge/start weights;
    // unweighted ones skip all of it and run the unscored kernels.
    scored_ = nfa.hasWeights();
    if (scored_) {
        succ_w_.assign(succ_.size(), 0);
        start_w_.assign(num_states_, 0);
        for (StateId s = 0; s < num_states_; ++s) {
            uint32_t base = succ_xadj_[s];
            const NfaState &st = nfa.state(s);
            for (size_t i = 0; i < st.out.size(); ++i)
                succ_w_[base + i] = nfa.edgeWeight(s, i);
            start_w_[s] = st.startWeight;
        }
    }
}

void
MatchContext::buildDenseTables()
{
    const uint32_t P = static_cast<uint32_t>(mapped_.numPartitions());
    if (P == 0 || num_states_ == 0)
        return;
    for (StateId s = 0; s < num_states_; ++s) {
        if (mapped_.location(s).slot >= kSlotsPerPartition) {
            // Defensive: a non-standard design geometry falls back to
            // the sparse kernel rather than corrupting masks.
            CA_WARN("match dense kernel unavailable: state "
                    << s << " at slot " << mapped_.location(s).slot
                    << " exceeds " << kSlotsPerPartition);
            return;
        }
    }
    dense_partitions_ = P;
    const size_t words = static_cast<size_t>(P) * kWordsPerPartition;

    dense_index_of_.assign(num_states_, 0);
    state_of_dense_.assign(static_cast<size_t>(P) * kSlotsPerPartition,
                           kInvalidState);
    for (StateId s = 0; s < num_states_; ++s) {
        const SteLocation &loc = mapped_.location(s);
        uint32_t di = loc.partition * kSlotsPerPartition + loc.slot;
        dense_index_of_[s] = di;
        state_of_dense_[di] = s;
    }

    // Row reads (§2.2), symbol-major so one symbol's step scans
    // contiguous memory across partitions: state s is bit di of row c
    // when its label holds c. The table is built on every server's
    // start path, so a state whose label holds most of the alphabet (a
    // negated class, `.`) starts set in every row and is then cleared
    // from the rows of the symbols it rejects: no state costs more than
    // 128 row writes.
    auto wide = [&](StateId s) {
        int n = 0;
        for (int w = 0; w < 4; ++w)
            n += std::popcount(labels_[s * 4 + w]);
        return n > 128;
    };
    std::vector<uint64_t> all_rows(words, 0);
    for (StateId s = 0; s < num_states_; ++s)
        if (wide(s))
            all_rows[dense_index_of_[s] >> 6] |=
                uint64_t{1} << (dense_index_of_[s] & 63);
    dense_rows_.reserve(static_cast<size_t>(256) * words);
    for (int c = 0; c < 256; ++c)
        dense_rows_.insert(dense_rows_.end(), all_rows.begin(),
                           all_rows.end());
    for (StateId s = 0; s < num_states_; ++s) {
        const uint32_t di = dense_index_of_[s];
        const uint64_t bit = uint64_t{1} << (di & 63);
        const uint64_t flip = wide(s) ? ~uint64_t{0} : 0;
        for (int w = 0; w < 4; ++w) {
            uint64_t toggle = labels_[s * 4 + w] ^ flip;
            while (toggle) {
                const size_t c = static_cast<size_t>(w) * 64 +
                    static_cast<size_t>(std::countr_zero(toggle));
                dense_rows_[c * words + (di >> 6)] ^= bit;
                toggle &= toggle - 1;
            }
        }
    }

    dense_report_.assign(words, 0);
    for (StateId s = 0; s < num_states_; ++s) {
        if (report_info_[s] & 1) {
            uint32_t di = dense_index_of_[s];
            dense_report_[di >> 6] |= uint64_t{1} << (di & 63);
        }
    }
    dense_available_ = true;

    if (scored_) {
        // The scored step relaxes every edge of a matched state by its
        // weight, so it reads one CSR over the source's dense index in
        // place of the L-switch and G-switch split.
        dense_succ_xadj_.assign(state_of_dense_.size() + 1, 0);
        for (StateId s = 0; s < num_states_; ++s)
            dense_succ_xadj_[dense_index_of_[s] + 1] =
                succ_xadj_[s + 1] - succ_xadj_[s];
        for (size_t i = 1; i < dense_succ_xadj_.size(); ++i)
            dense_succ_xadj_[i] += dense_succ_xadj_[i - 1];
        dense_succ_.resize(succ_.size());
        dense_succ_w_.resize(succ_.size());
        for (StateId s = 0; s < num_states_; ++s) {
            uint32_t fill = dense_succ_xadj_[dense_index_of_[s]];
            for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e) {
                dense_succ_[fill] = dense_index_of_[succ_[e]];
                dense_succ_w_[fill++] = succ_w_[e];
            }
        }
        return;
    }

    // L-switch crossbar rows (intra-partition successors) and G-switch
    // CSR (cross-partition successors, few per state by the 16/8 wire
    // budgets).
    dense_lswitch_.assign(state_of_dense_.size() * kWordsPerPartition, 0);
    dense_cross_xadj_.assign(state_of_dense_.size() + 1, 0);
    std::vector<uint32_t> partition_of(num_states_);
    for (StateId s = 0; s < num_states_; ++s)
        partition_of[s] = mapped_.location(s).partition;
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t cross = 0;
        for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e)
            if (partition_of[succ_[e]] != partition_of[s])
                ++cross;
        dense_cross_xadj_[dense_index_of_[s] + 1] = cross;
    }
    for (size_t i = 1; i < dense_cross_xadj_.size(); ++i)
        dense_cross_xadj_[i] += dense_cross_xadj_[i - 1];
    dense_cross_.resize(dense_cross_xadj_.back());
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t di = dense_index_of_[s];
        uint32_t fill = dense_cross_xadj_[di];
        for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e) {
            StateId t = succ_[e];
            uint32_t ti = dense_index_of_[t];
            if (partition_of[t] == partition_of[s]) {
                uint32_t slot = ti % kSlotsPerPartition;
                dense_lswitch_[static_cast<size_t>(di) *
                                   kWordsPerPartition +
                               (slot >> 6)] |= uint64_t{1} << (slot & 63);
            } else {
                dense_cross_[fill++] = ti;
            }
        }
    }
}

void
MatchContext::buildStartTables()
{
    // Split the all-input starts: one with an in-edge can also be
    // enabled by a path (with another score), so it stays in the
    // frontier; one without is a fixed start.
    std::vector<uint8_t> has_in_edge(num_states_, 0);
    for (StateId t : succ_)
        has_in_edge[t] = 1;
    for (StateId s : all_input_)
        (has_in_edge[s] ? reentrant_ : fixed_).push_back(s);

    // A byte's class is the set of fixed starts its label bits match.
    // Classes are numbered in order of first appearance after the empty
    // class 0, which also serves every symbol while the fixed starts are
    // not live.
    std::array<std::vector<StateId>, 256> matching;
    for (StateId s : fixed_) {
        for (int w = 0; w < 4; ++w) {
            for (uint64_t bits = labels_[s * 4 + w]; bits; bits &= bits - 1)
                matching[static_cast<size_t>(w) * 64 +
                         static_cast<size_t>(std::countr_zero(bits))]
                    .push_back(s);
        }
    }
    std::map<std::vector<StateId>, uint16_t> class_of{{{}, 0}};
    std::vector<const std::vector<StateId> *> members{
        &class_of.begin()->first};
    for (size_t c = 0; c < 256; ++c) {
        const auto [it, fresh] = class_of.emplace(
            std::move(matching[c]), static_cast<uint16_t>(class_of.size()));
        byte_class_[c] = it->second;
        if (fresh)
            members.push_back(&it->first);
    }

    // Each class's image, accumulated in a scratch bit image over the
    // targets' dense indices (state ids without a dense kernel) and in
    // scratch score arrays (one per semiring, weighted automata only),
    // then emitted in that order and cleared word by word.
    const bool dense = dense_available_;
    const size_t keys = dense ? state_of_dense_.size() : num_states_;
    auto key = [&](StateId t) { return dense ? dense_index_of_[t] : t; };
    const size_t semirings = scored_ ? image_score_.size() : 0;
    std::array<std::vector<Score>, 2> acc;
    for (size_t r = 0; r < semirings; ++r)
        acc[r].assign(keys, 0);
    std::vector<uint64_t> image((keys + 63) / 64, 0);
    std::vector<uint32_t> touched;
    auto weight = [&](const std::vector<Weight> &w, size_t i) {
        return scored_ ? static_cast<Score>(w[i]) : 0;
    };
    auto enable = [&](StateId t, Score cand) {
        const uint32_t k = key(t);
        uint64_t &word = image[k >> 6];
        const bool seen = (word >> (k & 63)) & 1;
        for (size_t r = 0; r < semirings; ++r)
            acc[r][k] = seen ? scoreCombine(static_cast<ScoreSemiring>(r),
                                            acc[r][k], cand)
                             : cand;
        if (!word)
            touched.push_back(k >> 6);
        word |= uint64_t{1} << (k & 63);
    };
    class_begin_.emplace_back();
    for (const std::vector<StateId> *set : members) {
        for (StateId s : *set) {
            if (report_info_[s] & 1)
                class_report_.emplace_back(s, weight(start_w_, s));
            for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e)
                enable(succ_[e], weight(start_w_, s) + weight(succ_w_, e));
        }
        // A re-entrant start competes with any incoming path at its
        // start weight (a fresh local alignment).
        for (StateId s : reentrant_)
            enable(s, weight(start_w_, s));
        std::sort(touched.begin(), touched.end());
        for (uint32_t w : touched) {
            if (dense)
                image_word_.emplace_back(w, image[w]);
            for (uint64_t bits = image[w]; bits; bits &= bits - 1) {
                const uint32_t k = w * 64 +
                    static_cast<uint32_t>(std::countr_zero(bits));
                image_state_.push_back(dense ? state_of_dense_[k] : k);
                if (dense)
                    image_dense_.push_back(k);
                for (size_t r = 0; r < semirings; ++r)
                    image_score_[r].push_back(acc[r][k]);
            }
            image[w] = 0;
        }
        touched.clear();
        class_begin_.push_back(
            {static_cast<uint32_t>(class_report_.size()),
             static_cast<uint32_t>(image_state_.size()),
             static_cast<uint32_t>(image_word_.size())});
    }
}

void
MatchContext::buildFrontiers()
{
    // reachableFrontier: AllInput starts plus everything reachable via
    // >= 1 transition from any start state. For any offset t >= 1 the
    // exact frontier is succ(active at t-1) ∪ allInput, and active
    // states are reachable, so this set contains every frontier a
    // stream can ever be in past offset 0. One BFS at build time, over
    // every state reachable from a start; a start enters the set only
    // via an in-edge (or by being AllInput).
    BitVector reached(num_states_);
    BitVector visited(num_states_);
    for (StateId s : all_input_)
        reached.setUnchecked(s);
    std::vector<StateId> work = start_frontier_;
    for (StateId s : work)
        visited.setUnchecked(s);
    for (size_t i = 0; i < work.size(); ++i) {
        const StateId s = work[i];
        for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e) {
            const StateId t = succ_[e];
            reached.setUnchecked(t);
            if (!visited.testUnchecked(t)) {
                visited.setUnchecked(t);
                work.push_back(t);
            }
        }
    }
    reached.forEachSet([&](size_t s) {
        reachable_frontier_.push_back(static_cast<StateId>(s));
    });
}

MatchEngine::MatchEngine(std::shared_ptr<const MatchContext> ctx,
                         const MatchOptions &opts)
    : ctx_(std::move(ctx)), opts_(opts)
{
    CA_FATAL_IF(!ctx_, "MatchEngine: null context");
    const size_t n = ctx_->numStates();
    enabled_mask_ = BitVector(n == 0 ? 1 : n);
    if (ctx_->denseAvailable()) {
        const size_t bits = static_cast<size_t>(ctx_->dense_partitions_) *
            kSlotsPerPartition;
        dense_cur_ = BitVector(bits);
        dense_nxt_ = BitVector(bits);
        if (ctx_->scored()) {
            dense_score_cur_.assign(bits, 0);
            dense_score_nxt_.assign(bits, 0);
        }
    }
    if (ctx_->scored()) {
        score_cur_.assign(n, 0);
        score_nxt_.assign(n, 0);
    }
    reset();
}

void
MatchEngine::reset()
{
    if (!ctx_->scored()) {
        setState(ctx_->startFrontier(), 0);
        return;
    }
    // Scored automata start each state at its start weight.
    std::vector<Score> scores;
    scores.reserve(ctx_->startFrontier().size());
    for (StateId s : ctx_->startFrontier())
        scores.push_back(static_cast<Score>(ctx_->start_w_[s]));
    setState(ctx_->startFrontier(), scores, 0);
}

void
MatchEngine::setState(const std::vector<StateId> &frontier, uint64_t offset)
{
    setState(frontier, {}, offset);
}

void
MatchEngine::setState(const std::vector<StateId> &frontier,
                      const std::vector<Score> &scores, uint64_t offset)
{
    CA_FATAL_IF(!scores.empty() && scores.size() != frontier.size(),
                "MatchEngine: " << frontier.size() << " frontier states "
                                << "but " << scores.size() << " scores");
    if (dense_active_) {
        dense_cur_.clearAll();
        dense_active_ = false;
    }
    const bool scored = ctx_->scored();
    for (StateId s : enabled_)
        enabled_mask_.resetUnchecked(s);
    enabled_.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
        StateId s = frontier[i];
        CA_FATAL_IF(s >= ctx_->numStates(),
                    "MatchEngine: frontier state " << s
                                                   << " outside automaton");
        if (!enabled_mask_.testUnchecked(s)) {
            enabled_mask_.setUnchecked(s);
            enabled_.push_back(s);
            if (scored)
                score_cur_[s] = scores.empty() ? 0 : scores[i];
        }
    }
    fixed_live_ = factorFixedStarts();
    density_seeded_ = false;
    offset_ = offset;
    reports_.clear();
    cycle_reports_.clear();
}

bool
MatchEngine::factorFixedStarts()
{
    const MatchContext &cx = *ctx_;
    for (StateId s : cx.fixed_) {
        if (!enabled_mask_.testUnchecked(s))
            return false;
        if (cx.scored() &&
            score_cur_[s] != static_cast<Score>(cx.start_w_[s]))
            return false;
    }
    // Clearing their mask bits marks them for the erase.
    for (StateId s : cx.fixed_)
        enabled_mask_.resetUnchecked(s);
    std::erase_if(enabled_,
                  [&](StateId s) { return !enabled_mask_.testUnchecked(s); });
    return true;
}

SimCheckpoint
MatchEngine::checkpoint() const
{
    SimCheckpoint ckpt;
    ckpt.symbolOffset = offset_;
    if (!ctx_->scored()) {
        ckpt.enabledStates = frontier();
        return ckpt;
    }
    // Weighted automata checkpoint the per-state scores alongside the
    // frontier, kept parallel through the canonical sort.
    std::vector<std::pair<StateId, Score>> pairs;
    if (dense_active_) {
        dense_cur_.forEachSet([&](size_t di) {
            pairs.emplace_back(ctx_->state_of_dense_[di],
                               dense_score_cur_[di]);
        });
    } else {
        for (StateId s : enabled_)
            pairs.emplace_back(s, score_cur_[s]);
    }
    if (fixed_live_) {
        for (StateId s : ctx_->fixed_)
            pairs.emplace_back(s, static_cast<Score>(ctx_->start_w_[s]));
    }
    std::sort(pairs.begin(), pairs.end());
    ckpt.enabledStates.reserve(pairs.size());
    ckpt.enabledScores.reserve(pairs.size());
    for (const auto &[s, score] : pairs) {
        ckpt.enabledStates.push_back(s);
        ckpt.enabledScores.push_back(score);
    }
    return ckpt;
}

void
MatchEngine::restore(const SimCheckpoint &ckpt)
{
    setState(ckpt.enabledStates, ckpt.enabledScores, ckpt.symbolOffset);
}

std::vector<StateId>
MatchEngine::frontier() const
{
    std::vector<StateId> out;
    if (dense_active_) {
        dense_cur_.forEachSet([&](size_t di) {
            out.push_back(ctx_->state_of_dense_[di]);
        });
    } else {
        out = enabled_;
    }
    if (fixed_live_)
        out.insert(out.end(), ctx_->fixed_.begin(), ctx_->fixed_.end());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Score>
MatchEngine::frontierScores() const
{
    return checkpoint().enabledScores;
}

size_t
MatchEngine::frontierSize() const
{
    return dense_active_ ? dense_cur_.count() : enabled_.size();
}

std::vector<Report>
MatchEngine::takeReports()
{
    std::vector<Report> out = std::move(reports_);
    reports_.clear();
    return out;
}

void
MatchEngine::feed(const uint8_t *data, size_t size)
{
    NullObserver none;
    feed(data, size, none);
}

bool
MatchEngine::chooseDense()
{
    SimKernel kernel = opts_.kernel;
    if (kernel == SimKernel::Sparse || !ctx_->denseAvailable())
        return false;
    if (kernel == SimKernel::Dense)
        return true;
    // Auto: seed the EWMA from the current frontier density so an
    // engine loaded with a hot frontier starts on the right kernel. The
    // seed is one sample, and at offset 0 it lacks everything the fixed
    // starts are about to enable, so the first block after it is a
    // short probe whose sample replaces it.
    const size_t n = ctx_->numStates();
    if (!density_seeded_) {
        density_ewma_ = static_cast<double>(frontierSize()) /
            static_cast<double>(n);
        density_seeded_ = true;
        density_probe_ = true;
    }
    return density_ewma_ >= opts_.autoDensityThreshold;
}

void
MatchEngine::sampleDensity(double mean_frontier)
{
    // Sample the *enabled frontier*, not the matched count: the sparse
    // kernel's per-symbol cost is one label test per enabled state. The
    // fixed starts are left out, because both kernels serve them from
    // the same start image at the same cost.
    const size_t n = ctx_->numStates();
    if (n == 0)
        return;
    const double sample = mean_frontier / static_cast<double>(n);
    density_ewma_ = density_probe_
        ? sample
        : opts_.autoEwmaAlpha * sample +
            (1.0 - opts_.autoEwmaAlpha) * density_ewma_;
    density_probe_ = false;
    ks_density_.store(density_ewma_, std::memory_order_relaxed);
}

void
MatchEngine::countBlock(bool dense, size_t symbols)
{
    // ks_last_ spans setState()/restore(): a flip only counts when the
    // *engine* really changed kernels between consecutive blocks.
    const int kernel_id = dense ? 1 : 0;
    (dense ? ks_dense_blocks_ : ks_sparse_blocks_)
        .fetch_add(1, std::memory_order_relaxed);
    (dense ? ks_dense_symbols_ : ks_sparse_symbols_)
        .fetch_add(symbols, std::memory_order_relaxed);
    int prev = ks_last_.load(std::memory_order_relaxed);
    if (prev >= 0 && prev != kernel_id)
        ks_flips_.fetch_add(1, std::memory_order_relaxed);
    ks_last_.store(kernel_id, std::memory_order_relaxed);
}

KernelDecisionStats
MatchEngine::kernelStats() const
{
    KernelDecisionStats ks;
    ks.sparseBlocks = ks_sparse_blocks_.load(std::memory_order_relaxed);
    ks.denseBlocks = ks_dense_blocks_.load(std::memory_order_relaxed);
    ks.sparseSymbols = sparseSymbols();
    ks.denseSymbols = denseSymbols();
    ks.kernelFlips = ks_flips_.load(std::memory_order_relaxed);
    ks.densityEwma = ks_density_.load(std::memory_order_relaxed);
    ks.lastKernel = ks_last_.load(std::memory_order_relaxed);
    return ks;
}

uint64_t
MatchEngine::sparseSymbols() const
{
    return ks_sparse_symbols_.load(std::memory_order_relaxed);
}

uint64_t
MatchEngine::denseSymbols() const
{
    return ks_dense_symbols_.load(std::memory_order_relaxed);
}

void
MatchEngine::syncDenseFromSparse()
{
    const bool scored = ctx_->scored();
    dense_cur_.clearAll();
    for (StateId s : enabled_) {
        uint32_t di = ctx_->dense_index_of_[s];
        dense_cur_.setUnchecked(di);
        if (scored)
            dense_score_cur_[di] = score_cur_[s];
    }
    dense_active_ = true;
}

void
MatchEngine::syncSparseFromDense()
{
    const bool scored = ctx_->scored();
    for (StateId s : enabled_)
        enabled_mask_.resetUnchecked(s);
    enabled_.clear();
    dense_cur_.forEachSet([&](size_t di) {
        StateId s = ctx_->state_of_dense_[di];
        enabled_mask_.setUnchecked(s);
        enabled_.push_back(s);
        if (scored)
            score_cur_[s] = dense_score_cur_[di];
    });
    dense_active_ = false;
}

size_t
MatchEngine::emitCycleReports()
{
    const size_t fired = cycle_reports_.size();
    if (fired == 0)
        return 0;
    // Canonical within-cycle order: ascending state id (shared with the
    // CPU oracle and both kernels — bit-identical report streams). The
    // score rides along as the report payload.
    std::sort(cycle_reports_.begin(), cycle_reports_.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    if (collect_) {
        for (const auto &[s, score] : cycle_reports_)
            reports_.push_back(Report{
                offset_,
                static_cast<uint32_t>(ctx_->report_info_[s] >> 1), s,
                score});
    }
    cycle_reports_.clear();
    return fired;
}

} // namespace ca::match
