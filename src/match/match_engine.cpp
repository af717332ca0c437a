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
    buildSlots();
    buildTables();
    buildStartTables();
    buildFrontiers();
}

void
MatchContext::buildSlots()
{
    // A state's slot is its §2.2 SRAM column, partition * 256 + column,
    // when every state fits that geometry, and its state id otherwise.
    const uint32_t P = static_cast<uint32_t>(mapped_.numPartitions());
    dense_available_ = P > 0 && num_states_ > 0;
    for (StateId s = 0; s < num_states_ && dense_available_; ++s) {
        if (mapped_.location(s).slot >= kSlotsPerPartition) {
            // A non-standard design geometry (partitions wider than
            // 256 STEs) falls back to state-id slots and the sparse
            // kernel. Every context build of such a mapping gets here,
            // so say it once per process.
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true))
                CA_WARN("match dense kernel unavailable: state "
                        << s << " at slot " << mapped_.location(s).slot
                        << " exceeds " << kSlotsPerPartition);
            dense_available_ = false;
        }
    }
    dense_partitions_ = dense_available_ ? P : 0;
    const size_t slots = dense_available_
        ? static_cast<size_t>(P) * kSlotsPerPartition
        : num_states_;
    slot_words_ = (slots + 63) / 64;
    slot_of_.resize(num_states_);
    state_of_slot_.assign(slots, kInvalidState);
    for (StateId s = 0; s < num_states_; ++s) {
        const SteLocation &loc = mapped_.location(s);
        const uint32_t k = dense_available_
            ? loc.partition * kSlotsPerPartition + loc.slot
            : s;
        slot_of_[s] = k;
        state_of_slot_[k] = s;
    }
}

void
MatchContext::buildTables()
{
    // Flatten labels, successors, and report attributes by slot so the
    // per-symbol loop touches flat arrays instead of NfaState objects.
    const Nfa &nfa = mapped_.nfa();
    const size_t slots = state_of_slot_.size();
    const size_t words = slot_words_;
    scored_ = nfa.hasWeights();
    report_id_.resize(num_states_);
    report_mask_.assign(words, 0);
    succ_xadj_.assign(slots + 1, 0);
    if (scored_)
        start_w_.assign(num_states_, 0);
    for (StateId s = 0; s < num_states_; ++s) {
        const NfaState &st = nfa.state(s);
        const uint32_t k = slot_of_[s];
        if (st.start != StartType::None) {
            start_checkpoint_.enabledStates.push_back(s);
            if (scored_)
                start_checkpoint_.enabledScores.push_back(st.startWeight);
        }
        if (st.start == StartType::AllInput)
            all_input_.push_back(s);
        report_id_[s] = st.reportId;
        if (st.report)
            report_mask_[k >> 6] |= uint64_t{1} << (k & 63);
        if (scored_)
            start_w_[s] = st.startWeight;
        succ_xadj_[k + 1] = static_cast<uint32_t>(st.out.size());
    }
    for (size_t k = 1; k <= slots; ++k)
        succ_xadj_[k] += succ_xadj_[k - 1];
    succ_.resize(succ_xadj_.back());
    // Weighted automata also flatten the edge weights; unweighted ones
    // skip them and run the unscored kernels.
    if (scored_)
        succ_w_.resize(succ_.size());
    for (StateId s = 0; s < num_states_; ++s) {
        const auto &out = nfa.state(s).out;
        uint32_t fill = succ_xadj_[slot_of_[s]];
        for (size_t i = 0; i < out.size(); ++i, ++fill) {
            succ_[fill] = slot_of_[out[i]];
            if (scored_)
                succ_w_[fill] = nfa.edgeWeight(s, i);
        }
    }

    // Row reads (§2.2), symbol-major so one symbol's step scans
    // contiguous memory: state s is bit slot(s) of row c when its label
    // holds c. The table is built on every server's start path, so a
    // state whose label holds most of the alphabet (a negated class,
    // `.`) starts set in every row and is then cleared from the rows of
    // the symbols it rejects: no state costs more than 128 row writes.
    auto wide = [&](StateId s) {
        int n = 0;
        for (uint64_t w : nfa.state(s).label.raw())
            n += std::popcount(w);
        return n > 128;
    };
    std::vector<uint64_t> all_rows(words, 0);
    for (StateId s = 0; s < num_states_; ++s)
        if (wide(s))
            all_rows[slot_of_[s] >> 6] |= uint64_t{1} << (slot_of_[s] & 63);
    rows_.reserve(static_cast<size_t>(256) * words);
    for (int c = 0; c < 256; ++c)
        rows_.insert(rows_.end(), all_rows.begin(), all_rows.end());
    for (StateId s = 0; s < num_states_; ++s) {
        const uint32_t k = slot_of_[s];
        const uint64_t bit = uint64_t{1} << (k & 63);
        const uint64_t flip = wide(s) ? ~uint64_t{0} : 0;
        const auto &label = nfa.state(s).label.raw();
        for (size_t w = 0; w < label.size(); ++w) {
            uint64_t toggle = label[w] ^ flip;
            while (toggle) {
                const size_t c = w * 64 +
                    static_cast<size_t>(std::countr_zero(toggle));
                rows_[c * words + (k >> 6)] ^= bit;
                toggle &= toggle - 1;
            }
        }
    }

    if (!dense_available_ || scored_)
        return;
    // The shift masks. The compiler lays a Glushkov chain out slot after
    // slot, so on most rulesets nearly every state steps only to its own
    // slot or to the next one, often across a word or a partition
    // boundary, and the shift step serves those edges a word at a time.
    // Where most states have an exception edge (the Levenshtein and
    // Hamming constructions), the word loop would only add to the row
    // walk, so those automata keep the partition scan and no masks.
    std::vector<ShiftWord> shift(words);
    size_t exceptions = 0;
    for (uint32_t k = 0; k < slots; ++k) {
        const uint64_t bit = uint64_t{1} << (k & 63);
        ShiftWord &sh = shift[k >> 6];
        for (uint32_t e = succ_xadj_[k]; e < succ_xadj_[k + 1]; ++e) {
            (succ_[e] == k ? sh.self
                 : succ_[e] == k + 1 ? sh.next
                 : sh.exception) |= bit;
        }
        exceptions += (sh.exception & bit) != 0;
    }
    if (2 * exceptions <= num_states_)
        shift_ = std::move(shift);
    // The L-switch crossbar rows (intra-partition successors) and
    // G-switch CSR (cross-partition successors, few per state by the
    // 16/8 wire budgets): the partition scan drives them for every
    // matched state, the shift step for exception states only. A row or
    // list may repeat a self or next edge; ORing it twice is harmless.
    auto partition = [](uint32_t k) { return k / kSlotsPerPartition; };
    lswitch_.assign(slots * kWordsPerPartition, 0);
    cross_xadj_.assign(slots + 1, 0);
    for (uint32_t k = 0; k < slots; ++k) {
        uint32_t cross = 0;
        for (uint32_t e = succ_xadj_[k]; e < succ_xadj_[k + 1]; ++e)
            cross += partition(succ_[e]) != partition(k);
        cross_xadj_[k + 1] = cross_xadj_[k] + cross;
    }
    cross_.resize(cross_xadj_.back());
    for (uint32_t k = 0; k < slots; ++k) {
        uint32_t fill = cross_xadj_[k];
        for (uint32_t e = succ_xadj_[k]; e < succ_xadj_[k + 1]; ++e) {
            const uint32_t t = succ_[e];
            if (partition(t) == partition(k)) {
                const uint32_t col = t % kSlotsPerPartition;
                lswitch_[static_cast<size_t>(k) * kWordsPerPartition +
                         (col >> 6)] |= uint64_t{1} << (col & 63);
            } else {
                cross_[fill++] = t;
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
    const Nfa &nfa = mapped_.nfa();
    std::vector<uint8_t> has_in_edge(state_of_slot_.size(), 0);
    for (uint32_t t : succ_)
        has_in_edge[t] = 1;
    for (StateId s : all_input_)
        (has_in_edge[slot_of_[s]] ? reentrant_ : fixed_).push_back(s);

    // A byte's class is the set of fixed starts its label bits match.
    // Classes are numbered in order of first appearance after the empty
    // class 0, which also serves every symbol while the fixed starts are
    // not live.
    std::array<std::vector<StateId>, 256> matching;
    for (StateId s : fixed_) {
        const auto &label = nfa.state(s).label.raw();
        for (size_t w = 0; w < label.size(); ++w) {
            for (uint64_t bits = label[w]; bits; bits &= bits - 1)
                matching[w * 64 + static_cast<size_t>(std::countr_zero(bits))]
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
    // targets' slots and in scratch score arrays (one per semiring,
    // weighted automata only), then emitted in slot order and cleared
    // word by word.
    const size_t semirings = scored_ ? image_score_.size() : 0;
    std::array<std::vector<Score>, 2> acc;
    for (size_t r = 0; r < semirings; ++r)
        acc[r].assign(state_of_slot_.size(), 0);
    std::vector<uint64_t> image(slot_words_, 0);
    std::vector<uint32_t> touched;
    auto weight = [&](const std::vector<Weight> &w, size_t i) {
        return scored_ ? static_cast<Score>(w[i]) : 0;
    };
    auto enable = [&](uint32_t k, Score cand) {
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
            const uint32_t k = slot_of_[s];
            if ((report_mask_[k >> 6] >> (k & 63)) & 1)
                class_report_.emplace_back(s, weight(start_w_, s));
            for (uint32_t e = succ_xadj_[k]; e < succ_xadj_[k + 1]; ++e)
                enable(succ_[e], weight(start_w_, s) + weight(succ_w_, e));
        }
        // A re-entrant start competes with any incoming path at its
        // start weight (a fresh local alignment).
        for (StateId s : reentrant_)
            enable(slot_of_[s], weight(start_w_, s));
        std::sort(touched.begin(), touched.end());
        for (uint32_t w : touched) {
            image_word_.emplace_back(w, image[w]);
            for (uint64_t bits = image[w]; bits; bits &= bits - 1) {
                const uint32_t k = w * 64 +
                    static_cast<uint32_t>(std::countr_zero(bits));
                image_slot_.push_back(k);
                for (size_t r = 0; r < semirings; ++r)
                    image_score_[r].push_back(acc[r][k]);
            }
            image[w] = 0;
        }
        touched.clear();
        class_begin_.push_back(
            {static_cast<uint32_t>(class_report_.size()),
             static_cast<uint32_t>(image_slot_.size()),
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
    const Nfa &nfa = mapped_.nfa();
    BitVector reached(num_states_);
    BitVector visited(num_states_);
    for (StateId s : all_input_)
        reached.setUnchecked(s);
    std::vector<StateId> work = start_checkpoint_.enabledStates;
    for (StateId s : work)
        visited.setUnchecked(s);
    for (size_t i = 0; i < work.size(); ++i) {
        for (StateId t : nfa.state(work[i]).out) {
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
    const size_t slots = ctx_->numSlots();
    // With a dense kernel the frontier has a spare word past the last
    // slot: the unweighted dense step stores every word's carry into the
    // next word unchecked, and the last word's is always zero.
    cur_ = BitVector(ctx_->denseAvailable() ? slots + 64
                                            : std::max<size_t>(slots, 1));
    if (ctx_->denseAvailable()) {
        nxt_ = BitVector(slots + 64);
        if (!ctx_->scored()) {
            const size_t words = ctx_->slot_words_;
            live_cur_.assign((words + 63) / 64, 0);
            live_nxt_.assign(live_cur_.size(), 0);
            dense_queue_.resize(words);
        }
    }
    if (ctx_->scored()) {
        score_cur_.assign(slots, 0);
        score_nxt_.assign(slots, 0);
    }
    reset();
}

void
MatchEngine::reset()
{
    restore(ctx_->startCheckpoint());
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
    cur_.clearAll();
    enabled_.clear();
    dense_active_ = false;
    const bool scored = ctx_->scored();
    for (size_t i = 0; i < frontier.size(); ++i) {
        StateId s = frontier[i];
        CA_FATAL_IF(s >= ctx_->numStates(),
                    "MatchEngine: frontier state " << s
                                                   << " outside automaton");
        const uint32_t k = ctx_->slot_of_[s];
        if (!cur_.testUnchecked(k)) {
            cur_.setUnchecked(k);
            enabled_.push_back(k);
            if (scored)
                score_cur_[k] = scores.empty() ? 0 : scores[i];
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
        const uint32_t k = cx.slot_of_[s];
        if (!cur_.testUnchecked(k))
            return false;
        if (cx.scored() &&
            score_cur_[k] != static_cast<Score>(cx.start_w_[s]))
            return false;
    }
    // Clearing their bits marks them for the erase.
    for (StateId s : cx.fixed_)
        cur_.resetUnchecked(cx.slot_of_[s]);
    std::erase_if(enabled_,
                  [&](uint32_t k) { return !cur_.testUnchecked(k); });
    return true;
}

SimCheckpoint
MatchEngine::checkpoint() const
{
    // The frontier in state order, the fixed starts included, with the
    // per-state scores of a weighted automaton kept parallel through
    // the sort.
    const MatchContext &cx = *ctx_;
    const bool scored = cx.scored();
    std::vector<std::pair<StateId, Score>> pairs;
    cur_.forEachSet([&](size_t k) {
        pairs.emplace_back(cx.state_of_slot_[k], scored ? score_cur_[k] : 0);
    });
    if (fixed_live_) {
        for (StateId s : cx.fixed_)
            pairs.emplace_back(
                s, scored ? static_cast<Score>(cx.start_w_[s]) : 0);
    }
    std::sort(pairs.begin(), pairs.end());
    SimCheckpoint ckpt;
    ckpt.symbolOffset = offset_;
    ckpt.enabledStates.reserve(pairs.size());
    for (const auto &[s, score] : pairs) {
        ckpt.enabledStates.push_back(s);
        if (scored)
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
    return checkpoint().enabledStates;
}

std::vector<Score>
MatchEngine::frontierScores() const
{
    return checkpoint().enabledScores;
}

size_t
MatchEngine::frontierSize() const
{
    return dense_active_ ? cur_.count() : enabled_.size();
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
MatchEngine::rebuildWorklist()
{
    enabled_.clear();
    cur_.forEachSet(
        [&](size_t k) { enabled_.push_back(static_cast<uint32_t>(k)); });
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
                ctx_->report_id_[s], s,
                score});
    }
    cycle_reports_.clear();
    return fired;
}

} // namespace ca::match
