/**
 * @file
 * Match engine: the one implementation of the per-symbol step
 * (docs/MATCH.md).
 *
 * `MatchContext` holds the immutable per-automaton tables (the §2.2
 * match rows, successors and start image, laid out once by slot), and
 * `MatchEngine` runs one stream's frontier over them with the sparse
 * and dense kernels and the Auto selector (DESIGN.md §7). N engines
 * running chunks of one stream in parallel, or N runtime workers
 * serving many streams, share one copy of the tables and carry only
 * their own frontier.
 *
 * The kernels are templated on an observer policy. `feed(data, size)`
 * runs them with `NullObserver`, whose hooks compile away: the
 * functional engine computes the enabled frontier and the report
 * stream and nothing else. The cycle-accurate `CacheAutomatonSim`
 * (src/sim) is this engine plus an observer that does the §2.8/§5.3
 * hardware accounting, so the two are report-identical by
 * construction.
 */
#ifndef CA_MATCH_MATCH_ENGINE_H
#define CA_MATCH_MATCH_ENGINE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "core/bitvector.h"
#include "score/semiring.h"

namespace ca {

/**
 * Execution kernel for the per-symbol step (DESIGN.md §7).
 *
 *  - Sparse: iterate the enabled-state frontier; O(active states) per
 *    symbol. Wins when few states are active (DFA-like automata).
 *  - Dense: bit-parallel §2.2 row-read model — per-partition 256-entry
 *    symbol→match-mask tables and per-state successor masks, stepped
 *    with whole 64-bit words. The shift step serves self and next edges
 *    a word at a time over the frontier's live words, O(live words +
 *    matched exception states) per symbol; automata where most states
 *    have other edges take the partition scan, O(partitions). Wins on
 *    high-activity automata (Fermi, SPM, Protomata-class).
 *  - Auto: per-block selection on an EWMA of the non-start frontier's
 *    density (enabled states ÷ total states, not counting the fixed
 *    starts). Both kernels seed each next frontier from the same
 *    per-class start image (MatchContext), so only the rest of the
 *    frontier separates their costs.
 *
 * All kernels are bit-identical: same report stream, same activity
 * counters (enforced against the CPU oracle by tests/kernel_test.cpp).
 * The CA_SIM_KERNEL environment variable ("sparse"/"dense"/"auto"),
 * when set, overrides the option for the simulator and for every
 * StreamServer engine — CI uses it to run the `sim` and `runtime`
 * ctest labels under each kernel.
 */
enum class SimKernel : uint8_t
{
    Sparse,
    Dense,
    Auto,
};

/** Parses "sparse"/"dense"/"auto"; nullopt on anything else. */
std::optional<SimKernel> parseKernelName(std::string_view name);

/** The kernel's canonical spelling ("sparse"/"dense"/"auto"). */
const char *kernelName(SimKernel k);

/**
 * The $CA_SIM_KERNEL override, parsed once per process (CI uses it to
 * run `ctest -L "sim|runtime"` under each kernel). Unrecognized values warn
 * once and fall back to Auto — a typo in a CI matrix must be loud, but
 * pinning the run to a kernel that doesn't exist would be worse.
 * Returns nullopt only when the variable is unset/empty.
 */
std::optional<SimKernel> simKernelEnvOverride();

/**
 * Live Auto-kernel decision introspection (docs/OBSERVABILITY.md).
 *
 * Cumulative since engine construction: unlike SimResult's counters,
 * these survive reset()/restore(), because they describe the *engine as
 * a resource* (a runtime worker restores a different session's
 * checkpoint into the same engine many times per second, and the
 * interesting question — "is the Auto kernel flapping on this worker?" —
 * spans those restores). Bytes of a dead stream, which the engine skips
 * without stepping, count toward the kernel their block was assigned,
 * so sparse plus dense symbols equal every byte the engine was fed.
 */
struct KernelDecisionStats
{
    uint64_t sparseBlocks = 0;   ///< Blocks dispatched to the sparse kernel.
    uint64_t denseBlocks = 0;    ///< Blocks dispatched to the dense kernel.
    uint64_t sparseSymbols = 0;
    uint64_t denseSymbols = 0;
    uint64_t kernelFlips = 0;    ///< Consecutive blocks on different kernels.
    /** Current EWMA of the non-start frontier's density (Auto's signal). */
    double densityEwma = 0.0;
    int lastKernel = -1;         ///< -1 none yet, 0 sparse, 1 dense.
};

/**
 * Suspend/resume snapshot (§2.9): the active-state vector (here: the
 * enabled frontier) and the input symbol counter. Restoring into a fresh
 * engine or simulator bound to the same mapped automaton continues the
 * stream exactly where it left off.
 */
struct SimCheckpoint
{
    uint64_t symbolOffset = 0;
    std::vector<StateId> enabledStates;
    /**
     * Per-state accumulated scores, parallel to enabledStates. Empty for
     * unweighted automata (and accepted as all-zero on restore into a
     * weighted one); otherwise the same length as enabledStates.
     */
    std::vector<Score> enabledScores;
};

} // namespace ca

namespace ca::match {

/** Engine controls: the kernel choice and the Auto selector's knobs. */
struct MatchOptions
{
    /**
     * Per-symbol stepper; Auto re-decides per block on frontier density.
     * CacheAutomatonSim and StreamServer apply $CA_SIM_KERNEL on top.
     */
    SimKernel kernel = SimKernel::Auto;
    /**
     * Auto: run the dense kernel while the EWMA of the non-start
     * frontier's density (enabled states other than the fixed starts ÷
     * total states) is at least this, so 0 pins dense and anything
     * above 1 pins sparse. The default is the crossover measured when
     * it was set (bench_kernel_comparison, MatchEngine timings, with the
     * shift step: sparse won no suite row above 0.0014, dense every row
     * from 0.0020); EXPERIMENTS.md has the current sweep.
     */
    double autoDensityThreshold = 0.0017;
    /** Auto: EWMA smoothing factor for per-block density samples. */
    double autoEwmaAlpha = 0.25;
    /**
     * Auto: symbols per block between kernel re-evaluations. The first
     * block after the EWMA is seeded (on the first feed after setState)
     * is a probe of 1/16 of this.
     */
    uint32_t autoBlockSymbols = 4096;
    /**
     * ⊕ for weighted automata (docs/SCORING.md): how alternative path
     * scores into one state combine. Ignored (zero-cost) when the bound
     * automaton carries no weights — unweighted rulesets run the exact
     * unscored kernels.
     */
    ScoreSemiring semiring = ScoreSemiring::MaxPlus;
};

/**
 * Immutable per-automaton tables shared by every MatchEngine bound to
 * the same mapped automaton, plus the two frontier sets the speculative
 * chunk-parallel matcher needs.
 *
 * Every per-state table is laid out once, by *slot*. A slot is a state's
 * dense index (partition * 256 + column, its §2.2 SRAM column) when the
 * mapping's geometry admits the dense kernel, and its state id when it
 * does not. Both kernels read the same tables by slot:
 *  - the symbol-major match rows (row c is the match vector of byte c):
 *    the dense kernel ANDs whole words of it, the sparse kernel tests
 *    one bit per frontier slot;
 *  - the report mask;
 *  - one successor CSR (target slot, then edge weight on a weighted
 *    automaton), read by both sparse steppers and the weighted dense
 *    step;
 *  - the start image below.
 * The unweighted dense steps alone read their own form of the same
 * edges: the hardware's split into L-switch rows (intra-partition
 * successor masks) and a G-switch CSR of cross-partition edges, and,
 * where at least half the states step only to their own slot or the
 * next one, three slot masks: *self* (an edge to its own slot), *next*
 * (an edge to slot k + 1) and *exception* (any other edge). With the
 * masks, the shift step serves self and next edges a frontier word at a
 * time, and only exception states read their rows; without them, the
 * partition scan drives every matched state's row. State ids appear
 * only at the boundary:
 * loading and reading a frontier, the fixed starts, and report emission
 * in ascending state-id order (report ids stay per state).
 *
 * Among the tables is the starts' image, the software form of the
 * hardware's constant all-input mask (§2.2). A fixed start (an
 * all-input start with no in-edge) is enabled before every symbol at
 * its start weight and by nothing else, so what it contributes to a
 * step depends on the input byte alone. A byte's class is the set of
 * fixed starts its label bits match; class 0 is the empty set. Each
 * class lists its reporting fixed starts (at their start weights) and
 * its targets: the stepping fixed starts' successors and the
 * re-entrant starts (all-input starts with an in-edge). A target is
 * held as a slot, and the class's targets also as dense (word, mask)
 * pairs; on a weighted automaton a target also carries its ⊕-combined
 * score (startWeight + edge weight, or startWeight), one list per
 * semiring. Every kernel starts the next frontier as the byte class's
 * image and puts the frontier's matched edges on top.
 *
 *  - startCheckpoint(): the exact offset-0 state (StartOfData and
 *    AllInput start states, at their start weights) that every engine,
 *    session and whole-stream match begins from; startFrontier() is
 *    its states.
 *  - reachableFrontier(): AllInput starts plus every state reachable
 *    through at least one transition from any start state — a superset
 *    of the true enabled frontier at *every* offset >= 1. Speculative
 *    chunks seed from this overapproximation (the SFA construction's
 *    "all candidate states" set, restricted to what is reachable at
 *    all) and converge toward the exact frontier over a warm-up window.
 *
 * Thread-safe by immutability: after the constructor returns, the
 * context is never written again.
 */
class MatchContext
{
  public:
    explicit MatchContext(const MappedAutomaton &mapped);

    /**
     * Co-owning variant for automata loaded from disk.
     * @throws CaError when @p mapped is null.
     */
    explicit MatchContext(std::shared_ptr<const MappedAutomaton> mapped);

    size_t numStates() const { return num_states_; }

    /** False when the mapping's geometry rules out the dense kernel. */
    bool denseAvailable() const { return dense_available_; }

    /**
     * The slot count: partitions * 256 with a dense kernel, numStates()
     * without one. Some dense slots hold no state.
     */
    size_t numSlots() const { return state_of_slot_.size(); }

    /** State @p s's slot (its dense index, or @p s without a dense kernel). */
    uint32_t slot(StateId s) const { return slot_of_[s]; }

    /** True when the bound automaton carries transition weights. */
    bool scored() const { return scored_; }

    const SimCheckpoint &startCheckpoint() const { return start_checkpoint_; }
    const std::vector<StateId> &startFrontier() const
    {
        return start_checkpoint_.enabledStates;
    }
    const std::vector<StateId> &reachableFrontier() const
    {
        return reachable_frontier_;
    }

    /**
     * The fixed starts, sorted: all-input starts with no in-edge. The
     * kernels serve them from the start image rather than the frontier;
     * frontier() and checkpoint() still list them.
     */
    const std::vector<StateId> &fixedStarts() const { return fixed_; }

    const MappedAutomaton &mapped() const { return mapped_; }

  private:
    friend class MatchEngine;

    void buildSlots();
    void buildTables();
    void buildStartTables();
    void buildFrontiers();

    /** Keeps a loaded automaton alive; null when bound by reference. */
    std::shared_ptr<const MappedAutomaton> owned_;
    const MappedAutomaton &mapped_;
    size_t num_states_ = 0;

    // Per-state tables, for the boundary.
    std::vector<StateId> all_input_;
    /** All-input starts with an in-edge: re-enabled into the frontier. */
    std::vector<StateId> reentrant_;
    /** All-input starts without one (fixedStarts()). */
    std::vector<StateId> fixed_;
    std::vector<uint32_t> report_id_;
    /** Start weights (weighted automata only). */
    std::vector<Weight> start_w_;
    bool scored_ = false;

    // The slot map (§2.2 geometry: 4 words = 256 slots per partition).
    bool dense_available_ = false;
    uint32_t dense_partitions_ = 0;
    std::vector<uint32_t> slot_of_;
    /** kInvalidState at a dense slot that holds no state. */
    std::vector<StateId> state_of_slot_;
    /** Words per slot bitvector. */
    size_t slot_words_ = 0;

    // Per-slot tables.
    /** Symbol-major match rows: rows_[c * slot_words_ + w]. */
    std::vector<uint64_t> rows_;
    std::vector<uint64_t> report_mask_;
    /** Successor CSR: target slots, and edge weights (weighted only). */
    std::vector<uint32_t> succ_xadj_;
    std::vector<uint32_t> succ_;
    std::vector<Weight> succ_w_;
    // The unweighted dense steps' successors.
    /**
     * One frontier word's slots sorted by their edges: an edge to their
     * own slot (self), to the next slot (next), to any other (exception).
     */
    struct ShiftWord
    {
        uint64_t self = 0;
        uint64_t next = 0;
        uint64_t exception = 0;
    };
    /**
     * The shift masks per frontier word; empty (the partition scan
     * runs) when more than half the states have an exception edge.
     */
    std::vector<ShiftWord> shift_;
    /** L-switch: per-slot intra-partition successor masks. */
    std::vector<uint64_t> lswitch_;
    /** G-switch: CSR of cross-partition successor slots. */
    std::vector<uint32_t> cross_xadj_;
    std::vector<uint32_t> cross_;

    // The starts' image per byte class. Class ids take 9 bits: up to 256
    // non-empty classes plus the empty class 0.
    std::array<uint16_t, 256> byte_class_{};
    /** Where class k's runs begin in each list; entry k + 1 ends them. */
    struct ClassBegin
    {
        uint32_t report = 0;
        uint32_t target = 0;
        uint32_t word = 0;
    };
    std::vector<ClassBegin> class_begin_;
    /** Reporting fixed starts, ascending, with their start weights. */
    std::vector<std::pair<StateId, Score>> class_report_;
    /**
     * Targets in slot order, with their ⊕-combined scores on weighted
     * automata (one list per semiring, indexed by ScoreSemiring).
     */
    std::vector<uint32_t> image_slot_;
    std::array<std::vector<Score>, 2> image_score_;
    /** The targets as (word, mask) pairs, ascending by word. */
    std::vector<std::pair<uint32_t, uint64_t>> image_word_;

    // Precomputed frontier sets (sorted, deduplicated).
    SimCheckpoint start_checkpoint_;
    std::vector<StateId> reachable_frontier_;
};

/**
 * The kernel observer policy with every hook a no-op: what
 * MatchEngine::feed(data, size) runs with, so the functional engine's
 * kernels carry no accounting at all. It also documents the hooks a
 * policy provides; the steppers call them at the points the §2.8/§5.3
 * hardware model counts (src/sim's ActivityObserver implements them).
 * Every hook names states by slot (MatchContext::slot()).
 */
struct NullObserver
{
    /**
     * True when firing states must be gathered even with report
     * collection off (the output buffer still counts them).
     */
    static constexpr bool kCountsReports = false;

    /** The next @p symbols bytes run as one block on the named kernel. */
    void block(bool /*dense*/, size_t /*symbols*/) {}
    /**
     * A dead stream (empty frontier, no all-input starts) skips
     * @p symbols cycles starting at @p offset without stepping them.
     */
    void skip(uint64_t /*offset*/, size_t /*symbols*/) {}
    /** Sparse kernel: the enabled frontier's slots the next symbol tests. */
    void sparseFrontier(const std::vector<uint32_t> & /*slots*/) {}
    /** Sparse kernel: the state at slot @p k matched the symbol. */
    void sparseMatch(uint32_t /*k*/) {}
    /**
     * The fixed starts are enabled for this symbol, whose byte is @p c:
     * the step serves them from byte c's class in the start image.
     * Called before the frontier hooks; the frontier hooks then see
     * every other enabled state.
     */
    void fixedStarts(uint8_t /*c*/) {}
    /** Dense kernel: partition @p p has enabled states (its 4 words). */
    void densePartition(uint32_t /*p*/, uint64_t, uint64_t, uint64_t,
                        uint64_t)
    {
    }
    /** Dense kernel: the matched bits of dense frontier word @p word. */
    void denseMatch(size_t /*word*/, uint64_t /*matched*/) {}
    /** The symbol at @p offset finished; @p fired states reported. */
    void symbolEnd(uint64_t /*offset*/, size_t /*fired*/) {}
};

/**
 * One stream's worth of mutable match state over a shared MatchContext.
 * Cheap to construct (O(states) bitvectors, no table builds); a thread
 * pool keeps one per worker and reuses it across chunks and sessions.
 *
 * Semantics contract (shared with CacheAutomatonSim and the CPU
 * oracles): a report fires at the offset of the symbol that activated
 * the reporting state, and within one symbol reports are emitted in
 * ascending state-id order.
 *
 * Every kernel takes one step shape: the next frontier starts as the
 * byte class's start image (bits, and scores on a weighted automaton),
 * and the frontier's matched edges go on top, scores ⊕-combined. The
 * symbol's reports, the frontier's and the class's, go through one
 * (state, score) buffer, with score 0 on an unweighted automaton.
 *
 * Both kernels step one slot-indexed frontier bitvector and one
 * slot-indexed score pair, so an Auto kernel switch moves nothing: the
 * sparse kernel's worklist of the frontier's slots is rebuilt from the
 * bitvector when Auto moves to sparse.
 */
class MatchEngine
{
  public:
    explicit MatchEngine(std::shared_ptr<const MatchContext> ctx,
                         const MatchOptions &opts = {});

    /** Rewinds to offset 0 with the exact start frontier. */
    void reset();

    /**
     * Loads an arbitrary frontier at an arbitrary offset (the chunk-
     * parallel join's primitive). Clears pending reports. @p frontier
     * need not be sorted; duplicates collapse, and an out-of-range
     * state throws CaError.
     */
    void setState(const std::vector<StateId> &frontier, uint64_t offset);

    /**
     * setState with per-state accumulated scores, parallel to
     * @p frontier. An empty @p scores means all-zero; otherwise sizes
     * must match.
     */
    void setState(const std::vector<StateId> &frontier,
                  const std::vector<Score> &scores, uint64_t offset);

    /** Captures the §2.9 suspend state (sorted frontier, scores, offset). */
    SimCheckpoint checkpoint() const;

    /** setState() from a checkpoint of an engine on the same automaton. */
    void restore(const SimCheckpoint &ckpt);

    /** Consumes one chunk of the stream; callable repeatedly. */
    void feed(const uint8_t *data, size_t size);

    /**
     * feed() with a kernel observer (see NullObserver for the hooks).
     * Defined in match/kernels.h, which a caller instantiating a new
     * observer type includes.
     */
    template <class Obs>
    void feed(const uint8_t *data, size_t size, Obs &obs);

    /** Moves out the reports accumulated since the last setState/take. */
    std::vector<Report> takeReports();

    /**
     * Report collection toggle: speculative warm-up runs with
     * collection off (those symbols' reports belong to the previous
     * chunk's exact pass), then flips it on for the chunk body.
     */
    void setCollectReports(bool on) { collect_ = on; }

    /** The live enabled frontier, sorted ascending. */
    std::vector<StateId> frontier() const;

    /**
     * Per-state scores parallel to frontier()'s order. Empty for
     * unweighted automata.
     */
    std::vector<Score> frontierScores() const;

    /** Absolute stream position: the offset the next symbol gets. */
    uint64_t streamOffset() const { return offset_; }

    /** Symbols fed per kernel since construction (kernelStats()). */
    uint64_t sparseSymbols() const;
    uint64_t denseSymbols() const;

    /**
     * Point-in-time copy of the per-block kernel-decision counters.
     * Safe to call from another thread while feed() runs (the fields
     * are kept in relaxed atomics and read individually, so the copy is
     * approximately — not transactionally — consistent).
     */
    KernelDecisionStats kernelStats() const;

    const MatchContext &context() const { return *ctx_; }

  private:
    /** Runs @p size symbols on one kernel, scored or not. */
    template <class Obs>
    void runKernel(bool dense, const uint8_t *data, size_t size, Obs &obs);
    /** Steppers, instantiated scored/unscored at compile time (the
        Scored=false bodies carry no score state). */
    template <bool Scored, class Obs>
    void feedSparseImpl(const uint8_t *data, size_t size, Obs &obs);
    template <bool Scored, class Obs>
    void feedDenseImpl(const uint8_t *data, size_t size, Obs &obs);
    /** The unweighted dense step over live words and shift masks. */
    template <class Obs>
    void feedShiftImpl(const uint8_t *data, size_t size, Obs &obs);

    /**
     * Emits the symbol's reports in canonical (ascending state id)
     * order when collecting; returns how many states fired.
     */
    size_t emitCycleReports();
    /** True when the next block should run the dense kernel. */
    bool chooseDense();
    /** Lists the frontier's slots for the sparse kernel. */
    void rebuildWorklist();
    /**
     * Takes the fixed starts out of a just-loaded frontier when
     * all of them are in it at their start weights; returns whether it
     * did (the fixed_live_ invariant).
     */
    bool factorFixedStarts();
    /** States in the kernels' frontier: the fixed starts are not. */
    size_t frontierSize() const;
    /** Engine-lifetime decision counters for one dispatched block. */
    void countBlock(bool dense, size_t symbols);
    /** Feeds a block's mean frontier size to the density EWMA. */
    void sampleDensity(double mean_frontier);

    std::shared_ptr<const MatchContext> ctx_;
    MatchOptions opts_;
    bool collect_ = true;

    /**
     * The frontier by slot: the sparse kernel's membership mask and the
     * dense kernel's current vector. nxt_ is the dense kernel's next
     * vector (allocated only with a dense kernel).
     */
    BitVector cur_;
    BitVector nxt_;
    /**
     * The unweighted dense step's summaries of its current and next
     * vectors, one bit per word: set where the word is non-zero.
     */
    std::vector<uint64_t> live_cur_;
    std::vector<uint64_t> live_nxt_;
    /**
     * The unweighted dense step's words to walk after its word loop,
     * (word, matched bits): room for every frontier word.
     */
    std::vector<std::pair<size_t, uint64_t>> dense_queue_;
    /** The sparse kernel's worklist: cur_'s slots, stale while dense. */
    std::vector<uint32_t> enabled_;
    std::vector<uint32_t> active_scratch_;
    /** The dense kernel ran last, so enabled_ is stale. */
    bool dense_active_ = false;
    /**
     * (state, score) pairs that fired this cycle, sorted by state
     * before emission; scores are 0 on an unweighted automaton.
     */
    std::vector<std::pair<StateId, Score>> cycle_reports_;

    /**
     * The fixed starts are enabled at their start weights and held out
     * of the frontier; the kernels serve them from the byte's class.
     * False only until the first symbol after setState() loaded a
     * frontier lacking one of them (or carrying a different score): that
     * symbol takes the empty class 0, and its fixed starts sit in the
     * frontier like any other state.
     */
    bool fixed_live_ = false;

    // Scores by slot (allocated only for weighted automata), valid
    // where cur_ is set. A step writes a target's first next score
    // outright and ⊕s the rest into it.
    std::vector<Score> score_cur_;
    std::vector<Score> score_nxt_;

    // Auto-kernel state.
    double density_ewma_ = 0.0;
    bool density_seeded_ = false;
    /** The block in flight is the short probe that follows a seed. */
    bool density_probe_ = false;

    uint64_t offset_ = 0;
    std::vector<Report> reports_;

    // Engine-lifetime kernel-decision counters behind kernelStats().
    // Relaxed atomics: written once per block on the feeding thread,
    // read concurrently by StreamServer::inspect().
    std::atomic<uint64_t> ks_sparse_blocks_{0};
    std::atomic<uint64_t> ks_dense_blocks_{0};
    std::atomic<uint64_t> ks_sparse_symbols_{0};
    std::atomic<uint64_t> ks_dense_symbols_{0};
    std::atomic<uint64_t> ks_flips_{0};
    std::atomic<double> ks_density_{0.0};
    std::atomic<int> ks_last_{-1};
};

} // namespace ca::match

#endif // CA_MATCH_MATCH_ENGINE_H
