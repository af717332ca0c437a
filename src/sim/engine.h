/**
 * @file
 * Cycle-level Cache Automaton simulator.
 *
 * Executes a *mapped* automaton the way the hardware does (§2.2-2.5):
 * every cycle, partitions with a non-zero active-state vector perform an
 * array read (state match), matched states traverse the L-switch, and
 * cross-partition transitions traverse the G-switches. The simulator's
 * per-cycle activity statistics (active partitions, active states, G1/G4
 * crossings) are exactly what the energy model consumes — the same
 * methodology the paper uses (VASim activity feeding derived constants).
 *
 * The simulator is a match::MatchEngine (the one implementation of the
 * per-symbol step, with its sparse and dense kernels and the Auto
 * selector; DESIGN.md §7) plus an ActivityObserver that does the
 * hardware accounting from the kernels' observer hooks. Its report
 * stream is therefore the engine's, bit for bit.
 *
 * The engine is incremental: feed() consumes stream chunks, and the §2.9
 * suspend/resume model is supported by checkpoint()/restore() (the
 * hardware records the active-state vector and input symbol counter).
 *
 * Functional behaviour (the report stream) is bit-identical to the CPU
 * oracle engine under every kernel; within a cycle, reports are emitted
 * in ascending state id order (the canonical order all engines share).
 * The test suite enforces this on randomized automata.
 */
#ifndef CA_SIM_ENGINE_H
#define CA_SIM_ENGINE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/energy.h"
#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "match/match_engine.h"

namespace ca {

/**
 * Simulation controls: the engine's kernel options (inherited) plus the
 * §2.8 hardware-model parameters.
 */
struct SimOptions : match::MatchOptions
{
    bool collectReports = true;
    /** Record a per-cycle activity trace (costly; for tests/ablations). */
    bool recordTrace = false;
    /** Symbols refilled per cache-block fetch into the FIFO. */
    int fifoRefillSymbols = 64;
    /** Output buffer entries before an interrupt fires (§2.8). */
    int outputBufferDepth = 64;
};

/** One cycle of recorded activity (when SimOptions::recordTrace). */
struct CycleTrace
{
    uint32_t activePartitions = 0;
    uint32_t activeStates = 0;
    uint32_t g1Crossings = 0;
    uint32_t g4Crossings = 0;
    uint32_t reportsFired = 0;

    bool operator==(const CycleTrace &) const = default;
};

/** Results of a simulated stream (cumulative since reset). */
struct SimResult
{
    uint64_t symbols = 0;
    /** Pipeline cycles = symbols + fill (3-stage pipeline, §2.5). */
    uint64_t cycles = 0;

    std::vector<Report> reports;

    // Totals over all symbols.
    uint64_t totalActivePartitionCycles = 0;
    uint64_t totalActiveStates = 0;
    /**
     * Sum over symbols of the enabled-frontier size (states holding an
     * enable bit when the symbol arrives, matched or not), fixed starts
     * included. Less the fixed starts' constant share, this is the
     * sparse kernel's per-symbol workload and the quantity the Auto
     * selector's density EWMA tracks.
     */
    uint64_t totalEnabledStates = 0;
    uint64_t totalG1Crossings = 0;
    uint64_t totalG4Crossings = 0;

    // System-integration counters (§2.8).
    uint64_t fifoRefills = 0;
    uint64_t outputBufferInterrupts = 0;

    // Kernel accounting: which stepper executed each symbol, and how
    // often Auto flipped between them mid-stream.
    uint64_t sparseKernelSymbols = 0;
    uint64_t denseKernelSymbols = 0;
    uint64_t kernelSwitches = 0;

    std::vector<CycleTrace> trace;

    /** Mean activity factors for the energy model. */
    ActivityStats activity() const;

    /** Average active states per symbol (Table 1's rightmost columns). */
    double avgActiveStates() const;

    /** Wall-clock seconds at @p freq_hz (1 symbol per cycle). */
    double seconds(double freq_hz) const;
};

/**
 * The §2.8/§5.3 hardware accounting as a MatchEngine kernel observer
 * (match::NullObserver documents the hooks): FIFO refills, enabled and
 * active states, active partitions, G1/G4 crossings, output-buffer
 * interrupts, the optional cycle trace, and which kernel ran each
 * symbol. Both kernels feed it the same per-cycle quantities — the
 * sparse one per matched slot, the dense one per matched 64-bit word —
 * and it keys one partition table and one pair of G1/G4 source masks by
 * slot for both, so the counters are bit-identical across kernels. The
 * fixed starts, which the kernels keep out of the frontier, are added
 * back per symbol from per-byte counts, so the counters also equal
 * those of a frontier that holds them (the hardware's view).
 */
class ActivityObserver
{
  public:
    ActivityObserver(const match::MatchContext &ctx, const SimOptions &opts);

    /** Firing states count toward the output buffer even uncollected. */
    static constexpr bool kCountsReports = true;

    /** Clears the counters (the stream restarts or resumes). */
    void reset();

    /** The counters so far; reports are appended by the simulator. */
    SimResult &result() { return acc_; }
    const SimResult &result() const { return acc_; }

    void block(bool dense, size_t symbols);
    void skip(uint64_t offset, size_t symbols);
    void fixedStarts(uint8_t c);
    void sparseFrontier(const std::vector<uint32_t> &slots);
    void sparseMatch(uint32_t k);
    void densePartition(uint32_t p, uint64_t e0, uint64_t e1, uint64_t e2,
                        uint64_t e3);
    void denseMatch(size_t word, uint64_t matched);
    void symbolEnd(uint64_t offset, size_t fired);

  private:
    const uint64_t fifo_refill_;
    const uint64_t output_depth_;
    const bool record_trace_;

    // By slot: each one's partition, and the G1-source / G4-source
    // masks over the frontier words.
    std::vector<uint32_t> partition_of_;
    std::vector<uint64_t> g1_;
    std::vector<uint64_t> g4_;

    /** Sparse active-partition detection: last epoch each was seen. */
    std::vector<uint64_t> partition_epoch_;
    uint64_t epoch_counter_ = 0;

    // The fixed starts' share of a symbol they are enabled for.
    uint32_t fixed_states_ = 0;
    /** Partitions holding a fixed start, and how many there are. */
    std::vector<uint8_t> fixed_partition_;
    uint32_t fixed_partitions_ = 0;
    /** Per byte: the fixed starts it matches, and their G1/G4 sources. */
    std::array<uint32_t, 256> fixed_matched_{};
    std::array<uint32_t, 256> fixed_g1_{};
    std::array<uint32_t, 256> fixed_g4_{};
    /** The current symbol enables the fixed starts. */
    bool fixed_cycle_ = false;

    // The current cycle's activity.
    uint32_t cycle_partitions_ = 0;
    uint32_t cycle_active_ = 0;
    uint32_t cycle_g1_ = 0;
    uint32_t cycle_g4_ = 0;

    /** Output-buffer entries since the last interrupt. */
    uint64_t pending_reports_ = 0;
    int last_kernel_ = -1; ///< -1 none, 0 sparse, 1 dense.
    SimResult acc_;
};

/** Cycle-level simulator bound to one mapped automaton. */
class CacheAutomatonSim
{
  public:
    explicit CacheAutomatonSim(const MappedAutomaton &mapped,
                               const SimOptions &opts = {});

    /**
     * Co-owning variant for automata loaded from disk (the persist
     * layer returns shared ownership so the sim can outlive the
     * loader's scope). @throws CaError when @p mapped is null.
     */
    explicit CacheAutomatonSim(
        std::shared_ptr<const MappedAutomaton> mapped,
        const SimOptions &opts = {});

    /** Rewinds to offset 0 (start states enabled, counters cleared). */
    void reset();

    /** Consumes one chunk of the stream; callable repeatedly. */
    void feed(const uint8_t *data, size_t size);

    /**
     * Finishes accounting (pipeline drain) and returns the cumulative
     * result; the simulator remains usable (feed() continues the stream).
     */
    SimResult result() const;

    /** Convenience: reset, feed the whole buffer, return the result. */
    SimResult run(const uint8_t *data, size_t size);

    /**
     * run() with one-off options: @p opts applies to this run only. It
     * runs on a scratch simulator sharing this one's tables, so this
     * simulator's options and stream are untouched, and later
     * feed()/run() calls behave as if this call never happened.
     */
    SimResult run(const uint8_t *data, size_t size,
                  const SimOptions &opts);

    SimResult
    run(const std::vector<uint8_t> &input)
    {
        return run(input.data(), input.size());
    }

    /**
     * Moves out the reports accumulated since the last
     * reset()/restore()/takeReports(); activity counters are untouched.
     * Lets an incremental driver drain the §2.8 output buffer between
     * feed() slices without copying or re-reading earlier reports.
     */
    std::vector<Report> takeReports();

    /** Absolute stream position: the offset the next symbol gets. */
    uint64_t streamOffset() const { return engine_.streamOffset(); }

    /** Captures the §2.9 suspend state. */
    SimCheckpoint checkpoint() const { return engine_.checkpoint(); }

    /**
     * Restores a checkpoint taken from a simulator of the same mapped
     * automaton. Counters and reports restart from zero (the OS keeps the
     * already-drained output buffer); the frontier and offset resume.
     */
    void restore(const SimCheckpoint &ckpt);

    const MappedAutomaton &mapped() const { return ctx_->mapped(); }

    /** True when the bound automaton carries transition weights. */
    bool scored() const { return ctx_->scored(); }

    /**
     * Point-in-time copy of the engine's per-block kernel-decision
     * counters (cumulative since construction; thread-safe).
     */
    KernelDecisionStats kernelStats() const { return engine_.kernelStats(); }

  private:
    CacheAutomatonSim(std::shared_ptr<const match::MatchContext> ctx,
                      const SimOptions &opts);

    std::shared_ptr<const match::MatchContext> ctx_;
    match::MatchEngine engine_;
    ActivityObserver activity_;
};

} // namespace ca

#endif // CA_SIM_ENGINE_H
