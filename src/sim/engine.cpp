#include "sim/engine.h"

#include <algorithm>
#include <bit>

#include "match/kernels.h"
#include "telemetry/telemetry.h"

namespace ca {

namespace {

/**
 * Registry handles for the sim counters, resolved once per process. The
 * hot loop never touches these: feed() flushes chunk-level deltas on
 * exit, so the per-symbol path is identical with telemetry on or off and
 * the disabled path costs one branch per feed() call.
 */
struct SimCounters
{
    telemetry::Counter &symbols;
    telemetry::Counter &activeStates;
    telemetry::Counter &activePartitionCycles;
    telemetry::Counter &g1Crossings;
    telemetry::Counter &g4Crossings;
    telemetry::Counter &reports;
    telemetry::Counter &fifoRefills;
    telemetry::Counter &outputBufferInterrupts;
    telemetry::Counter &kernelSparseSymbols;
    telemetry::Counter &kernelDenseSymbols;
    telemetry::Counter &kernelSwitches;
    telemetry::Histogram &feedSymbols;

    static SimCounters &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::global();
        static SimCounters c{
            reg.counter("ca.sim.symbols"),
            reg.counter("ca.sim.active_states"),
            reg.counter("ca.sim.active_partition_cycles"),
            reg.counter("ca.sim.g1_crossings"),
            reg.counter("ca.sim.g4_crossings"),
            reg.counter("ca.sim.reports"),
            reg.counter("ca.sim.fifo_refills"),
            reg.counter("ca.sim.output_buffer_interrupts"),
            reg.counter("ca.sim.kernel_sparse_symbols"),
            reg.counter("ca.sim.kernel_dense_symbols"),
            reg.counter("ca.sim.kernel_switches"),
            reg.histogram("ca.sim.feed_symbols"),
        };
        return c;
    }
};

/** Bit @p k of a slot mask, as a count. */
uint32_t
maskBit(const std::vector<uint64_t> &mask, uint32_t k)
{
    return static_cast<uint32_t>((mask[k >> 6] >> (k & 63)) & 1);
}

} // namespace

ActivityStats
SimResult::activity() const
{
    ActivityStats a;
    if (symbols == 0)
        return a;
    double n = static_cast<double>(symbols);
    a.avgActivePartitions =
        static_cast<double>(totalActivePartitionCycles) / n;
    a.avgActiveStates = static_cast<double>(totalActiveStates) / n;
    a.avgG1Crossings = static_cast<double>(totalG1Crossings) / n;
    a.avgG4Crossings = static_cast<double>(totalG4Crossings) / n;
    return a;
}

double
SimResult::avgActiveStates() const
{
    return symbols == 0
        ? 0.0
        : static_cast<double>(totalActiveStates) /
            static_cast<double>(symbols);
}

double
SimResult::seconds(double freq_hz) const
{
    return static_cast<double>(cycles) / freq_hz;
}

ActivityObserver::ActivityObserver(const match::MatchContext &ctx,
                                   const SimOptions &opts)
    : fifo_refill_(static_cast<uint64_t>(opts.fifoRefillSymbols)),
      output_depth_(
          static_cast<uint64_t>(std::max(opts.outputBufferDepth, 1))),
      record_trace_(opts.recordTrace)
{
    const MappedAutomaton &mapped = ctx.mapped();
    const size_t words = (ctx.numSlots() + 63) / 64;
    partition_of_.assign(ctx.numSlots(), 0);
    for (StateId s = 0; s < ctx.numStates(); ++s)
        partition_of_[ctx.slot(s)] = mapped.location(s).partition;
    // The G1/G4 source masks: the sparse kernel tests one bit per
    // matched slot, the dense kernel counts a matched word's crossings
    // with one popcount.
    g1_.assign(words, 0);
    g4_.assign(words, 0);
    for (const CrossEdge &e : mapped.crossEdges()) {
        const uint32_t k = ctx.slot(e.from);
        (e.viaG4 ? g4_ : g1_)[k >> 6] |= uint64_t{1} << (k & 63);
    }
    partition_epoch_.assign(mapped.numPartitions(), ~0ull);

    fixed_partition_.assign(mapped.numPartitions(), 0);
    for (StateId s : ctx.fixedStarts()) {
        const uint32_t k = ctx.slot(s);
        ++fixed_states_;
        fixed_partition_[partition_of_[k]] = 1;
        const SymbolSet &label = mapped.nfa().state(s).label;
        for (int c = 0; c < 256; ++c) {
            if (!label.test(static_cast<uint8_t>(c)))
                continue;
            ++fixed_matched_[c];
            fixed_g1_[c] += maskBit(g1_, k);
            fixed_g4_[c] += maskBit(g4_, k);
        }
    }
    for (uint8_t f : fixed_partition_)
        fixed_partitions_ += f;
}

void
ActivityObserver::reset()
{
    pending_reports_ = 0;
    last_kernel_ = -1;
    acc_ = SimResult{};
}

void
ActivityObserver::block(bool dense, size_t symbols)
{
    const int kernel_id = dense ? 1 : 0;
    if (last_kernel_ >= 0 && last_kernel_ != kernel_id)
        ++acc_.kernelSwitches;
    last_kernel_ = kernel_id;
    (dense ? acc_.denseKernelSymbols : acc_.sparseKernelSymbols) += symbols;
}

void
ActivityObserver::skip(uint64_t offset, size_t symbols)
{
    // Every skipped cycle is an idle one: no partition, state, crossing
    // or report — but the FIFO still refills on its absolute cadence.
    const uint64_t end = offset + symbols;
    acc_.fifoRefills += (end + fifo_refill_ - 1) / fifo_refill_ -
        (offset + fifo_refill_ - 1) / fifo_refill_;
    acc_.symbols += symbols;
    if (record_trace_)
        acc_.trace.resize(acc_.trace.size() + symbols);
}

void
ActivityObserver::fixedStarts(uint8_t c)
{
    // Every partition holding a fixed start is active this cycle; the
    // frontier hooks then count only the other partitions.
    fixed_cycle_ = true;
    acc_.totalEnabledStates += fixed_states_;
    cycle_partitions_ += fixed_partitions_;
    cycle_active_ += fixed_matched_[c];
    cycle_g1_ += fixed_g1_[c];
    cycle_g4_ += fixed_g4_[c];
}

void
ActivityObserver::sparseFrontier(const std::vector<uint32_t> &slots)
{
    acc_.totalEnabledStates += slots.size();
    // A partition is active (performs an array read + L-switch access)
    // when its active-state vector has any bit set (§5.3).
    const uint64_t epoch = ++epoch_counter_;
    for (uint32_t k : slots) {
        uint32_t p = partition_of_[k];
        if (fixed_cycle_ && fixed_partition_[p])
            continue;
        if (partition_epoch_[p] != epoch) {
            partition_epoch_[p] = epoch;
            ++cycle_partitions_;
        }
    }
}

void
ActivityObserver::sparseMatch(uint32_t k)
{
    ++cycle_active_;
    cycle_g1_ += maskBit(g1_, k);
    cycle_g4_ += maskBit(g4_, k);
}

void
ActivityObserver::densePartition(uint32_t p, uint64_t e0, uint64_t e1,
                                 uint64_t e2, uint64_t e3)
{
    if (!(fixed_cycle_ && fixed_partition_[p]))
        ++cycle_partitions_;
    acc_.totalEnabledStates += static_cast<uint64_t>(
        std::popcount(e0) + std::popcount(e1) + std::popcount(e2) +
        std::popcount(e3));
}

void
ActivityObserver::denseMatch(size_t word, uint64_t matched)
{
    cycle_active_ += static_cast<uint32_t>(std::popcount(matched));
    cycle_g1_ += static_cast<uint32_t>(std::popcount(matched & g1_[word]));
    cycle_g4_ += static_cast<uint32_t>(std::popcount(matched & g4_[word]));
}

void
ActivityObserver::symbolEnd(uint64_t offset, size_t fired)
{
    // FIFO refill accounting: one cache-block read per refill batch
    // (aligned to the absolute stream offset).
    if (offset % fifo_refill_ == 0)
        ++acc_.fifoRefills;
    acc_.totalActivePartitionCycles += cycle_partitions_;
    acc_.totalActiveStates += cycle_active_;
    acc_.totalG1Crossings += cycle_g1_;
    acc_.totalG4Crossings += cycle_g4_;

    // §2.8 output buffer: an interrupt drains outputBufferDepth entries;
    // overshoot past the threshold (several states reporting in one
    // cycle) carries into the next buffer instead of being discarded,
    // so interrupt counts stay exact.
    pending_reports_ += fired;
    while (pending_reports_ >= output_depth_) {
        ++acc_.outputBufferInterrupts;
        pending_reports_ -= output_depth_;
    }

    if (record_trace_) {
        acc_.trace.push_back(CycleTrace{cycle_partitions_, cycle_active_,
                                        cycle_g1_, cycle_g4_,
                                        static_cast<uint32_t>(fired)});
    }
    cycle_partitions_ = cycle_active_ = cycle_g1_ = cycle_g4_ = 0;
    fixed_cycle_ = false;
    ++acc_.symbols;
}

namespace {

/** The engine's options: the sim's, with $CA_SIM_KERNEL applied. */
match::MatchOptions
engineOptions(const SimOptions &opts)
{
    match::MatchOptions out = opts;
    if (std::optional<SimKernel> env = simKernelEnvOverride())
        out.kernel = *env;
    return out;
}

} // namespace

CacheAutomatonSim::CacheAutomatonSim(const MappedAutomaton &mapped,
                                     const SimOptions &opts)
    : CacheAutomatonSim(std::make_shared<const match::MatchContext>(mapped),
                        opts)
{
}

CacheAutomatonSim::CacheAutomatonSim(
    std::shared_ptr<const MappedAutomaton> mapped, const SimOptions &opts)
    : CacheAutomatonSim(
          std::make_shared<const match::MatchContext>(std::move(mapped)),
          opts)
{
}

CacheAutomatonSim::CacheAutomatonSim(
    std::shared_ptr<const match::MatchContext> ctx, const SimOptions &opts)
    : ctx_(std::move(ctx)), engine_(ctx_, engineOptions(opts)),
      activity_(*ctx_, opts)
{
    engine_.setCollectReports(opts.collectReports);
}

void
CacheAutomatonSim::reset()
{
    engine_.reset();
    activity_.reset();
}

void
CacheAutomatonSim::restore(const SimCheckpoint &ckpt)
{
    engine_.restore(ckpt);
    activity_.reset();
}

void
CacheAutomatonSim::feed(const uint8_t *data, size_t size)
{
    SimResult &acc = activity_.result();
    const bool telemetry_on = telemetry::enabled();
    struct
    {
        uint64_t symbols, activeStates, activePartitionCycles, g1, g4,
            reports, fifoRefills, obInterrupts, sparseSyms, denseSyms,
            kernelSwitches;
    } before = {};
    if (telemetry_on) {
        before = {acc.symbols, acc.totalActiveStates,
                  acc.totalActivePartitionCycles, acc.totalG1Crossings,
                  acc.totalG4Crossings, acc.reports.size(),
                  acc.fifoRefills, acc.outputBufferInterrupts,
                  acc.sparseKernelSymbols, acc.denseKernelSymbols,
                  acc.kernelSwitches};
    }
    engine_.feed(data, size, activity_);
    std::vector<Report> fired = engine_.takeReports();
    if (acc.reports.empty())
        acc.reports = std::move(fired);
    else
        acc.reports.insert(acc.reports.end(), fired.begin(), fired.end());
    if (telemetry_on) {
        SimCounters &c = SimCounters::get();
        c.symbols.add(acc.symbols - before.symbols);
        c.activeStates.add(acc.totalActiveStates - before.activeStates);
        c.activePartitionCycles.add(acc.totalActivePartitionCycles -
                                    before.activePartitionCycles);
        c.g1Crossings.add(acc.totalG1Crossings - before.g1);
        c.g4Crossings.add(acc.totalG4Crossings - before.g4);
        c.reports.add(acc.reports.size() - before.reports);
        c.fifoRefills.add(acc.fifoRefills - before.fifoRefills);
        c.outputBufferInterrupts.add(acc.outputBufferInterrupts -
                                     before.obInterrupts);
        c.kernelSparseSymbols.add(acc.sparseKernelSymbols -
                                  before.sparseSyms);
        c.kernelDenseSymbols.add(acc.denseKernelSymbols -
                                 before.denseSyms);
        c.kernelSwitches.add(acc.kernelSwitches - before.kernelSwitches);
        c.feedSymbols.observe(size);
    }
}

SimResult
CacheAutomatonSim::result() const
{
    SimResult out = activity_.result();
    // 3-stage pipeline: the last symbol completes 2 cycles after issue.
    out.cycles = out.symbols == 0 ? 0 : out.symbols + 2;
    return out;
}

SimResult
CacheAutomatonSim::run(const uint8_t *data, size_t size)
{
    CA_TRACE_SCOPE("ca.sim.run");
    reset();
    feed(data, size);
    return result();
}

SimResult
CacheAutomatonSim::run(const uint8_t *data, size_t size,
                       const SimOptions &opts)
{
    CacheAutomatonSim oneoff(ctx_, opts);
    return oneoff.run(data, size);
}

std::vector<Report>
CacheAutomatonSim::takeReports()
{
    std::vector<Report> out = std::move(activity_.result().reports);
    activity_.result().reports.clear();
    return out;
}

} // namespace ca
