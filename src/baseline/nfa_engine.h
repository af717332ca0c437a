/**
 * @file
 * CPU (compute-centric) NFA engine: the one CPU reference.
 *
 * A frontier-based interpreter in the style of VASim: only enabled states
 * are visited each cycle, which is the best a conventional CPU can do on a
 * homogeneous NFA. It reads the Nfa directly (no flattened tables, no
 * mapping, no kernels), so it shares no code with the engines it checks.
 * It serves two roles here:
 *   1. the paper's x86 baseline class of engines (§6, compute-centric), and
 *   2. the functional oracle every execution engine — the simulator,
 *      MatchEngine, ParallelMatcher and the serving paths — is checked
 *      against (same report stream, byte for byte, scores included).
 *
 * Each enabled state carries the semiring sum of the scores of all paths
 * reaching it (docs/SCORING.md). On an unweighted automaton every weight
 * is 0, so every score is 0.
 */
#ifndef CA_BASELINE_NFA_ENGINE_H
#define CA_BASELINE_NFA_ENGINE_H

#include <cstdint>
#include <vector>

#include "nfa/nfa.h"
#include "score/semiring.h"

namespace ca {

/** One pattern-match event. */
struct Report
{
    uint64_t offset = 0;   ///< Input offset of the activating symbol.
    uint32_t reportId = 0; ///< The pattern/rule id.
    StateId state = 0;     ///< The reporting state.
    /**
     * Accumulated path score (semiring sum over all paths reaching the
     * reporting state at this offset). Always 0 for unweighted automata,
     * so scored and boolean reports compare equal on the same ruleset.
     */
    int64_t score = 0;

    bool operator==(const Report &o) const = default;
    bool
    operator<(const Report &o) const
    {
        if (offset != o.offset)
            return offset < o.offset;
        if (reportId != o.reportId)
            return reportId < o.reportId;
        return state < o.state;
    }
};

/** Frontier-based homogeneous-NFA interpreter tracking per-state scores. */
class NfaEngine
{
  public:
    explicit NfaEngine(const Nfa &nfa,
                       ScoreSemiring semiring = ScoreSemiring::MaxPlus);

    /** Rewinds to offset 0 (start states enabled at their startWeight). */
    void reset();

    /**
     * Consumes one symbol; matching enabled states activate, reports fire
     * with the activating state's score, and successors become enabled
     * for the next symbol.
     */
    void step(uint8_t symbol);

    /** Runs a whole buffer from a fresh reset. */
    std::vector<Report> run(const uint8_t *data, size_t size);

    std::vector<Report> run(const std::vector<uint8_t> &input)
    {
        return run(input.data(), input.size());
    }

    /** Reports accumulated since the last reset. */
    const std::vector<Report> &reports() const { return reports_; }

    /** The live frontier, sorted ascending. */
    std::vector<StateId> frontier() const;

    /** Score of an enabled state (meaningless when not enabled). */
    Score stateScore(StateId s) const { return score_[s]; }

  private:
    const Nfa &nfa_;
    ScoreSemiring semiring_;
    std::vector<StateId> all_input_starts_;

    std::vector<StateId> enabled_; ///< Frontier for the next symbol.
    std::vector<char> enabled_flags_;
    std::vector<Score> score_; ///< Per-state score, valid where enabled.
    std::vector<StateId> next_enabled_;
    std::vector<char> next_flags_;
    std::vector<Score> next_score_;
    std::vector<StateId> report_scratch_; ///< Reporting states, per cycle.
    std::vector<Report> reports_;
    uint64_t offset_ = 0;
};

} // namespace ca

#endif // CA_BASELINE_NFA_ENGINE_H
