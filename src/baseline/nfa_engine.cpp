#include "baseline/nfa_engine.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace ca {

NfaEngine::NfaEngine(const Nfa &nfa, ScoreSemiring semiring)
    : nfa_(nfa), semiring_(semiring)
{
    const size_t n = nfa.numStates();
    enabled_flags_.assign(n, 0);
    next_flags_.assign(n, 0);
    score_.assign(n, 0);
    next_score_.assign(n, 0);
    for (StateId s = 0; s < n; ++s)
        if (nfa.state(s).start == StartType::AllInput)
            all_input_starts_.push_back(s);
    reset();
}

void
NfaEngine::reset()
{
    for (StateId s : enabled_)
        enabled_flags_[s] = 0;
    enabled_.clear();
    for (StateId s = 0; s < nfa_.numStates(); ++s) {
        const NfaState &st = nfa_.state(s);
        if (st.start != StartType::None) {
            enabled_flags_[s] = 1;
            score_[s] = st.startWeight;
            enabled_.push_back(s);
        }
    }
    reports_.clear();
    offset_ = 0;
}

void
NfaEngine::step(uint8_t symbol)
{
    // State-match phase: enabled states whose label contains the symbol
    // activate. State-transition phase, fused with it: each out-edge of
    // an active state extends its score by the edge weight, and
    // alternatives into one target combine under ⊕.
    report_scratch_.clear();
    next_enabled_.clear();
    for (StateId s : enabled_) {
        const NfaState &st = nfa_.state(s);
        if (!st.label.test(symbol))
            continue;
        if (st.report)
            report_scratch_.push_back(s);
        for (size_t k = 0; k < st.out.size(); ++k) {
            StateId t = st.out[k];
            Score cand = score_[s] + static_cast<Score>(nfa_.edgeWeight(s, k));
            if (!next_flags_[t]) {
                next_flags_[t] = 1;
                next_score_[t] = cand;
                next_enabled_.push_back(t);
            } else {
                next_score_[t] = scoreCombine(semiring_, next_score_[t], cand);
            }
        }
    }
    // Canonical within-cycle report order: ascending state id (shared
    // with every execution engine, which must produce a bit-identical
    // stream).
    std::sort(report_scratch_.begin(), report_scratch_.end());
    for (StateId s : report_scratch_)
        reports_.push_back(
            Report{offset_, nfa_.state(s).reportId, s, score_[s]});

    // AllInput starts re-enable every cycle at their start weight (a
    // fresh local alignment can begin at any offset); an incoming path
    // competes with the restart under ⊕.
    for (StateId s : all_input_starts_) {
        Score w = nfa_.state(s).startWeight;
        if (!next_flags_[s]) {
            next_flags_[s] = 1;
            next_score_[s] = w;
            next_enabled_.push_back(s);
        } else {
            next_score_[s] = scoreCombine(semiring_, next_score_[s], w);
        }
    }

    // Only the bits set last cycle are cleared (a full clear would be
    // O(|Q|)); the cleared mask becomes the next cycle's scratch.
    for (StateId s : enabled_)
        enabled_flags_[s] = 0;
    enabled_.swap(next_enabled_);
    enabled_flags_.swap(next_flags_);
    score_.swap(next_score_);
    ++offset_;
}

std::vector<Report>
NfaEngine::run(const uint8_t *data, size_t size)
{
    CA_TRACE_SCOPE("ca.baseline.nfa_run");
    reset();
    for (size_t i = 0; i < size; ++i)
        step(data[i]);
    CA_COUNTER_ADD("ca.baseline.nfa_symbols", size);
    CA_COUNTER_ADD("ca.baseline.nfa_reports", reports_.size());
    return reports_;
}

std::vector<StateId>
NfaEngine::frontier() const
{
    std::vector<StateId> out = enabled_;
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace ca
