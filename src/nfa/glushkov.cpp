#include "nfa/glushkov.h"

#include <algorithm>
#include <unordered_map>

#include "core/error.h"
#include "nfa/regex_parser.h"
#include "telemetry/telemetry.h"

namespace ca {

namespace {

/** Sorted-vector set union used for first/last/follow sets. */
std::vector<uint32_t>
setUnion(const std::vector<uint32_t> &a, const std::vector<uint32_t> &b)
{
    std::vector<uint32_t> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
}

/**
 * Structurally expands Repeat nodes so the remaining tree uses only
 * Empty/Class/Concat/Alt/Star/Plus/Opt.
 *
 *   e{m}    = e · e · ... (m copies);   e{0} = ()
 *   e{m,}   = e^(m-1) · e+            ; e{0,} = e*
 *   e{m,n}  = e^m · (e?)^(n-m)
 */
RegexNodePtr
expandRepeats(const RegexNode &node)
{
    if (node.op == RegexOp::Repeat) {
        RegexNodePtr body = expandRepeats(*node.children[0]);
        int min = node.repeatMin;
        int max = node.repeatMax;
        std::vector<RegexNodePtr> parts;
        if (max == RegexNode::kUnbounded) {
            if (min == 0)
                return RegexNode::star(std::move(body));
            for (int i = 0; i < min - 1; ++i)
                parts.push_back(body->clone());
            parts.push_back(RegexNode::plus(std::move(body)));
        } else {
            for (int i = 0; i < min; ++i)
                parts.push_back(body->clone());
            for (int i = min; i < max; ++i)
                parts.push_back(RegexNode::opt(body->clone()));
            if (parts.empty())
                return RegexNode::empty();
        }
        return RegexNode::concat(std::move(parts));
    }

    auto n = std::make_unique<RegexNode>();
    n->op = node.op;
    n->cls = node.cls;
    n->children.reserve(node.children.size());
    for (const auto &c : node.children)
        n->children.push_back(expandRepeats(*c));
    return n;
}

/** Per-subtree Glushkov attributes. */
struct GInfo
{
    bool nullable = false;
    std::vector<uint32_t> first;
    std::vector<uint32_t> last;
};

class GlushkovBuilder
{
  public:
    explicit GlushkovBuilder(size_t max_positions)
        : max_positions_(max_positions)
    {
    }

    GInfo
    run(const RegexNode &node)
    {
        return visit(node);
    }

    const std::vector<SymbolSet> &labels() const { return position_labels_; }
    const std::vector<std::vector<uint32_t>> &follow() const
    {
        return follow_;
    }

  private:
    GInfo
    visit(const RegexNode &node)
    {
        switch (node.op) {
          case RegexOp::Empty: {
            GInfo g;
            g.nullable = true;
            return g;
          }
          case RegexOp::Class: {
            CA_FATAL_IF(position_labels_.size() >= max_positions_,
                        "pattern exceeds position limit "
                            << max_positions_);
            uint32_t p = static_cast<uint32_t>(position_labels_.size());
            position_labels_.push_back(node.cls);
            follow_.emplace_back();
            GInfo g;
            g.nullable = false;
            g.first = {p};
            g.last = {p};
            return g;
          }
          case RegexOp::Concat: {
            GInfo acc;
            acc.nullable = true;
            for (const auto &child : node.children) {
                GInfo c = visit(*child);
                // Every position that can end the prefix is followed by
                // every position that can start this child.
                for (uint32_t p : acc.last)
                    follow_[p] = setUnion(follow_[p], c.first);
                if (acc.nullable)
                    acc.first = setUnion(acc.first, c.first);
                acc.last = c.nullable ? setUnion(acc.last, c.last)
                                      : std::move(c.last);
                acc.nullable = acc.nullable && c.nullable;
            }
            return acc;
          }
          case RegexOp::Alt: {
            GInfo acc;
            acc.nullable = false;
            for (const auto &child : node.children) {
                GInfo c = visit(*child);
                acc.nullable = acc.nullable || c.nullable;
                acc.first = setUnion(acc.first, c.first);
                acc.last = setUnion(acc.last, c.last);
            }
            return acc;
          }
          case RegexOp::Star:
          case RegexOp::Plus: {
            GInfo c = visit(*node.children[0]);
            for (uint32_t p : c.last)
                follow_[p] = setUnion(follow_[p], c.first);
            if (node.op == RegexOp::Star)
                c.nullable = true;
            return c;
          }
          case RegexOp::Opt: {
            GInfo c = visit(*node.children[0]);
            c.nullable = true;
            return c;
          }
          case RegexOp::Repeat:
            CA_THROW("Repeat node survived expansion (internal)");
        }
        CA_THROW("unknown regex node kind");
    }

    size_t max_positions_;
    std::vector<SymbolSet> position_labels_;
    std::vector<std::vector<uint32_t>> follow_;
};

} // namespace

Nfa
buildGlushkov(const RegexPattern &pattern, const GlushkovOptions &opts)
{
    CA_FATAL_IF(!pattern.root, "null pattern AST");
    CA_FATAL_IF(pattern.anchoredEnd,
                "'$' end anchors are not expressible in homogeneous NFAs; "
                "pattern /" << pattern.source << "/");

    RegexNodePtr expanded = expandRepeats(*pattern.root);
    size_t est = expanded->countPositions();
    CA_FATAL_IF(est > opts.maxPositions,
                "pattern /" << pattern.source << "/ expands to " << est
                            << " positions (limit " << opts.maxPositions
                            << ")");

    GlushkovBuilder builder(opts.maxPositions);
    GInfo root = builder.run(*expanded);

    CA_FATAL_IF(root.nullable,
                "pattern /" << pattern.source
                            << "/ matches the empty string; homogeneous "
                               "automata cannot report empty matches");

    Nfa nfa;
    StartType start_type = pattern.anchoredStart ? StartType::StartOfData
                                                 : StartType::AllInput;

    // ASCII case closure for case-insensitive rulesets.
    auto caseFold = [&](SymbolSet set) {
        if (!opts.caseInsensitive)
            return set;
        for (int c = 'a'; c <= 'z'; ++c) {
            if (set.test(static_cast<uint8_t>(c)))
                set.set(static_cast<uint8_t>(c - 'a' + 'A'));
            if (set.test(static_cast<uint8_t>(c - 'a' + 'A')))
                set.set(static_cast<uint8_t>(c));
        }
        return set;
    };

    std::vector<char> is_first(builder.labels().size(), 0);
    for (uint32_t p : root.first)
        is_first[p] = 1;
    std::vector<char> is_last(builder.labels().size(), 0);
    for (uint32_t p : root.last)
        is_last[p] = 1;

    for (uint32_t p = 0; p < builder.labels().size(); ++p) {
        // Non-reporting states carry reportId 0 so structurally equal
        // states from different rules can merge in the space pipeline.
        nfa.addState(caseFold(builder.labels()[p]),
                     is_first[p] ? start_type : StartType::None,
                     is_last[p] != 0, is_last[p] ? opts.reportId : 0);
    }
    for (uint32_t p = 0; p < builder.labels().size(); ++p)
        for (uint32_t q : builder.follow()[p])
            nfa.addTransition(p, q);

    nfa.dedupeEdges();
    return nfa;
}

Nfa
compileRuleset(const std::vector<std::string> &patterns,
               size_t max_positions, bool case_insensitive)
{
    CA_TRACE_SCOPE("ca.nfa.compile_ruleset");
    Nfa combined;
    for (size_t i = 0; i < patterns.size(); ++i) {
        RegexPattern pat = parseRegex(patterns[i]);
        GlushkovOptions opts;
        opts.reportId = static_cast<uint32_t>(i);
        opts.maxPositions = max_positions;
        opts.caseInsensitive = case_insensitive;
        Nfa fragment = buildGlushkov(pat, opts);
        combined.merge(fragment);
    }
    CA_COUNTER_ADD("ca.nfa.rulesets_compiled", 1);
    CA_COUNTER_ADD("ca.nfa.patterns_compiled", patterns.size());
    CA_COUNTER_ADD("ca.nfa.states_built", combined.numStates());
    return combined;
}

} // namespace ca
