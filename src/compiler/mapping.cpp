#include "compiler/mapping.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/error.h"
#include "core/logging.h"
#include "nfa/analysis.h"
#include "nfa/transform.h"
#include "partition/graph.h"
#include "partition/partitioner.h"
#include "telemetry/telemetry.h"

namespace ca {

MappedAutomaton::MappedAutomaton(Nfa nfa, Design design)
    : nfa_(std::move(nfa)), design_(std::move(design))
{
}

MappedAutomaton
MappedAutomaton::fromParts(Nfa nfa, Design design,
                           std::vector<SteLocation> locations,
                           std::vector<PartitionInfo> partitions,
                           std::vector<CrossEdge> cross_edges,
                           MappingStats stats)
{
    nfa.validate();

    const size_t n = nfa.numStates();
    CA_FATAL_IF(locations.size() != n,
                "mapped-automaton parts: " << locations.size()
                    << " locations for " << n << " states");
    CA_FATAL_IF(n > 0 && partitions.empty(),
                "mapped-automaton parts: states but no partitions");

    // Placement consistency: the location table and the partition slot
    // lists must be exact inverses, within the design's slot bounds.
    std::vector<uint8_t> placed(n, 0);
    for (size_t p = 0; p < partitions.size(); ++p) {
        const PartitionInfo &info = partitions[p];
        CA_FATAL_IF(info.states.size() >
                        static_cast<size_t>(design.partitionStes),
                    "mapped-automaton parts: partition " << p << " holds "
                        << info.states.size() << " states, design allows "
                        << design.partitionStes);
        for (size_t slot = 0; slot < info.states.size(); ++slot) {
            StateId sid = info.states[slot];
            CA_FATAL_IF(sid >= n, "mapped-automaton parts: partition "
                                      << p << " references state " << sid);
            CA_FATAL_IF(placed[sid],
                        "mapped-automaton parts: state " << sid
                            << " placed twice");
            placed[sid] = 1;
            const SteLocation &loc = locations[sid];
            CA_FATAL_IF(loc.partition != p || loc.slot != slot,
                        "mapped-automaton parts: location of state "
                            << sid << " (" << loc.partition << ","
                            << loc.slot << ") disagrees with partition "
                            << p << " slot " << slot);
        }
    }
    for (StateId s = 0; s < n; ++s)
        CA_FATAL_IF(!placed[s],
                    "mapped-automaton parts: state " << s << " unplaced");

    // Cross-edge consistency: the cross list must be exactly the set of
    // NFA edges whose endpoints land in different partitions.
    std::unordered_set<uint64_t> cross_set;
    cross_set.reserve(cross_edges.size() * 2);
    for (const CrossEdge &e : cross_edges) {
        CA_FATAL_IF(e.from >= n || e.to >= n,
                    "mapped-automaton parts: cross edge state out of range");
        CA_FATAL_IF(locations[e.from].partition ==
                        locations[e.to].partition,
                    "mapped-automaton parts: cross edge " << e.from << "->"
                        << e.to << " is intra-partition");
        uint64_t key = (static_cast<uint64_t>(e.from) << 32) | e.to;
        CA_FATAL_IF(!cross_set.insert(key).second,
                    "mapped-automaton parts: duplicate cross edge "
                        << e.from << "->" << e.to);
    }
    size_t expected_cross = 0;
    for (StateId s = 0; s < n; ++s) {
        for (StateId t : nfa.state(s).out) {
            if (locations[s].partition == locations[t].partition)
                continue;
            ++expected_cross;
            uint64_t key = (static_cast<uint64_t>(s) << 32) | t;
            CA_FATAL_IF(!cross_set.count(key),
                        "mapped-automaton parts: NFA edge " << s << "->"
                            << t << " crosses partitions but is missing "
                               "from the cross-edge list");
        }
    }
    CA_FATAL_IF(expected_cross != cross_edges.size(),
                "mapped-automaton parts: " << cross_edges.size()
                    << " cross edges listed, NFA has " << expected_cross);

    MappedAutomaton mapped(std::move(nfa), std::move(design));
    mapped.location_ = std::move(locations);
    mapped.partitions_ = std::move(partitions);
    mapped.cross_edges_ = std::move(cross_edges);
    mapped.stats_ = stats;
    return mapped;
}

namespace {

/**
 * Counts wire-budget violations of a tentative component split: for each
 * chunk, the distinct source states of outgoing cross-chunk edges and the
 * distinct remote sources of incoming edges must fit the G-switch wire
 * budget (checked against the tighter G1 bound since chunks of one
 * component are co-located within a way whenever possible).
 */
size_t
splitWireViolations(const Nfa &nfa, const std::vector<StateId> &members,
                    const std::vector<int32_t> &part, int wire_budget)
{
    std::unordered_map<StateId, int32_t> chunk_of;
    chunk_of.reserve(members.size() * 2);
    for (size_t i = 0; i < members.size(); ++i)
        chunk_of[members[i]] = part[i];

    int32_t k = 0;
    for (int32_t p : part)
        k = std::max(k, p + 1);
    std::vector<std::unordered_set<StateId>> out_src(k);
    std::vector<std::unordered_set<StateId>> in_src(k);
    for (size_t i = 0; i < members.size(); ++i) {
        StateId s = members[i];
        for (StateId t : nfa.state(s).out) {
            auto it = chunk_of.find(t);
            if (it == chunk_of.end() || it->second == part[i])
                continue;
            out_src[part[i]].insert(s);
            in_src[it->second].insert(s);
        }
    }
    size_t violations = 0;
    for (int32_t c = 0; c < k; ++c) {
        if (static_cast<int>(out_src[c].size()) > wire_budget)
            violations += out_src[c].size() - wire_budget;
        if (static_cast<int>(in_src[c].size()) > wire_budget)
            violations += in_src[c].size() - wire_budget;
    }
    return violations;
}

/**
 * Splits an oversized connected component into capacity-bounded chunks
 * with the multilevel partitioner. Attempts several part counts and seeds
 * and keeps the first wire-feasible split (else the least-violating one).
 *
 * @return per-part state-id lists (global NFA ids).
 */
std::vector<std::vector<StateId>>
splitComponent(const Nfa &nfa, const std::vector<StateId> &members,
               int capacity, int wire_budget, const MapperOptions &opts)
{
    Graph g = Graph::fromNfaComponent(nfa, members);
    // Start at the densest feasible part count; the FM pass doubles as a
    // balance-repair pass, so exact fills usually succeed, and the retry
    // loop escalates k when they do not.
    int32_t k = static_cast<int32_t>(
        (members.size() + capacity - 1) / capacity);

    std::vector<int32_t> best_part;
    size_t best_viol = ~size_t{0};

    for (int attempt = 0; attempt <= opts.maxPartitionRetries; ++attempt) {
        PartitionOptions popts;
        // Late attempts shrink the chunk capacity: smaller chunks carry
        // fewer boundary sources each, trading space for wire feasibility.
        popts.partCapacity = attempt >= 10 ? capacity * 3 / 4 : capacity;
        popts.imbalance = 0.05;
        popts.seed = opts.seed + static_cast<uint64_t>(attempt) * 7919;
        // First try peeling capacity-full chunks (densest packing), then
        // fall back to balanced splits with escalating k and fresh seeds.
        popts.peelToCapacity = attempt < 2;
        int32_t k_try = attempt < 2 ? k : k + (attempt - 2) / 2;
        if (attempt >= 10)
            k_try = static_cast<int32_t>(
                (members.size() + popts.partCapacity - 1) /
                popts.partCapacity) + (attempt - 10) / 2;
        if (attempt % 2 == 1)
            popts.seed ^= 0xD1CEB00Cull;
        try {
            PartitionResult res = partitionGraph(g, k_try, popts);
            size_t viol = splitWireViolations(nfa, members, res.part,
                                              wire_budget);
            if (viol < best_viol) {
                best_viol = viol;
                best_part = res.part;
            }
            if (viol == 0)
                break;
            CA_DEBUG("split attempt k=" << k_try << " has " << viol
                                        << " wire violations; retrying");
        } catch (const CaError &e) {
            CA_DEBUG("k-way split attempt k=" << k_try
                                              << " failed: " << e.what());
        }
    }
    CA_FATAL_IF(best_part.empty(),
                "unable to split component of "
                    << members.size() << " states into parts of "
                    << capacity << " after " << opts.maxPartitionRetries
                    << " retries");

    int32_t parts_n = 0;
    for (int32_t p : best_part)
        parts_n = std::max(parts_n, p + 1);
    std::vector<std::vector<StateId>> parts(parts_n);
    for (size_t v = 0; v < members.size(); ++v)
        parts[best_part[v]].push_back(members[v]);
    parts.erase(std::remove_if(parts.begin(), parts.end(),
                               [](const auto &p) { return p.empty(); }),
                parts.end());
    return parts;
}

} // namespace

namespace detail {

MappedAutomaton
mapNfaOnce(const Nfa &input, const Design &design, const MapperOptions &opts)
{
    CA_TRACE_SCOPE("ca.compiler.map_attempt");
    Nfa nfa = input; // the compiler owns a mutable copy
    if (opts.optimizeSpace) {
        TransformStats ts = optimizeForSpace(nfa);
        CA_INFO("space pipeline: " << ts.statesBefore << " -> "
                                   << ts.statesAfter << " states");
    }

    MappedAutomaton mapped(std::move(nfa), design);
    const Nfa &a = mapped.nfa();
    const int capacity = design.partitionStes;

    ComponentInfo cc = connectedComponents(a);
    mapped.stats_.states = a.numStates();
    mapped.stats_.connectedComponents = cc.numComponents();
    mapped.stats_.largestComponent = cc.largestSize();

    // ---- Step 1 & 2: form partition-sized state groups. -------------------
    // Small CCs sorted ascending (the paper packs smallest-first); each
    // oversized CC contributes the chunks the graph partitioner produces.
    std::vector<std::vector<StateId>> groups;  // atomic units <= capacity
    std::vector<size_t> group_cc;              // owning CC per group
    std::vector<uint32_t> order(cc.numComponents());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return cc.members[x].size() < cc.members[y].size();
    });

    for (uint32_t ci : order) {
        const auto &members = cc.members[ci];
        if (members.size() <= static_cast<size_t>(capacity)) {
            groups.push_back(members);
            group_cc.push_back(ci);
        } else {
            // Effective per-partition wire capacity: G1 wires plus the
            // share of G4 wires the classifier can use for overflow
            // (cross-way traffic needs the other half).
            int wire_budget = design.g1WiresPerPartition +
                design.g4WiresPerPartition / 2;
            auto parts = splitComponent(a, members, capacity, wire_budget,
                                        opts);
            for (auto &p : parts) {
                groups.push_back(std::move(p));
                group_cc.push_back(ci);
            }
        }
    }

    // ---- Greedy packing of groups into partitions. -------------------------
    // Groups from the same (split) CC stay in their own partitions so the
    // partitioner's cut structure is preserved; small-CC groups are packed
    // first-fit into partially filled partitions.
    struct Bin
    {
        std::vector<StateId> states;
        std::set<size_t> ccs;
    };
    std::vector<Bin> bins;
    std::vector<size_t> cc_chunks(cc.numComponents(), 0);
    for (size_t gi = 0; gi < groups.size(); ++gi)
        ++cc_chunks[group_cc[gi]];

    // Per-group wire demand (sources leaving / entering the group within
    // its component): needed to co-locate chunks without exceeding the
    // partition's G-switch wires.
    std::vector<int> grp_out(groups.size(), 0);
    std::vector<int> grp_in(groups.size(), 0);
    {
        std::vector<uint32_t> group_of(a.numStates(), ~uint32_t{0});
        for (size_t gi = 0; gi < groups.size(); ++gi)
            for (StateId st : groups[gi])
                group_of[st] = static_cast<uint32_t>(gi);
        std::vector<std::unordered_set<StateId>> outs(groups.size());
        std::vector<std::unordered_set<StateId>> ins(groups.size());
        for (StateId st = 0; st < a.numStates(); ++st) {
            for (StateId t : a.state(st).out) {
                if (group_of[st] != group_of[t]) {
                    outs[group_of[st]].insert(st);
                    ins[group_of[t]].insert(st);
                }
            }
        }
        for (size_t gi = 0; gi < groups.size(); ++gi) {
            grp_out[gi] = static_cast<int>(outs[gi].size());
            grp_in[gi] = static_cast<int>(ins[gi].size());
        }
    }

    // Best-fit packing. Chunks of *different* split components may share a
    // partition when states and wire budgets allow (they have no edges to
    // each other), which reclaims the partitioner's rounding slack; the
    // performance design keeps chunks exclusive so each split component's
    // cluster stays small enough for one way. Chunks of the same component
    // never share (the partitioner already decided that cut).
    const bool share_chunks = design.gSwitch4.has_value();
    struct BinUsage
    {
        int outW = 0;
        int inW = 0;
    };
    std::vector<BinUsage> usage;
    auto place = [&](size_t gi, bool exclusive) {
        const auto &grp = groups[gi];
        size_t ci = group_cc[gi];
        bool from_split = cc_chunks[ci] > 1;
        int best = -1;
        if (!exclusive) {
            size_t best_free = static_cast<size_t>(capacity) + 1;
            for (size_t b = 0; b < bins.size(); ++b) {
                size_t free = static_cast<size_t>(capacity) -
                    bins[b].states.size();
                if (grp.size() > free || free >= best_free)
                    continue;
                if (from_split && bins[b].ccs.count(ci))
                    continue; // never rejoin chunks of the same component
                if (usage[b].outW + grp_out[gi] >
                        design.g1WiresPerPartition ||
                    usage[b].inW + grp_in[gi] >
                        design.g1WiresPerPartition)
                    continue;
                best_free = free;
                best = static_cast<int>(b);
            }
        }
        if (best == -1) {
            bins.emplace_back();
            usage.emplace_back();
            best = static_cast<int>(bins.size() - 1);
        }
        Bin &bin = bins[best];
        bin.states.insert(bin.states.end(), grp.begin(), grp.end());
        bin.ccs.insert(ci);
        usage[best].outW += grp_out[gi];
        usage[best].inW += grp_in[gi];
    };
    for (size_t gi = 0; gi < groups.size(); ++gi)
        if (cc_chunks[group_cc[gi]] > 1)
            place(gi, /*exclusive=*/!share_chunks);
    for (size_t gi = 0; gi < groups.size(); ++gi)
        if (cc_chunks[group_cc[gi]] == 1)
            place(gi, /*exclusive=*/false);

    // ---- Step 3: placement into ways/slices. -------------------------------
    // Bins holding chunks of the same split component form a *cluster*
    // whose cross edges must ride G-switch-1, i.e. the whole cluster must
    // land in one way (mandatory for CA_P, preferred for CA_S; CA_S
    // clusters larger than a way overflow to adjacent ways via G4).
    CacheGeometry geom(defaultTech(), design.stesPerMatchRead);
    const int partitions_per_way = geom.partitionsPerSubArray() *
        defaultTech().subArraysPerWay;
    const int ways_per_slice = design.waysUsable;

    // Cluster bins by split-CC; bins hosting chunks of several components
    // fuse those components' clusters (union-find), since all their bins
    // should share a way.
    std::vector<size_t> cc_rep(cc.numComponents());
    std::iota(cc_rep.begin(), cc_rep.end(), size_t{0});
    std::function<size_t(size_t)> findRep = [&](size_t x) {
        while (cc_rep[x] != x) {
            cc_rep[x] = cc_rep[cc_rep[x]];
            x = cc_rep[x];
        }
        return x;
    };
    for (const Bin &bin : bins) {
        size_t first = ~size_t{0};
        for (size_t ci : bin.ccs) {
            if (cc_chunks[ci] <= 1)
                continue;
            if (first == ~size_t{0})
                first = findRep(ci);
            else
                cc_rep[findRep(ci)] = first;
        }
    }
    std::unordered_map<size_t, std::vector<int>> cluster_bins;
    std::vector<int> single_bins;
    for (size_t bi = 0; bi < bins.size(); ++bi) {
        size_t split_cc = ~size_t{0};
        for (size_t ci : bins[bi].ccs)
            if (cc_chunks[ci] > 1)
                split_cc = findRep(ci);
        if (split_cc != ~size_t{0})
            cluster_bins[split_cc].push_back(static_cast<int>(bi));
        else
            single_bins.push_back(static_cast<int>(bi));
    }

    // First-fit-decreasing of clusters into ways, then singles fill gaps.
    std::vector<int> way_free; // free partition slots per allocated way
    std::vector<int> global_slot(bins.size(), -1);
    auto newWay = [&]() {
        way_free.push_back(partitions_per_way);
        return static_cast<int>(way_free.size()) - 1;
    };
    auto placeInWay = [&](int way, int bin) {
        int used = partitions_per_way - way_free[way];
        global_slot[bin] = way * partitions_per_way + used;
        --way_free[way];
    };

    std::vector<std::pair<size_t, std::vector<int> *>> clusters;
    for (auto &[cc_id, members] : cluster_bins)
        clusters.emplace_back(members.size(), &members);
    std::sort(clusters.begin(), clusters.end(),
              [](const auto &x, const auto &y) { return x.first > y.first; });

    for (auto &[size_unused, members] : clusters) {
        (void)size_unused;
        int need = static_cast<int>(members->size());
        if (need <= partitions_per_way) {
            int way = -1;
            for (size_t w = 0; w < way_free.size(); ++w) {
                if (way_free[w] >= need) {
                    way = static_cast<int>(w);
                    break;
                }
            }
            if (way == -1)
                way = newWay();
            for (int bin : *members)
                placeInWay(way, bin);
        } else {
            CA_FATAL_IF(!design.gSwitch4,
                        "component cluster of " << need << " partitions "
                        "exceeds one way (" << partitions_per_way
                        << ") and the design has no cross-way G-switch");
            // Meta-partition the cluster's bins into ways, minimizing the
            // number of distinct source STEs that must cross ways (those
            // ride the scarcer G4 wires) — the same hierarchical min-cut
            // idea as the interconnect itself.
            std::unordered_map<int, int> bin_local;
            for (size_t i = 0; i < members->size(); ++i)
                bin_local[(*members)[i]] = static_cast<int>(i);
            std::vector<int> bin_of_state(a.numStates(), -1);
            for (int bin : *members)
                for (StateId st : bins[bin].states)
                    bin_of_state[st] = bin_local[bin];
            std::vector<std::unordered_map<int32_t, int32_t>> w(need);
            for (int bin : *members) {
                int bl = bin_local[bin];
                for (StateId st : bins[bin].states) {
                    for (StateId t : a.state(st).out) {
                        int tl = t < a.numStates() ? bin_of_state[t] : -1;
                        if (tl >= 0 && tl != bl)
                            w[std::min(bl, tl)][std::max(bl, tl)] += 1;
                    }
                }
            }
            Graph meta;
            meta.vwgt.assign(need, 1);
            meta.xadj.assign(need + 1, 0);
            for (int i = 0; i < need; ++i) {
                for (const auto &[j, wt] : w[i]) {
                    (void)wt;
                    ++meta.xadj[i + 1];
                    ++meta.xadj[j + 1];
                }
            }
            for (int i = 0; i < need; ++i)
                meta.xadj[i + 1] += meta.xadj[i];
            meta.adjncy.resize(meta.xadj[need]);
            meta.adjwgt.resize(meta.xadj[need]);
            std::vector<int32_t> cur(meta.xadj.begin(),
                                     meta.xadj.end() - 1);
            for (int i = 0; i < need; ++i) {
                for (const auto &[j, wt] : w[i]) {
                    meta.adjncy[cur[i]] = j;
                    meta.adjwgt[cur[i]] = wt;
                    ++cur[i];
                    meta.adjncy[cur[j]] = i;
                    meta.adjwgt[cur[j]] = wt;
                    ++cur[j];
                }
            }
            int32_t k_ways = (need + partitions_per_way - 1) /
                partitions_per_way;
            PartitionOptions mopts;
            mopts.partCapacity = partitions_per_way;
            mopts.seed = opts.seed ^ 0xA117;
            PartitionResult mres = partitionGraph(meta, k_ways, mopts);
            std::vector<int> part_way(mres.k, -1);
            for (size_t i = 0; i < members->size(); ++i) {
                int32_t mp = mres.part[i];
                if (part_way[mp] == -1)
                    part_way[mp] = newWay();
                placeInWay(part_way[mp], (*members)[i]);
            }
        }
    }
    for (int bin : single_bins) {
        int way = -1;
        for (size_t w = 0; w < way_free.size(); ++w) {
            if (way_free[w] > 0) {
                way = static_cast<int>(w);
                break;
            }
        }
        if (way == -1)
            way = newWay();
        placeInWay(way, bin);
    }

    mapped.partitions_.resize(bins.size());
    mapped.location_.assign(a.numStates(), SteLocation{});
    for (size_t p = 0; p < bins.size(); ++p) {
        PartitionInfo &info = mapped.partitions_[p];
        info.states = std::move(bins[p].states);
        int slot = global_slot[p];
        CA_ASSERT(slot >= 0);
        int global_way = slot / partitions_per_way;
        info.way = global_way % ways_per_slice;
        info.slice = global_way / ways_per_slice;
        info.subArray = (slot % partitions_per_way) /
            geom.partitionsPerSubArray();
        for (size_t si = 0; si < info.states.size(); ++si) {
            mapped.location_[info.states[si]] = SteLocation{
                static_cast<uint32_t>(p), static_cast<uint16_t>(si)};
        }
    }

    // ---- Classify edges and allocate G-switch wires. -----------------------
    // One G1-out wire carries all of a source STE's same-way fan-out; one
    // G4-out wire carries all its cross-way fan-out. Destinations consume
    // one in-wire per (remote source, level). Cross-way traffic must ride
    // G4; same-way traffic prefers G1 but may overflow onto spare G4 wires
    // (the 4/8-way switch also reaches partitions of the same way).
    std::vector<std::unordered_set<StateId>> g1_out(bins.size());
    std::vector<std::unordered_set<StateId>> g4_out(bins.size());
    std::vector<std::unordered_set<uint64_t>> g1_in(bins.size());
    std::vector<std::unordered_set<uint64_t>> g4_in(bins.size());
    size_t wire_shortfalls = 0;

    const int g1_budget = design.g1WiresPerPartition;
    const int g4_budget = design.g4WiresPerPartition;

    // Gather (src, dst-partition) -> edges so each pair binds one wire.
    struct PairDests
    {
        StateId src;
        uint32_t dstPartition;
        bool sameWay;
        std::vector<StateId> dests;
    };
    std::vector<PairDests> pairs;
    {
        std::map<std::pair<StateId, uint32_t>, size_t> pair_index;
        for (StateId s = 0; s < a.numStates(); ++s) {
            const SteLocation &src = mapped.location_[s];
            const PartitionInfo &sp = mapped.partitions_[src.partition];
            for (StateId t : a.state(s).out) {
                const SteLocation &dst = mapped.location_[t];
                if (dst.partition == src.partition) {
                    ++mapped.stats_.intraPartitionEdges;
                    continue;
                }
                const PartitionInfo &dp =
                    mapped.partitions_[dst.partition];
                auto key = std::make_pair(s, dst.partition);
                auto it = pair_index.find(key);
                if (it == pair_index.end()) {
                    pair_index.emplace(key, pairs.size());
                    pairs.push_back(PairDests{
                        s, dst.partition,
                        sp.slice == dp.slice && sp.way == dp.way, {}});
                    it = pair_index.find(key);
                }
                pairs[it->second].dests.push_back(t);
            }
        }
    }

    // Pass 1: cross-way pairs (G4 mandatory). Pass 2: same-way pairs.
    for (int pass = 0; pass < 2; ++pass) {
        for (const PairDests &pd : pairs) {
            if ((pass == 0) != !pd.sameWay)
                continue;
            uint32_t sp = mapped.location_[pd.src].partition;
            uint64_t in_key =
                (static_cast<uint64_t>(pd.src) << 32) | pd.dstPartition;
            bool placed = false;
            if (!pd.sameWay) {
                CA_FATAL_IF(!design.gSwitch4 &&
                                design.kind == DesignKind::Performance,
                            "CA_P mapping produced a cross-way edge from "
                                << pd.src << "; component exceeds one way");
                bool src_ok = g4_out[sp].count(pd.src) ||
                    static_cast<int>(g4_out[sp].size()) < g4_budget;
                bool dst_ok =
                    static_cast<int>(g4_in[pd.dstPartition].size()) <
                    g4_budget;
                if (src_ok && dst_ok) {
                    g4_out[sp].insert(pd.src);
                    g4_in[pd.dstPartition].insert(in_key);
                    placed = true;
                }
                mapped.stats_.g4Edges += pd.dests.size();
                for (StateId t : pd.dests)
                    mapped.cross_edges_.push_back(
                        CrossEdge{pd.src, t, true});
            } else {
                bool g1_src_ok = g1_out[sp].count(pd.src) ||
                    static_cast<int>(g1_out[sp].size()) < g1_budget;
                bool g1_dst_ok =
                    static_cast<int>(g1_in[pd.dstPartition].size()) <
                    g1_budget;
                if (g1_src_ok && g1_dst_ok) {
                    g1_out[sp].insert(pd.src);
                    g1_in[pd.dstPartition].insert(in_key);
                    mapped.stats_.g1Edges += pd.dests.size();
                    for (StateId t : pd.dests)
                        mapped.cross_edges_.push_back(
                            CrossEdge{pd.src, t, false});
                    placed = true;
                } else if (design.gSwitch4) {
                    bool g4_src_ok = g4_out[sp].count(pd.src) ||
                        static_cast<int>(g4_out[sp].size()) < g4_budget;
                    bool g4_dst_ok =
                        static_cast<int>(g4_in[pd.dstPartition].size()) <
                        g4_budget;
                    if (g4_src_ok && g4_dst_ok) {
                        g4_out[sp].insert(pd.src);
                        g4_in[pd.dstPartition].insert(in_key);
                        mapped.stats_.g4Edges += pd.dests.size();
                        for (StateId t : pd.dests)
                            mapped.cross_edges_.push_back(
                                CrossEdge{pd.src, t, true});
                        placed = true;
                    }
                }
                if (!placed) {
                    // Record at the preferred level for accounting.
                    g1_out[sp].insert(pd.src);
                    g1_in[pd.dstPartition].insert(in_key);
                    mapped.stats_.g1Edges += pd.dests.size();
                    for (StateId t : pd.dests)
                        mapped.cross_edges_.push_back(
                            CrossEdge{pd.src, t, false});
                }
            }
            if (!placed)
                ++wire_shortfalls;
        }
    }
    (void)wire_shortfalls;

    for (size_t p = 0; p < bins.size(); ++p) {
        PartitionInfo &info = mapped.partitions_[p];
        info.g1OutWires = static_cast<int>(g1_out[p].size());
        info.g4OutWires = static_cast<int>(g4_out[p].size());
        info.g1InWires = static_cast<int>(g1_in[p].size());
        info.g4InWires = static_cast<int>(g4_in[p].size());
        mapped.stats_.maxG1OutWires =
            std::max(mapped.stats_.maxG1OutWires, info.g1OutWires);
        mapped.stats_.maxG4OutWires =
            std::max(mapped.stats_.maxG4OutWires, info.g4OutWires);
        mapped.stats_.maxG1InWires =
            std::max(mapped.stats_.maxG1InWires, info.g1InWires);
        mapped.stats_.maxG4InWires =
            std::max(mapped.stats_.maxG4InWires, info.g4InWires);

        bool violation =
            info.g1OutWires > design.g1WiresPerPartition ||
            info.g1InWires > design.g1WiresPerPartition ||
            info.g4OutWires > design.g4WiresPerPartition ||
            info.g4InWires > design.g4WiresPerPartition;
        if (violation) {
            ++mapped.stats_.budgetViolations;
            CA_FATAL_IF(opts.strictBudgets,
                        "partition " << p << " exceeds wire budget (G1 out "
                                     << info.g1OutWires << "/in "
                                     << info.g1InWires << ", G4 out "
                                     << info.g4OutWires << "/in "
                                     << info.g4InWires << ")");
            CA_WARN("partition " << p << " exceeds wire budget (G1 out "
                                 << info.g1OutWires << ", G4 out "
                                 << info.g4OutWires << ")");
        }
    }

    mapped.stats_.partitions = bins.size();
    mapped.stats_.utilizationMB =
        geom.megabytes(static_cast<int>(bins.size()));
    return mapped;
}

} // namespace detail

namespace {

void
recordMappingMetrics(const MappingStats &stats)
{
    CA_COUNTER_ADD("ca.compiler.maps", 1);
    CA_COUNTER_ADD("ca.compiler.partitions_mapped", stats.partitions);
    CA_COUNTER_ADD("ca.compiler.g1_edges", stats.g1Edges);
    CA_COUNTER_ADD("ca.compiler.g4_edges", stats.g4Edges);
    CA_COUNTER_ADD("ca.compiler.budget_violations",
                   stats.budgetViolations);
    CA_GAUGE_SET("ca.compiler.utilization_mb", stats.utilizationMB);
    CA_HISTOGRAM_OBSERVE("ca.compiler.states_mapped", stats.states);
}

} // namespace

MappedAutomaton
mapNfa(const Nfa &input, const Design &design, const MapperOptions &opts)
{
    CA_TRACE_SCOPE("ca.compiler.map");
    // The pipeline is randomized (matching order, region growth); when a
    // mapping comes back with wire-budget shortfalls, a reseeded attempt
    // usually finds a feasible one. Keep the best of a few tries.
    std::optional<MappedAutomaton> best;
    for (int attempt = 0; attempt < 4; ++attempt) {
        MapperOptions o = opts;
        o.seed = opts.seed + static_cast<uint64_t>(attempt) * 0x51CE;
        if (attempt > 0)
            o.strictBudgets = false; // already reported once if strict
        MappedAutomaton m = detail::mapNfaOnce(
            input, design, attempt == 0 ? opts : o);
        if (m.stats().budgetViolations == 0) {
            recordMappingMetrics(m.stats());
            return m;
        }
        if (!best ||
            m.stats().budgetViolations < best->stats().budgetViolations)
            best.emplace(std::move(m));
    }
    CA_WARN("mapping retained " << best->stats().budgetViolations
                                << " wire-budget violation(s) after "
                                   "reseeded attempts");
    recordMappingMetrics(best->stats());
    return std::move(*best);
}

MappedAutomaton
mapPerformance(const Nfa &nfa, const MapperOptions &opts)
{
    MapperOptions o = opts;
    o.optimizeSpace = false;
    return mapNfa(nfa, designCaP(), o);
}

MappedAutomaton
mapSpace(const Nfa &nfa, const MapperOptions &opts)
{
    MapperOptions o = opts;
    o.optimizeSpace = true;
    return mapNfa(nfa, designCaS(), o);
}

} // namespace ca
