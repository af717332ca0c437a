#include "persist/artifact.h"

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "core/error.h"
#include "core/serde.h"
#include "telemetry/telemetry.h"

namespace ca::persist {

namespace {

using serde::ByteReader;

// --- Section encoders / decoders ---------------------------------------
//
// All multi-byte values are little-endian (core/serde.h). Decoders never
// pre-allocate from untrusted counts: element loops read at least one
// byte per element, so a lying count runs into ByteReader's bounds check
// long before memory is at risk.

void
encodeSwitchSpec(std::vector<uint8_t> &out, const SwitchSpec &s)
{
    serde::putString(out, s.name);
    serde::putI32(out, s.inputs);
    serde::putI32(out, s.outputs);
    serde::putF64(out, s.delayPs);
    serde::putF64(out, s.energyPjPerBit);
    serde::putF64(out, s.areaMm2);
}

SwitchSpec
decodeSwitchSpec(ByteReader &r)
{
    SwitchSpec s;
    s.name = r.str();
    s.inputs = r.i32();
    s.outputs = r.i32();
    s.delayPs = r.f64();
    s.energyPjPerBit = r.f64();
    s.areaMm2 = r.f64();
    return s;
}

std::vector<uint8_t>
encodeDesign(const Design &d)
{
    std::vector<uint8_t> out;
    serde::putString(out, d.name);
    serde::putU8(out, static_cast<uint8_t>(d.kind));
    serde::putI32(out, d.stesPerMatchRead);
    serde::putI32(out, d.partitionStes);
    encodeSwitchSpec(out, d.lSwitch);
    encodeSwitchSpec(out, d.gSwitch1);
    serde::putU8(out, d.gSwitch4.has_value() ? 1 : 0);
    if (d.gSwitch4)
        encodeSwitchSpec(out, *d.gSwitch4);
    serde::putI32(out, d.g1WiresPerPartition);
    serde::putI32(out, d.g4WiresPerPartition);
    serde::putF64(out, d.gWireDistanceMm);
    serde::putF64(out, d.lWireDistanceMm);
    serde::putI32(out, d.lSwitchesPer32k);
    serde::putI32(out, d.g1SwitchesPer32k);
    serde::putI32(out, d.g4SwitchesPer32k);
    serde::putF64(out, d.operatingFreqHz);
    serde::putI32(out, d.waysUsable);
    return out;
}

Design
decodeDesign(ByteReader &r)
{
    Design d;
    d.name = r.str();
    uint8_t kind = r.u8();
    CA_FATAL_IF(kind > static_cast<uint8_t>(DesignKind::Custom),
                "artifact: bad design kind " << int(kind));
    d.kind = static_cast<DesignKind>(kind);
    d.stesPerMatchRead = r.i32();
    d.partitionStes = r.i32();
    CA_FATAL_IF(d.partitionStes <= 0 || d.partitionStes > (1 << 16),
                "artifact: implausible partitionStes " << d.partitionStes);
    d.lSwitch = decodeSwitchSpec(r);
    d.gSwitch1 = decodeSwitchSpec(r);
    if (r.u8())
        d.gSwitch4 = decodeSwitchSpec(r);
    d.g1WiresPerPartition = r.i32();
    d.g4WiresPerPartition = r.i32();
    CA_FATAL_IF(d.g1WiresPerPartition < 0 || d.g1WiresPerPartition > (1 << 16)
                    || d.g4WiresPerPartition < 0
                    || d.g4WiresPerPartition > (1 << 16),
                "artifact: implausible G-wire budget");
    d.gWireDistanceMm = r.f64();
    d.lWireDistanceMm = r.f64();
    d.lSwitchesPer32k = r.i32();
    d.g1SwitchesPer32k = r.i32();
    d.g4SwitchesPer32k = r.i32();
    d.operatingFreqHz = r.f64();
    d.waysUsable = r.i32();
    return d;
}

std::vector<uint8_t>
encodeNfa(const Nfa &nfa)
{
    std::vector<uint8_t> out;
    serde::putU32(out, static_cast<uint32_t>(nfa.numStates()));
    for (StateId s = 0; s < nfa.numStates(); ++s) {
        const NfaState &st = nfa.state(s);
        for (uint64_t w : st.label.raw())
            serde::putU64(out, w);
        serde::putU8(out, static_cast<uint8_t>(st.start));
        serde::putU8(out, st.report ? 1 : 0);
        serde::putU32(out, st.reportId);
        serde::putString(out, st.name);
        serde::putU32(out, static_cast<uint32_t>(st.out.size()));
        for (StateId t : st.out)
            serde::putU32(out, t);
    }
    return out;
}

Nfa
decodeNfa(ByteReader &r)
{
    Nfa nfa;
    uint32_t n = r.u32();
    std::vector<std::vector<StateId>> edges;
    for (uint32_t s = 0; s < n; ++s) {
        SymbolSet label;
        for (int w = 0; w < SymbolSet::kWords; ++w) {
            uint64_t word = r.u64();
            while (word) {
                int b = __builtin_ctzll(word);
                label.set(static_cast<uint8_t>(w * 64 + b));
                word &= word - 1;
            }
        }
        uint8_t start = r.u8();
        CA_FATAL_IF(start > static_cast<uint8_t>(StartType::AllInput),
                    "artifact: bad start type " << int(start));
        uint8_t report = r.u8();
        CA_FATAL_IF(report > 1, "artifact: bad report flag");
        uint32_t report_id = r.u32();
        std::string name = r.str();
        nfa.addState(label, static_cast<StartType>(start), report != 0,
                     report_id, std::move(name));
        uint32_t deg = r.u32();
        std::vector<StateId> out;
        for (uint32_t i = 0; i < deg; ++i) {
            StateId t = r.u32();
            CA_FATAL_IF(t >= n, "artifact: edge target " << t
                                    << " out of range (" << n << " states)");
            out.push_back(t);
        }
        edges.push_back(std::move(out));
    }
    for (StateId s = 0; s < n; ++s)
        for (StateId t : edges[s])
            nfa.addTransition(s, t);
    return nfa;
}

/** Layout version of the WGHT payload (independent of kFormatVersion). */
constexpr uint16_t kWeightsVersion = 1;

std::vector<uint8_t>
encodeWeights(const Nfa &nfa)
{
    std::vector<uint8_t> out;
    serde::putU16(out, kWeightsVersion);
    serde::putU32(out, static_cast<uint32_t>(nfa.numStates()));
    for (StateId s = 0; s < nfa.numStates(); ++s) {
        const NfaState &st = nfa.state(s);
        serde::putI32(out, st.startWeight);
        serde::putU32(out, static_cast<uint32_t>(st.out.size()));
        for (size_t k = 0; k < st.out.size(); ++k)
            serde::putI32(out, nfa.edgeWeight(s, k));
    }
    return out;
}

/** Overlays a decoded WGHT payload onto an already-decoded NFA. */
void
applyWeights(ByteReader &r, Nfa &nfa)
{
    uint16_t ver = r.u16();
    CA_FATAL_IF(ver != kWeightsVersion,
                "artifact: unsupported WGHT layout version " << ver);
    uint32_t n = r.u32();
    CA_FATAL_IF(n != nfa.numStates(),
                "artifact: WGHT covers " << n << " states, NFA has "
                                         << nfa.numStates());
    for (StateId s = 0; s < n; ++s) {
        NfaState &st = nfa.state(s);
        st.startWeight = r.i32();
        uint32_t deg = r.u32();
        CA_FATAL_IF(deg != st.out.size(),
                    "artifact: WGHT state " << s << " lists " << deg
                        << " edges, NFA has " << st.out.size());
        st.outWeight.assign(deg, 0);
        for (uint32_t k = 0; k < deg; ++k)
            st.outWeight[k] = r.i32();
    }
}

std::vector<uint8_t>
encodePlace(const MappedAutomaton &mapped)
{
    std::vector<uint8_t> out;
    serde::putU32(out, static_cast<uint32_t>(mapped.nfa().numStates()));
    for (StateId s = 0; s < mapped.nfa().numStates(); ++s) {
        const SteLocation &loc = mapped.location(s);
        serde::putU32(out, loc.partition);
        serde::putU16(out, loc.slot);
    }
    serde::putU32(out, static_cast<uint32_t>(mapped.numPartitions()));
    for (const PartitionInfo &p : mapped.partitions()) {
        serde::putU32(out, static_cast<uint32_t>(p.states.size()));
        for (StateId s : p.states)
            serde::putU32(out, s);
        serde::putI32(out, p.slice);
        serde::putI32(out, p.way);
        serde::putI32(out, p.subArray);
        serde::putI32(out, p.g1OutWires);
        serde::putI32(out, p.g1InWires);
        serde::putI32(out, p.g4OutWires);
        serde::putI32(out, p.g4InWires);
    }
    serde::putU32(out, static_cast<uint32_t>(mapped.crossEdges().size()));
    for (const CrossEdge &e : mapped.crossEdges()) {
        serde::putU32(out, e.from);
        serde::putU32(out, e.to);
        serde::putU8(out, e.viaG4 ? 1 : 0);
    }
    const MappingStats &st = mapped.stats();
    serde::putU64(out, st.states);
    serde::putU64(out, st.connectedComponents);
    serde::putU64(out, st.largestComponent);
    serde::putU64(out, st.partitions);
    serde::putF64(out, st.utilizationMB);
    serde::putU64(out, st.intraPartitionEdges);
    serde::putU64(out, st.g1Edges);
    serde::putU64(out, st.g4Edges);
    serde::putI32(out, st.maxG1OutWires);
    serde::putI32(out, st.maxG1InWires);
    serde::putI32(out, st.maxG4OutWires);
    serde::putI32(out, st.maxG4InWires);
    serde::putU64(out, st.budgetViolations);
    return out;
}

struct DecodedPlace
{
    std::vector<SteLocation> locations;
    std::vector<PartitionInfo> partitions;
    std::vector<CrossEdge> crossEdges;
    MappingStats stats;
};

DecodedPlace
decodePlace(ByteReader &r)
{
    DecodedPlace p;
    uint32_t n = r.u32();
    for (uint32_t s = 0; s < n; ++s) {
        SteLocation loc;
        loc.partition = r.u32();
        loc.slot = r.u16();
        p.locations.push_back(loc);
    }
    uint32_t parts = r.u32();
    for (uint32_t i = 0; i < parts; ++i) {
        PartitionInfo info;
        uint32_t count = r.u32();
        for (uint32_t s = 0; s < count; ++s)
            info.states.push_back(r.u32());
        info.slice = r.i32();
        info.way = r.i32();
        info.subArray = r.i32();
        info.g1OutWires = r.i32();
        info.g1InWires = r.i32();
        info.g4OutWires = r.i32();
        info.g4InWires = r.i32();
        p.partitions.push_back(std::move(info));
    }
    uint32_t crosses = r.u32();
    for (uint32_t i = 0; i < crosses; ++i) {
        CrossEdge e;
        e.from = r.u32();
        e.to = r.u32();
        uint8_t via = r.u8();
        CA_FATAL_IF(via > 1, "artifact: bad cross-edge level flag");
        e.viaG4 = via != 0;
        p.crossEdges.push_back(e);
    }
    MappingStats &st = p.stats;
    st.states = r.u64();
    st.connectedComponents = r.u64();
    st.largestComponent = r.u64();
    st.partitions = r.u64();
    st.utilizationMB = r.f64();
    st.intraPartitionEdges = r.u64();
    st.g1Edges = r.u64();
    st.g4Edges = r.u64();
    st.maxG1OutWires = r.i32();
    st.maxG1InWires = r.i32();
    st.maxG4OutWires = r.i32();
    st.maxG4InWires = r.i32();
    st.budgetViolations = r.u64();
    return p;
}

void
encodeIntList(std::vector<uint8_t> &out, const std::vector<int> &v)
{
    serde::putU32(out, static_cast<uint32_t>(v.size()));
    for (int x : v)
        serde::putI32(out, x);
}

std::vector<int>
decodeIntList(ByteReader &r)
{
    std::vector<int> v;
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(r.i32());
    return v;
}

std::vector<uint8_t>
encodeImage(const ConfigImage &img)
{
    std::vector<uint8_t> out;
    serde::putU32(out, static_cast<uint32_t>(img.partitions.size()));
    for (const PartitionConfig &p : img.partitions) {
        serde::putU32(out, static_cast<uint32_t>(p.steRows.size()));
        for (const BitVector &row : p.steRows)
            serde::putBits(out, row);
        serde::putI32(out, p.lSwitch.inputs);
        serde::putI32(out, p.lSwitch.outputs);
        serde::putU32(out, static_cast<uint32_t>(p.lSwitch.rowBits.size()));
        for (const BitVector &row : p.lSwitch.rowBits)
            serde::putBits(out, row);
        serde::putBits(out, p.startOfDataMask);
        serde::putBits(out, p.allInputMask);
        serde::putBits(out, p.reportMask);
        encodeIntList(out, p.g1Sources);
        serde::putU32(out, static_cast<uint32_t>(p.g1Targets.size()));
        for (const auto &t : p.g1Targets)
            encodeIntList(out, t);
        encodeIntList(out, p.g4Sources);
        serde::putU32(out, static_cast<uint32_t>(p.g4Targets.size()));
        for (const auto &t : p.g4Targets)
            encodeIntList(out, t);
    }
    return out;
}

void
decodeImagePartitions(ByteReader &r, ConfigImage &img)
{
    uint32_t parts = r.u32();
    for (uint32_t i = 0; i < parts; ++i) {
        PartitionConfig p;
        uint32_t rows = r.u32();
        for (uint32_t j = 0; j < rows; ++j)
            p.steRows.push_back(r.bits());
        p.lSwitch.inputs = r.i32();
        p.lSwitch.outputs = r.i32();
        uint32_t lrows = r.u32();
        CA_FATAL_IF(p.lSwitch.inputs < 0 ||
                        lrows != static_cast<uint32_t>(p.lSwitch.inputs),
                    "artifact: L-switch row count " << lrows
                        << " disagrees with input count "
                        << p.lSwitch.inputs);
        for (uint32_t j = 0; j < lrows; ++j)
            p.lSwitch.rowBits.push_back(r.bits());
        p.startOfDataMask = r.bits();
        p.allInputMask = r.bits();
        p.reportMask = r.bits();
        p.g1Sources = decodeIntList(r);
        uint32_t g1t = r.u32();
        for (uint32_t j = 0; j < g1t; ++j)
            p.g1Targets.push_back(decodeIntList(r));
        p.g4Sources = decodeIntList(r);
        uint32_t g4t = r.u32();
        for (uint32_t j = 0; j < g4t; ++j)
            p.g4Targets.push_back(decodeIntList(r));
        img.partitions.push_back(std::move(p));
    }
    CA_FATAL_IF(!r.done(), "artifact: trailing bytes in CIMG section");
}

std::vector<uint8_t>
encodeRoutes(const ConfigImage &img)
{
    std::vector<uint8_t> out;
    serde::putU32(out, static_cast<uint32_t>(img.routes.size()));
    for (const ConfigImage::Route &rt : img.routes) {
        serde::putU32(out, rt.srcPartition);
        serde::putI32(out, rt.srcWire);
        serde::putU32(out, rt.dstPartition);
        serde::putI32(out, rt.dstWire);
        serde::putU8(out, rt.viaG4 ? 1 : 0);
    }
    return out;
}

void
decodeRoutes(ByteReader &r, ConfigImage &img)
{
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
        ConfigImage::Route rt;
        rt.srcPartition = r.u32();
        rt.srcWire = r.i32();
        rt.dstPartition = r.u32();
        rt.dstWire = r.i32();
        uint8_t via = r.u8();
        CA_FATAL_IF(via > 1, "artifact: bad route level flag");
        rt.viaG4 = via != 0;
        CA_FATAL_IF(rt.srcPartition >= img.partitions.size() ||
                        rt.dstPartition >= img.partitions.size(),
                    "artifact: route partition out of range");
        img.routes.push_back(rt);
    }
    CA_FATAL_IF(!r.done(), "artifact: trailing bytes in ROUT section");
}

std::vector<uint8_t>
encodeMeta(const ArtifactMeta &meta)
{
    std::vector<uint8_t> out;
    serde::putString(out, meta.tool);
    serde::putString(out, meta.label);
    serde::putU64(out, meta.contentKey);
    return out;
}

ArtifactMeta
decodeMeta(ByteReader &r)
{
    ArtifactMeta meta;
    meta.tool = r.str();
    meta.label = r.str();
    meta.contentKey = r.u64();
    return meta;
}

} // namespace

std::string
sectionName(uint32_t id)
{
    std::string s;
    for (int i = 0; i < 4; ++i) {
        char c = static_cast<char>((id >> (8 * i)) & 0xff);
        s.push_back(std::isprint(static_cast<unsigned char>(c)) ? c : '?');
    }
    return s;
}

// --- ArtifactWriter -----------------------------------------------------

ArtifactWriter::ArtifactWriter(ArtifactMeta meta) : meta_(std::move(meta))
{
    sections_.emplace_back(kSecMeta, encodeMeta(meta_));
}

void
ArtifactWriter::setAutomaton(const MappedAutomaton &mapped)
{
    addSection(kSecDesign, encodeDesign(mapped.design()));
    addSection(kSecNfa, encodeNfa(mapped.nfa()));
    addSection(kSecPlace, encodePlace(mapped));
    // Weighted automata carry a WGHT overlay; unweighted ones omit it so
    // their artifact bytes (and fingerprints) predating scoring hold.
    if (mapped.nfa().hasWeights())
        addSection(kSecWeights, encodeWeights(mapped.nfa()));
}

void
ArtifactWriter::setImage(const ConfigImage &image)
{
    addSection(kSecImage, encodeImage(image));
    addSection(kSecRoutes, encodeRoutes(image));
}

void
ArtifactWriter::addSection(uint32_t id, std::vector<uint8_t> payload)
{
    for (const auto &[existing, bytes] : sections_)
        CA_FATAL_IF(existing == id, "artifact: duplicate section "
                                        << sectionName(id));
    sections_.emplace_back(id, std::move(payload));
}

std::vector<uint8_t>
ArtifactWriter::finish() const
{
    CA_TRACE_SCOPE("ca.persist.pack");
    std::vector<uint8_t> out;
    serde::putU32(out, kArtifactMagic);
    serde::putU16(out, kFormatVersion);
    serde::putU16(out, 0); // flags, reserved
    serde::putU32(out, static_cast<uint32_t>(sections_.size()));
    serde::putU32(out, serde::crc32(out.data(), out.size()));
    for (const auto &[id, payload] : sections_) {
        serde::putU32(out, id);
        serde::putU64(out, payload.size());
        serde::putU32(out, serde::crc32(payload));
        out.insert(out.end(), payload.begin(), payload.end());
    }
    return out;
}

void
ArtifactWriter::writeFile(const std::string &path) const
{
    CA_TRACE_SCOPE("ca.persist.save");
    std::vector<uint8_t> bytes = finish();
    writeBytesAtomic(path, bytes);
    CA_COUNTER_ADD("ca.persist.saves", 1);
    CA_COUNTER_ADD("ca.persist.save_bytes", bytes.size());
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    CA_FATAL_IF(!is, "artifact: cannot open " << path);
    std::streamsize size = is.tellg();
    CA_FATAL_IF(size < 0, "artifact: cannot stat " << path);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    is.seekg(0);
    is.read(reinterpret_cast<char *>(bytes.data()), size);
    CA_FATAL_IF(!is, "artifact: short read from " << path);
    return bytes;
}

void
writeBytesAtomic(const std::string &path, const std::vector<uint8_t> &bytes)
{
    // Unique temp name in the target directory, then an atomic rename:
    // readers either see the old file or the complete new one, and
    // racing writers last-write-win without torn output.
    static std::atomic<uint64_t> seq{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        CA_FATAL_IF(!os, "artifact: cannot open temp file " << tmp);
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            os.close();
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            CA_THROW("artifact: short write to " << tmp);
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ec2;
        std::filesystem::remove(tmp, ec2);
        CA_THROW("artifact: rename " << tmp << " -> " << path
                                     << " failed: " << ec.message());
    }
}

// --- ArtifactReader -----------------------------------------------------

ArtifactReader::ArtifactReader(std::vector<uint8_t> bytes)
    : bytes_(std::move(bytes))
{
    parse();
}

ArtifactReader::ArtifactReader(const std::string &path)
{
    CA_TRACE_SCOPE("ca.persist.read_file");
    bytes_ = readFileBytes(path);
    parse();
}

void
ArtifactReader::parse()
{
    ByteReader r(bytes_);
    uint32_t magic = r.u32();
    CA_FATAL_IF(magic != kArtifactMagic,
                "artifact: bad magic 0x" << std::hex << magic
                                         << " (not a CAAF artifact)");
    version_ = r.u16();
    uint16_t flags = r.u16();
    uint32_t section_count = r.u32();
    uint32_t header_crc = r.u32();
    CA_FATAL_IF(version_ != kFormatVersion,
                "artifact: unsupported format version " << version_
                    << " (reader supports " << kFormatVersion << ")");
    CA_FATAL_IF(flags != 0, "artifact: unknown header flags " << flags);
    CA_FATAL_IF(header_crc != serde::crc32(bytes_.data(), 12),
                "artifact: header checksum mismatch");

    for (uint32_t i = 0; i < section_count; ++i) {
        SectionInfo info;
        info.id = r.u32();
        info.size = r.u64();
        info.crc = r.u32();
        CA_FATAL_IF(info.size > r.remaining(),
                    "artifact: section " << sectionName(info.id)
                        << " claims " << info.size << " bytes, only "
                        << r.remaining() << " remain");
        const uint8_t *payload = r.bytes(static_cast<size_t>(info.size));
        uint32_t crc = serde::crc32(payload,
                                    static_cast<size_t>(info.size));
        CA_FATAL_IF(crc != info.crc,
                    "artifact: section " << sectionName(info.id)
                        << " checksum mismatch");
        for (const SectionInfo &prev : sections_)
            CA_FATAL_IF(prev.id == info.id,
                        "artifact: duplicate section "
                            << sectionName(info.id));
        sections_.push_back(info);
        payloads_.emplace_back(
            info.id,
            std::vector<uint8_t>(payload,
                                 payload + static_cast<size_t>(info.size)));
    }
    CA_FATAL_IF(!r.done(), "artifact: " << r.remaining()
                                        << " trailing bytes after sections");

    ByteReader mr(section(kSecMeta));
    meta_ = decodeMeta(mr);
    CA_FATAL_IF(!mr.done(), "artifact: trailing bytes in META section");
}

bool
ArtifactReader::hasSection(uint32_t id) const
{
    for (const auto &[sid, payload] : payloads_)
        if (sid == id)
            return true;
    return false;
}

const std::vector<uint8_t> &
ArtifactReader::section(uint32_t id) const
{
    for (const auto &[sid, payload] : payloads_)
        if (sid == id)
            return payload;
    CA_THROW("artifact: missing section " << sectionName(id));
}

Design
ArtifactReader::design() const
{
    ByteReader r(section(kSecDesign));
    Design d = decodeDesign(r);
    CA_FATAL_IF(!r.done(), "artifact: trailing bytes in DSGN section");
    return d;
}

Nfa
ArtifactReader::nfa() const
{
    ByteReader r(section(kSecNfa));
    Nfa n = decodeNfa(r);
    CA_FATAL_IF(!r.done(), "artifact: trailing bytes in NFA section");
    if (hasSection(kSecWeights)) {
        ByteReader wr(section(kSecWeights));
        applyWeights(wr, n);
        CA_FATAL_IF(!wr.done(), "artifact: trailing bytes in WGHT section");
    }
    n.validate();
    return n;
}

MappedAutomaton
ArtifactReader::automaton() const
{
    ByteReader pr(section(kSecPlace));
    DecodedPlace place = decodePlace(pr);
    CA_FATAL_IF(!pr.done(), "artifact: trailing bytes in PLAC section");
    ByteReader nr(section(kSecNfa));
    Nfa n = decodeNfa(nr);
    CA_FATAL_IF(!nr.done(), "artifact: trailing bytes in NFA section");
    if (hasSection(kSecWeights)) {
        ByteReader wr(section(kSecWeights));
        applyWeights(wr, n);
        CA_FATAL_IF(!wr.done(), "artifact: trailing bytes in WGHT section");
    }
    return MappedAutomaton::fromParts(
        std::move(n), design(), std::move(place.locations),
        std::move(place.partitions), std::move(place.crossEdges),
        place.stats);
}

ConfigImage
ArtifactReader::image() const
{
    ConfigImage img;
    ByteReader ir(section(kSecImage));
    decodeImagePartitions(ir, img);
    ByteReader rr(section(kSecRoutes));
    decodeRoutes(rr, img);
    return img;
}

// --- High-level helpers -------------------------------------------------

std::vector<uint8_t>
packArtifact(const MappedAutomaton &mapped, const ConfigImage &image,
             const ArtifactMeta &meta)
{
    ArtifactWriter w(meta);
    w.setAutomaton(mapped);
    w.setImage(image);
    return w.finish();
}

void
saveArtifact(const std::string &path, const MappedAutomaton &mapped,
             const ArtifactMeta &meta)
{
    ArtifactWriter w(meta);
    w.setAutomaton(mapped);
    w.setImage(buildConfigImage(mapped));
    w.writeFile(path);
}

LoadedArtifact
loadArtifactBytes(std::vector<uint8_t> bytes)
{
    CA_TRACE_SCOPE("ca.persist.load");
    size_t total = bytes.size();
    ArtifactReader reader(std::move(bytes));
    LoadedArtifact out;
    out.meta = reader.meta();
    out.automaton = std::make_shared<const MappedAutomaton>(
        reader.automaton());
    out.image = reader.image();
    CA_COUNTER_ADD("ca.persist.loads", 1);
    CA_COUNTER_ADD("ca.persist.load_bytes", total);
    return out;
}

LoadedArtifact
loadArtifact(const std::string &path)
{
    CA_TRACE_SCOPE("ca.persist.load_file");
    ArtifactReader reader(path);
    LoadedArtifact out;
    out.meta = reader.meta();
    out.automaton = std::make_shared<const MappedAutomaton>(
        reader.automaton());
    out.image = reader.image();
    CA_COUNTER_ADD("ca.persist.loads", 1);
    CA_COUNTER_ADD("ca.persist.load_bytes", reader.fileBytes());
    return out;
}

bool
configImagesEqual(const ConfigImage &a, const ConfigImage &b)
{
    auto routeEq = [](const ConfigImage::Route &x,
                      const ConfigImage::Route &y) {
        return x.srcPartition == y.srcPartition && x.srcWire == y.srcWire &&
            x.dstPartition == y.dstPartition && x.dstWire == y.dstWire &&
            x.viaG4 == y.viaG4;
    };
    if (a.partitions.size() != b.partitions.size() ||
        a.routes.size() != b.routes.size())
        return false;
    for (size_t i = 0; i < a.routes.size(); ++i)
        if (!routeEq(a.routes[i], b.routes[i]))
            return false;
    for (size_t i = 0; i < a.partitions.size(); ++i) {
        const PartitionConfig &pa = a.partitions[i];
        const PartitionConfig &pb = b.partitions[i];
        if (pa.steRows != pb.steRows ||
            pa.lSwitch.inputs != pb.lSwitch.inputs ||
            pa.lSwitch.outputs != pb.lSwitch.outputs ||
            pa.lSwitch.rowBits != pb.lSwitch.rowBits ||
            pa.startOfDataMask != pb.startOfDataMask ||
            pa.allInputMask != pb.allInputMask ||
            pa.reportMask != pb.reportMask ||
            pa.g1Sources != pb.g1Sources ||
            pa.g1Targets != pb.g1Targets ||
            pa.g4Sources != pb.g4Sources || pa.g4Targets != pb.g4Targets)
            return false;
    }
    return true;
}

uint64_t
computeCacheKey(const std::vector<std::string> &rules, const Design &design,
                const MapperOptions &opts)
{
    std::vector<uint8_t> buf;
    serde::putString(buf, "ca-cache-key/1");
    serde::putU32(buf, static_cast<uint32_t>(rules.size()));
    for (const std::string &r : rules)
        serde::putString(buf, r);
    std::vector<uint8_t> dsgn = encodeDesign(design);
    serde::putU32(buf, static_cast<uint32_t>(dsgn.size()));
    buf.insert(buf.end(), dsgn.begin(), dsgn.end());
    serde::putU8(buf, opts.optimizeSpace ? 1 : 0);
    serde::putU8(buf, opts.strictBudgets ? 1 : 0);
    serde::putI32(buf, opts.maxPartitionRetries);
    serde::putU64(buf, opts.seed);
    return serde::fnv1a64(buf);
}

uint64_t
artifactFingerprint(const MappedAutomaton &mapped)
{
    // Canonical serialization under a fixed META so the hash depends
    // only on the compiled automaton — not on labels, tools, cache keys,
    // or whether it travelled through a .caa file first. The tool string
    // is a frozen constant: it predates this helper (the net layer
    // computed the fingerprint itself), and changing it would silently
    // re-fingerprint every deployed automaton.
    ArtifactMeta meta;
    meta.tool = "ca-net-fingerprint";
    meta.label.clear();
    meta.contentKey = 0;
    ArtifactWriter w(meta);
    w.setAutomaton(mapped);
    return serde::fnv1a64(w.finish());
}

} // namespace ca::persist
