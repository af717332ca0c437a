/**
 * @file
 * Versioned on-disk artifacts for compiled automata (§2.9, §5 deployment).
 *
 * The paper's deployment model compiles a ruleset once and loads the
 * resulting configuration image into LLC slices many times, across runs
 * and machines. This module is that "model checkpoint" tier: a compiled
 * `MappedAutomaton` + `ConfigImage` round-trips through a checksummed,
 * little-endian, versioned binary file, so servers and tools warm-start
 * from disk instead of re-running CC analysis, prefix merging, and k-way
 * partitioning per process.
 *
 * File layout (docs/PERSIST.md):
 *
 *   header:   u32 magic "CAAF" | u16 version | u16 flags |
 *             u32 sectionCount | u32 headerCrc
 *   section*: u32 id (fourcc) | u64 payloadSize | u32 payloadCrc | payload
 *
 * Sections: META (tool/label/content key), DSGN (design parameters),
 * NFA (states, labels, edges), PLAC (locations, partitions, cross edges,
 * stats), CIMG (per-partition STE images + L-switch matrices + G-wire
 * assignments), ROUT (G-switch routes), WGHT (transition/start weights,
 * present only for weighted automata).
 *
 * Guarantees:
 *  - Deterministic bytes: the same automaton always packs to the same
 *    file (no timestamps), so content-addressed caching works.
 *  - Corrupt input ⇒ clean `CaError`: every payload is CRC32-checked and
 *    every decode is bounds-checked (core/serde.h), and the reassembled
 *    automaton is cross-validated by MappedAutomaton::fromParts. Bit
 *    flips, truncation, and version skew never cause UB (fault-injection
 *    tested in tests/persist_test.cpp and tests/fuzz_test.cpp).
 *  - A sim restored from an artifact emits byte-identical reports to one
 *    built from a fresh compile.
 */
#ifndef CA_PERSIST_ARTIFACT_H
#define CA_PERSIST_ARTIFACT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/config_image.h"
#include "compiler/mapping.h"

namespace ca::persist {

/** "CAAF" as a little-endian fourcc. */
constexpr uint32_t kArtifactMagic = 0x46414143u;
/** Bump on any layout change; readers reject other versions. */
constexpr uint16_t kFormatVersion = 1;

/** Section ids (little-endian fourcc). */
constexpr uint32_t kSecMeta = 0x4154454du;   // "META"
constexpr uint32_t kSecDesign = 0x4e475344u; // "DSGN"
constexpr uint32_t kSecNfa = 0x2041464eu;    // "NFA "
constexpr uint32_t kSecPlace = 0x43414c50u;  // "PLAC"
constexpr uint32_t kSecImage = 0x474d4943u;  // "CIMG"
constexpr uint32_t kSecRoutes = 0x54554f52u; // "ROUT"
/**
 * "WGHT": per-transition weights + per-state start weights (docs/
 * SCORING.md). Written only for weighted automata, so every pre-scoring
 * artifact stays byte-identical; a reader that finds no WGHT section
 * decodes an unweighted automaton. The payload carries its own layout
 * version so the weight encoding can evolve without a CAAF bump.
 */
constexpr uint32_t kSecWeights = 0x54484757u; // "WGHT"

/** Renders a fourcc id as printable text (for inspect/diagnostics). */
std::string sectionName(uint32_t id);

/** Descriptive metadata carried in the META section. */
struct ArtifactMeta
{
    /** Writer identification, e.g. "ca-persist/1". */
    std::string tool = "ca-persist/1";
    /** Free-form label (benchmark name, ruleset description). */
    std::string label;
    /** Cache key of the compile inputs; 0 when not cache-managed. */
    uint64_t contentKey = 0;
};

/** One section's table entry, as stored (for inspect). */
struct SectionInfo
{
    uint32_t id = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
};

/**
 * Assembles an artifact: add sections (or use the high-level automaton
 * packer), then finish() for the bytes or writeFile() for atomic
 * publication (temp file + rename — concurrent readers never observe a
 * partial artifact, and concurrent writers last-write-win cleanly).
 */
class ArtifactWriter
{
  public:
    explicit ArtifactWriter(ArtifactMeta meta = {});

    /** Stores the compiled automaton (DSGN + NFA + PLAC sections). */
    void setAutomaton(const MappedAutomaton &mapped);

    /** Stores the configuration image (CIMG + ROUT sections). */
    void setImage(const ConfigImage &image);

    /** Adds a raw section. @throws CaError on duplicate id. */
    void addSection(uint32_t id, std::vector<uint8_t> payload);

    /** Serializes header + sections; deterministic for equal content. */
    std::vector<uint8_t> finish() const;

    /**
     * Atomically publishes finish() to @p path via temp-file + rename.
     * @throws CaError on I/O failure.
     */
    void writeFile(const std::string &path) const;

  private:
    ArtifactMeta meta_;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sections_;
};

/**
 * Parses and integrity-checks an artifact. Construction validates the
 * magic, version, section table, and every section CRC; accessors then
 * decode individual sections with full bounds checking.
 *
 * @throws CaError on any structural problem — never UB.
 */
class ArtifactReader
{
  public:
    /** Parses an in-memory artifact (copies the buffer). */
    explicit ArtifactReader(std::vector<uint8_t> bytes);

    /** Reads and parses @p path. @throws CaError on I/O failure too. */
    explicit ArtifactReader(const std::string &path);

    uint16_t version() const { return version_; }
    const ArtifactMeta &meta() const { return meta_; }
    const std::vector<SectionInfo> &sections() const { return sections_; }
    size_t fileBytes() const { return bytes_.size(); }

    bool hasSection(uint32_t id) const;

    /** Raw payload of section @p id. @throws CaError when absent. */
    const std::vector<uint8_t> &section(uint32_t id) const;

    /** Decodes DSGN. */
    Design design() const;

    /** Decodes NFA. */
    Nfa nfa() const;

    /**
     * Decodes and cross-validates DSGN + NFA + PLAC into a mapped
     * automaton (see MappedAutomaton::fromParts).
     */
    MappedAutomaton automaton() const;

    /** Decodes CIMG + ROUT. */
    ConfigImage image() const;

  private:
    void parse();

    std::vector<uint8_t> bytes_;
    uint16_t version_ = 0;
    ArtifactMeta meta_;
    std::vector<SectionInfo> sections_;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> payloads_;
};

/** A fully decoded artifact, ready to drive sims and servers. */
struct LoadedArtifact
{
    ArtifactMeta meta;
    /** Shared so sims/servers can co-own it past the loader's scope. */
    std::shared_ptr<const MappedAutomaton> automaton;
    ConfigImage image;
};

/** Packs @p mapped (+ its config image) into artifact bytes. */
std::vector<uint8_t> packArtifact(const MappedAutomaton &mapped,
                                  const ConfigImage &image,
                                  const ArtifactMeta &meta = {});

/**
 * Builds the config image for @p mapped and atomically writes the
 * artifact to @p path.
 */
void saveArtifact(const std::string &path, const MappedAutomaton &mapped,
                  const ArtifactMeta &meta = {});

/** Decodes artifact bytes into a ready-to-run automaton + image. */
LoadedArtifact loadArtifactBytes(std::vector<uint8_t> bytes);

/** Reads, checks, and decodes the artifact at @p path. */
LoadedArtifact loadArtifact(const std::string &path);

/** Reads the whole file at @p path. @throws CaError on I/O failure. */
std::vector<uint8_t> readFileBytes(const std::string &path);

/**
 * Atomically publishes raw bytes to @p path via temp-file + rename (the
 * same publication discipline ArtifactWriter::writeFile uses): readers
 * see either the old file or the complete new one, never a torn write.
 * @throws CaError on I/O failure.
 */
void writeBytesAtomic(const std::string &path,
                      const std::vector<uint8_t> &bytes);

/**
 * Content fingerprint of a mapped automaton: the FNV-1a 64 hash of its
 * canonical artifact serialization (DSGN + NFA + PLAC sections under a
 * fixed META — no image, no label, no cache key). Deterministic across
 * hosts and load paths, so a freshly compiled automaton and one loaded
 * from a CAAF file hash identically. This is the identity the network
 * layer exchanges in HELLO and the cluster layer replicates by
 * (docs/CLUSTER.md); it is NOT computeCacheKey, which hashes compile
 * *inputs* rather than the compiled result.
 */
uint64_t artifactFingerprint(const MappedAutomaton &mapped);

/**
 * Deep structural equality of two config images (partitions, switch
 * matrices, masks, G-wire assignments, routes) — verify's ground truth.
 */
bool configImagesEqual(const ConfigImage &a, const ConfigImage &b);

// --- Content-hash cache keys -------------------------------------------

/**
 * Content hash of a compile's inputs: ruleset text, design parameters,
 * and mapper options. Two processes computing the key from equal inputs
 * get equal keys on any host (the hash runs over the canonical
 * little-endian encoding, not in-memory bytes).
 */
uint64_t computeCacheKey(const std::vector<std::string> &rules,
                         const Design &design, const MapperOptions &opts);

} // namespace ca::persist

#endif // CA_PERSIST_ARTIFACT_H
