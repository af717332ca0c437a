#include "persist/cache.h"

#include <filesystem>
#include <sstream>

#include "core/error.h"
#include "nfa/glushkov.h"
#include "telemetry/telemetry.h"

namespace ca::persist {

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir))
{
    CA_FATAL_IF(dir_.empty(), "artifact cache: empty directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    CA_FATAL_IF(ec, "artifact cache: cannot create directory " << dir_
                                                               << ": "
                                                               << ec.message());
}

std::string
ArtifactCache::pathForKey(uint64_t key) const
{
    std::ostringstream os;
    os << std::hex << key;
    std::string hex = os.str();
    // Fixed-width so directory listings sort and keys are unambiguous.
    return dir_ + "/ca-" + std::string(16 - hex.size(), '0') + hex + ".caa";
}

std::optional<LoadedArtifact>
ArtifactCache::tryLoad(uint64_t key)
{
    CA_TRACE_SCOPE("ca.persist.cache.lookup");
    std::string path = pathForKey(key);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        CA_COUNTER_ADD("ca.persist.cache.misses", 1);
        return std::nullopt;
    }
    try {
        LoadedArtifact loaded = loadArtifact(path);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.hits;
        }
        CA_COUNTER_ADD("ca.persist.cache.hits", 1);
        return loaded;
    } catch (const CaError &) {
        // Torn, corrupted, or version-skewed entry: evict and rebuild.
        // (A concurrent writer may already have replaced it; removal
        // failure is benign either way.)
        std::error_code rm_ec;
        std::filesystem::remove(path, rm_ec);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        ++stats_.corruptEvicted;
        CA_COUNTER_ADD("ca.persist.cache.misses", 1);
        CA_COUNTER_ADD("ca.persist.cache.corrupt_evicted", 1);
        return std::nullopt;
    }
}

void
ArtifactCache::store(uint64_t key, const MappedAutomaton &mapped,
                     const std::string &label)
{
    ArtifactMeta meta;
    meta.label = label;
    meta.contentKey = key;
    saveArtifact(pathForKey(key), mapped, meta);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stores;
    }
    CA_COUNTER_ADD("ca.persist.cache.stores", 1);
}

LoadedArtifact
ArtifactCache::getOrBuild(uint64_t key,
                          const std::function<MappedAutomaton()> &build,
                          const std::string &label)
{
    CA_TRACE_SCOPE("ca.persist.cache.get");
    if (std::optional<LoadedArtifact> hit = tryLoad(key))
        return std::move(*hit);

    MappedAutomaton mapped = build();
    ConfigImage image = buildConfigImage(mapped);
    ArtifactMeta meta;
    meta.label = label;
    meta.contentKey = key;
    ArtifactWriter w(meta);
    w.setAutomaton(mapped);
    w.setImage(image);
    w.writeFile(pathForKey(key));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stores;
    }
    CA_COUNTER_ADD("ca.persist.cache.stores", 1);

    LoadedArtifact out;
    out.meta = meta;
    out.automaton =
        std::make_shared<const MappedAutomaton>(std::move(mapped));
    out.image = std::move(image);
    return out;
}

LoadedArtifact
ArtifactCache::getOrCompile(const std::vector<std::string> &rules,
                            const Design &design, const MapperOptions &opts,
                            const std::string &label)
{
    uint64_t key = computeCacheKey(rules, design, opts);
    return getOrBuild(
        key,
        [&] {
            CA_TRACE_SCOPE("ca.persist.cache.cold_compile");
            return mapNfa(compileRuleset(rules), design, opts);
        },
        label);
}

CacheStats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ArtifactCache::setRemoteFetcher(RemoteFetcher fetcher)
{
    // Configure before the cache is shared across threads: the hook is
    // read without a lock on the getOrFetch miss path.
    remote_ = std::move(fetcher);
}

std::string
ArtifactCache::pathForFingerprint(uint64_t fingerprint) const
{
    std::ostringstream os;
    os << std::hex << fingerprint;
    std::string hex = os.str();
    // A distinct "fp" namespace: compile-input keys and result
    // fingerprints are different hashes over different domains, and a
    // collision between the two must not alias a file.
    return dir_ + "/ca-fp-" + std::string(16 - hex.size(), '0') + hex +
        ".caa";
}

std::optional<LoadedArtifact>
ArtifactCache::tryLoadByFingerprint(uint64_t fingerprint)
{
    CA_TRACE_SCOPE("ca.persist.cache.lookup");
    std::string path = pathForFingerprint(fingerprint);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        CA_COUNTER_ADD("ca.persist.cache.misses", 1);
        return std::nullopt;
    }
    try {
        LoadedArtifact loaded = loadArtifact(path);
        // The entry's name is a claim about its content; a mismatch is
        // as disqualifying as a failed CRC (e.g. a hand-copied file).
        CA_FATAL_IF(artifactFingerprint(*loaded.automaton) != fingerprint,
                    "artifact cache: entry " << path
                        << " does not hash to its fingerprint");
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.hits;
        }
        CA_COUNTER_ADD("ca.persist.cache.hits", 1);
        return loaded;
    } catch (const CaError &) {
        std::error_code rm_ec;
        std::filesystem::remove(path, rm_ec);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        ++stats_.corruptEvicted;
        CA_COUNTER_ADD("ca.persist.cache.misses", 1);
        CA_COUNTER_ADD("ca.persist.cache.corrupt_evicted", 1);
        return std::nullopt;
    }
}

LoadedArtifact
ArtifactCache::storeBytesByFingerprint(uint64_t fingerprint,
                                       std::vector<uint8_t> bytes)
{
    // Validate everything — structure, CRCs, cross-checks, and the
    // fingerprint claim — before any byte reaches the directory.
    std::vector<uint8_t> raw = bytes;
    LoadedArtifact loaded = loadArtifactBytes(std::move(bytes));
    CA_FATAL_IF(artifactFingerprint(*loaded.automaton) != fingerprint,
                "artifact cache: fetched artifact hashes to another "
                    "fingerprint (corrupted or wrong artifact)");
    writeBytesAtomic(pathForFingerprint(fingerprint), raw);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stores;
    }
    CA_COUNTER_ADD("ca.persist.cache.stores", 1);
    return loaded;
}

std::shared_ptr<const std::vector<uint8_t>>
ArtifactCache::tryReadBytesByFingerprint(uint64_t fingerprint)
{
    std::string path = pathForFingerprint(fingerprint);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return nullptr;
    try {
        auto bytes =
            std::make_shared<std::vector<uint8_t>>(readFileBytes(path));
        ArtifactReader check(*bytes); // full structural + CRC validation
        return bytes;
    } catch (const CaError &) {
        return nullptr;
    }
}

LoadedArtifact
ArtifactCache::getOrFetch(uint64_t fingerprint)
{
    CA_TRACE_SCOPE("ca.persist.cache.get_or_fetch");
    if (std::optional<LoadedArtifact> hit =
            tryLoadByFingerprint(fingerprint))
        return std::move(*hit);

    // Single-flight: first miss fetches, concurrent misses wait and then
    // load what the winner published. A failed fetch wakes the waiters,
    // and the next one through the loop becomes the new fetcher.
    {
        std::unique_lock<std::mutex> lock(flight_mutex_);
        while (inflight_.count(fingerprint)) {
            {
                std::lock_guard<std::mutex> slock(mutex_);
                ++stats_.remoteFillWaits;
            }
            CA_COUNTER_ADD("ca.persist.cache.remote_fill_waits", 1);
            flight_cv_.wait(lock, [&] {
                return inflight_.count(fingerprint) == 0;
            });
            lock.unlock();
            if (std::optional<LoadedArtifact> hit =
                    tryLoadByFingerprint(fingerprint))
                return std::move(*hit);
            lock.lock();
        }
        inflight_.insert(fingerprint);
    }

    auto finishFlight = [&] {
        {
            std::lock_guard<std::mutex> lock(flight_mutex_);
            inflight_.erase(fingerprint);
        }
        flight_cv_.notify_all();
    };
    try {
        CA_FATAL_IF(!remote_, "artifact cache: no remote fetcher "
                                  "configured (set peers first)");
        CA_TRACE_SCOPE("ca.persist.cache.remote_fill");
        std::vector<uint8_t> bytes = remote_(fingerprint);
        LoadedArtifact loaded =
            storeBytesByFingerprint(fingerprint, std::move(bytes));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.remoteFills;
        }
        CA_COUNTER_ADD("ca.persist.cache.remote_fills", 1);
        finishFlight();
        return loaded;
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.remoteFillFailures;
        }
        CA_COUNTER_ADD("ca.persist.cache.remote_fill_failures", 1);
        finishFlight();
        throw;
    }
}

} // namespace ca::persist
