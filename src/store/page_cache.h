/**
 * @file
 * LRU page cache for slab-file reads.
 *
 * KVell fronts its slab files with a page cache so hot items are
 * served from DRAM without touching the device; this is the analogue
 * for pc::store. Pages are keyed by (file id, page index); capacity is
 * a fixed page count with least-recently-used eviction. The cache is a
 * plain container — the engine decides what to cache, charges the
 * simulated hit/miss costs, and invalidates pages covered by writes.
 * Hit/miss/eviction counts are kept here so the engine can publish
 * them and the YCSB sweep can report hit rates per cache size.
 */

#ifndef PC_STORE_PAGE_CACHE_H
#define PC_STORE_PAGE_CACHE_H

#include <list>
#include <string>
#include <unordered_map>

#include "util/types.h"

namespace pc::store {

/** Cache geometry. */
struct PageCacheConfig
{
    /** Cached page size; aligns with the flash page for 1:1 charging. */
    Bytes pageSize = 4 * kKiB;
    /** Capacity in pages; 0 disables the cache (every lookup misses). */
    u32 capacityPages = 64;

    bool operator==(const PageCacheConfig &) const = default;
};

/** Cumulative cache statistics. */
struct PageCacheStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 insertions = 0;
    u64 evictions = 0;
    u64 invalidations = 0;

    /** Hit fraction of all lookups; 0 when never probed. */
    double hitRate() const
    {
        const u64 total = hits + misses;
        return total == 0 ? 0.0 : double(hits) / double(total);
    }
};

/**
 * Fixed-capacity LRU map of file pages.
 */
class PageCache
{
  public:
    explicit PageCache(const PageCacheConfig &cfg = {});

    /**
     * Look a page up; a hit refreshes its recency and returns the
     * cached bytes (valid until the next mutation), a miss returns
     * nullptr. Both outcomes are counted.
     */
    const std::string *lookup(u32 file, u64 page);

    /**
     * Probe without counting or touching recency (the engine uses this
     * to decide hit/miss charging before assembling a read).
     */
    bool contains(u32 file, u64 page) const;

    /**
     * Insert (or replace) a page, evicting the least-recently-used
     * entry when full. No-op when the cache is disabled.
     */
    void insert(u32 file, u64 page, std::string bytes);

    /** Drop one page if cached (write invalidation). */
    void invalidate(u32 file, u64 page);

    /** Drop every cached page of a file (file deleted by GC). */
    void invalidateFile(u32 file);

    /** Pages currently cached. */
    std::size_t pagesCached() const { return byKey_.size(); }

    /** Statistics. */
    const PageCacheStats &stats() const { return stats_; }

    /** Geometry. */
    const PageCacheConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        u64 key;
        std::string bytes;
    };

    static u64 keyOf(u32 file, u64 page)
    {
        return (u64(file) << 32) | page;
    }

    PageCacheConfig cfg_;
    PageCacheStats stats_;
    std::list<Entry> lru_; ///< Front = most recently used.
    std::unordered_map<u64, std::list<Entry>::iterator> byKey_;
};

} // namespace pc::store

#endif // PC_STORE_PAGE_CACHE_H
