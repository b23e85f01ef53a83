/**
 * @file
 * PocketSearch — the search/advertisement pocket cloudlet (Section 5).
 *
 * Combines the community cache (popular query/result pairs pushed from
 * the server's log analysis) with the personalization component (pairs
 * the user accessed, plus click-driven re-ranking) over the DRAM hash
 * table and the flash result database. Operating modes isolate each
 * component for the paper's Figure 17 ablation.
 */

#ifndef PC_CORE_POCKET_SEARCH_H
#define PC_CORE_POCKET_SEARCH_H

#include <optional>
#include <string>
#include <vector>

#include "core/cache_content.h"
#include "core/hash_table.h"
#include "core/result_db.h"
#include "core/suggest.h"
#include "obs/metrics.h"

namespace pc::core {

/** Which cache components are active (Figure 17's three curves). */
enum class CacheMode
{
    Combined,            ///< Community warm start + personalization.
    CommunityOnly,       ///< Static community cache; no learning.
    PersonalizationOnly, ///< Cold start; caches only what the user clicks.
};

/** Display name of a mode. */
std::string cacheModeName(CacheMode m);

/**
 * Where the data index (hash table + suggest index) lives
 * (Section 3.3's tier discussion).
 */
enum class IndexTier
{
    /** Volatile DRAM; the index reloads from NAND at every boot. */
    DramFromNand,
    /** Persistent PCM; instantly available at boot, slower probes. */
    Pcm,
};

/** Display name of a tier. */
std::string indexTierName(IndexTier t);

/** PocketSearch configuration. */
struct PocketSearchConfig
{
    CacheMode mode = CacheMode::Combined;
    /** Ranking decay constant lambda of Equation (2). */
    double lambda = 0.10;
    /** Maintain the Figure-1 auto-suggest prefix index. */
    bool enableSuggest = true;
    /** Index placement (Section 3.3). */
    IndexTier indexTier = IndexTier::DramFromNand;
    /** Hash-table entry layout. */
    HashEntryLayout layout{};
    /** Result database shape. */
    DbConfig db{};

    bool operator==(const PocketSearchConfig &) const = default;
};

/** Outcome of a query lookup. */
struct LookupOutcome
{
    bool hit = false;          ///< Query found in the hash table.
    SimTime hashLookupTime = 0; ///< Table probe latency (~10us).
    SimTime fetchTime = 0;      ///< Flash retrieval latency.
    /** Fetched records, ranked by descending score. */
    std::vector<ResultRecord> results;
    /** Ranked url hashes (parallel to `results`). */
    std::vector<u64> urlHashes;
};

/** Auto-suggest output: completions plus their instant results. */
struct SuggestOutcome
{
    /** One box row: the completed query and its fetched top results. */
    struct Row
    {
        Suggestion suggestion;
        std::vector<ResultRecord> results;
    };

    std::vector<Row> rows;
    SimTime latency = 0; ///< Keystroke probe + flash fetches.
};

/** Cumulative serving statistics. */
struct ServeStats
{
    u64 lookups = 0;
    u64 queryHits = 0;  ///< Query string found.
    u64 pairHits = 0;   ///< Query found AND clicked result cached.
    u64 clicksRecorded = 0;
    u64 pairsLearned = 0;   ///< Pairs added by personalization.
    u64 recordsLearned = 0; ///< DB records added by personalization.
};

/**
 * The on-phone search cache.
 */
class PocketSearch
{
    /** Auto-suggest updates deferred by an open BulkInstall. */
    struct BulkQueue
    {
        std::vector<Suggestion> inserts; ///< Queued ratchet inserts.
        std::vector<std::string> dirty;  ///< Queries to resync.
    };

  public:
    /**
     * @param universe Interprets pair ids (strings, URLs, records).
     * @param store Flash file store for the result database.
     * @param cfg Configuration.
     */
    PocketSearch(const QueryUniverse &universe,
                 pc::simfs::FlashStore &store,
                 const PocketSearchConfig &cfg = {});

    /**
     * Install community contents (the overnight push). In
     * PersonalizationOnly mode this is a no-op — that cache starts cold.
     * @param[out] time Accumulates the flash write latency of the push.
     */
    void loadCommunity(const CacheContents &contents, SimTime &time);

    /**
     * Look up a query string; on a hit, fetch up to `max_results`
     * top-ranked records from flash.
     */
    LookupOutcome lookup(const std::string &query_text,
                         u32 max_results = 2);

    /** Lookup by universe pair (replay convenience). */
    LookupOutcome lookupPair(const workload::PairRef &p,
                             u32 max_results = 2);

    /** True if the exact (query, result) pair is cached. */
    bool containsPair(const workload::PairRef &p) const;

    /** True if the query string has any cached results. */
    bool containsQuery(const std::string &query_text) const;

    /**
     * Record a user click-through for a pair: updates ranking
     * (Equations 1/2) and, when personalization is active, caches the
     * pair and its record if new.
     * @param[out] time Accumulates flash write latency for learning.
     */
    void recordClick(const workload::PairRef &p, SimTime &time);

    /**
     * Install one pair directly (community push / update protocol).
     * Inserts into the hash table, ships the record to flash if absent
     * and keeps the auto-suggest index in sync.
     * @param[out] time Accumulates flash write latency.
     * @return True if the database gained a new record.
     */
    bool installPair(const workload::PairRef &p, double score,
                     bool user_accessed, SimTime &time);

    /**
     * Reinstate one index entry from a persisted snapshot (the record
     * bytes are already on flash, so nothing is written).
     */
    void restorePair(const std::string &query, u64 url_hash,
                     double score, bool user_accessed);

    /**
     * Bulk-install scope. While one is alive, auto-suggest updates are
     * deferred: installPair and restorePair queue their inserts, and
     * evictPair and setPairScore only mark their query dirty. The
     * destructor merges the queued inserts in one sorted pass
     * (SuggestIndex::insertAll), then resolves every dirty query
     * against the final table in a second one (SuggestIndex::
     * assignAll): the score becomes the query's best table score, or
     * the entry goes when the table no longer holds the query.
     *
     * That is exactly the index the per-call updates leave, provided
     * every insert that follows a query's last evict or re-score
     * carries a score the table holds (a fresh pair's install score).
     * The per-call path ends the query at its best table score as of
     * that resync, raised by those later inserts — which is the final
     * table's best score (bit for bit: the index stores either zero
     * as +0.0). Community installs, snapshot restores, the
     * cache-manager rebuild and delta apply all satisfy it. Only
     * findPair and table reads may run alongside these calls inside
     * the scope.
     */
    class BulkInstall
    {
      public:
        explicit BulkInstall(PocketSearch &ps);
        ~BulkInstall();
        BulkInstall(const BulkInstall &) = delete;
        BulkInstall &operator=(const BulkInstall &) = delete;

      private:
        PocketSearch &ps_;
        BulkQueue queue_;
    };

    /**
     * Become a copy of `src`'s cache state: hash table, auto-suggest
     * index and database location map (see CommunityImage, which pairs
     * this with the store and flash copies). Refuses (pc_assert) unless
     * this cache is empty and shares `src`'s universe and config.
     */
    void copyStateFrom(const PocketSearch &src);

    /** Cached state of a pair (score, accessed), or nullopt. */
    std::optional<ResultRef> findPair(const workload::PairRef &p) const;

    /**
     * Remove one pair from the index (delta eviction). The flash
     * record stays — other queries may reference it, and the database
     * is append-mostly anyway. Keeps auto-suggest in sync.
     * @return True if the pair was cached.
     */
    bool evictPair(const workload::PairRef &p);

    /**
     * Overwrite one pair's ranking score (delta rerank / conflict
     * resolution), resyncing the auto-suggest entry to the query's new
     * best score. @return True if the pair was cached.
     */
    bool setPairScore(const workload::PairRef &p, double score);

    /**
     * Figure 1: auto-suggest with instant results. For each of the
     * top `max_suggestions` cached queries completing `prefix`, fetch
     * up to `results_per_suggestion` top-ranked records.
     */
    SuggestOutcome suggestWithResults(std::string_view prefix,
                                      u32 max_suggestions = 3,
                                      u32 results_per_suggestion = 1);

    /** The auto-suggest index (empty when disabled). */
    const SuggestIndex &suggestIndex() const { return suggest_; }

    /**
     * Time from power-on until the index is usable (Section 3.3): a
     * DRAM index must stream in from NAND and deserialize; a PCM index
     * is persistent and instantly available.
     */
    SimTime bootIndexLoadTime() const;

    /** Per-probe penalty of the configured tier over DRAM. */
    SimTime tierProbePenalty() const;

    /** PCM probes cost roughly this much extra per lookup. */
    static constexpr SimTime kPcmProbePenalty = 20 * kMicrosecond;
    /** Index deserialization cost per byte when reloading from NAND. */
    static constexpr SimTime kIndexParsePerByte = 15;

    /** Cached pair count. */
    std::size_t pairs() const { return table_.pairs(); }
    /** Hash-table DRAM footprint. */
    Bytes dramBytes() const { return table_.memoryBytes(); }
    /** Result database logical size. */
    Bytes flashLogicalBytes() const { return db_.logicalBytes(); }
    /** Result database physical (block-rounded) size. */
    Bytes flashPhysicalBytes() const { return db_.physicalBytes(); }

    /** Serving statistics. */
    const ServeStats &stats() const { return stats_; }

    /**
     * Register serving counters under "core.search.*" (lookups,
     * query_hits, pair_hits, clicks, pairs_learned, records_learned),
     * mirroring ServeStats into the registry. nullptr detaches.
     */
    void attachMetrics(obs::MetricRegistry *reg);

    /** Mutable hash table (cache manager / tests). */
    QueryHashTable &table() { return table_; }
    /** Hash table. */
    const QueryHashTable &table() const { return table_; }
    /** Mutable result database (cache manager / tests). */
    ResultDatabase &db() { return db_; }
    /** Result database. */
    const ResultDatabase &db() const { return db_; }
    /** Flash file store the database lives in. */
    pc::simfs::FlashStore &store() { return store_; }
    /** Universe. */
    const QueryUniverse &universe() const { return universe_; }
    /** Configuration. */
    const PocketSearchConfig &config() const { return cfg_; }

    /** Drop all hash-table contents (cache manager rebuild). */
    void clearTable();

  private:
    /** Cached metric handles (null when no registry is attached). */
    struct Metrics
    {
        obs::Counter *lookups = nullptr;
        obs::Counter *queryHits = nullptr;
        obs::Counter *pairHits = nullptr;
        obs::Counter *clicks = nullptr;
        obs::Counter *pairsLearned = nullptr;
        obs::Counter *recordsLearned = nullptr;
    };

    /**
     * Re-derive a query's auto-suggest score after an evict/rerank.
     * SuggestIndex::insert only ratchets scores upward, so the entry is
     * erased and reinserted at the query's current best table score —
     * exactly the state a fresh install of the same contents produces.
     * Under a BulkInstall the query is only marked dirty.
     */
    void resyncSuggest(const std::string &query_text);

    /** Insert into the suggest index, or queue under a BulkInstall. */
    void suggestInsert(const std::string &query_text, double score);

    /** A query's best table score, or nullopt if it has no pairs. */
    std::optional<double> bestScore(const std::string &query_text) const;

    const QueryUniverse &universe_;
    pc::simfs::FlashStore &store_;
    PocketSearchConfig cfg_;
    QueryHashTable table_;
    ResultDatabase db_;
    SuggestIndex suggest_;
    ServeStats stats_;
    Metrics metrics_;
    /** The open BulkInstall's queue, or null. */
    BulkQueue *bulk_ = nullptr;
};

} // namespace pc::core

#endif // PC_CORE_POCKET_SEARCH_H
