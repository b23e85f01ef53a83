/**
 * @file
 * Sharded, multi-threaded community-model builder (the cloud half of
 * Section 5.1, sized for the paper's 200M-query month).
 *
 * Pipeline:
 *
 *   log records ──batches──▶ bounded WorkQueue ──▶ T aggregation
 *   workers (each with a private flat count array indexed by pair
 *   slot, plus a small per-shard overflow map) ──join──▶ per-shard
 *   slot-range sum + sort (fanned out over the T threads) ──▶
 *   deterministic k-way shard merge ──▶ TripletTable ──▶ CacheContents
 *
 * Slot layout: every pair the universe declares (QueryInfo::results)
 * gets a dense slot at construction. Slots are grouped by shard, so
 * each shard owns one contiguous slot range, and within it each query
 * owns a short run (1-3 slots in generated worlds). A worker finds a record's slot by scanning
 * its query's run and bumps a u64 — no hashing on the hot path. A
 * record whose ids are in range but name a pair the universe does
 * not declare goes to the worker's overflow map for that shard, so an
 * arbitrary log still builds exactly; generated logs never reach it.
 *
 * Records are partitioned by *query hash* (fnv1a of the query string,
 * the same hash the device table keys on), so one query's volume
 * always lands in one shard and shards partition the pair space.
 * Per-shard record counts are the sums of the shard's slot range and
 * overflow volumes, so the hot loop does no per-record shard lookup.
 *
 * Determinism invariant (tested, and the reason the whole fleet of
 * byte-deterministic benches survives this subsystem): for any shard
 * count N >= 1 and thread count T >= 1, the built model is
 * byte-identical to the sequential build (TripletTable::fromLog +
 * CacheContentBuilder). The argument:
 *
 *  - per-pair volumes are u64 sums — associative and commutative, so
 *    worker scheduling cannot change any count;
 *  - each shard is sorted with TripletTable::rowOrder, a strict total
 *    order (volume desc, packed pair id asc — no equal keys);
 *  - shards partition the pairs, so the k-way merge under the same
 *    total order reproduces exactly the globally sorted row sequence.
 *
 * Only the *timing* statistics (wall ms, queue watermarks) vary run
 * to run; everything in CommunityModel::encode() is invariant.
 */

#ifndef PC_SERVER_BUILDER_H
#define PC_SERVER_BUILDER_H

#include <vector>

#include "server/model.h"
#include "workload/searchlog.h"

namespace pc::server {

/** Build-pipeline shape. */
struct BuildConfig
{
    u32 shards = 8;          ///< Query-hash partitions (>= 1).
    u32 threads = 4;         ///< Aggregation workers (>= 1).
    u32 batchRecords = 8192; ///< Log records per work item.
    u32 queueCapacity = 64;  ///< Batches in flight (backpressure bound).
};

/**
 * Builds versioned community models from search logs. Stateless
 * between builds (its shard and slot tables are fixed at construction
 * and only read by the workers; counts are allocated per build);
 * thread-safe to the extent that distinct builders may run
 * concurrently (one build spawns its own worker pool).
 */
class CommunityModelBuilder
{
  public:
    /**
     * @param universe Interprets pair ids (query strings are hashed
     *        for sharding; results are sized for the contents).
     * @param cfg Pipeline shape.
     */
    CommunityModelBuilder(const workload::QueryUniverse &universe,
                          const BuildConfig &cfg = {});

    /**
     * Mine one log into a model.
     *
     * @param log The month of community logs.
     * @param version Version stamp for the result.
     * @param policy Content selection policy.
     */
    CommunityModel build(const workload::SearchLog &log, u64 version,
                         const core::ContentPolicy &policy) const;

    /** Shard a query id the way the pipeline does (exposed for tests). */
    u32 shardOf(u32 query_id) const { return shardOf_.at(query_id); }

    /** Configuration. */
    const BuildConfig &config() const { return cfg_; }

  private:
    const workload::QueryUniverse &universe_;
    BuildConfig cfg_;
    /** A query's run of slots, one per declared result. */
    struct QuerySlots
    {
        u32 first = 0;
        u32 count = 0;
    };

    /** Shard of each query id, hashed once instead of per record. */
    std::vector<u32> shardOf_;
    /** Slot run of each query id. */
    std::vector<QuerySlots> querySlots_;
    /** Shard s owns slots [shardSlots_[s], shardSlots_[s + 1]). */
    std::vector<u32> shardSlots_;
    /** The pair each slot counts. */
    std::vector<u32> slotQuery_;
    std::vector<u32> slotResult_;
};

} // namespace pc::server

#endif // PC_SERVER_BUILDER_H
