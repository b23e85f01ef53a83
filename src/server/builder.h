/**
 * @file
 * Sharded, multi-threaded community-model builder (the cloud half of
 * Section 5.1, sized for the paper's 200M-query month).
 *
 * Pipeline:
 *
 *   log records ──batches──▶ bounded WorkQueue ──▶ T aggregation
 *   workers (each with private per-shard count maps) ──join──▶
 *   per-shard count merge ──▶ per-shard sort ──▶ deterministic
 *   k-way shard merge ──▶ TripletTable ──▶ CacheContents
 *
 * Records are partitioned by *query hash* (fnv1a of the query string,
 * the same hash the device table keys on), so one query's volume
 * always lands in one shard and shards partition the pair space.
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
 * between builds (its query-to-shard table is fixed at construction);
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
    /** Shard of each query id, hashed once instead of per record. */
    std::vector<u32> shardOf_;
};

} // namespace pc::server

#endif // PC_SERVER_BUILDER_H
