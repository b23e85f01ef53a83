#include "server/builder.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/work_queue.h"
#include "util/hash.h"
#include "util/logging.h"

namespace pc::server {

namespace {

/** Pack a PairRef into a 64-bit map key (matches TripletTable). */
constexpr u64
pairKey(const workload::PairRef &p)
{
    return (u64(p.query) << 32) | p.result;
}

/** One work item: a contiguous slice of the log's record array. */
struct Batch
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** Per-worker private aggregation state (no locks on the hot path). */
struct WorkerState
{
    /** counts[slot] -> volume of that declared pair. */
    std::vector<u64> counts;
    /** overflow[shard][pairKey] -> volume of undeclared pairs. */
    std::vector<std::unordered_map<u64, u64>> overflow;
    /** Poisoned records this worker dropped (ids out of range). */
    u64 skipped = 0;
};

} // namespace

CommunityModelBuilder::CommunityModelBuilder(
    const workload::QueryUniverse &universe, const BuildConfig &cfg)
    : universe_(universe), cfg_(cfg)
{
    pc_assert(cfg_.shards >= 1, "builder needs at least one shard");
    pc_assert(cfg_.threads >= 1, "builder needs at least one worker");
    pc_assert(cfg_.batchRecords >= 1, "batch size must be positive");
    pc_assert(cfg_.queueCapacity >= 1, "queue capacity must be positive");
    // Query-*hash* partitioning: the same fnv1a the device hash table
    // keys on, so a real server could shard raw log lines without the
    // id space the simulation enjoys. Hashed once per query here, not
    // once per log record in the ingest loop.
    const u32 nQueries = universe_.numQueries();
    shardOf_.resize(nQueries);
    querySlots_.resize(nQueries);
    shardSlots_.assign(cfg_.shards + 1, 0);
    u64 totalSlots = 0;
    for (u32 q = 0; q < nQueries; ++q) {
        const auto &info = universe_.query(q);
        const u32 s = u32(fnv1a(info.text) % cfg_.shards);
        shardOf_[q] = s;
        querySlots_[q].count = u32(info.results.size());
        shardSlots_[s + 1] += querySlots_[q].count;
        totalSlots += querySlots_[q].count;
    }
    pc_assert(totalSlots <= 0xffffffffull, "too many declared pairs");
    for (u32 s = 0; s < cfg_.shards; ++s)
        shardSlots_[s + 1] += shardSlots_[s];

    // One counting pass places each query's run at its shard's cursor.
    slotQuery_.resize(totalSlots);
    slotResult_.resize(totalSlots);
    std::vector<u32> cursor(shardSlots_.begin(), shardSlots_.end() - 1);
    for (u32 q = 0; q < nQueries; ++q) {
        QuerySlots &run = querySlots_[q];
        run.first = cursor[shardOf_[q]];
        cursor[shardOf_[q]] += run.count;
        const auto &results = universe_.query(q).results;
        for (u32 i = 0; i < run.count; ++i) {
            slotQuery_[run.first + i] = q;
            slotResult_[run.first + i] = results[i].first;
        }
    }
}

CommunityModel
CommunityModelBuilder::build(const workload::SearchLog &log, u64 version,
                             const core::ContentPolicy &policy) const
{
    const auto wallStart = std::chrono::steady_clock::now();
    const auto &records = log.records();
    const u32 nShards = cfg_.shards;
    const u32 nThreads = cfg_.threads;

    CommunityModel model;
    model.version = version;
    model.stats.shards = nShards;
    model.stats.threads = nThreads;
    model.stats.records = records.size();
    model.stats.shardStats.resize(nShards);

    // ---- Stage 1: batched ingest through the bounded queue. -------------
    std::vector<WorkerState> workers(nThreads);
    WorkQueue<Batch> queue(cfg_.queueCapacity);
    {
        std::vector<std::thread> pool;
        pool.reserve(nThreads);
        for (u32 t = 0; t < nThreads; ++t) {
            pool.emplace_back([&, t] {
                WorkerState &w = workers[t];
                // Allocated (and first touched) by the worker itself.
                w.counts.assign(slotQuery_.size(), 0);
                w.overflow.resize(nShards);
                Batch b;
                while (queue.pop(b)) {
                    for (std::size_t i = b.begin; i < b.end; ++i) {
                        const auto &pair = records[i].pair;
                        // Poisoned record (ids the universe cannot
                        // interpret): skip and count. The slot table
                        // lookup would otherwise read out of bounds.
                        if (pair.query >= universe_.numQueries() ||
                            pair.result >= universe_.numResults()) {
                            ++w.skipped;
                            continue;
                        }
                        const QuerySlots run = querySlots_[pair.query];
                        const u32 *result = slotResult_.data() + run.first;
                        u32 at = 0;
                        while (at < run.count && result[at] != pair.result)
                            ++at;
                        if (at < run.count)
                            ++w.counts[run.first + at];
                        else
                            ++w.overflow[shardOf_[pair.query]]
                                        [pairKey(pair)];
                    }
                }
            });
        }

        // Producer: slice the log; push() blocks when workers lag
        // (backpressure), so at most queueCapacity batches are in
        // flight no matter how large the month is.
        for (std::size_t at = 0; at < records.size();
             at += cfg_.batchRecords) {
            Batch b{at, std::min(records.size(),
                                 at + std::size_t(cfg_.batchRecords))};
            queue.push(b);
            ++model.stats.batches;
        }
        queue.close();
        for (auto &th : pool)
            th.join();
    }
    model.stats.maxQueueDepth = queue.maxDepth();
    model.stats.meanQueueDepth = queue.meanDepth();

    // ---- Stage 2: per shard, sum the workers' counts over the shard's
    // slot range and merge its overflow entries (u64 sums — exact,
    // order-independent), then sort the nonzero rows in rowOrder.
    // Shards are independent, so this fans out over the same thread
    // budget.
    std::vector<std::vector<logs::Triplet>> shardRows(nShards);
    {
        std::vector<std::thread> pool;
        const u32 sortThreads = std::min(nThreads, nShards);
        pool.reserve(sortThreads);
        for (u32 t = 0; t < sortThreads; ++t) {
            pool.emplace_back([&, t] {
                for (u32 s = t; s < nShards; s += sortThreads) {
                    auto &rows = shardRows[s];
                    rows.reserve(shardSlots_[s + 1] - shardSlots_[s]);
                    u64 shardRecords = 0;
                    const auto emit = [&](u32 query, u32 result,
                                          u64 vol) {
                        logs::Triplet row;
                        row.pair = workload::PairRef{query, result};
                        row.volume = vol;
                        rows.push_back(row);
                        shardRecords += vol;
                    };
                    for (u32 slot = shardSlots_[s];
                         slot < shardSlots_[s + 1]; ++slot) {
                        u64 vol = 0;
                        for (const auto &w : workers)
                            vol += w.counts[slot];
                        if (vol > 0)
                            emit(slotQuery_[slot], slotResult_[slot], vol);
                    }
                    // Undeclared pairs never share a key with a slot.
                    std::unordered_map<u64, u64> extra;
                    for (const auto &w : workers)
                        for (const auto &[key, vol] : w.overflow[s])
                            extra[key] += vol;
                    for (const auto &[key, vol] : extra)
                        emit(u32(key >> 32), u32(key & 0xffffffffu), vol);
                    std::sort(rows.begin(), rows.end(),
                              logs::TripletTable::rowOrder);
                    auto &st = model.stats.shardStats[s];
                    st.rows = rows.size();
                    st.records = shardRecords;
                }
            });
        }
        for (auto &th : pool)
            th.join();
    }

    for (const auto &w : workers)
        model.stats.skippedRecords += w.skipped;
    if (model.stats.skippedRecords > 0)
        pc_warn("model build v", version, " skipped ",
                model.stats.skippedRecords, " poisoned log records");

    // ---- Stage 3: deterministic k-way shard merge. Shards partition
    // the pair space and rowOrder is a strict total order, so merging
    // the sorted runs in that order reproduces the global sort of the
    // sequential build exactly.
    std::vector<logs::Triplet> rows;
    {
        std::size_t total = 0;
        for (const auto &sr : shardRows)
            total += sr.size();
        rows.reserve(total);

        // Heap entry: (next row of shard s). Shard index breaks no
        // ties — rowOrder cannot compare equal across shards.
        struct Head
        {
            u32 shard;
            std::size_t at;
        };
        auto headGreater = [&](const Head &a, const Head &b) {
            // priority_queue is a max-heap; invert rowOrder.
            return logs::TripletTable::rowOrder(shardRows[b.shard][b.at],
                                                shardRows[a.shard][a.at]);
        };
        std::priority_queue<Head, std::vector<Head>,
                            decltype(headGreater)>
            heap(headGreater);
        for (u32 s = 0; s < nShards; ++s)
            if (!shardRows[s].empty())
                heap.push(Head{s, 0});
        while (!heap.empty()) {
            const Head h = heap.top();
            heap.pop();
            rows.push_back(shardRows[h.shard][h.at]);
            if (h.at + 1 < shardRows[h.shard].size())
                heap.push(Head{h.shard, h.at + 1});
        }
    }
    model.stats.distinctPairs = rows.size();
    model.table = logs::TripletTable::fromSortedRows(std::move(rows));

    // ---- Stage 4: content selection (identical to the sequential
    // path — same builder, same policy, same table).
    core::CacheContentBuilder contentBuilder(universe_);
    model.contents = contentBuilder.build(model.table, policy);

    model.stats.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
    return model;
}

} // namespace pc::server
