/**
 * @file
 * Sharded-builder determinism properties: for every (shards, threads)
 * combination the built community model must be byte-identical to the
 * sequential build (TripletTable::fromLog + CacheContentBuilder),
 * including the 1-shard, shards >> queries, and empty-log edge cases,
 * logs naming pairs the universe does not declare (the overflow path)
 * and one builder reused across months — and the deltas a service generates must not depend on the pipeline
 * shape that built the models.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cache_content.h"
#include "harness/workbench.h"
#include "logs/triplets.h"
#include "server/builder.h"
#include "server/service.h"

namespace pc::server {
namespace {

using harness::smallWorkbenchConfig;
using harness::Workbench;

/** One shared small world: Workbench construction dominates runtime. */
const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

/**
 * A slice of the build month (n records from `from`), to keep the
 * config grid fast.
 */
workload::SearchLog
slicedLog(const Workbench &wb, std::size_t n, std::size_t from = 0)
{
    workload::SearchLog log(wb.universe());
    const auto &records = wb.buildLog().records();
    for (std::size_t i = from; i < records.size() && i < from + n; ++i)
        log.add(records[i]);
    return log;
}

/** The sequential reference build the pipeline must reproduce. */
CommunityModel
sequentialBuild(const workload::QueryUniverse &u,
                const workload::SearchLog &log, u64 version,
                const core::ContentPolicy &policy)
{
    CommunityModel m;
    m.version = version;
    m.table = logs::TripletTable::fromLog(log);
    core::CacheContentBuilder builder(u);
    m.contents = builder.build(m.table, policy);
    return m;
}

TEST(CommunityModelBuilder, ShardThreadGridMatchesSequentialBuild)
{
    const Workbench &wb = sharedWorkbench();
    const auto log = slicedLog(wb, 20'000);
    const core::ContentPolicy policy{};
    const std::string want =
        sequentialBuild(wb.universe(), log, 1, policy).encode();

    for (u32 shards : {1u, 2u, 3u, 8u}) {
        for (u32 threads : {1u, 2u, 4u}) {
            BuildConfig cfg;
            cfg.shards = shards;
            cfg.threads = threads;
            cfg.batchRecords = 1024;
            cfg.queueCapacity = 4;
            CommunityModelBuilder b(wb.universe(), cfg);
            const CommunityModel m = b.build(log, 1, policy);
            EXPECT_EQ(m.encode(), want)
                << "shards=" << shards << " threads=" << threads;
            EXPECT_EQ(m.stats.shards, shards);
            EXPECT_EQ(m.stats.threads, threads);
            EXPECT_EQ(m.stats.records, log.size());

            // Shard accounting must cover the whole log exactly.
            u64 records = 0, rows = 0;
            ASSERT_EQ(m.stats.shardStats.size(), shards);
            for (const auto &ss : m.stats.shardStats) {
                records += ss.records;
                rows += ss.rows;
            }
            EXPECT_EQ(records, log.size());
            EXPECT_EQ(rows, m.stats.distinctPairs);
        }
    }
}

TEST(CommunityModelBuilder, RepeatBuildsAreByteIdentical)
{
    const Workbench &wb = sharedWorkbench();
    const auto log = slicedLog(wb, 20'000);
    BuildConfig cfg;
    cfg.shards = 4;
    cfg.threads = 4;
    cfg.batchRecords = 512;
    cfg.queueCapacity = 2;
    CommunityModelBuilder b(wb.universe(), cfg);
    const core::ContentPolicy policy{};
    EXPECT_EQ(b.build(log, 3, policy).encode(),
              b.build(log, 3, policy).encode());
}

TEST(CommunityModelBuilder, EmptyLogBuildsEmptyModel)
{
    const Workbench &wb = sharedWorkbench();
    const workload::SearchLog empty(wb.universe());
    const core::ContentPolicy policy{};
    const std::string want =
        sequentialBuild(wb.universe(), empty, 1, policy).encode();
    for (u32 shards : {1u, 8u}) {
        BuildConfig cfg;
        cfg.shards = shards;
        cfg.threads = 4;
        CommunityModelBuilder b(wb.universe(), cfg);
        const CommunityModel m = b.build(empty, 1, policy);
        EXPECT_EQ(m.encode(), want);
        EXPECT_EQ(m.stats.distinctPairs, 0u);
        EXPECT_EQ(m.table.rows().size(), 0u);
        EXPECT_TRUE(m.contents.pairs.empty());
    }
}

TEST(CommunityModelBuilder, ManyMoreShardsThanQueriesStillMatches)
{
    const Workbench &wb = sharedWorkbench();
    // A tiny log touching a handful of queries, against 64 shards:
    // most shards stay empty and the merge must still be exact.
    const auto log = slicedLog(wb, 50);
    const core::ContentPolicy policy{};
    const std::string want =
        sequentialBuild(wb.universe(), log, 1, policy).encode();
    BuildConfig cfg;
    cfg.shards = 64;
    cfg.threads = 3;
    cfg.batchRecords = 7;
    cfg.queueCapacity = 2;
    CommunityModelBuilder b(wb.universe(), cfg);
    EXPECT_EQ(b.build(log, 1, policy).encode(), want);
}

/** Some result in range that query q does not declare. */
u32
undeclaredResult(const workload::QueryUniverse &u, u32 q, u32 salt)
{
    const auto &declared = u.query(q).results;
    u32 r = (declared.front().first + 1 + salt) % u.numResults();
    const auto isDeclared = [&](u32 id) {
        for (const auto &[rid, w] : declared)
            if (rid == id)
                return true;
        return false;
    };
    while (isDeclared(r))
        r = (r + 1) % u.numResults();
    return r;
}

TEST(CommunityModelBuilder, UndeclaredPairsTakeTheOverflowPathExactly)
{
    const Workbench &wb = sharedWorkbench();
    const auto &u = wb.universe();
    const auto declared = slicedLog(wb, 20'000);
    const u64 maxDeclared =
        logs::TripletTable::fromLog(declared).rows().front().volume;

    // In-range undeclared pairs: 400 light ones over many queries (so
    // most shards get overflow), and one heavy pair that outweighs
    // every declared pair.
    std::vector<workload::LogRecord> light;
    for (u32 i = 0; i < 400; ++i) {
        workload::LogRecord rec;
        const u32 q = (i * 7919u) % u.numQueries();
        rec.pair = {q, undeclaredResult(u, q, i % 5)};
        for (u32 k = 0; k <= i % 3; ++k)
            light.push_back(rec);
    }
    workload::LogRecord heavy;
    heavy.pair = {11, undeclaredResult(u, 11, 0)};
    u64 heavyLeft = maxDeclared + 50;
    ASSERT_LT(heavyLeft, declared.size());

    // Each declared record is followed by one heavy and one light
    // undeclared record until they run out, so both span many batches
    // and several workers count the heavy pair.
    workload::SearchLog clean(u);
    std::size_t nextLight = 0;
    for (const auto &rec : declared.records()) {
        clean.add(rec);
        if (heavyLeft > 0) {
            clean.add(heavy);
            --heavyLeft;
        }
        if (nextLight < light.size())
            clean.add(light[nextLight++]);
    }
    // Two poisoned records: skipped and counted, never built.
    workload::SearchLog poisoned(u);
    for (const auto &rec : clean.records())
        poisoned.add(rec);
    workload::LogRecord bad;
    bad.pair = {u.numQueries() + 3, 0};
    poisoned.add(bad);
    bad.pair = {0, u.numResults() + 9};
    poisoned.add(bad);

    const core::ContentPolicy policy{};
    const CommunityModel ref = sequentialBuild(u, clean, 1, policy);
    ASSERT_EQ(ref.table.rows().front().pair, heavy.pair)
        << "the heavy undeclared pair must lead the table";
    const std::string want = ref.encode();

    for (u32 shards : {1u, 3u, 8u, 64u}) {
        for (u32 threads : {1u, 2u, 4u}) {
            BuildConfig cfg;
            cfg.shards = shards;
            cfg.threads = threads;
            cfg.batchRecords = 97;
            cfg.queueCapacity = 3;
            CommunityModelBuilder b(u, cfg);
            const CommunityModel m = b.build(poisoned, 1, policy);
            const std::string shape = "shards=" + std::to_string(shards) +
                                      " threads=" + std::to_string(threads);
            EXPECT_EQ(m.encode(), want) << shape;
            EXPECT_EQ(m.stats.skippedRecords, 2u) << shape;

            // Each shard holds exactly the reference rows whose query
            // hashes to it, so its stats are the same for every thread
            // count and cover the surviving log.
            std::vector<ShardStats> expected(shards);
            for (const auto &row : ref.table.rows()) {
                auto &ss = expected[b.shardOf(row.pair.query)];
                ss.records += row.volume;
                ++ss.rows;
            }
            ASSERT_EQ(m.stats.shardStats.size(), shards) << shape;
            for (u32 s = 0; s < shards; ++s) {
                EXPECT_EQ(m.stats.shardStats[s].records,
                          expected[s].records)
                    << shape << " shard=" << s;
                EXPECT_EQ(m.stats.shardStats[s].rows, expected[s].rows)
                    << shape << " shard=" << s;
            }
        }
    }
}

TEST(CommunityModelBuilder, ReusedBuilderCarriesNoCountsAcrossBuilds)
{
    const Workbench &wb = sharedWorkbench();
    const auto monthA = slicedLog(wb, 20'000);
    const workload::SearchLog empty(wb.universe());
    const auto monthB = slicedLog(wb, 25'000, 20'000);
    const core::ContentPolicy policy{};
    BuildConfig cfg;
    cfg.shards = 4;
    cfg.threads = 3;
    cfg.batchRecords = 1000;
    CommunityModelBuilder b(wb.universe(), cfg);
    u64 version = 1;
    for (const auto *log : {&monthA, &empty, &monthB}) {
        const CommunityModel m = b.build(*log, version, policy);
        EXPECT_EQ(m.encode(),
                  sequentialBuild(wb.universe(), *log, version, policy)
                      .encode())
            << "build v" << version;
        EXPECT_EQ(m.stats.records, log->size());
        ++version;
    }
}

TEST(CommunityModelBuilder, ShardOfPartitionsByQueryHash)
{
    const Workbench &wb = sharedWorkbench();
    BuildConfig cfg;
    cfg.shards = 5;
    CommunityModelBuilder b(wb.universe(), cfg);
    for (u32 q = 0; q < 100; ++q) {
        EXPECT_LT(b.shardOf(q), cfg.shards);
        EXPECT_EQ(b.shardOf(q), b.shardOf(q)) << "stable";
    }
}

TEST(CloudUpdateService, DeltasIndependentOfPipelineShape)
{
    const Workbench &wb = sharedWorkbench();
    const auto logA = slicedLog(wb, 15'000);
    const auto logB = slicedLog(wb, 30'000);

    const auto deltasFor = [&](u32 shards, u32 threads) {
        ServiceConfig cfg;
        cfg.build.shards = shards;
        cfg.build.threads = threads;
        cfg.build.batchRecords = 2048;
        CloudUpdateService svc(wb.universe(), cfg);
        svc.ingest(logA);
        svc.ingest(logB);
        // Full install to v2 plus incremental v1 -> v2.
        return std::vector<std::string>{
            core::encodeDelta(svc.makeDelta(0, 2)),
            core::encodeDelta(svc.makeDelta(1, 2)),
        };
    };

    const auto want = deltasFor(1, 1);
    EXPECT_EQ(deltasFor(4, 2), want);
    EXPECT_EQ(deltasFor(8, 4), want);
}

TEST(CloudUpdateService, HistoryWindowEvictsOldVersions)
{
    const Workbench &wb = sharedWorkbench();
    ServiceConfig cfg;
    cfg.maxVersions = 2;
    cfg.build.shards = 2;
    cfg.build.threads = 2;
    CloudUpdateService svc(wb.universe(), cfg);
    const auto log = slicedLog(wb, 2'000);
    svc.ingest(log);
    svc.ingest(log);
    svc.ingest(log);
    EXPECT_EQ(svc.latestVersion(), 3u);
    EXPECT_FALSE(svc.hasVersion(1)) << "evicted by the window";
    EXPECT_TRUE(svc.hasVersion(2));
    EXPECT_TRUE(svc.hasVersion(3));

    // A device stuck on the evicted version gets a full install.
    const auto d = svc.makeDelta(1, 3);
    EXPECT_EQ(d.fromVersion, 0u);
    EXPECT_EQ(d.toVersion, 3u);
    EXPECT_TRUE(d.evicts.empty());
    EXPECT_TRUE(d.reranks.empty());
}

} // namespace
} // namespace pc::server
