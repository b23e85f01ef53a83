/**
 * @file
 * Install by image == install by loop.
 *
 * A CommunityImage must hand a fresh device exactly the state
 * PocketSearch::loadCommunity would have built on it: the same table,
 * suggest index, database files and records, flash counters (energy
 * bit for bit), per-block wear and install time — and the copy must
 * share nothing with the image, so identical later activity keeps the
 * two devices identical. Also covers the refusals, concurrent installs
 * from one const image, and SuggestIndex::insertAll against repeated
 * insert.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <thread>
#include <tuple>

#include "core/community_image.h"
#include "core/persistence.h"
#include "util/rng.h"

namespace pc::core {
namespace {

workload::UniverseConfig
tinyUniverse()
{
    workload::UniverseConfig cfg;
    cfg.navResults = 200;
    cfg.nonNavResults = 800;
    cfg.navHead = 30;
    cfg.nonNavHead = 30;
    cfg.habitNavHead = 20;
    cfg.habitNonNavHead = 15;
    return cfg;
}

pc::nvm::FlashConfig
flashConfig()
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    return fc;
}

pc::simfs::StoreConfig
storeConfig()
{
    pc::simfs::StoreConfig sc;
    sc.allocUnit = 2 * kKiB;
    return sc;
}

/** One phone's cache stack. */
struct Phone
{
    Phone(const QueryUniverse &uni, const PocketSearchConfig &cfg,
          const pc::nvm::FlashConfig &fc = flashConfig())
        : flash(fc), store(flash, storeConfig()), ps(uni, store, cfg)
    {
    }

    pc::nvm::FlashDevice flash;
    pc::simfs::FlashStore store;
    PocketSearch ps;
};

/** (query hash, url hash, score bits, accessed) of every cached pair. */
std::vector<std::tuple<u64, u64, u64, bool>>
tablePairs(const PocketSearch &ps)
{
    std::vector<std::tuple<u64, u64, u64, bool>> out;
    ps.table().forEachPair([&](u64 qh, const ResultRef &r) {
        out.emplace_back(qh, r.urlHash, std::bit_cast<u64>(r.score),
                         r.userAccessed);
    });
    std::sort(out.begin(), out.end());
    return out;
}

/** Every suggest entry as (query, score bits), in suggest order. */
std::vector<std::pair<std::string, u64>>
suggestions(const SuggestIndex &idx, std::string_view prefix = "")
{
    std::vector<std::pair<std::string, u64>> out;
    for (const auto &s : idx.suggest(prefix, ~u32(0)))
        out.emplace_back(s.query, std::bit_cast<u64>(s.score));
    return out;
}

/**
 * Assert two phones hold identical state. Flash counters are compared
 * before the file and record reads, which charge both devices alike.
 */
void
expectSamePhone(Phone &a, Phone &b)
{
    const auto &sa = a.flash.stats();
    const auto &sb = b.flash.stats();
    EXPECT_EQ(sa.readOps, sb.readOps);
    EXPECT_EQ(sa.writeOps, sb.writeOps);
    EXPECT_EQ(sa.bytesRead, sb.bytesRead);
    EXPECT_EQ(sa.bytesWritten, sb.bytesWritten);
    EXPECT_EQ(sa.busyTime, sb.busyTime);
    EXPECT_EQ(std::bit_cast<u64>(sa.energy), std::bit_cast<u64>(sb.energy));
    EXPECT_EQ(a.flash.pagesRead(), b.flash.pagesRead());
    EXPECT_EQ(a.flash.pagesProgrammed(), b.flash.pagesProgrammed());
    EXPECT_EQ(a.flash.blocksErased(), b.flash.blocksErased());
    const Bytes blockBytes =
        flashConfig().pageSize * flashConfig().pagesPerBlock;
    for (u64 blk = 0; blk < flashConfig().capacity / blockBytes; ++blk)
        ASSERT_EQ(a.flash.blockEraseCount(blk), b.flash.blockEraseCount(blk))
            << "block " << blk;

    EXPECT_EQ(a.ps.table().entries(), b.ps.table().entries());
    EXPECT_EQ(a.ps.pairs(), b.ps.pairs());
    const auto pairs = tablePairs(a.ps);
    EXPECT_EQ(pairs, tablePairs(b.ps));
    EXPECT_EQ(suggestions(a.ps.suggestIndex()),
              suggestions(b.ps.suggestIndex()));

    EXPECT_EQ(a.store.stats().physicalBytes, b.store.stats().physicalBytes);
    const auto files = a.store.listFiles();
    ASSERT_EQ(files, b.store.listFiles());
    for (const auto &name : files) {
        const auto fa = a.store.lookup(name);
        const auto fb = b.store.lookup(name);
        std::string da, db;
        SimTime ta = 0, tb = 0;
        a.store.read(fa, 0, a.store.size(fa), da, ta);
        b.store.read(fb, 0, b.store.size(fb), db, tb);
        EXPECT_EQ(da, db) << name;
        EXPECT_EQ(ta, tb) << name;
    }

    ASSERT_EQ(a.ps.db().records(), b.ps.db().records());
    for (const auto &[qh, uh, score, accessed] : pairs) {
        (void)qh;
        (void)score;
        (void)accessed;
        ResultRecord ra, rb;
        SimTime ta = 0, tb = 0;
        ASSERT_EQ(a.ps.db().fetch(uh, ra, ta), b.ps.db().fetch(uh, rb, tb));
        EXPECT_EQ(ra.title, rb.title);
        EXPECT_EQ(ra.description, rb.description);
        EXPECT_EQ(ra.url, rb.url);
        EXPECT_EQ(ta, tb);
    }
}

/**
 * `queries` queries with one to five results each, drawn so results
 * repeat across queries, plus a re-push of some pairs at other scores:
 * chained table entries, shared records, score ties and duplicate
 * suggest inserts.
 */
CacheContents
chainedContents(const QueryUniverse &uni, u32 queries)
{
    CacheContents c;
    for (u32 q = 0; q < queries; ++q) {
        for (u32 j = 0; j <= q % 5; ++j) {
            const u32 r = (q * 3 + j * 17) % uni.numResults();
            c.pairs.push_back(ScoredPair{{q, r}, 1.0 / (1 + j / 2), 1});
        }
    }
    const std::size_t n = c.pairs.size();
    for (std::size_t i = 0; i < n; i += 7) {
        ScoredPair again = c.pairs[i];
        again.score = (i % 2) ? again.score * 2 : 0.0;
        c.pairs.push_back(again);
    }
    return c;
}

/** A month of serves and clicks, then a snapshot, on one phone. */
void
liveAMonth(Phone &p, const QueryUniverse &uni, u64 seed)
{
    Rng rng(seed);
    SimTime t = 0;
    for (int i = 0; i < 400; ++i) {
        const u32 q = u32(rng.below(std::min<u32>(uni.numQueries(), 300)));
        const auto &results = uni.query(q).results;
        if (results.empty())
            continue;
        const workload::PairRef pair{
            q, results[rng.below(results.size())].first};
        const auto out = p.ps.lookupPair(pair);
        t += out.hashLookupTime + out.fetchTime;
        p.ps.recordClick(pair, t);
        if (i % 50 == 0)
            p.ps.setPairScore(pair, 0.25);
        if (i % 97 == 0)
            p.ps.evictPair(pair);
        if (i % 31 == 0)
            p.ps.suggestWithResults(uni.query(q).text.substr(0, 2));
    }
    SimTime persistTime = 0;
    ASSERT_TRUE(persistIndex(p.ps, p.store, "index.snap", persistTime).ok);
}

class CommunityImageTest
    : public ::testing::TestWithParam<std::tuple<CacheMode, bool>>
{
  protected:
    CommunityImageTest() : uni_(tinyUniverse()) {}

    PocketSearchConfig
    config() const
    {
        PocketSearchConfig cfg;
        cfg.mode = std::get<0>(GetParam());
        cfg.enableSuggest = std::get<1>(GetParam());
        return cfg;
    }

    QueryUniverse uni_;
};

TEST_P(CommunityImageTest, ImageInstallMatchesLoopInstall)
{
    const auto contents = chainedContents(uni_, 120);
    const CommunityImage image(uni_, contents, flashConfig(),
                               storeConfig(), config());

    Phone loop(uni_, config());
    SimTime loopTime = 0;
    loop.ps.loadCommunity(contents, loopTime);

    Phone copy(uni_, config());
    const SimTime copyTime = image.installInto(copy.ps);

    EXPECT_EQ(copyTime, loopTime);
    EXPECT_EQ(image.installTime(), loopTime);
    if (config().mode != CacheMode::PersonalizationOnly) {
        // The contents really do chain: 120 queries, more entries.
        EXPECT_GT(loop.ps.table().entries(), std::size_t(150));
        EXPECT_GT(loopTime, 0);
    }
    expectSamePhone(loop, copy);

    // Identical activity afterwards keeps them identical: nothing the
    // copy owns is shared with the image.
    liveAMonth(loop, uni_, 7);
    liveAMonth(copy, uni_, 7);
    expectSamePhone(loop, copy);

    // ...and the image itself is untouched by either device's month.
    Phone again(uni_, config());
    EXPECT_EQ(image.installInto(again.ps), loopTime);
    Phone fresh(uni_, config());
    SimTime freshTime = 0;
    fresh.ps.loadCommunity(contents, freshTime);
    expectSamePhone(fresh, again);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSuggest, CommunityImageTest,
    ::testing::Combine(::testing::Values(CacheMode::Combined,
                                         CacheMode::CommunityOnly,
                                         CacheMode::PersonalizationOnly),
                       ::testing::Bool()));

TEST(CommunityImageRefusal, NonFreshOrMismatchedTargetDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const QueryUniverse uni(tinyUniverse());
    const auto contents = chainedContents(uni, 20);
    const PocketSearchConfig cfg;
    const CommunityImage image(uni, contents, flashConfig(), storeConfig(),
                               cfg);

    Phone used(uni, cfg);
    SimTime t = 0;
    used.ps.loadCommunity(contents, t);
    EXPECT_DEATH(image.installInto(used.ps), "unused device");

    Phone twice(uni, cfg);
    image.installInto(twice.ps);
    EXPECT_DEATH(image.installInto(twice.ps), "unused device");

    PocketSearchConfig otherLambda;
    otherLambda.lambda = 0.5;
    Phone mismatched(uni, otherLambda);
    EXPECT_DEATH(image.installInto(mismatched.ps), "same universe");

    pc::nvm::FlashConfig bigger = flashConfig();
    bigger.capacity = 128 * kMiB;
    Phone otherFlash(uni, cfg, bigger);
    EXPECT_DEATH(image.installInto(otherFlash.ps), "same config");

    Phone metered(uni, cfg);
    obs::MetricRegistry reg;
    metered.store.attachMetrics(&reg);
    EXPECT_DEATH(image.installInto(metered.ps), "fresh store");
}

TEST(CommunityImageConcurrency, FourThreadsInstallFromOneConstImage)
{
    const QueryUniverse uni(tinyUniverse());
    const auto contents = chainedContents(uni, 120);
    const PocketSearchConfig cfg;
    const CommunityImage image(uni, contents, flashConfig(), storeConfig(),
                               cfg);

    constexpr int kThreads = 4;
    std::vector<std::unique_ptr<Phone>> phones(kThreads);
    std::vector<SimTime> times(kThreads, 0);
    std::vector<std::thread> pool;
    for (int w = 0; w < kThreads; ++w) {
        pool.emplace_back([&, w] {
            phones[w] = std::make_unique<Phone>(uni, cfg);
            times[w] = image.installInto(phones[w]->ps);
            liveAMonth(*phones[w], uni, 11);
        });
    }
    for (auto &th : pool)
        th.join();

    for (int w = 0; w < kThreads; ++w) {
        // A fresh reference each time: comparing reads both phones.
        Phone loop(uni, cfg);
        SimTime loopTime = 0;
        loop.ps.loadCommunity(contents, loopTime);
        liveAMonth(loop, uni, 11);
        EXPECT_EQ(times[w], loopTime);
        expectSamePhone(loop, *phones[w]);
    }
}

TEST(SuggestInsertAll, MatchesSequentialInsert)
{
    Rng rng(2011);
    const std::vector<std::string> alphabet = {"a", "b", "ab", "c"};
    const std::vector<double> scores = {0.0, -0.0, 0.5, 1.0, 1.0, 2.5};
    const auto randomQuery = [&] {
        std::string q;
        const std::size_t parts = rng.below(4);
        for (std::size_t i = 0; i < parts; ++i)
            q += alphabet[rng.below(alphabet.size())];
        return q;
    };
    for (int trial = 0; trial < 300; ++trial) {
        SuggestIndex bulk, seq;
        const std::size_t existing = rng.below(12);
        for (std::size_t i = 0; i < existing; ++i) {
            const std::string q = randomQuery();
            const double s = scores[rng.below(scores.size())];
            bulk.insert(q, s);
            seq.insert(q, s);
        }
        std::vector<Suggestion> batch;
        const std::size_t n = rng.below(40);
        std::size_t seqAdded = 0;
        for (std::size_t i = 0; i < n; ++i) {
            batch.push_back(
                Suggestion{randomQuery(), scores[rng.below(scores.size())]});
            seqAdded += seq.insert(batch.back().query, batch.back().score);
        }
        EXPECT_EQ(bulk.insertAll(batch), seqAdded);
        ASSERT_EQ(bulk.size(), seq.size());
        EXPECT_EQ(suggestions(bulk), suggestions(seq));
        EXPECT_EQ(suggestions(bulk, "a"), suggestions(seq, "a"));
        EXPECT_EQ(bulk.memoryBytes(), seq.memoryBytes());
    }
}

} // namespace
} // namespace pc::core
