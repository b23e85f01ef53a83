/**
 * @file
 * Batched delta apply == per-op delta apply.
 *
 * tryApplyCommunityDelta commits inside a PocketSearch::BulkInstall:
 * auto-suggest inserts are queued and evicted or re-scored queries are
 * only marked dirty, then resolved against the final table in one
 * merge pass. The oracle here is the same commit applied one operation
 * at a time with no scope open, so every evict and re-rank resyncs the
 * suggest index on the spot. Random deltas over Combined and
 * CommunityOnly devices, suggest on and off, must leave both devices
 * with the same suggest index (score bits included), table, apply
 * stats, flash time and result records. A fixed case pins the
 * signed-zero tie the random deltas only reach by chance. Also covers
 * SuggestIndex::assignAll against erase + insert, and the closed-form
 * deltaWireBytes against the encoded frame size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "core/delta.h"
#include "util/hash.h"
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

/** One phone's cache stack. */
struct Phone
{
    Phone(const QueryUniverse &uni, const PocketSearchConfig &cfg)
        : flash(flashConfig()), store(flash, storeConfig()),
          ps(uni, store, cfg)
    {
    }

    static pc::nvm::FlashConfig
    flashConfig()
    {
        pc::nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        return fc;
    }

    static pc::simfs::StoreConfig
    storeConfig()
    {
        pc::simfs::StoreConfig sc;
        sc.allocUnit = 2 * kKiB;
        return sc;
    }

    pc::nvm::FlashDevice flash;
    pc::simfs::FlashStore store;
    PocketSearch ps;
};

/** Queries the generated contents and deltas draw from. */
constexpr u32 kQueries = 60;

u64
pairKey(const workload::PairRef &p)
{
    return (u64(p.query) << 32) | p.result;
}

/**
 * The pre-batching commit phase: the same rules and order as
 * tryApplyCommunityDelta, but every operation updates the suggest
 * index as it happens. The delta must validate against `ps`.
 */
DeltaApplyStats
perOpApply(PocketSearch &ps, const CommunityDelta &delta, SimTime &time)
{
    const QueryUniverse &u = ps.universe();
    DeltaApplyStats stats;
    const auto matchKey = [&](const workload::PairRef &p) {
        return hashCombine(fnv1a(u.query(p.query).text),
                           urlHash(u.result(p.result).url));
    };

    if (delta.fromVersion == 0 && ps.pairs() > 0) {
        std::unordered_set<u64> wanted;
        for (const auto &sp : delta.adds)
            wanted.insert(matchKey(sp.pair));
        std::unordered_map<u64, workload::PairRef> reverse;
        for (u32 q = 0; q < u.numQueries(); ++q)
            for (const auto &[r, w] : u.query(q).results) {
                (void)w;
                const workload::PairRef p{q, r};
                reverse.emplace(matchKey(p), p);
            }
        std::vector<std::pair<workload::PairRef, bool>> stale;
        ps.table().forEachPair([&](u64 qfnv, const ResultRef &r) {
            const u64 key = hashCombine(qfnv, r.urlHash);
            if (!wanted.count(key))
                stale.emplace_back(reverse.at(key), r.userAccessed);
        });
        for (const auto &[pair, accessed] : stale) {
            if (accessed) {
                ++stats.keptAccessed;
                continue;
            }
            ps.evictPair(pair);
            ++stats.staleEvicted;
        }
    }

    for (const auto &sp : delta.adds) {
        const auto existing = ps.findPair(sp.pair);
        if (existing) {
            ++stats.conflicts;
            if (sp.score > existing->score)
                ps.setPairScore(sp.pair, sp.score);
            continue;
        }
        ++stats.added;
        if (ps.installPair(sp.pair, sp.score, false, time))
            ++stats.recordsPatched;
    }
    for (const auto &p : delta.evicts) {
        const auto existing = ps.findPair(p);
        if (existing && existing->userAccessed) {
            ++stats.keptAccessed;
            continue;
        }
        if (ps.evictPair(p))
            ++stats.evicted;
    }
    for (const auto &sp : delta.reranks) {
        const auto existing = ps.findPair(sp.pair);
        if (!existing)
            continue;
        ps.setPairScore(sp.pair, existing->userAccessed
                                     ? std::max(existing->score, sp.score)
                                     : sp.score);
        ++stats.reranked;
    }
    return stats;
}

/** A random pair of one of the first kQueries queries. */
std::optional<workload::PairRef>
randomPair(const QueryUniverse &uni, Rng &rng)
{
    const u32 q = u32(rng.below(kQueries));
    const auto &results = uni.query(q).results;
    if (results.empty())
        return std::nullopt;
    return workload::PairRef{q, results[rng.below(results.size())].first};
}

/** Scores with ties, zeros and -0.0, so max-folds meet equal keys. */
double
randomScore(Rng &rng)
{
    static const double kScores[] = {-0.0, 0.0, 0.25, 0.5, 1.0, 2.0};
    return rng.chance(0.5) ? kScores[rng.below(std::size(kScores))]
                           : rng.uniform(0.0, 3.0);
}

/**
 * Base contents with some pairs pushed twice at another score: the
 * table keeps the first, the suggest index ratchets to the larger, so
 * a query's suggest score can sit above its table maximum.
 */
CacheContents
randomContents(const QueryUniverse &uni, Rng &rng)
{
    CacheContents c;
    for (int i = 0; i < 150; ++i)
        if (const auto p = randomPair(uni, rng))
            c.pairs.push_back(ScoredPair{*p, randomScore(rng), 1});
    for (std::size_t i = 0, n = c.pairs.size(); i < n; i += 5) {
        ScoredPair again = c.pairs[i];
        again.score = randomScore(rng);
        c.pairs.push_back(again);
    }
    return c;
}

/** Every cached universe pair of the first kQueries queries. */
std::vector<workload::PairRef>
cachedPairs(const PocketSearch &ps)
{
    std::vector<workload::PairRef> out;
    for (u32 q = 0; q < kQueries; ++q)
        for (const auto &[r, w] : ps.universe().query(q).results) {
            (void)w;
            if (ps.containsPair({q, r}))
                out.push_back({q, r});
        }
    return out;
}

/**
 * A delta that validates against `ps`: adds of new and already-cached
 * pairs (conflicts, higher and lower), evicts of cached pairs
 * (user-accessed ones included) and of every pair of a few queries
 * (emptying them), re-ranks that promote and demote, and a full
 * install (reconcile) a quarter of the time.
 */
CommunityDelta
randomDelta(const PocketSearch &ps, Rng &rng)
{
    const QueryUniverse &uni = ps.universe();
    const auto cached = cachedPairs(ps);
    CommunityDelta d;
    d.fromVersion = rng.chance(0.25) ? 0 : 1;
    d.toVersion = 2;
    for (int i = 0, n = int(rng.below(80)); i < n; ++i)
        if (const auto p = randomPair(uni, rng))
            d.adds.push_back(ScoredPair{*p, randomScore(rng), 1});
    if (cached.empty())
        return d;
    for (int i = 0, n = int(rng.below(40)); i < n; ++i)
        d.adds.push_back(ScoredPair{cached[rng.below(cached.size())],
                                    randomScore(rng), 1});
    std::unordered_set<u64> evicted;
    const auto evict = [&](const workload::PairRef &p) {
        if (evicted.insert(pairKey(p)).second)
            d.evicts.push_back(p);
    };
    for (int i = 0, n = int(rng.below(30)); i < n; ++i)
        evict(cached[rng.below(cached.size())]);
    for (int i = 0, n = int(rng.below(4)); i < n; ++i) {
        const u32 q = cached[rng.below(cached.size())].query;
        for (const auto &p : cached)
            if (p.query == q)
                evict(p);
    }
    for (int i = 0, n = int(rng.below(60)); i < n; ++i) {
        const auto p = cached[rng.below(cached.size())];
        const double old = ps.findPair(p)->score;
        d.reranks.push_back(ScoredPair{
            p, rng.chance(0.6) ? old * rng.uniform(0.0, 0.9)
                               : randomScore(rng),
            1});
    }
    return d;
}

/** Every suggest entry as (query, score bits), in suggest order. */
std::vector<std::pair<std::string, u64>>
suggestions(const SuggestIndex &idx)
{
    std::vector<std::pair<std::string, u64>> out;
    for (const auto &s : idx.suggest("", ~u32(0)))
        out.emplace_back(s.query, std::bit_cast<u64>(s.score));
    return out;
}

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

/** Which universe results the result database holds. */
std::vector<bool>
recordSet(const PocketSearch &ps)
{
    const QueryUniverse &u = ps.universe();
    std::vector<bool> out(u.numResults());
    for (u32 r = 0; r < u.numResults(); ++r)
        out[r] = ps.db().contains(urlHash(u.result(r).url));
    return out;
}

void
expectSameStats(const DeltaApplyStats &a, const DeltaApplyStats &b)
{
    EXPECT_EQ(a.added, b.added);
    EXPECT_EQ(a.evicted, b.evicted);
    EXPECT_EQ(a.reranked, b.reranked);
    EXPECT_EQ(a.keptAccessed, b.keptAccessed);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.staleEvicted, b.staleEvicted);
    EXPECT_EQ(a.recordsPatched, b.recordsPatched);
}

/** Bring a device to a random pre-sync state, identically on both. */
void
liveBeforeSync(Phone &p, const CacheContents &base, u64 seed)
{
    SimTime t = 0;
    p.ps.loadCommunity(base, t);
    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
        const auto pair = randomPair(p.ps.universe(), rng);
        if (!pair)
            continue;
        p.ps.recordClick(*pair, t);
        if (i % 9 == 0)
            p.ps.setPairScore(*pair, randomScore(rng));
        if (i % 13 == 0)
            p.ps.evictPair(*pair);
    }
}

class DeltaApplyTest
    : public ::testing::TestWithParam<std::tuple<CacheMode, bool>>
{
  protected:
    DeltaApplyTest() : uni_(tinyUniverse()) {}

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

TEST_P(DeltaApplyTest, BatchedApplyMatchesPerOpApply)
{
    Rng rng(2011 + u64(std::get<0>(GetParam())) * 2 +
            std::get<1>(GetParam()));
    std::size_t reconciles = 0, emptied = 0, conflicts = 0, kept = 0;
    for (int trial = 0; trial < 60; ++trial) {
        SCOPED_TRACE(trial);
        const auto base = randomContents(uni_, rng);
        const u64 seed = rng.next();
        Phone batched(uni_, config());
        Phone perOp(uni_, config());
        liveBeforeSync(batched, base, seed);
        liveBeforeSync(perOp, base, seed);
        ASSERT_EQ(suggestions(batched.ps.suggestIndex()),
                  suggestions(perOp.ps.suggestIndex()));

        // Two syncs in a row: the second lands on a delta-applied state.
        for (int sync = 0; sync < 2; ++sync) {
            const auto delta = randomDelta(perOp.ps, rng);
            const std::size_t queriesBefore =
                perOp.ps.suggestIndex().size();
            SimTime batchedTime = 0, perOpTime = 0;
            const auto res =
                tryApplyCommunityDelta(batched.ps, delta, batchedTime);
            ASSERT_TRUE(res.ok) << deltaApplyErrorName(res.error);
            const auto want = perOpApply(perOp.ps, delta, perOpTime);

            expectSameStats(res.stats, want);
            EXPECT_EQ(batchedTime, perOpTime);
            EXPECT_EQ(suggestions(batched.ps.suggestIndex()),
                      suggestions(perOp.ps.suggestIndex()));
            EXPECT_EQ(tablePairs(batched.ps), tablePairs(perOp.ps));
            EXPECT_EQ(batched.ps.db().records(), perOp.ps.db().records());
            EXPECT_EQ(recordSet(batched.ps), recordSet(perOp.ps));

            reconciles += delta.fromVersion == 0 && want.staleEvicted > 0;
            emptied += config().enableSuggest &&
                       perOp.ps.suggestIndex().size() < queriesBefore;
            conflicts += want.conflicts;
            kept += want.keptAccessed;
        }
    }
    // The scenarios the equality is meant to cover really occurred.
    EXPECT_GT(reconciles, 0u);
    EXPECT_GT(conflicts, 0u);
    if (config().enableSuggest) {
        EXPECT_GT(emptied, 0u);
    }
    if (config().mode == CacheMode::Combined) {
        EXPECT_GT(kept, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSuggest, DeltaApplyTest,
    ::testing::Combine(::testing::Values(CacheMode::Combined,
                                         CacheMode::CommunityOnly),
                       ::testing::Bool()));

/**
 * A reconcile evict resyncs a query onto a zero score, then a fresh add
 * installs the other zero. The per-op ratchet keeps the first zero it
 * saw; the deferred pass reads whichever zero the table lists first.
 * Both must store the same bits, in either order and with either
 * result first in the table.
 */
TEST(DeltaApplyZeroScores, SignedZeroTieResolvesLikePerOp)
{
    const QueryUniverse uni(tinyUniverse());
    // The stale pair must be a universe pair for the reconcile to map
    // it back; the two zero-score pairs can be any results.
    u32 q = 0;
    while (uni.query(q).results.empty())
        ++q;
    const u32 stale = uni.query(q).results[0].first;
    const u32 a = (stale + 1) % uni.numResults();
    const u32 b = (stale + 2) % uni.numResults();
    PocketSearchConfig cfg;
    cfg.mode = CacheMode::CommunityOnly;
    for (const u32 kept : {a, b}) {
        const u32 fresh = kept == a ? b : a;
        for (const double keptScore : {-0.0, 0.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "kept " << kept << " score " << keptScore);
            CacheContents base;
            base.pairs = {ScoredPair{{q, kept}, keptScore, 1},
                          ScoredPair{{q, stale}, 1.0, 1}};
            CommunityDelta d;
            d.fromVersion = 0;
            d.toVersion = 1;
            d.adds = {ScoredPair{{q, kept}, keptScore, 1},
                      ScoredPair{{q, fresh}, -keptScore, 1}};

            Phone batched(uni, cfg), perOp(uni, cfg);
            SimTime t = 0;
            batched.ps.loadCommunity(base, t);
            perOp.ps.loadCommunity(base, t);
            const auto res = tryApplyCommunityDelta(batched.ps, d, t);
            ASSERT_TRUE(res.ok);
            const auto want = perOpApply(perOp.ps, d, t);
            EXPECT_EQ(want.staleEvicted, 1u);
            expectSameStats(res.stats, want);
            EXPECT_EQ(tablePairs(batched.ps), tablePairs(perOp.ps));
            const auto got = suggestions(batched.ps.suggestIndex());
            EXPECT_EQ(got, suggestions(perOp.ps.suggestIndex()));
            ASSERT_EQ(got.size(), 1u);
            EXPECT_EQ(got[0].second, std::bit_cast<u64>(0.0));
        }
    }
}

TEST(SuggestAssignAll, MatchesEraseThenInsert)
{
    Rng rng(13);
    const std::vector<std::string> alphabet = {"a", "b", "ab", "c"};
    const std::vector<double> scores = {0.0, -0.0, 0.5, 1.0, 2.5};
    const auto randomQuery = [&] {
        std::string q;
        for (std::size_t i = 0, n = rng.below(4); i < n; ++i)
            q += alphabet[rng.below(alphabet.size())];
        return q;
    };
    for (int trial = 0; trial < 300; ++trial) {
        SuggestIndex bulk, seq;
        for (std::size_t i = 0, n = rng.below(12); i < n; ++i) {
            const std::string q = randomQuery();
            const double s = scores[rng.below(scores.size())];
            bulk.insert(q, s);
            seq.insert(q, s);
        }
        std::vector<SuggestIndex::Assignment> batch;
        for (std::size_t i = 0, n = rng.below(12); i < n; ++i) {
            std::optional<double> s;
            if (rng.chance(0.6))
                s = scores[rng.below(scores.size())];
            batch.push_back({randomQuery(), s});
        }
        std::sort(batch.begin(), batch.end(),
                  [](const auto &a, const auto &b) {
                      return a.query < b.query;
                  });
        batch.erase(std::unique(batch.begin(), batch.end(),
                                [](const auto &a, const auto &b) {
                                    return a.query == b.query;
                                }),
                    batch.end());
        for (const auto &a : batch) {
            seq.erase(a.query);
            if (a.score)
                seq.insert(a.query, *a.score);
        }
        bulk.assignAll(batch);
        ASSERT_EQ(bulk.size(), seq.size());
        EXPECT_EQ(suggestions(bulk), suggestions(seq));
        EXPECT_EQ(bulk.memoryBytes(), seq.memoryBytes());
    }
}

TEST(DeltaWireBytes, ClosedFormMatchesEncodedFrame)
{
    const QueryUniverse uni(tinyUniverse());
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        CommunityDelta d;
        d.fromVersion = trial % 3;
        d.toVersion = d.fromVersion + 1;
        for (int i = 0, n = int(rng.below(50)); i < n; ++i) {
            // Out-of-universe results are synthetic pairs: no record.
            const u32 r = u32(rng.below(uni.numResults() + 20));
            d.adds.push_back(ScoredPair{{u32(rng.below(kQueries)), r},
                                        randomScore(rng), 1});
        }
        const auto anyPair = [&] {
            return workload::PairRef{u32(rng.below(kQueries)),
                                     u32(rng.below(uni.numResults()))};
        };
        for (int i = 0, n = int(rng.below(50)); i < n; ++i)
            d.evicts.push_back(anyPair());
        for (int i = 0, n = int(rng.below(50)); i < n; ++i)
            d.reranks.push_back(ScoredPair{anyPair(), randomScore(rng), 1});

        Bytes records = 0;
        std::unordered_set<u32> shipped;
        for (const auto &sp : d.adds)
            if (sp.pair.result < uni.numResults() &&
                shipped.insert(sp.pair.result).second)
                records +=
                    QueryUniverse::recordSize(uni.result(sp.pair.result));
        EXPECT_EQ(deltaWireBytes(d, uni),
                  encodeDelta(d).size() + kDeltaFrameOverhead + records);
        EXPECT_EQ(frameDelta(d).size(),
                  encodeDelta(d).size() + kDeltaFrameOverhead);
    }
}

} // namespace
} // namespace pc::core
