#include "core/cache_manager.h"

#include "util/hash.h"
#include "util/logging.h"

namespace pc::core {

namespace {

/** Server-side key for hash matching: combine query and URL hashes. */
u64
matchKey(u64 query_fnv, u64 url_hash)
{
    return hashCombine(query_fnv, url_hash);
}

} // namespace

void
UpdateStats::publishMetrics(obs::MetricRegistry &reg) const
{
    reg.counter("core.update.bytes_to_server").bump(bytesToServer);
    reg.counter("core.update.bytes_to_phone").bump(bytesToPhone);
    reg.counter("core.update.pairs_kept").bump(pairsKept);
    reg.counter("core.update.pairs_expired").bump(pairsExpired);
    reg.counter("core.update.pairs_pruned").bump(pairsPruned);
    reg.counter("core.update.pairs_added").bump(pairsAdded);
    reg.counter("core.update.conflicts").bump(conflicts);
    reg.counter("core.update.records_patched").bump(recordsPatched);
}

CacheManager::CacheManager(const QueryUniverse &universe)
    : universe_(universe)
{
    // The server can hash every query/result it has ever logged; build
    // the equivalent reverse map once.
    reverse_.reserve(universe_.numQueries() * 2);
    for (u32 qid = 0; qid < universe_.numQueries(); ++qid) {
        const auto &q = universe_.query(qid);
        const u64 qh = fnv1a(q.text);
        for (const auto &[rid, w] : q.results) {
            (void)w;
            const u64 uh = urlHash(universe_.result(rid).url);
            reverse_.emplace(matchKey(qh, uh),
                             workload::PairRef{qid, rid});
        }
    }
}

std::vector<CacheManager::DevicePair>
CacheManager::parseUpload(const std::vector<WirePair> &wire) const
{
    std::vector<DevicePair> out;
    out.reserve(wire.size());
    for (const auto &w : wire) {
        const auto it = reverse_.find(matchKey(w.queryFnv, w.urlHash));
        if (it == reverse_.end()) {
            // Hash the server cannot match (should not happen in the
            // simulation — every device pair came from the universe).
            pc_warn("unmatchable device pair hash");
            continue;
        }
        out.push_back(DevicePair{it->second, w.score, w.accessed});
    }
    return out;
}

UpdateStats
CacheManager::update(PocketSearch &ps, const logs::TripletTable &fresh,
                     const UpdatePolicy &policy, SimTime &time) const
{
    UpdateStats stats;

    // 1. Phone -> server: the hash table travels as an actual encoded
    //    blob; the server decodes it and matches the hashes against
    //    its own logs.
    const std::string upload = encodeTable(ps.table());
    stats.bytesToServer = upload.size();
    const auto decoded = decodeTable(upload);
    pc_assert(decoded.has_value(), "device produced a malformed upload");
    const auto device_pairs = parseUpload(*decoded);

    // 2. Server: fresh popular set from the latest logs.
    CacheContentBuilder builder(universe_, ps.config().layout);
    CacheContents fresh_contents = builder.build(fresh, policy.content);

    std::unordered_map<u64, double> fresh_scores;
    fresh_scores.reserve(fresh_contents.pairs.size());
    for (const auto &sp : fresh_contents.pairs) {
        const auto &q = universe_.query(sp.pair.query);
        const auto &r = universe_.result(sp.pair.result);
        fresh_scores.emplace(matchKey(fnv1a(q.text), urlHash(r.url)),
                             sp.score);
    }

    // 3. Merge. Start from the fresh set; retain user-accessed device
    //    pairs unless expired; resolve conflicts with max score.
    struct Merged
    {
        workload::PairRef pair;
        double score;
        bool accessed;
    };
    std::unordered_map<u64, Merged> merged;
    merged.reserve(fresh_contents.pairs.size() + device_pairs.size());
    for (const auto &sp : fresh_contents.pairs) {
        const auto &q = universe_.query(sp.pair.query);
        const auto &r = universe_.result(sp.pair.result);
        merged.emplace(matchKey(fnv1a(q.text), urlHash(r.url)),
                       Merged{sp.pair, sp.score, false});
    }
    stats.pairsAdded = merged.size();

    for (const auto &dp : device_pairs) {
        const auto &q = universe_.query(dp.pair.query);
        const auto &r = universe_.result(dp.pair.result);
        const u64 key = matchKey(fnv1a(q.text), urlHash(r.url));
        auto it = merged.find(key);
        if (it != merged.end()) {
            // Conflict: device score vs fresh server score -> maximum.
            ++stats.conflicts;
            --stats.pairsAdded; // was counted as a fresh addition
            it->second.score = std::max(it->second.score, dp.score);
            it->second.accessed = dp.accessed;
            ++stats.pairsKept;
            continue;
        }
        if (!dp.accessed) {
            // Community pair the user never touched: pruned.
            ++stats.pairsPruned;
            continue;
        }
        if (dp.score < policy.expiryScore) {
            // User pair whose score decayed away: expired.
            ++stats.pairsExpired;
            continue;
        }
        merged.emplace(key, Merged{dp.pair, dp.score, true});
        ++stats.pairsKept;
    }

    // 4. Server -> phone: new hash table + database patches.
    ps.clearTable();
    {
        PocketSearch::BulkInstall bulk(ps);
        for (const auto &[key, m] : merged) {
            (void)key;
            if (ps.installPair(m.pair, m.score, m.accessed, time)) {
                ++stats.recordsPatched;
                stats.bytesToPhone += QueryUniverse::recordSize(
                    universe_.result(m.pair.result));
            }
        }
    }
    stats.bytesToPhone += ps.dramBytes();
    return stats;
}

} // namespace pc::core
