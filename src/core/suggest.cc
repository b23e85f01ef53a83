#include "core/suggest.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"

namespace pc::core {

namespace {

/**
 * Either zero as +0.0. With one zero, a ratchet over tied zero scores
 * cannot depend on which arrived first, so every path to the same
 * scores stores the same bits.
 */
double
canonicalScore(double score)
{
    return score == 0.0 ? 0.0 : score;
}

} // namespace

std::size_t
SuggestIndex::lowerBound(std::string_view query) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), query,
        [](const Entry &e, std::string_view q) { return e.query < q; });
    return std::size_t(it - entries_.begin());
}

bool
SuggestIndex::insert(const std::string &query, double score)
{
    score = canonicalScore(score);
    const std::size_t i = lowerBound(query);
    if (i < entries_.size() && entries_[i].query == query) {
        entries_[i].score = std::max(entries_[i].score, score);
        return false;
    }
    entries_.insert(entries_.begin() + std::ptrdiff_t(i),
                    Entry{query, score});
    return true;
}

std::size_t
SuggestIndex::insertAll(std::vector<Suggestion> batch)
{
    // Stable: equal queries keep batch order, so the max-fold below
    // sees scores in exactly the order repeated insert() would.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Suggestion &a, const Suggestion &b) {
                         return a.query < b.query;
                     });
    std::vector<Entry> merged;
    merged.reserve(entries_.size() + batch.size());
    std::size_t added = 0;
    auto old = entries_.begin();
    for (std::size_t i = 0; i < batch.size();) {
        while (old != entries_.end() && old->query < batch[i].query)
            merged.push_back(std::move(*old++));
        Entry e;
        if (old != entries_.end() && old->query == batch[i].query) {
            e = std::move(*old++);
        } else {
            e = Entry{std::move(batch[i].query),
                      canonicalScore(batch[i].score)};
            ++added;
            ++i;
        }
        for (; i < batch.size() && batch[i].query == e.query; ++i)
            e.score = std::max(e.score, canonicalScore(batch[i].score));
        merged.push_back(std::move(e));
    }
    std::move(old, entries_.end(), std::back_inserter(merged));
    entries_ = std::move(merged);
    return added;
}

void
SuggestIndex::assignAll(std::vector<Assignment> batch)
{
    pc_assert(std::adjacent_find(batch.begin(), batch.end(),
                                 [](const Assignment &a,
                                    const Assignment &b) {
                                     return !(a.query < b.query);
                                 }) == batch.end(),
              "suggest assignments must be sorted and distinct");
    std::vector<Entry> merged;
    merged.reserve(entries_.size() + batch.size());
    auto old = entries_.begin();
    for (auto &a : batch) {
        while (old != entries_.end() && old->query < a.query)
            merged.push_back(std::move(*old++));
        if (old != entries_.end() && old->query == a.query)
            ++old; // replaced or erased below
        if (a.score)
            merged.push_back(
                Entry{std::move(a.query), canonicalScore(*a.score)});
    }
    std::move(old, entries_.end(), std::back_inserter(merged));
    entries_ = std::move(merged);
}

bool
SuggestIndex::erase(const std::string &query)
{
    const std::size_t i = lowerBound(query);
    if (i >= entries_.size() || entries_[i].query != query)
        return false;
    entries_.erase(entries_.begin() + std::ptrdiff_t(i));
    return true;
}

void
SuggestIndex::clear()
{
    entries_.clear();
}

std::vector<Suggestion>
SuggestIndex::suggest(std::string_view prefix, u32 k,
                      SimTime *time) const
{
    if (time)
        *time += kKeystrokeLatency;
    std::vector<Suggestion> out;
    if (k == 0)
        return out;

    // The matching range is [first entry >= prefix, first entry whose
    // string no longer starts with prefix).
    std::size_t i = lowerBound(prefix);
    std::vector<const Entry *> matches;
    for (; i < entries_.size(); ++i) {
        const std::string &q = entries_[i].query;
        if (q.size() < prefix.size() ||
            std::string_view(q).substr(0, prefix.size()) != prefix)
            break;
        matches.push_back(&entries_[i]);
    }

    // Top-k by score (stable for equal scores: lexicographic).
    std::sort(matches.begin(), matches.end(),
              [](const Entry *a, const Entry *b) {
                  if (a->score != b->score)
                      return a->score > b->score;
                  return a->query < b->query;
              });
    const std::size_t n = std::min<std::size_t>(k, matches.size());
    out.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
        out.push_back(Suggestion{matches[j]->query, matches[j]->score});
    return out;
}

Bytes
SuggestIndex::memoryBytes() const
{
    Bytes total = 0;
    for (const auto &e : entries_)
        total += e.query.size() + sizeof(double) + 16; // string + score
    return total;
}

} // namespace pc::core
