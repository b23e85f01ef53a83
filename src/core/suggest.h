/**
 * @file
 * Query auto-suggest with instant results (Figure 1 of the paper).
 *
 * PocketSearch's killer UI trick: because cached results can be
 * retrieved in milliseconds, the phone can show *actual search
 * results* — not just completion strings — inside the auto-suggest box
 * while the user is still typing. This index maps query prefixes to
 * the highest-scored cached queries so each keystroke costs one sorted
 * range scan.
 *
 * The index lives next to the hash table in fast memory and is kept in
 * sync by PocketSearch: community pushes rebuild it, personalization
 * clicks insert into it.
 */

#ifndef PC_CORE_SUGGEST_H
#define PC_CORE_SUGGEST_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace pc::core {

/** One auto-suggest candidate. */
struct Suggestion
{
    std::string query;  ///< Completed query string.
    double score = 0.0; ///< Best ranking score among its results.
};

/**
 * Prefix index over cached query strings. A zero score is stored as
 * +0.0, whichever zero it was given as.
 */
class SuggestIndex
{
  public:
    /**
     * Insert a query or raise its score (scores only ratchet up so the
     * box stays stable while the user types and clicks).
     * @return True if the query was new to the index.
     */
    bool insert(const std::string &query, double score);

    /**
     * Bulk insert: the state `insert` would reach applying the batch in
     * order, in one sort and one merge instead of an O(n) vector insert
     * per entry. Duplicates within the batch fold with the same
     * ratchet, in batch order, onto any existing entry's score.
     * @return Number of queries new to the index.
     */
    std::size_t insertAll(std::vector<Suggestion> batch);

    /** One query's resynced score; nullopt removes the query. */
    struct Assignment
    {
        std::string query;
        std::optional<double> score;
    };

    /**
     * Bulk resync: for each assignment, the state erase() followed by
     * insert() at the given score reaches (or erase() alone for a
     * nullopt score), in one merge pass instead of an O(n) vector
     * insert or erase per query. The batch must be sorted by query
     * with no query repeated.
     */
    void assignAll(std::vector<Assignment> batch);

    /** Remove a query. @return True if it was present. */
    bool erase(const std::string &query);

    /** Drop everything. */
    void clear();

    /**
     * Top-k cached queries starting with `prefix`, best score first.
     * @param[out] time If non-null, accumulates the modelled
     *        per-keystroke latency.
     */
    std::vector<Suggestion> suggest(std::string_view prefix, u32 k,
                                    SimTime *time = nullptr) const;

    /** Number of indexed queries. */
    std::size_t size() const { return entries_.size(); }

    /** Modelled fast-memory footprint (strings + scores). */
    Bytes memoryBytes() const;

    /** Modelled per-keystroke lookup latency (well under a frame). */
    static constexpr SimTime kKeystrokeLatency = 30 * kMicrosecond;

  private:
    struct Entry
    {
        std::string query;
        double score;
    };

    /** Sorted by query string; binary-searchable by prefix. */
    std::vector<Entry> entries_;

    /** Index of the first entry >= query, for insert/lookup. */
    std::size_t lowerBound(std::string_view query) const;
};

} // namespace pc::core

#endif // PC_CORE_SUGGEST_H
