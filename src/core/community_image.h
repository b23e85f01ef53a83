/**
 * @file
 * The installed community cache of one fresh device, built once.
 *
 * Every phone receives the same overnight community push (Section
 * 5.1), and installing it on a fresh phone is a pure function of the
 * push and the phone's configuration: the same hash table, suggest
 * index, database files, allocator state and flash wear come out every
 * time. A CommunityImage runs that install once — the ordinary
 * PocketSearch::loadCommunity, on a private flash + store + cache — and
 * then hands the result to any number of fresh devices by copy. The
 * copies are the same bytes loadCommunity would have produced on each
 * device, because they are its output.
 *
 * The image is immutable after construction, so threads may install
 * from one shared image concurrently.
 */

#ifndef PC_CORE_COMMUNITY_IMAGE_H
#define PC_CORE_COMMUNITY_IMAGE_H

#include "core/pocket_search.h"
#include "nvm/flash_device.h"
#include "simfs/flash_store.h"

namespace pc::core {

/**
 * One fresh device's state after installing a community push.
 */
class CommunityImage
{
  public:
    /**
     * Install `contents` on a fresh flash + store + cache built from
     * these configs. The universe must outlive the image.
     */
    CommunityImage(const QueryUniverse &universe,
                   const CacheContents &contents,
                   const pc::nvm::FlashConfig &flash,
                   const pc::simfs::StoreConfig &store,
                   const PocketSearchConfig &cfg);

    CommunityImage(const CommunityImage &) = delete;
    CommunityImage &operator=(const CommunityImage &) = delete;

    /**
     * Give a fresh cache — and the store and flash device under it —
     * the image's state: flash counters, busy time, energy and per-block
     * wear; store files and allocator; hash table, suggest index and
     * database location map. Refuses (pc_assert) a cache, store or
     * device that has been used, or whose universe or config differs
     * from the image's.
     * @return The simulated install time loadCommunity reported.
     */
    SimTime installInto(PocketSearch &ps) const;

    /** Simulated flash write time of the install. */
    SimTime installTime() const { return installTime_; }

  private:
    pc::nvm::FlashDevice flash_;
    pc::simfs::FlashStore store_;
    PocketSearch search_;
    SimTime installTime_ = 0;
};

} // namespace pc::core

#endif // PC_CORE_COMMUNITY_IMAGE_H
