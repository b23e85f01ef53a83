#include "core/community_image.h"

namespace pc::core {

CommunityImage::CommunityImage(const QueryUniverse &universe,
                               const CacheContents &contents,
                               const pc::nvm::FlashConfig &flash,
                               const pc::simfs::StoreConfig &store,
                               const PocketSearchConfig &cfg)
    : flash_(flash), store_(flash_, store), search_(universe, store_, cfg)
{
    search_.loadCommunity(contents, installTime_);
}

SimTime
CommunityImage::installInto(PocketSearch &ps) const
{
    pc::simfs::FlashStore &store = ps.store();
    store.device().copyStateFrom(flash_);
    store.copyStateFrom(store_);
    ps.copyStateFrom(search_);
    return installTime_;
}

} // namespace pc::core
