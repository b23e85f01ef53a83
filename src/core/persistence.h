/**
 * @file
 * Crash-safe cache persistence across power cycles (Section 3.3).
 *
 * Flash survives a power cycle; DRAM does not. The paper's two-tier
 * design therefore commits the index to NAND and reloads it at boot
 * (the cost the proposed PCM tier would eliminate). This module is
 * that commit path: it serializes the full index state — query
 * strings, result hashes, scores, accessed flags — into flash, and
 * restores it into a fresh PocketSearch after "reboot". The result
 * database needs no separate snapshot: its files and headers are
 * already on flash and re-attach by themselves.
 *
 * A phone loses power whenever the battery runs out, so the snapshot
 * commit must assume it can be torn at any byte. The protocol is a
 * checksummed double-slot commit:
 *
 *   - the snapshot lives in two slot files, `<name>.s0` / `<name>.s1`;
 *   - each slot carries a format version, a monotonically increasing
 *     sequence number, and a trailing CRC-32 over everything before it;
 *   - persist writes the slot NOT holding the newest valid snapshot,
 *     then reads it back and verifies the checksum (write - verify -
 *     swap); the previous good snapshot is never overwritten until the
 *     new one is durable;
 *   - restore validates both slots and loads the valid one with the
 *     highest sequence number; a torn or bit-flipped slot is detected
 *     by its checksum and the restore falls back to the older good
 *     slot instead of loading garbage. Parsing is all-or-nothing: no
 *     partial state ever reaches the PocketSearch.
 *
 * Slot format (PCS2, little-endian host layout):
 *   magic "PCS2" | u32 version | u64 sequence | u32 pair count |
 *   per pair: u16 query length | query bytes | u64 url hash |
 *             double score | u8 accessed flag
 *   | u32 crc32 of all preceding bytes.
 *
 * PCS2 is the only format read: a store with neither slot file holds
 * no snapshot, and restore reports !ok.
 */

#ifndef PC_CORE_PERSISTENCE_H
#define PC_CORE_PERSISTENCE_H

#include <string>

#include "core/pocket_search.h"

namespace pc::core {

/** Outcome of a restore. */
struct RestoreResult
{
    bool ok = false;       ///< A well-formed snapshot was loaded.
    std::size_t pairs = 0; ///< Pairs restored.
    SimTime loadTime = 0;  ///< Flash read + deserialize time.
    u64 sequence = 0;      ///< Sequence number of the loaded snapshot.
    /** Slots whose checksum or structure was found corrupt. */
    u32 corruptSlots = 0;
    /** Loaded an older slot because a newer one was corrupt. */
    bool usedFallback = false;
};

/** Outcome of a snapshot commit. */
struct PersistResult
{
    bool ok = false;      ///< Written AND verified on flash.
    Bytes bytes = 0;      ///< Slot size written.
    u64 sequence = 0;     ///< Sequence number of the new snapshot.
    std::string slot;     ///< Slot file that received the snapshot.
};

/**
 * Serialize the cache index into the inactive snapshot slot of
 * `file_name`, verify the write, and make it the newest snapshot.
 * On power loss mid-commit the previous slot remains intact.
 *
 * @param[out] time Accumulates the flash commit + verify latency.
 */
PersistResult persistIndex(PocketSearch &ps, pc::simfs::FlashStore &store,
                           const std::string &file_name, SimTime &time);

/**
 * Restore the newest valid snapshot into a (freshly constructed)
 * PocketSearch whose result database has re-attached to the same
 * store. Corrupt slots are skipped, never partially applied.
 */
RestoreResult restoreIndex(PocketSearch &ps,
                           pc::simfs::FlashStore &store,
                           const std::string &file_name);

} // namespace pc::core

#endif // PC_CORE_PERSISTENCE_H
