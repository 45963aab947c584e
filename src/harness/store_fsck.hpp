/**
 * @file
 * Offline scrub/repair for v3 binary result stores (store_fsck).
 *
 * DiskCache's own corruption policy is deliberately blunt — it runs
 * at startup on a store it is about to trust, so a torn tail is
 * truncated and *anything* else quarantines the whole file and
 * recomputes. That is correct online behavior, but it throws away
 * every valid frame that happens to live after the first bad byte.
 * store_fsck is the offline counterpart with time to be thorough:
 *
 *   1. validate the header (magic, format version, machine
 *      fingerprint) and report its catalog version / fencing epoch;
 *   2. walk every frame, checking structure and checksums;
 *   3. on a bad frame, *resync*: scan forward for the next byte
 *      offset that parses as a valid frame and continue from there,
 *      so one flipped byte costs one frame, not the rest of the file;
 *   4. quarantine the skipped byte ranges to `<path>.fsck-quarantine`
 *      (raw bytes, for forensics) instead of deleting evidence;
 *   5. with repair enabled, re-emit the canonical compacted store —
 *      sorted by key, last frame wins, epoch field zeroed — via an
 *      atomic tmp+fsync+rename, using the same store_format.hpp code
 *      path as DiskCache::compact(), so a repaired store is
 *      byte-identical to what a clean sweep would have compacted to
 *      for the surviving entry set.
 *
 * Verdicts: Clean (nothing wrong, file untouched), Dirty (issues
 * found; repairable — file untouched without repair, rewritten with
 * it), Unrecoverable (header unusable: wrong magic/version/machine —
 * no frame can be trusted, nothing is rewritten).
 */
#pragma once

#include <cstdint>
#include <string>

namespace ebm {

/** What a scrub pass found (and did) to one store file. */
struct FsckReport
{
    enum class Verdict : std::uint8_t {
        Clean,         ///< Valid header, every frame intact.
        Dirty,         ///< Bad frames / torn tail; valid frames kept.
        Unrecoverable, ///< Header unusable; nothing to salvage.
    };

    Verdict verdict = Verdict::Unrecoverable;
    bool headerOk = false;
    std::uint32_t catalogVersion = 0;
    std::uint64_t fencingEpoch = 0; ///< As read from the header.

    std::size_t framesOk = 0;       ///< Valid frames (incl. dups).
    std::size_t uniqueKeys = 0;     ///< Entries after last-wins.
    std::size_t duplicateKeys = 0;  ///< Superseded frames.
    std::size_t badRegions = 0;     ///< Corrupt runs skipped by resync.
    std::uint64_t bytesQuarantined = 0;
    bool tornTail = false;          ///< Incomplete final frame.

    bool repaired = false;          ///< Canonical rewrite performed.
    std::string quarantinePath;     ///< Written when bytes were bad.
    std::string error;              ///< I/O-level failure, if any.

    std::string summaryLine() const;
};

/** Scrub options. */
struct FsckOptions
{
    /** Rewrite the store canonically when issues are found (a Clean
     * store is never rewritten — its bytes are already canonical or
     * legitimately append-ordered). */
    bool repair = false;
    /** Where skipped bad bytes go; empty = `<path>.fsck-quarantine`. */
    std::string quarantinePath;
};

/**
 * Scrub (and optionally repair) the store at @p path.
 * Missing file is Unrecoverable with an error set.
 */
FsckReport fsckStore(const std::string &path,
                     const FsckOptions &options = {});

/**
 * Write a deliberately corrupted store fixture at @p path for CI and
 * tests: a valid header, several valid frames, a flipped-byte corrupt
 * region mid-file, more valid frames after it, and a torn final
 * frame. @return true on success. The fixture is deterministic — same
 * bytes every call — so tests can assert exact scrub counts.
 */
bool writeFsckFixture(const std::string &path);

} // namespace ebm
