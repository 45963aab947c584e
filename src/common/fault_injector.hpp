/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A FaultInjector owns a set of named injection points threaded
 * through the harness (Runner), the EB monitor, and the disk cache.
 * Each point is disarmed by default (zero overhead beyond a null
 * check); tests arm a point either to fire with a seeded pseudo-random
 * probability or to fire deterministically on the Nth query. All
 * randomness derives from ebm::Rng, so a given seed reproduces the
 * exact same fault schedule on every run.
 *
 * Threading: an injector's query counters are not synchronized, so a
 * single instance must only ever be queried from one thread at a
 * time. Parallel harness code never shares one: the sweep pre-draws
 * the run-failure schedule serially in dispatch order and hands each
 * worker task its own fork() — an independent injector with the same
 * arming whose streams are seeded by the task id, making every
 * worker-side fault a pure function of (seed, task id, point)
 * regardless of thread interleaving.
 */
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.hpp"

namespace ebm {

/** Deterministic, seedable fault-injection harness. */
class FaultInjector
{
  public:
    /** Named injection points known to the library. */
    enum class Point : std::uint8_t {
        CacheWriteFail,   ///< DiskCache persist fails (I/O error).
        CacheReadTruncate,///< DiskCache load sees a truncated file.
        EbSampleNan,      ///< Monitor window yields NaN observables.
        EbSampleZero,     ///< Monitor window yields all-zero counters.
        AppDrain,         ///< One app drains (goes idle) mid-run.
        RunFail,          ///< A simulation run fails outright.
        // --- I/O-layer points, queried through common/io_fault.hpp ---
        IoShortWrite,     ///< A write lands partially, then errors.
        IoFsyncFail,      ///< fsync reports failure (data not durable).
        IoEnospc,         ///< Write fails up front with ENOSPC.
        IoEio,            ///< Write fails up front with EIO.
        IoAbortAfterWrite,///< Process dies (SIGKILL) after a write.
        IoAbortMidWrite,  ///< Process dies (SIGKILL) mid-write (torn).
        // --- Whole-process crash points in the sweep lease protocol --
        CrashClaimHeld,   ///< Die right after winning a row's lease.
        CrashPostPut,     ///< Die after the durable put, pre-release.
        kNumPoints,
    };

    explicit FaultInjector(std::uint64_t seed = 0) : seed_(seed) {}

    /** Fire with probability @p p at every query of @p point. */
    void
    armProbability(Point point, double p)
    {
        Slot &s = slot(point);
        s = Slot{};
        s.armed = true;
        s.probability = p;
        s.rng = Rng(hashIds(seed_, static_cast<std::uint64_t>(point)));
    }

    /**
     * Fire on queries [@p first, @p first + @p count) of @p point
     * (0-based), deterministically.
     */
    void
    armAfter(Point point, std::uint64_t first,
             std::uint64_t count = ~std::uint64_t{0})
    {
        Slot &s = slot(point);
        s = Slot{};
        s.armed = true;
        s.firstQuery = first;
        s.fireCount = count;
    }

    void disarm(Point point) { slot(point) = Slot{}; }

    /**
     * Per-worker view of this injector: the same points armed the
     * same way, but with fresh query counters and probability streams
     * re-seeded by (seed, @p stream, point). Two forks with the same
     * stream id behave identically; forks with different ids are
     * independent. Ordinal (armAfter) schedules restart from query 0
     * in the fork — they count the fork's own queries.
     */
    FaultInjector
    fork(std::uint64_t stream) const
    {
        FaultInjector f(hashIds(seed_, stream));
        for (std::size_t p = 0; p < slots_.size(); ++p) {
            const Slot &s = slots_[p];
            if (!s.armed)
                continue;
            Slot &d = f.slots_[p];
            d.armed = true;
            d.probability = s.probability;
            d.firstQuery = s.firstQuery;
            d.fireCount = s.fireCount;
            d.rng = Rng(hashIds(seed_, stream, p));
        }
        return f;
    }

    /** Query (and advance) an injection point. */
    bool
    shouldFire(Point point)
    {
        Slot &s = slot(point);
        const std::uint64_t query = s.queries++;
        if (!s.armed)
            return false;
        bool fire;
        if (s.probability >= 0.0) {
            fire = s.rng.nextUnit() < s.probability;
        } else {
            fire = query >= s.firstQuery &&
                   query < s.firstQuery + s.fireCount;
        }
        if (fire)
            ++s.fired;
        return fire;
    }

    std::uint64_t queries(Point point) const { return slot(point).queries; }
    std::uint64_t fired(Point point) const { return slot(point).fired; }

    /** Human-readable name of @p point (logs and test output). */
    static const char *
    name(Point point)
    {
        switch (point) {
          case Point::CacheWriteFail:    return "cache-write-fail";
          case Point::CacheReadTruncate: return "cache-read-truncate";
          case Point::EbSampleNan:       return "eb-sample-nan";
          case Point::EbSampleZero:      return "eb-sample-zero";
          case Point::AppDrain:          return "app-drain";
          case Point::RunFail:           return "run-fail";
          case Point::IoShortWrite:      return "io-short-write";
          case Point::IoFsyncFail:       return "io-fsync-fail";
          case Point::IoEnospc:          return "io-enospc";
          case Point::IoEio:             return "io-eio";
          case Point::IoAbortAfterWrite: return "io-abort-after-write";
          case Point::IoAbortMidWrite:   return "io-abort-mid-write";
          case Point::CrashClaimHeld:    return "crash-claim-held";
          case Point::CrashPostPut:      return "crash-post-put";
          case Point::kNumPoints:        break;
        }
        return "unknown";
    }

  private:
    struct Slot
    {
        bool armed = false;
        double probability = -1.0;  ///< < 0 = use firstQuery/fireCount.
        std::uint64_t firstQuery = 0;
        std::uint64_t fireCount = 0;
        std::uint64_t queries = 0;
        std::uint64_t fired = 0;
        Rng rng{0};
    };

    Slot &slot(Point p) { return slots_[static_cast<std::size_t>(p)]; }
    const Slot &
    slot(Point p) const
    {
        return slots_[static_cast<std::size_t>(p)];
    }

    std::uint64_t seed_;
    std::array<Slot, static_cast<std::size_t>(Point::kNumPoints)> slots_{};
};

} // namespace ebm
