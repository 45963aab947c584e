/**
 * @file
 * A GDDR5-like DRAM channel with banked timing and an FR-FCFS
 * (first-ready, first-come-first-served) memory controller.
 *
 * Each DRAM command cycle the controller issues (1) the oldest
 * column access to an already-open row (a row hit), else (2) the
 * oldest activate, else (3) the oldest precharge. Bank state machines
 * enforce tRCD/tRP/tRAS/tCCD/tRRD constraints; the shared data bus
 * serializes bursts. Per-application useful-data-cycle counters
 * provide the attained-bandwidth half of the paper's EB metric.
 *
 * The queue is indexed by bank: every command on one bank faces the
 * same timing thresholds, so a decision is a minimum, by arrival
 * sequence, over at most one candidate per bank. A per-bank count of
 * queued row hits (and a mask of the banks where it is non-zero)
 * lets the row-hit pass visit only banks that have one, so a
 * decision costs O(banks) rather than O(queued commands).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/mem_request.hpp"

namespace ebm {

/** A request waiting inside the memory controller. */
struct DramCommand
{
    MemRequest req;
    DramCoord coord;
    std::uint32_t group = 0;    ///< Bank group (derived once on enqueue).
    Cycle enqueuedAt = 0;       ///< DRAM cycle of arrival (for FCFS age).
    bool causedActivate = false; ///< This request opened its row itself.
};

/** A serviced request leaving the channel. */
struct DramCompletion
{
    MemRequest req;
    Cycle readyAt = 0; ///< DRAM cycle at which data is fully returned.
};

/** Timing state machine of one DRAM bank. */
struct DramBank
{
    bool rowOpen = false;
    std::uint64_t openRow = 0;
    Cycle readyForActivate = 0; ///< Earliest next ACT (tRP honoured).
    Cycle readyForColumn = 0;   ///< Earliest next RD/WR (tRCD honoured).
    Cycle rowOpenedAt = 0;      ///< For the tRAS constraint.
};

/** One DRAM channel + its FR-FCFS controller. */
class DramChannel
{
  public:
    DramChannel(const GpuConfig &cfg, std::uint32_t num_apps);

    /** Can another request be accepted this cycle? */
    bool queueFull() const { return free_.empty(); }

    /** Enqueue a request (caller must check queueFull()). */
    void enqueue(const MemRequest &req, const DramCoord &coord);

    /**
     * Advance one DRAM command cycle; may issue one column access, or
     * one activate, or one precharge. At most one request completes
     * per cycle (the single data bus): if one did, it is written to
     * @p out and the call returns true.
     */
    bool tick(DramCompletion &out);

    /**
     * Batch-advance @p cycles command cycles with an empty queue:
     * identical to @p cycles tick() calls that find nothing to do
     * (the cycle counter still advances — it feeds the
     * bandwidth-normalization denominator). Panics if work is queued.
     */
    void advanceIdle(std::uint64_t cycles);

    /** Current DRAM cycle count. */
    Cycle now() const { return now_; }

    /** Requests currently queued (for utilization heuristics). */
    std::size_t queueDepth() const { return queueCap_ - free_.size(); }

    // --- Statistics --------------------------------------------------

    /** Data-bus cycles carrying useful data for @p app (cumulative). */
    std::uint64_t dataCycles(AppId app) const
    {
        return dataCycles_[app].total();
    }

    /** Data-bus cycles for @p app in the current sampling window. */
    std::uint64_t windowDataCycles(AppId app) const
    {
        return dataCycles_[app].sinceCheckpoint();
    }

    std::uint64_t rowHits() const { return rowHits_.total(); }
    std::uint64_t rowMisses() const { return rowMisses_.total(); }
    std::uint64_t requestsServiced() const { return serviced_.total(); }

    /** Start a new sampling window. */
    void checkpoint();

    void reset();

    /**
     * Full controller state: the clock, bus/bank timing machines, the
     * age-ordered FR-FCFS queue, the fruitless-scan skip mark, and
     * all counters (totals + window checkpoints). Timing parameters
     * and capacities are immutable per instance.
     */
    struct Snapshot
    {
        Cycle now = 0;
        Cycle busFreeAt = 0;
        Cycle lastActivateAt = 0;
        Cycle scanSkipUntil = 0;
        std::vector<DramBank> banks;
        std::vector<Cycle> lastColumnInGroup;
        std::vector<DramCommand> queue;
        std::vector<Counter> dataCycles;
        Counter rowHits;
        Counter rowMisses;
        Counter serviced;

        std::size_t
        heapBytes() const
        {
            return banks.capacity() * sizeof(DramBank) +
                   lastColumnInGroup.capacity() * sizeof(Cycle) +
                   queue.capacity() * sizeof(DramCommand) +
                   dataCycles.capacity() * sizeof(Counter);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    /** Index of a pool_ entry. */
    using Slot = std::uint32_t;

    /** A pool entry: one queued command and its arrival order. */
    struct Entry
    {
        DramCommand cmd;
        std::uint64_t seq = 0; ///< Arrival sequence number (FCFS age).
    };

    /** @p bank's queued slots, oldest first (bankLen_[bank] used). */
    Slot *bankOrder(std::uint32_t bank)
    {
        return &bankOrder_[std::size_t{bank} * queueCap_];
    }
    const Slot *bankOrder(std::uint32_t bank) const
    {
        return &bankOrder_[std::size_t{bank} * queueCap_];
    }

    /** Add @p cmd to the queue as its youngest command. */
    void insert(const DramCommand &cmd);
    /** Recount @p bank's queued commands to its open row. */
    void recountHits(std::uint32_t bank);
    /** Empty the queue (bank state is left alone). */
    void clearQueue();
    /** The oldest queued command's slot (queue must be non-empty). */
    Slot oldestSlot() const;

    const DramTiming timing_;
    const std::uint32_t banksPerGroup_;
    const std::uint32_t capCycles_; ///< FR-FCFS starvation cap.
    const std::size_t queueCap_;
    Cycle now_ = 0;
    Cycle busFreeAt_ = 0;       ///< Data bus occupied until this cycle.
    Cycle lastActivateAt_ = 0;  ///< For the tRRD constraint.
    std::vector<DramBank> banks_;
    /** Last column access per bank group, for tCCDl vs tCCDs. */
    std::vector<Cycle> lastColumnInGroup_;
    /**
     * The FR-FCFS queue, indexed by bank. Commands live in a fixed
     * pool of queueCap_ entries (free_ lists the unused ones). Each
     * bank keeps its slots in age order in its own queueCap_-wide row
     * of bankOrder_. nonEmpty_ has a bit per bank with queued
     * commands; hitCount_ counts a bank's queued commands to its open
     * row, and hitMask_ has a bit per bank where that count is
     * non-zero. Activates recount, precharges zero the count.
     */
    std::vector<Entry> pool_;
    std::vector<Slot> free_;
    std::vector<Slot> bankOrder_;
    std::vector<std::uint32_t> bankLen_;
    std::vector<std::uint32_t> hitCount_;
    std::uint64_t nonEmpty_ = 0;
    std::uint64_t hitMask_ = 0;
    std::uint64_t nextSeq_ = 0;
    Slot front_ = 0; ///< The oldest queued command, if any.
    /**
     * No command can become issuable before this cycle (set by a scan
     * that found nothing; cleared on enqueue and on every issue).
     * Lets the controller skip its priority scans while all commands
     * sit out fixed timing constraints.
     */
    Cycle scanSkipUntil_ = 0;

    std::vector<Counter> dataCycles_;
    Counter rowHits_;
    Counter rowMisses_;
    Counter serviced_;
};

} // namespace ebm
