/**
 * @file
 * Differential property test of the FR-FCFS controller. DramChannel
 * indexes its queue by bank; ReferenceFrFcfs below is the plain
 * age-ordered linear scan it replaces. Both are driven through the
 * same seeded enqueue/tick traces, and every cycle must agree on the
 * completion (request and readyAt), the queue depth and every
 * counter. The sweeps cover narrow and full-width bank masks, a
 * starvation cap small enough that the aged path fires constantly, a
 * queue that runs full, and snapshot/restore partway through.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
#include "mem/dram.hpp"

namespace ebm {
namespace {

/**
 * The linear-scan FR-FCFS controller DramChannel used before its queue
 * was indexed by bank: each scheduling decision walks the age-ordered
 * queue, deduplicating per bank. Kept only as the oracle for
 * DramChannel.
 */
class ReferenceFrFcfs
{
  public:
    ReferenceFrFcfs(const GpuConfig &cfg, std::uint32_t num_apps)
        : timing_(cfg.dram),
          banksPerGroup_(cfg.banksPerChannel / cfg.bankGroups),
          capCycles_(cfg.frfcfsCapCycles),
          queueCap_(cfg.frfcfsQueueDepth),
          banks_(cfg.banksPerChannel),
          lastColumnInGroup_(cfg.bankGroups, 0),
          dataCycles_(num_apps, 0)
    {
    }

    bool queueFull() const { return queue_.size() >= queueCap_; }
    std::size_t queueDepth() const { return queue_.size(); }
    const std::vector<DramCommand> &queue() const { return queue_; }

    void
    enqueue(const MemRequest &req, const DramCoord &coord)
    {
        DramCommand cmd;
        cmd.req = req;
        cmd.coord = coord;
        cmd.group = coord.bank / banksPerGroup_;
        cmd.enqueuedAt = now_;
        queue_.push_back(cmd);
        scanSkipUntil_ = 0;
    }

    void advanceIdle(std::uint64_t cycles) { now_ += cycles; }

    bool
    tick(DramCompletion &out)
    {
        ++now_;
        if (queue_.empty())
            return false;
        if (now_ < scanSkipUntil_)
            return false;

        const DramCommand *aged = nullptr;
        if (now_ - queue_.front().enqueuedAt > capCycles_) {
            aged = &queue_.front();
            ++agedScans;
        }
        Cycle wake = kNeverCycle;

        // Pass 1 — the oldest serviceable row-hit column access.
        const bool bus_ok = busFreeAt_ <= now_ + timing_.tCL;
        const Cycle bus_wake =
            busFreeAt_ > timing_.tCL ? busFreeAt_ - timing_.tCL : 0;
        std::uint64_t bank_has_hit = 0;
        auto col_it = queue_.end();
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            const DramCommand &cmd = *it;
            const std::uint64_t bit = 1ull << cmd.coord.bank;
            if ((bank_has_hit & bit) != 0)
                continue;
            const DramBank &bank = banks_[cmd.coord.bank];
            if (!bank.rowOpen || bank.openRow != cmd.coord.row)
                continue;
            if (bus_ok && now_ >= bank.readyForColumn &&
                now_ >= lastColumnInGroup_[cmd.group] + timing_.tCCDl) {
                col_it = it;
                break;
            }
            bank_has_hit |= bit;
            Cycle w = std::max(bank.readyForColumn, bus_wake);
            w = std::max(w, lastColumnInGroup_[cmd.group] + timing_.tCCDl);
            wake = std::min(wake, w);
        }

        // Pass 2 — oldest activate, oldest precharge; each bank's
        // oldest command that is not a row hit stands for the bank.
        auto act_it = queue_.end();
        auto pre_it = queue_.end();
        if (col_it == queue_.end()) {
            if (aged != nullptr)
                bank_has_hit &= ~(1ull << aged->coord.bank);
            std::uint64_t seen = bank_has_hit;
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                const DramCommand &cmd = *it;
                const std::uint64_t bit = 1ull << cmd.coord.bank;
                if ((seen & bit) != 0)
                    continue;
                const DramBank &bank = banks_[cmd.coord.bank];
                if (bank.rowOpen && bank.openRow == cmd.coord.row)
                    continue;
                seen |= bit;
                if (!bank.rowOpen) {
                    if (act_it == queue_.end() &&
                        now_ >= bank.readyForActivate &&
                        now_ >= lastActivateAt_ + timing_.tRRD)
                        act_it = it;
                    wake = std::min(
                        wake, std::max(bank.readyForActivate,
                                       lastActivateAt_ + timing_.tRRD));
                } else {
                    if (pre_it == queue_.end() &&
                        now_ >= bank.rowOpenedAt + timing_.tRAS &&
                        now_ >= bank.readyForActivate)
                        pre_it = it;
                    wake = std::min(
                        wake, std::max(bank.rowOpenedAt + timing_.tRAS,
                                       bank.readyForActivate));
                }
            }
        }

        if (col_it != queue_.end()) {
            scanSkipUntil_ = 0;
            const Cycle data_start =
                std::max(busFreeAt_, now_ + timing_.tCL);
            busFreeAt_ = data_start + timing_.burstCycles;
            lastColumnInGroup_[col_it->group] = now_;
            if (!col_it->causedActivate)
                ++rowHits;
            ++serviced;
            dataCycles_[col_it->req.app] += timing_.burstCycles;
            out.req = col_it->req;
            out.readyAt = busFreeAt_;
            queue_.erase(col_it);
            return true;
        }
        if (act_it != queue_.end()) {
            scanSkipUntil_ = 0;
            DramBank &bank = banks_[act_it->coord.bank];
            bank.rowOpen = true;
            bank.openRow = act_it->coord.row;
            bank.rowOpenedAt = now_;
            bank.readyForColumn = now_ + timing_.tRCD;
            lastActivateAt_ = now_;
            act_it->causedActivate = true;
            ++rowMisses;
            return false;
        }
        if (pre_it != queue_.end()) {
            scanSkipUntil_ = 0;
            DramBank &bank = banks_[pre_it->coord.bank];
            bank.rowOpen = false;
            bank.readyForActivate = now_ + timing_.tRP;
            return false;
        }
        if (aged == nullptr)
            wake = std::min(wake,
                            queue_.front().enqueuedAt + capCycles_ + 1);
        scanSkipUntil_ = std::max(wake, now_ + 1);
        return false;
    }

    std::uint64_t dataCycles(AppId app) const { return dataCycles_[app]; }

    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t serviced = 0;
    std::uint64_t agedScans = 0; ///< Scans with a request past the cap.

  private:
    DramTiming timing_;
    std::uint32_t banksPerGroup_;
    std::uint32_t capCycles_;
    std::size_t queueCap_;
    Cycle now_ = 0;
    Cycle busFreeAt_ = 0;
    Cycle lastActivateAt_ = 0;
    Cycle scanSkipUntil_ = 0;
    std::vector<DramBank> banks_;
    std::vector<Cycle> lastColumnInGroup_;
    std::vector<DramCommand> queue_;
    std::vector<std::uint64_t> dataCycles_;
};

constexpr std::uint32_t kApps = 2;

/** One random trace: a config plus the arrival process. */
struct TraceSpec
{
    std::uint32_t banks = 16;
    std::uint32_t groups = 4;
    std::uint32_t depth = 64;
    std::uint32_t capCycles = 512;
    std::uint32_t rows = 4;   ///< Distinct rows per bank (locality).
    double arrival = 0.5;     ///< Chance of an enqueue attempt a cycle.
    std::uint64_t seed = 1;

    GpuConfig
    config() const
    {
        GpuConfig cfg = test::tinyConfig(kApps);
        cfg.banksPerChannel = banks;
        cfg.bankGroups = groups;
        cfg.frfcfsQueueDepth = depth;
        cfg.frfcfsCapCycles = capCycles;
        return cfg;
    }
};

/** What a trace exercised, so each test can check its own coverage. */
struct Coverage
{
    std::uint64_t completions = 0;
    std::uint64_t fullCycles = 0;   ///< Cycles that ended with a full queue.
    std::uint64_t agedScans = 0;
};

/**
 * Drives a DramChannel and the reference through one trace. Copies
 * continue the same trace (the generator state is copied too).
 */
class Lockstep
{
  public:
    explicit Lockstep(const TraceSpec &spec)
        : spec_(spec), cfg_(spec.config()), rng_(spec.seed),
          ref_(cfg_, kApps)
    {
        dram_.emplace(cfg_, kApps);
    }

    /** Swap in a freshly constructed channel restored from @p snap. */
    void
    restoreIntoFresh(const DramChannel::Snapshot &snap)
    {
        dram_.emplace(cfg_, kApps);
        dram_->restore(snap);
    }

    /** Run @p cycles cycles, asserting agreement after each. */
    void
    run(std::uint64_t cycles)
    {
        for (std::uint64_t c = 0; c < cycles; ++c) {
            step();
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    DramChannel &dram() { return *dram_; }
    ReferenceFrFcfs &ref() { return ref_; }
    Coverage coverage() const
    {
        Coverage cov = cov_;
        cov.agedScans = ref_.agedScans;
        return cov;
    }

  private:
    void
    step()
    {
        // Idle stretches go through advanceIdle on an empty queue.
        if (dram_->queueDepth() == 0 && rng_.nextBounded(8) == 0) {
            const std::uint64_t idle = 1 + rng_.nextBounded(20);
            dram_->advanceIdle(idle);
            ref_.advanceIdle(idle);
        }
        // Bursty arrivals: up to three enqueues in one cycle.
        if (rng_.nextUnit() < spec_.arrival) {
            const std::uint64_t burst = 1 + rng_.nextBounded(3);
            for (std::uint64_t i = 0; i < burst && !dram_->queueFull();
                 ++i) {
                MemRequest req;
                req.app = static_cast<AppId>(rng_.nextBounded(kApps));
                req.lineAddr = ++nextId_; // Unique id per request.
                DramCoord coord;
                coord.bank =
                    static_cast<std::uint32_t>(rng_.nextBounded(spec_.banks));
                coord.row = rng_.nextBounded(spec_.rows);
                coord.col = static_cast<std::uint32_t>(rng_.nextBounded(16));
                dram_->enqueue(req, coord);
                ref_.enqueue(req, coord);
            }
        }
        ASSERT_EQ(dram_->queueFull(), ref_.queueFull());

        DramCompletion got;
        DramCompletion want;
        const bool got_done = dram_->tick(got);
        const bool want_done = ref_.tick(want);
        ASSERT_EQ(got_done, want_done) << "cycle " << dram_->now();
        if (got_done) {
            ASSERT_EQ(got.req.lineAddr, want.req.lineAddr)
                << "cycle " << dram_->now();
            ASSERT_EQ(got.req.app, want.req.app);
            ASSERT_EQ(got.readyAt, want.readyAt) << "cycle " << dram_->now();
            ++cov_.completions;
        }
        ASSERT_EQ(dram_->queueDepth(), ref_.queueDepth());
        ASSERT_EQ(dram_->rowHits(), ref_.rowHits);
        ASSERT_EQ(dram_->rowMisses(), ref_.rowMisses);
        ASSERT_EQ(dram_->requestsServiced(), ref_.serviced);
        for (AppId a = 0; a < kApps; ++a)
            ASSERT_EQ(dram_->dataCycles(a), ref_.dataCycles(a));
        if (dram_->queueFull())
            ++cov_.fullCycles;
    }

    TraceSpec spec_;
    GpuConfig cfg_;
    Rng rng_;
    std::optional<DramChannel> dram_;
    ReferenceFrFcfs ref_;
    std::uint64_t nextId_ = 0;
    Coverage cov_;
};

/** Specs across bank counts, caps, depths and locality. */
std::vector<TraceSpec>
sweepSpecs()
{
    std::vector<TraceSpec> specs;
    std::uint64_t seed = 1;
    for (const auto &[banks, groups] :
         std::vector<std::pair<std::uint32_t, std::uint32_t>>{
             {4, 2}, {16, 4}, {64, 4}}) {
        for (std::uint32_t cap : {4u, 64u, 512u}) {
            for (std::uint32_t rows : {1u, 4u, 64u}) {
                TraceSpec spec;
                spec.banks = banks;
                spec.groups = groups;
                spec.capCycles = cap;
                spec.rows = rows;
                spec.depth = rows == 4 ? 8 : 64;
                spec.arrival = rows == 64 ? 0.9 : 0.4;
                spec.seed = seed++;
                specs.push_back(spec);
            }
        }
    }
    return specs;
}

TEST(DramFrFcfsProperty, MatchesLinearScanAcrossSweep)
{
    for (const TraceSpec &spec : sweepSpecs()) {
        SCOPED_TRACE(::testing::Message()
                     << "banks " << spec.banks << " cap " << spec.capCycles
                     << " rows " << spec.rows << " depth " << spec.depth
                     << " seed " << spec.seed);
        Lockstep lock(spec);
        lock.run(20'000);
        if (HasFatalFailure())
            return;
        EXPECT_GT(lock.coverage().completions, 1000u);
    }
}

TEST(DramFrFcfsProperty, TinyCapFiresAgedPath)
{
    TraceSpec spec;
    spec.capCycles = 2;
    spec.rows = 8;
    spec.arrival = 0.9;
    Lockstep lock(spec);
    lock.run(50'000);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_GT(lock.coverage().agedScans, 10'000u)
        << "the starvation cap must be exercised, not just configured";
}

TEST(DramFrFcfsProperty, FullQueueStaysInLockstep)
{
    for (std::uint32_t depth : {4u, 64u}) {
        TraceSpec spec;
        spec.depth = depth;
        spec.rows = 32;
        spec.arrival = 1.0;
        spec.seed = 100 + depth;
        Lockstep lock(spec);
        lock.run(30'000);
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_GT(lock.coverage().fullCycles, 10'000u)
            << "depth " << depth << ": the queue must sit full";
    }
}

TEST(DramFrFcfsProperty, SixtyFourBanksUseTheTopMaskBit)
{
    TraceSpec spec;
    spec.banks = 64;
    spec.groups = 8;
    spec.rows = 2;
    spec.arrival = 0.8;
    spec.seed = 64;
    Lockstep lock(spec);
    lock.run(40'000);
    ASSERT_FALSE(HasFatalFailure());

    // A request on bank 63 alone, on a fresh pair, is served by both.
    const GpuConfig cfg = spec.config();
    DramChannel dram(cfg, kApps);
    ReferenceFrFcfs ref(cfg, kApps);
    MemRequest req;
    req.app = 1;
    req.lineAddr = 63;
    DramCoord coord;
    coord.bank = 63;
    coord.row = 9;
    dram.enqueue(req, coord);
    ref.enqueue(req, coord);
    bool done = false;
    for (int c = 0; c < 200 && !done; ++c) {
        DramCompletion got;
        DramCompletion want;
        done = dram.tick(got);
        ASSERT_EQ(done, ref.tick(want));
        if (done) {
            EXPECT_EQ(got.readyAt, want.readyAt);
        }
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(dram.dataCycles(1), ref.dataCycles(1));
}

/** Age order of a queue, as the request ids. */
std::vector<Addr>
ids(const std::vector<DramCommand> &queue)
{
    std::vector<Addr> v;
    for (const DramCommand &cmd : queue)
        v.push_back(cmd.req.lineAddr);
    return v;
}

TEST(DramFrFcfsProperty, RestoredChannelContinuesIdentically)
{
    for (std::uint32_t banks : {4u, 16u, 64u}) {
        SCOPED_TRACE(::testing::Message() << "banks " << banks);
        TraceSpec spec;
        spec.banks = banks;
        spec.groups = banks == 4 ? 2 : 4;
        spec.capCycles = 16;
        spec.rows = 4;
        spec.arrival = 0.7;
        spec.seed = 7 * banks;
        Lockstep lock(spec);
        lock.run(5'000);
        ASSERT_FALSE(HasFatalFailure());

        // The snapshot holds the live commands in age order, sized
        // exactly, exactly as the linear scan's queue holds them.
        const DramChannel::Snapshot snap = lock.dram().snapshot();
        ASSERT_GT(snap.queue.size(), 1u) << "snapshot a busy queue";
        EXPECT_EQ(snap.queue.capacity(), snap.queue.size());
        const std::vector<DramCommand> &want = lock.ref().queue();
        ASSERT_EQ(ids(snap.queue), ids(want));
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(snap.queue[i].enqueuedAt, want[i].enqueuedAt);
            EXPECT_EQ(snap.queue[i].causedActivate,
                      want[i].causedActivate);
            EXPECT_EQ(snap.queue[i].group, want[i].group);
            EXPECT_EQ(snap.queue[i].coord.bank, want[i].coord.bank);
            EXPECT_EQ(snap.queue[i].coord.row, want[i].coord.row);
        }

        // A fresh channel restored from the snapshot continues the
        // same trace in lockstep with the reference, as does the
        // original, and the two end in the same state.
        Lockstep twin = lock;
        twin.restoreIntoFresh(snap);
        EXPECT_EQ(ids(twin.dram().snapshot().queue), ids(snap.queue));
        lock.run(5'000);
        ASSERT_FALSE(HasFatalFailure());
        twin.run(5'000);
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_EQ(twin.coverage().completions,
                  lock.coverage().completions);
        EXPECT_EQ(ids(twin.dram().snapshot().queue),
                  ids(lock.dram().snapshot().queue));
        EXPECT_EQ(twin.dram().requestsServiced(),
                  lock.dram().requestsServiced());
    }
}

} // namespace
} // namespace ebm
