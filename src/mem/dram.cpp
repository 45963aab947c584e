#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace ebm {

DramChannel::DramChannel(const GpuConfig &cfg, std::uint32_t num_apps)
    : timing_(cfg.dram),
      banksPerGroup_(cfg.banksPerChannel / cfg.bankGroups),
      capCycles_(cfg.frfcfsCapCycles),
      queueCap_(cfg.frfcfsQueueDepth),
      banks_(cfg.banksPerChannel),
      lastColumnInGroup_(cfg.bankGroups, 0),
      pool_(queueCap_),
      bankOrder_(banks_.size() * queueCap_),
      bankLen_(banks_.size(), 0),
      hitCount_(banks_.size(), 0),
      dataCycles_(num_apps)
{
    if (banks_.size() > 64)
        fatal("DramChannel: at most 64 banks per channel "
              "(bank mask width)");
    free_.reserve(queueCap_);
    clearQueue();
}

void
DramChannel::clearQueue()
{
    // Slots are handed out lowest first; which slot a command gets
    // never matters, only its sequence number does.
    free_.clear();
    for (std::size_t s = queueCap_; s > 0; --s)
        free_.push_back(static_cast<Slot>(s - 1));
    std::fill(bankLen_.begin(), bankLen_.end(), 0u);
    std::fill(hitCount_.begin(), hitCount_.end(), 0u);
    nonEmpty_ = 0;
    hitMask_ = 0;
    nextSeq_ = 0;
}

void
DramChannel::insert(const DramCommand &cmd)
{
    const Slot slot = free_.back();
    free_.pop_back();
    if (nonEmpty_ == 0)
        front_ = slot;
    pool_[slot].cmd = cmd;
    pool_[slot].seq = nextSeq_++;
    const std::uint32_t b = cmd.coord.bank;
    bankOrder(b)[bankLen_[b]++] = slot;
    nonEmpty_ |= 1ull << b;
    const DramBank &bank = banks_[b];
    if (bank.rowOpen && bank.openRow == cmd.coord.row) {
        ++hitCount_[b];
        hitMask_ |= 1ull << b;
    }
}

void
DramChannel::recountHits(std::uint32_t b)
{
    const DramBank &bank = banks_[b];
    std::uint32_t hits = 0;
    if (bank.rowOpen) {
        const Slot *order = bankOrder(b);
        for (std::uint32_t i = 0; i < bankLen_[b]; ++i)
            hits += pool_[order[i]].cmd.coord.row == bank.openRow;
    }
    hitCount_[b] = hits;
    if (hits != 0)
        hitMask_ |= 1ull << b;
    else
        hitMask_ &= ~(1ull << b);
}

DramChannel::Slot
DramChannel::oldestSlot() const
{
    Slot oldest = 0;
    std::uint64_t oldest_seq = ~std::uint64_t{0};
    for (std::uint64_t m = nonEmpty_; m != 0; m &= m - 1) {
        const Slot head = bankOrder(
            static_cast<std::uint32_t>(std::countr_zero(m)))[0];
        if (pool_[head].seq < oldest_seq) {
            oldest_seq = pool_[head].seq;
            oldest = head;
        }
    }
    return oldest;
}

void
DramChannel::enqueue(const MemRequest &req, const DramCoord &coord)
{
    if (req.app >= dataCycles_.size())
        panic("DramChannel: request with out-of-range app id");
    if (coord.bank >= banks_.size())
        panic("DramChannel: request with out-of-range bank");
    if (queueFull())
        panic("DramChannel: enqueue into a full queue");
    DramCommand cmd;
    cmd.req = req;
    cmd.coord = coord;
    cmd.group = coord.bank / banksPerGroup_;
    cmd.enqueuedAt = now_;
    insert(cmd);
    scanSkipUntil_ = 0; // New work invalidates the fruitless-scan skip.
}

bool
DramChannel::tick(DramCompletion &out)
{
    ++now_;
    if (nonEmpty_ == 0)
        return false;

    // Scan-skipping: a scan that issues nothing mutates no state, so
    // its outcome can only change once now_ crosses one of the fixed
    // timing thresholds that blocked it (every condition below is a
    // monotone `now_ >= threshold` test). A fruitless scan records a
    // conservative minimum over those thresholds; until then — and as
    // long as no enqueue changes the queue — scans are skipped.
    if (now_ < scanSkipUntil_)
        return false;

    // FR-FCFS with a single command bus: each DRAM cycle issue the
    // highest-priority *serviceable* command — (1) the oldest
    // row-hitting column access, else (2) the oldest activate, else
    // (3) the oldest precharge. Requests whose bank is timing-blocked
    // never block younger requests to other banks.
    //
    // Every condition below depends on the bank, not on the command,
    // so each pass looks at one candidate per bank — that bank's
    // oldest command of the kind the pass wants — and takes the
    // oldest serviceable one by arrival sequence.
    //
    // Starvation cap: a request that has aged past capCycles_ gets
    // absolute priority — its bank may be precharged even under
    // younger row hits. Without this, one application's row-hit
    // stream can starve a co-runner's row misses indefinitely. The
    // oldest queued request (front_) is past the cap iff any is.
    const Entry &front = pool_[front_];
    const bool aged = now_ - front.cmd.enqueuedAt > capCycles_;

    // Earliest cycle at which some currently blocked command could
    // become issuable, assuming no other state change (see above).
    Cycle wake = kNeverCycle;

    // Pass 1 — the oldest serviceable row-hit column access, over the
    // banks with a queued row hit. The data-bus condition is
    // command-independent: hoisted.
    const bool bus_ok = busFreeAt_ <= now_ + timing_.tCL;
    const Cycle bus_wake =
        busFreeAt_ > timing_.tCL ? busFreeAt_ - timing_.tCL : 0;
    std::uint64_t col_seq = ~std::uint64_t{0};
    std::uint32_t col_bank = 0;
    std::uint32_t col_pos = 0;
    for (std::uint64_t m = hitMask_; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const DramBank &bank = banks_[b];
        const Cycle group_ready =
            lastColumnInGroup_[b / banksPerGroup_] + timing_.tCCDl;
        if (bus_ok && now_ >= bank.readyForColumn &&
            now_ >= group_ready) {
            // This bank's oldest row hit.
            const Slot *order = bankOrder(b);
            std::uint32_t pos = 0;
            while (pool_[order[pos]].cmd.coord.row != bank.openRow)
                ++pos;
            const std::uint64_t seq = pool_[order[pos]].seq;
            if (seq < col_seq) {
                col_seq = seq;
                col_bank = b;
                col_pos = pos;
            }
            continue;
        }
        wake = std::min(wake, std::max({bank.readyForColumn, bus_wake,
                                        group_ready}));
    }

    if (col_seq != ~std::uint64_t{0}) {
        scanSkipUntil_ = 0; // State changes; re-scan next cycle.
        Slot *order = bankOrder(col_bank);
        const Slot slot = order[col_pos];
        const DramCommand &cmd = pool_[slot].cmd;
        const Cycle data_start =
            std::max(busFreeAt_, now_ + timing_.tCL);
        const Cycle data_end = data_start + timing_.burstCycles;
        busFreeAt_ = data_end;
        lastColumnInGroup_[cmd.group] = now_;

        if (!cmd.causedActivate)
            rowHits_.add();
        serviced_.add();
        dataCycles_[cmd.req.app].add(timing_.burstCycles);

        out.req = cmd.req;
        out.readyAt = data_end;

        std::uint32_t &len = bankLen_[col_bank];
        std::copy(order + col_pos + 1, order + len, order + col_pos);
        if (--len == 0)
            nonEmpty_ &= ~(1ull << col_bank);
        if (--hitCount_[col_bank] == 0)
            hitMask_ &= ~(1ull << col_bank);
        free_.push_back(slot);
        if (slot == front_)
            front_ = oldestSlot();
        return true;
    }

    // Pass 2 — oldest activate, oldest precharge. A bank with a queued
    // row hit is shielded: it must not be precharged out from under
    // its older requests, unless it holds the aged request. The
    // candidate on a bank is its oldest command that is not a row hit.
    std::uint64_t shield = hitMask_;
    if (aged)
        shield &= ~(1ull << front.cmd.coord.bank);
    std::uint64_t act_seq = ~std::uint64_t{0};
    std::uint64_t pre_seq = ~std::uint64_t{0};
    Slot act_slot = 0;
    std::uint32_t act_bank = 0;
    std::uint32_t pre_bank = 0;
    for (std::uint64_t m = nonEmpty_ & ~shield; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const DramBank &bank = banks_[b];
        const Slot *order = bankOrder(b);
        if (!bank.rowOpen) {
            const Cycle ready = std::max(bank.readyForActivate,
                                         lastActivateAt_ + timing_.tRRD);
            if (now_ >= ready) {
                const std::uint64_t seq = pool_[order[0]].seq;
                if (seq < act_seq) {
                    act_seq = seq;
                    act_slot = order[0];
                    act_bank = b;
                }
            }
            wake = std::min(wake, ready);
            continue;
        }
        // Only the unshielded aged bank can hold row hits here.
        std::uint32_t pos = 0;
        if (hitCount_[b] != 0) {
            while (pos < bankLen_[b] &&
                   pool_[order[pos]].cmd.coord.row == bank.openRow)
                ++pos;
            if (pos == bankLen_[b])
                continue; // Nothing but row hits: pass 1's business.
        }
        const Cycle ready = std::max(bank.rowOpenedAt + timing_.tRAS,
                                     bank.readyForActivate);
        if (now_ >= ready) {
            const std::uint64_t seq = pool_[order[pos]].seq;
            if (seq < pre_seq) {
                pre_seq = seq;
                pre_bank = b;
            }
        }
        wake = std::min(wake, ready);
    }

    if (act_seq != ~std::uint64_t{0}) {
        scanSkipUntil_ = 0;
        DramCommand &cmd = pool_[act_slot].cmd;
        DramBank &bank = banks_[act_bank];
        bank.rowOpen = true;
        bank.openRow = cmd.coord.row;
        bank.rowOpenedAt = now_;
        bank.readyForColumn = now_ + timing_.tRCD;
        lastActivateAt_ = now_;
        cmd.causedActivate = true;
        rowMisses_.add();
        recountHits(act_bank);
        return false;
    }

    if (pre_seq != ~std::uint64_t{0}) {
        scanSkipUntil_ = 0;
        DramBank &bank = banks_[pre_bank];
        bank.rowOpen = false;
        bank.readyForActivate = now_ + timing_.tRP;
        hitCount_[pre_bank] = 0;
        hitMask_ &= ~(1ull << pre_bank);
        return false;
    }

    // Fruitless scan. Beyond the per-bank timing thresholds, the only
    // other time-driven flip is the oldest request ageing past the
    // starvation cap (which lifts the row-hit shield on its bank);
    // include it conservatively. An early wake is harmless — the scan
    // just runs and recomputes.
    if (!aged)
        wake = std::min(wake, front.cmd.enqueuedAt + capCycles_ + 1);
    scanSkipUntil_ = std::max(wake, now_ + 1);
    return false;
}

void
DramChannel::advanceIdle(std::uint64_t cycles)
{
    if (nonEmpty_ != 0)
        panic("DramChannel: idle advance with queued requests");
    now_ += cycles;
}

void
DramChannel::checkpoint()
{
    for (auto &c : dataCycles_)
        c.checkpoint();
    rowHits_.checkpoint();
    rowMisses_.checkpoint();
    serviced_.checkpoint();
}

void
DramChannel::reset()
{
    now_ = 0;
    busFreeAt_ = 0;
    lastActivateAt_ = 0;
    for (auto &bank : banks_)
        bank = DramBank{};
    std::fill(lastColumnInGroup_.begin(), lastColumnInGroup_.end(),
              Cycle{0});
    clearQueue();
    scanSkipUntil_ = 0;
    for (auto &c : dataCycles_)
        c.reset();
    rowHits_.reset();
    rowMisses_.reset();
    serviced_.reset();
}

DramChannel::Snapshot
DramChannel::snapshot() const
{
    Snapshot snap;
    snap.now = now_;
    snap.busFreeAt = busFreeAt_;
    snap.lastActivateAt = lastActivateAt_;
    snap.scanSkipUntil = scanSkipUntil_;
    snap.banks = banks_;
    snap.lastColumnInGroup = lastColumnInGroup_;
    // The live commands in age order, sized exactly.
    std::vector<const Entry *> live;
    live.reserve(queueDepth());
    for (std::uint32_t b = 0; b < banks_.size(); ++b)
        for (std::uint32_t i = 0; i < bankLen_[b]; ++i)
            live.push_back(&pool_[bankOrder(b)[i]]);
    std::sort(live.begin(), live.end(),
              [](const Entry *x, const Entry *y) { return x->seq < y->seq; });
    snap.queue.reserve(live.size());
    for (const Entry *e : live)
        snap.queue.push_back(e->cmd);
    snap.dataCycles = dataCycles_;
    snap.rowHits = rowHits_;
    snap.rowMisses = rowMisses_;
    snap.serviced = serviced_;
    return snap;
}

void
DramChannel::restore(const Snapshot &snap)
{
    if (snap.banks.size() != banks_.size() ||
        snap.dataCycles.size() != dataCycles_.size() ||
        snap.queue.size() > queueCap_)
        fatal("DramChannel: snapshot shape mismatch");
    for (const DramCommand &cmd : snap.queue)
        if (cmd.coord.bank >= banks_.size())
            fatal("DramChannel: snapshot shape mismatch");
    now_ = snap.now;
    busFreeAt_ = snap.busFreeAt;
    lastActivateAt_ = snap.lastActivateAt;
    scanSkipUntil_ = snap.scanSkipUntil;
    banks_ = snap.banks;
    lastColumnInGroup_ = snap.lastColumnInGroup;
    clearQueue();
    for (const DramCommand &cmd : snap.queue)
        insert(cmd);
    dataCycles_ = snap.dataCycles;
    rowHits_ = snap.rowHits;
    rowMisses_ = snap.rowMisses;
    serviced_ = snap.serviced;
}

} // namespace ebm
