#include "harness/exhaustive.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>

#include "common/job_pool.hpp"
#include "common/log.hpp"
#include "harness/cost_model.hpp"
#include "harness/lease_net.hpp"
#include "harness/sweep_supervisor.hpp"
#include "metrics/metrics.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

std::string
SweepStatus::summaryLine() const
{
    std::ostringstream out;
    out << "sweep status: " << combos << " combos (" << fromCache
        << " from cache, " << simulated << " simulated, ";
    if (fromPeers > 0)
        out << fromPeers << " from peers, ";
    out << retried << " retried, " << skipped << " skipped)";
    return out.str();
}

std::size_t
ComboTable::indexOf(const TlpCombo &combo) const
{
    // Rebuild the map whenever rows were appended since it was last
    // built (tables are filled with push_back, then queried heavily
    // by argmax/value — a row count mismatch is the build trigger).
    if (rowIndex_.size() != combos.size()) {
        rowIndex_.clear();
        rowIndex_.reserve(combos.size());
        for (std::size_t i = 0; i < combos.size(); ++i)
            rowIndex_.emplace(combos[i], i);
    }
    const auto it = rowIndex_.find(combo);
    if (it == rowIndex_.end())
        panic("ComboTable: combination not in table");
    return it->second;
}

Exhaustive::Exhaustive(const Runner &runner, DiskCache &cache)
    : runner_(runner), cache_(cache)
{
}

std::vector<TlpCombo>
enumerateCombos(const std::vector<std::uint32_t> &levels,
                std::uint32_t num_apps)
{
    // Odometer order: app 0 is the fastest-spinning digit. This
    // enumeration fixes each combination's row up front so workers
    // (and cooperating processes) commit results into pre-assigned
    // slots.
    std::vector<TlpCombo> combos;
    std::vector<std::size_t> idx(num_apps, 0);
    while (true) {
        TlpCombo combo(num_apps);
        for (std::uint32_t a = 0; a < num_apps; ++a)
            combo[a] = levels[idx[a]];
        combos.push_back(std::move(combo));

        std::uint32_t pos = 0;
        while (pos < num_apps) {
            if (++idx[pos] < levels.size())
                break;
            idx[pos] = 0;
            ++pos;
        }
        if (pos == num_apps)
            break;
    }
    return combos;
}

namespace {

/** Decode a validated cache vector back into a RunResult (the inverse
 * of the encoding in Exhaustive::sweep's simulate path). */
RunResult
decodeComboRow(const std::vector<double> &v, const TlpCombo &combo,
               std::uint32_t num_apps)
{
    RunResult result;
    result.apps.resize(num_apps);
    for (std::uint32_t a = 0; a < num_apps; ++a) {
        result.apps[a].ipc = v[4 * a + 0];
        result.apps[a].bw = v[4 * a + 1];
        result.apps[a].l1Mr = v[4 * a + 2];
        result.apps[a].l2Mr = v[4 * a + 3];
        result.totalBw += result.apps[a].bw;
    }
    result.measuredCycles = static_cast<Cycle>(v.back());
    result.finalTlp = combo;
    return result;
}

} // namespace

std::optional<ComboTable>
Exhaustive::sweepCached(const Workload &wl,
                        std::vector<std::uint32_t> levels) const
{
    const auto n =
        static_cast<std::uint32_t>(resolveApps(wl).size());
    if (levels.empty())
        levels = GpuConfig::tlpLevels();

    ComboTable table;
    table.levels = levels;
    table.combos = enumerateCombos(levels, n);
    table.results.resize(table.combos.size());
    table.skipped.assign(table.combos.size(), 0);

    for (std::size_t row = 0; row < table.combos.size(); ++row) {
        const std::string key =
            runner_.comboKey(wl.name, table.combos[row]);
        const auto cached = cache_.getValidated(key, 4u * n + 1);
        if (!cached)
            return std::nullopt;
        table.results[row] = decodeComboRow(*cached,
                                            table.combos[row], n);
    }
    return table;
}

std::uint32_t
Exhaustive::jobs() const
{
    return jobs_ != 0 ? jobs_ : JobPool::defaultJobs();
}

namespace {

/** One cache-missing row awaiting simulation. */
struct SweepTask
{
    std::size_t row = 0;
    std::string key;
    /** Leading attempts the pre-drawn fault schedule fails. */
    std::uint32_t injectedFails = 0;
    /** Pre-drawn whole-process crash points (chaos tests): die while
     * holding the lease / after the durable put, pre-release. */
    std::uint32_t crashClaimHeld = 0;
    std::uint32_t crashPostPut = 0;
    /** 1 = another process leased the row; wait for its result. */
    std::uint32_t deferred = 0;
    /** Outcome, merged into SweepStatus after the pool drains. */
    std::uint32_t simulated = 0;
    std::uint32_t fromPeers = 0;
    std::uint32_t retried = 0;
    std::uint32_t skipped = 0;
};

} // namespace

ComboTable
Exhaustive::sweep(const Workload &wl, std::vector<std::uint32_t> levels)
{
    const std::vector<AppProfile> apps = resolveApps(wl);
    const auto n = static_cast<std::uint32_t>(apps.size());
    if (levels.empty())
        levels = GpuConfig::tlpLevels();

    ComboTable table;
    table.levels = levels;
    SweepStatus sweep_status;

    table.combos = enumerateCombos(levels, n);
    const std::size_t total = table.combos.size();
    sweep_status.combos = total;
    table.results.resize(total);
    table.skipped.assign(total, 0);

    const auto decode = [n](const std::vector<double> &v,
                            const TlpCombo &combo) {
        return decodeComboRow(v, combo, n);
    };

    // Cooperative fill: with EBM_COORDINATOR=host:port, rows are
    // leased at dispatch from an ebm_coordinator, so N cooperating
    // workers split a cold sweep instead of each simulating all of
    // it, and results stream back as CRC-framed records.
    const std::unique_ptr<NetLeaseProvider> lease = makeLeaseProvider();

    // Serial pass in row order: cache probes and the injected
    // run-failure pre-draw both consume ordered global state (the
    // cache's warnings, the injector's query counter), so they happen
    // here — in exactly the order the all-serial sweep used — no
    // matter how many workers run the misses afterwards. Cooperating
    // processes that start cold draw identical schedules (same seed,
    // same row order), so each one's view of which attempts fail is
    // the same no matter which process ends up running a row.
    FaultInjector *injector = runner_.options().faultInjector;
    std::vector<SweepTask> tasks;
    for (std::size_t row = 0; row < total; ++row) {
        const TlpCombo &combo = table.combos[row];
        std::string key = runner_.comboKey(wl.name, combo);

        // A wrong-shape or non-finite cache entry (stale layout,
        // survived-but-bogus line, pre-guard NaN) is a miss:
        // recompute and overwrite rather than trust.
        if (const auto cached = cache_.getValidated(key, 4u * n + 1)) {
            table.results[row] = decode(*cached, combo);
            ++sweep_status.fromCache;
            continue;
        }

        SweepTask task;
        task.row = row;
        task.key = std::move(key);
        if (injector != nullptr) {
            // Pre-draw this row's injected failures with the same
            // query sequence the serial attempt loop performed: one
            // query per attempt, stopping at the first non-firing
            // (successful) attempt or when the retry budget is gone.
            while (task.injectedFails <= maxRetries_ &&
                   injector->shouldFire(FaultInjector::Point::RunFail))
                ++task.injectedFails;
            // Whole-process crash points are pre-drawn here too: the
            // shared injector is only ever queried serially, and the
            // draw order is row order regardless of worker count, so
            // a seeded chaos schedule kills the same row at the same
            // point on every run. Per-point counters are independent,
            // so disarmed points leave existing schedules untouched.
            task.crashClaimHeld = injector->shouldFire(
                                      FaultInjector::Point::CrashClaimHeld)
                                      ? 1u
                                      : 0u;
            task.crashPostPut = injector->shouldFire(
                                    FaultInjector::Point::CrashPostPut)
                                    ? 1u
                                    : 0u;
        }
        tasks.push_back(std::move(task));
    }

    // Simulate one owned task: bounded retry — a failing run
    // (pre-drawn injected fault or a genuine crash) is retried, then
    // skipped; one bad combination must not lose the whole sweep.
    // Each success is persisted as it completes (checkpoint/resume).
    // Chaos kill: die the way the kernel kills a worker — SIGKILL, no
    // destructors, no lease cleanup; the supervisor and the staleness
    // protocol must recover, and that recovery is what's under test.
    auto crashNow = [] {
        (void)::kill(::getpid(), SIGKILL);
        for (;;)
            ::pause();
    };

    auto simulateTask = [&](SweepTask &task) {
        const TlpCombo &combo = table.combos[task.row];

        // Crash point: the lease is held, nothing is durable yet.
        // Peers must see the lease go stale and take the row over.
        if (lease && task.crashClaimHeld)
            crashNow();

        // Span the whole attempt loop with a background heartbeat so
        // a single row longer than the staleness window never looks
        // abandoned to peers (the per-attempt bump below is far too
        // coarse for that once rows take seconds).
        std::optional<LeaseHeartbeater> beat;
        if (lease)
            beat.emplace(lease.get(), task.key);

        // Workers never touch the shared injector: the run-failure
        // schedule was pre-drawn above, and monitor-level points are
        // forked per row — deterministic in the row id, independent
        // of worker interleaving.
        const Runner *runner = &runner_;
        std::optional<Runner> task_runner;
        std::optional<FaultInjector> task_injector;
        if (injector != nullptr) {
            task_injector.emplace(injector->fork(task.row));
            task_injector->disarm(FaultInjector::Point::RunFail);
            RunOptions opts = runner_.options();
            opts.faultInjector = &*task_injector;
            task_runner.emplace(runner_.config(), opts);
            runner = &*task_runner;
        }

        RunResult result;
        bool done = false;
        for (std::uint32_t attempt = 0;
             !done && attempt <= maxRetries_; ++attempt) {
            if (attempt > 0)
                ++task.retried;
            // Liveness signal for cooperating processes: while this
            // row is retrying it is being worked on, not abandoned.
            if (lease)
                lease->heartbeat(task.key);
            if (attempt < task.injectedFails) {
                warn("Exhaustive: run failed for " + task.key +
                     " (attempt " + std::to_string(attempt + 1) + "/" +
                     std::to_string(maxRetries_ + 1) +
                     "): [run-failed] Runner: injected run failure");
                continue;
            }
            try {
                const auto t0 = std::chrono::steady_clock::now();
                result = runner->runStatic(apps, combo);
                const std::chrono::duration<double> dt =
                    std::chrono::steady_clock::now() - t0;
                SweepCostModel::instance().observe(
                    combo,
                    runner_.options().warmupCycles +
                        runner_.options().measureCycles,
                    dt.count());
                done = true;
            } catch (const FatalError &e) {
                warn("Exhaustive: run failed for " + task.key +
                     " (attempt " + std::to_string(attempt + 1) + "/" +
                     std::to_string(maxRetries_ + 1) + "): " +
                     e.what());
            }
        }
        if (done) {
            std::vector<double> v;
            for (std::uint32_t a = 0; a < n; ++a) {
                v.push_back(result.apps[a].ipc);
                v.push_back(result.apps[a].bw);
                v.push_back(result.apps[a].l1Mr);
                v.push_back(result.apps[a].l2Mr);
            }
            v.push_back(static_cast<double>(result.measuredCycles));
            cache_.put(task.key, v);
            task.simulated = 1;
            if (lease) {
                // Publish before dropping the lease: peers read
                // "lease gone" as "result durable". The CRC-framed
                // record streams to the coordinator, whose own writer
                // commits it.
                lease->publish(task.key, v);
                // Crash point: result durable, lease left behind.
                // Peers break the stale lease and re-probe the store.
                if (task.crashPostPut)
                    crashNow();
                // Stop the background heartbeat before dropping the
                // lease so a late tick can't mistake our own release
                // for a takeover.
                const bool was_fenced = beat && beat->fenced();
                beat.reset();
                if (was_fenced || !lease->release(task.key)) {
                    // A peer fenced us out mid-row and owns it now:
                    // our durable result is a byte-identical
                    // duplicate compute, not the one waiters consume.
                    warn("Exhaustive: fenced while computing " +
                         task.key + "; result kept as a duplicate");
                }
            }
        } else {
            result = RunResult{};
            result.apps.resize(n);
            result.finalTlp = combo;
            table.skipped[task.row] = 1;
            task.skipped = 1;
            // Skip marker: waiting processes replicate the
            // skip instead of polling a row that will never appear.
            if (lease) {
                beat.reset();
                lease->markSkipped(task.key);
            }
        }
        table.results[task.row] = std::move(result);
    };

    // Fold in rows cooperating processes finished since our probe
    // pass: a completed row's lease is already gone (released after
    // the durable publish), so leases alone cannot tell "done" from
    // "never started" — the coordinator's store can. @return true
    // when the row was assembled from a peer's result.
    auto probePeer = [&](SweepTask &task) {
        const auto v =
            lease->fetch(task.key, 4u * std::size_t{n} + 1);
        if (!v)
            return false;
        table.results[task.row] = decode(*v, table.combos[task.row]);
        task.fromPeers = 1;
        return true;
    };

    // Dispatch gate: a leasing worker re-probes the coordinator's
    // store (peers may have finished the row already), leases the row
    // right before simulating it, and re-probes once more after
    // winning the lease (the owner may have released — result durable
    // — between probe and acquisition). Cooperating processes thus
    // split the missing rows by arrival instead of duplicating them; a
    // row someone else still holds is deferred to the wait phase
    // below.
    auto runTask = [&](SweepTask &task) {
        // Liveness for the sweep supervisor (sweep_supervisor.hpp):
        // every dispatched row proves this worker is making progress,
        // leases or not.
        touchWorkerHeartbeat();
        if (lease) {
            if (probePeer(task))
                return;
            if (!lease->tryAcquire(task.key)) {
                task.deferred = 1;
                return;
            }
            if (probePeer(task)) {
                lease->release(task.key);
                return;
            }
        }
        simulateTask(task);
    };

    // Longest-expected-first submission (LPT): the barrier at the end
    // of the sweep waits for the last row, so the expensive rows go
    // out first instead of landing on a nearly drained pool. This
    // reorders *submission only* — rows were enumerated, probed, and
    // pre-drawn in odometer order above and are committed into
    // pre-assigned slots, so results, files, and accounting are
    // bit-identical whatever order the cost model picks.
    const Cycle run_cycles = runner_.options().warmupCycles +
                             runner_.options().measureCycles;
    std::vector<double> costs(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        costs[i] = SweepCostModel::instance().expectedCost(
            table.combos[tasks[i].row], run_cycles);
    }
    const std::vector<std::size_t> order = costDescendingOrder(costs);

    const std::uint32_t workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(jobs(), tasks.size()));
    if (workers <= 1) {
        for (const std::size_t i : order)
            runTask(tasks[i]);
    } else {
        JobPool pool(workers);
        for (const std::size_t i : order)
            pool.submit([&runTask, &task = tasks[i]] { runTask(task); });
        pool.wait();
    }

    // Wait phase (leasing only): rows other processes leased are
    // assembled in odometer order from the coordinator's store. The
    // lease protocol closes every gap: a finished owner's result
    // appears on the next fetch, a killed owner's lease goes stale
    // (immediately, when its connection drops) and is taken over, and
    // a skipping owner leaves a marker we replicate — so this loop
    // always terminates, and the assembled table is the one a single
    // process would have built.
    for (SweepTask &task : tasks) {
        if (!task.deferred)
            continue;
        for (bool waiting = true; waiting;) {
            if (probePeer(task))
                break;
            switch (lease->peek(task.key)) {
              case NetLeaseProvider::State::Skipped: {
                RunResult result;
                result.apps.resize(n);
                result.finalTlp = table.combos[task.row];
                table.results[task.row] = std::move(result);
                table.skipped[task.row] = 1;
                task.skipped = 1;
                waiting = false;
                break;
              }
              case NetLeaseProvider::State::Absent:
                // Owner takeover race (or it crashed between durable
                // result and release — the re-probe covers the result
                // landing after this iteration's fetch): lease it
                // ourselves; duplicates are byte-identical anyway.
                if (lease->tryAcquire(task.key)) {
                    if (!probePeer(task))
                        simulateTask(task);
                    else
                        lease->release(task.key);
                    waiting = false;
                }
                break;
              case NetLeaseProvider::State::Stale:
                if (lease->breakStale(task.key)) {
                    if (!probePeer(task))
                        simulateTask(task);
                    else
                        lease->release(task.key);
                    waiting = false;
                }
                break;
              case NetLeaseProvider::State::Active:
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                break;
            }
        }
    }

    // Merge per-task outcomes in row order: totals are independent of
    // the workers' completion order.
    for (const SweepTask &task : tasks) {
        sweep_status.simulated += task.simulated;
        sweep_status.fromPeers += task.fromPeers;
        sweep_status.retried += task.retried;
        sweep_status.skipped += task.skipped;
    }

    status_.add(sweep_status);
    if (sweep_status.retried > 0 || sweep_status.skipped > 0) {
        warn("Exhaustive: " + wl.name + " " +
             sweep_status.summaryLine());
    }
    return table;
}

double
Exhaustive::value(const ComboTable &table, const TlpCombo &combo,
                  OptTarget target, const std::vector<double> &alone_ipcs,
                  const std::vector<double> &eb_scale)
{
    const RunResult &r = table.at(combo);
    const std::size_t n = r.apps.size();

    std::vector<double> sds;
    if (target == OptTarget::SdWS || target == OptTarget::SdFI ||
        target == OptTarget::SdHS) {
        if (alone_ipcs.size() != n)
            fatal("Exhaustive: SD target needs alone IPCs");
        for (std::size_t a = 0; a < n; ++a)
            sds.push_back(slowdown(r.apps[a].ipc, alone_ipcs[a]));
    }

    switch (target) {
      case OptTarget::SdWS:
        return weightedSpeedup(sds);
      case OptTarget::SdFI:
        return fairnessIndex(sds);
      case OptTarget::SdHS:
        return harmonicSpeedup(sds);
      case OptTarget::EbWS:
        return ebWeightedSpeedup(r.ebs());
      case OptTarget::EbFI:
        return ebFairnessIndex(r.ebs(), eb_scale);
      case OptTarget::EbHS:
        return ebHarmonicSpeedup(r.ebs(), eb_scale);
      case OptTarget::SumIpc: {
        double sum = 0.0;
        for (const AppRunStats &a : r.apps)
            sum += a.ipc;
        return sum;
      }
    }
    panic("Exhaustive: unknown target");
}

TlpCombo
Exhaustive::argmax(const ComboTable &table, OptTarget target,
                   const std::vector<double> &alone_ipcs,
                   const std::vector<double> &eb_scale)
{
    if (table.combos.empty())
        fatal("Exhaustive: empty table");
    std::size_t best = table.combos.size();
    double best_value = -1e300;
    for (std::size_t i = 0; i < table.combos.size(); ++i) {
        // A combo whose run failed has a zeroed result: excluding it
        // keeps partial tables usable (no-silent-drops reporting is
        // the sweep's job).
        if (table.isSkipped(i))
            continue;
        const double v = value(table, table.combos[i], target,
                               alone_ipcs, eb_scale);
        if (!std::isfinite(v))
            continue;
        if (v > best_value) {
            best_value = v;
            best = i;
        }
    }
    if (best == table.combos.size())
        fatal("Exhaustive: every combination was skipped or scored "
              "non-finite; nothing to select");
    return table.combos[best];
}

} // namespace ebm
