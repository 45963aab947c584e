/**
 * @file
 * The chaos acceptance suite: supervised workers filling one sweep
 * through a coordinator, SIGKILLed at seeded crash points — lease
 * held (nothing durable), post-publish pre-release (result durable at
 * the coordinator, lease orphaned), and mid-way through an append to
 * the worker's own store (torn bytes on disk) — across {2, 4}
 * processes x jobs {1, 8}. The supervisor restarts every victim, the
 * coordinator orphans the dead workers' leases so peers take their
 * rows over, a replacement truncates its predecessor's torn tail, and
 * the compacted coordinator store is byte-identical to a crash-free
 * single-process run. fsck agrees that store is clean before
 * compaction touches it.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/store_fsck.hpp"
#include "harness/sweep_supervisor.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
removeDirTree(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (d != nullptr) {
        while (struct dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

bool
tablesBitIdentical(const ComboTable &a, const ComboTable &b)
{
    if (a.combos != b.combos || a.levels != b.levels ||
        a.skipped != b.skipped)
        return false;
    for (std::size_t row = 0; row < a.results.size(); ++row) {
        const RunResult &x = a.results[row];
        const RunResult &y = b.results[row];
        if (x.apps.size() != y.apps.size() ||
            x.measuredCycles != y.measuredCycles ||
            x.finalTlp != y.finalTlp)
            return false;
        if (std::memcmp(&x.totalBw, &y.totalBw, sizeof(double)) != 0)
            return false;
        for (std::size_t i = 0; i < x.apps.size(); ++i) {
            if (std::memcmp(&x.apps[i].ipc, &y.apps[i].ipc,
                            sizeof(double)) != 0 ||
                std::memcmp(&x.apps[i].bw, &y.apps[i].bw,
                            sizeof(double)) != 0 ||
                std::memcmp(&x.apps[i].l1Mr, &y.apps[i].l1Mr,
                            sizeof(double)) != 0 ||
                std::memcmp(&x.apps[i].l2Mr, &y.apps[i].l2Mr,
                            sizeof(double)) != 0)
                return false;
        }
    }
    return true;
}

/** The crash point a slot's first life dies at (rotated so every
 * grid cell with >= 3 workers exercises all three). */
Point
crashPointFor(std::uint32_t slot)
{
    switch (slot % 3) {
    case 0:
        return Point::CrashClaimHeld;
    case 1:
        return Point::CrashPostPut;
    default:
        return Point::IoAbortMidWrite;
    }
}

class ChaosSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = ::testing::TempDir() + "ebm_chaos_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        ref_path_ = stem_ + "_ref.cache";
        shared_path_ = stem_ + "_shared.cache";
        removeCellFiles();
        removeStore(ref_path_);
    }

    void
    TearDown() override
    {
        removeCellFiles();
        removeStore(ref_path_);
    }

    static void
    removeStore(const std::string &p)
    {
        for (const char *suffix :
             {"", ".quarantined", ".tmp", ".fsck-quarantine"})
            std::remove((p + suffix).c_str());
    }

    /** Everything one chaos cell leaves behind (runChaosCell). */
    void
    removeCellFiles()
    {
        removeStore(shared_path_);
        for (int slot = 0; slot < 4; ++slot)
            removeStore(stem_ + "_slot" + std::to_string(slot) +
                        ".cache");
        std::remove((stem_ + ".report").c_str());
        removeDirTree(stem_ + ".hb");
    }

    std::string stem_;
    std::string ref_path_;
    std::string shared_path_;
};

/**
 * One grid cell: @p procs supervised workers (jobs threads each) fill
 * the sweep through a coordinator over the shared store; every
 * slot's first life dies at its seeded crash point; the supervisor
 * restarts it and the survivors converge on the crash-free bytes.
 */
void
runChaosCell(int procs, std::uint32_t jobs, const std::string &stem,
             const ComboTable &ref, const std::string &ref_bytes,
             const std::vector<std::uint32_t> &ladder)
{
    SCOPED_TRACE(std::to_string(procs) + "p/" + std::to_string(jobs) +
                 "j");
    const std::string shared_path = stem + "_shared.cache";
    const std::string report_path = stem + ".report";

    DiskCache store(shared_path);
    Coordinator::Options copts;
    copts.staleThreshold = std::chrono::milliseconds(300);
    Coordinator coordinator(store, copts);
    ASSERT_TRUE(coordinator.bind().ok());

    SweepSupervisor::Options o;
    o.workers = static_cast<std::uint32_t>(procs);
    o.maxRestarts = 5;
    o.backoffBase = std::chrono::milliseconds(10);
    o.backoffCap = std::chrono::milliseconds(100);
    o.heartbeatDir = stem + ".hb";
    // Generous: hang detection is exercised by the supervisor suite;
    // here it must never misfire while workers wait on peers' rows.
    o.hangTimeout = std::chrono::seconds(30);
    o.coordinator = coordinator.address();

    // The supervisor forks replacement workers for as long as the
    // cell runs, so it runs in a child of its own: the coordinator is
    // bound before that fork and started after it, and no fork ever
    // clones a running coordinator thread.
    const pid_t supervisor_pid = ::fork();
    ASSERT_GE(supervisor_pid, 0);
    if (supervisor_pid == 0) {
        SweepSupervisor sup(o);
        const SweepSupervisor::Report report = sup.run(
            [&](std::uint32_t slot, std::uint32_t attempt) {
                RunOptions opts = test::tinyOptions();
                std::optional<FaultInjector> fi;
                FaultInjector *fip = nullptr;
                if (attempt == 0) {
                    // First life: every crash-point draw fires, so
                    // this worker dies at its designated point on the
                    // first row it actually computes. Replacement
                    // lives run clean and finish the sweep
                    // cooperatively.
                    fi.emplace(1000u + slot);
                    fi->armAfter(crashPointFor(slot), 0, 64);
                    fip = &*fi;
                    opts.faultInjector = fip;
                }
                Runner runner(test::tinyConfig(2), opts);
                // A slot's lives share one private store, so a
                // replacement reopens whatever its predecessor tore.
                DiskCache scratch(
                    stem + "_slot" + std::to_string(slot) + ".cache",
                    fip);
                Exhaustive ex(runner, scratch);
                ex.setJobs(jobs);
                const ComboTable mine =
                    ex.sweep(makePair("BLK", "TRD"), ladder);
                return tablesBitIdentical(ref, mine) ? 0 : 2;
            });
        {
            std::ofstream out(report_path);
            out << report.totalRestarts << "\n"
                << report.summaryLine() << "\n";
        }
        ::_exit(report.allSucceeded ? 0 : 1);
    }
    ASSERT_TRUE(coordinator.start().ok());
    int status = 0;
    ASSERT_EQ(::waitpid(supervisor_pid, &status, 0), supervisor_pid);
    coordinator.stop();

    std::uint32_t restarts = 0;
    std::string summary;
    {
        std::ifstream in(report_path);
        in >> restarts;
        in.ignore();
        std::getline(in, summary);
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << summary;
    EXPECT_GE(restarts, 1u)
        << "at least one seeded crash must have fired: " << summary;

    // The coordinator's store is structurally sound before
    // compaction...
    store.sync();
    const FsckReport fsck = fsckStore(shared_path);
    EXPECT_EQ(fsck.verdict, FsckReport::Verdict::Clean)
        << fsck.summaryLine();

    // ...and compacts to the crash-free single-process bytes.
    EXPECT_EQ(store.size(), ref.combos.size());
    ASSERT_TRUE(store.compact());
    EXPECT_EQ(slurp(shared_path), ref_bytes)
        << "chaos must not change the canonical store bytes";
}

TEST_F(ChaosSweepTest, KilledWorkersConvergeToCrashFreeBytes)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 4};

    // Crash-free single-process reference, compacted.
    ComboTable ref;
    std::string ref_bytes;
    {
        Runner runner(test::tinyConfig(2), test::tinyOptions());
        DiskCache cache(ref_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref = ex.sweep(makePair("BLK", "TRD"), ladder);
        ASSERT_EQ(ex.status().simulated, 9u);
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
        ASSERT_FALSE(ref_bytes.empty());
    }

    const struct
    {
        int procs;
        std::uint32_t jobs;
    } grid[] = {{2, 1}, {2, 8}, {4, 1}, {4, 8}};
    for (const auto &cfg : grid) {
        removeCellFiles();
        runChaosCell(cfg.procs, cfg.jobs, stem_, ref, ref_bytes,
                     ladder);
    }
}

/**
 * The fsck CLI contract on a chaos-shaped corpse: a store with a torn
 * tail (a mid-append SIGKILL with no subsequent writer) scrubs Dirty
 * and repairs to exactly the durable entries.
 */
TEST_F(ChaosSweepTest, MidAppendKillLeavesARepairableStore)
{
    // One worker, killed mid-append of its second row, never
    // restarted: the store ends in a torn frame.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        FaultInjector fi(7);
        // Shim write ordinals on a fresh store: 0 = header, 1 = first
        // batch, 2 = second batch — kill mid-way through the second.
        fi.armAfter(Point::IoAbortMidWrite, 2, 1);
        DiskCache cache(shared_path_, &fi);
        cache.put("row/1", {1.0, 2.0});
        cache.sync();
        cache.put("row/2", {3.0, 4.0});
        cache.sync();
        ::_exit(0); // Unreachable.
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    const FsckReport scrub = fsckStore(shared_path_);
    EXPECT_EQ(scrub.verdict, FsckReport::Verdict::Dirty);
    EXPECT_TRUE(scrub.tornTail);
    EXPECT_EQ(scrub.framesOk, 1u);

    FsckOptions options;
    options.repair = true;
    const FsckReport repair = fsckStore(shared_path_, options);
    EXPECT_TRUE(repair.repaired);

    DiskCache recovered(shared_path_);
    EXPECT_EQ(recovered.size(), 1u);
    const std::optional<std::vector<double>> row =
        recovered.get("row/1");
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[0], 1.0);
    EXPECT_FALSE(recovered.get("row/2").has_value())
        << "the torn row must be gone, not half-present";
}

} // namespace
} // namespace ebm
