#include "harness/sweep_supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <thread>

#include "common/log.hpp"

namespace ebm {

namespace {

using Clock = std::chrono::steady_clock;

/** Milliseconds since @p path's mtime; negative on stat failure. */
long long
fileAgeMs(const std::string &path)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    struct timespec now = {};
    ::clock_gettime(CLOCK_REALTIME, &now);
    const long long ns =
        (now.tv_sec - st.st_mtim.tv_sec) * 1000000000ll +
        (now.tv_nsec - st.st_mtim.tv_nsec);
    return ns / 1000000ll;
}

void
touchFile(const std::string &path)
{
    if (::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) != 0 &&
        errno == ENOENT) {
        const int fd =
            ::open(path.c_str(), O_CREAT | O_WRONLY, 0644);
        if (fd >= 0)
            ::close(fd);
    }
}

/** One slot's supervision state across worker lives. */
struct Slot
{
    pid_t pid = -1;           ///< Running worker; -1 = none.
    std::uint32_t attempt = 0;///< Lives launched so far.
    Clock::time_point notBefore = Clock::time_point::min();
    bool settled = false;     ///< Succeeded or budget exhausted.
    SweepSupervisor::WorkerReport report;
};

} // namespace

void
touchWorkerHeartbeat()
{
    const char *path = std::getenv("EBM_WORKER_HEARTBEAT");
    if (path != nullptr && path[0] != '\0')
        touchFile(path);
}

std::string
SweepSupervisor::Report::summaryLine() const
{
    std::ostringstream out;
    out << "supervisor: " << workers.size() << " workers, "
        << totalRestarts << " restarts, " << totalHangKills
        << " hang kills, "
        << (allSucceeded ? "all succeeded" : "FAILURES");
    return out.str();
}

SweepSupervisor::SweepSupervisor(Options options)
    : options_(std::move(options))
{
    if (options_.workers == 0)
        options_.workers = 1;
    if (!options_.heartbeatDir.empty()) {
        if (::mkdir(options_.heartbeatDir.c_str(), 0777) != 0 &&
            errno != EEXIST) {
            warn("SweepSupervisor: cannot create " +
                 options_.heartbeatDir +
                 "; hang detection disabled");
            options_.heartbeatDir.clear();
        }
    }
}

std::string
SweepSupervisor::heartbeatPath(std::uint32_t slot) const
{
    if (options_.heartbeatDir.empty())
        return {};
    return options_.heartbeatDir + "/worker" + std::to_string(slot) +
           ".hb";
}

SweepSupervisor::Report
SweepSupervisor::run(const WorkerFn &worker)
{
    std::vector<Slot> slots(options_.workers);
    for (std::uint32_t s = 0; s < options_.workers; ++s)
        slots[s].report.slot = s;

    const auto launch = [&](std::uint32_t s) {
        Slot &slot = slots[s];
        const std::string hb = heartbeatPath(s);
        // A fresh mtime before the fork: the hang clock starts at
        // launch, not at whenever the previous life last ticked.
        if (!hb.empty())
            touchFile(hb);
        const pid_t pid = ::fork();
        if (pid < 0) {
            warn("SweepSupervisor: fork failed for slot " +
                 std::to_string(s) + "; retrying after backoff");
            slot.notBefore = Clock::now() + options_.backoffBase;
            return;
        }
        if (pid == 0) {
            // Child: advertise the heartbeat file to the sweep loop
            // (touchWorkerHeartbeat), run the worker body, and exit
            // without running the parent's atexit chain twice.
            if (!hb.empty())
                ::setenv("EBM_WORKER_HEARTBEAT", hb.c_str(), 1);
            // Point the child's dispatch gate at the coordinator:
            // makeLeaseProvider reads this and leases rows over TCP.
            if (!options_.coordinator.empty())
                ::setenv("EBM_COORDINATOR",
                         options_.coordinator.c_str(), 1);
            int rc = 125;
            try {
                rc = worker(s, slot.attempt);
            } catch (...) {
                rc = 124;
            }
            std::_Exit(rc);
        }
        slot.pid = pid;
        slot.report.lastPid = pid;
        if (slot.attempt > 0) {
            ++slot.report.restarts;
        }
        ++slot.attempt;
    };

    const auto settle = [&](Slot &slot, bool ok, int status) {
        slot.pid = -1;
        slot.report.lastStatus = status;
        if (ok) {
            slot.report.succeeded = true;
            slot.settled = true;
            return;
        }
        if (slot.attempt > options_.maxRestarts) {
            slot.report.budgetExhausted = true;
            slot.settled = true;
            warn("SweepSupervisor: slot " +
                 std::to_string(slot.report.slot) +
                 " exhausted its restart budget (" +
                 std::to_string(options_.maxRestarts) + ")");
            return;
        }
        // Capped exponential backoff: crashes on a poison row space
        // themselves out instead of hot-looping the CPU.
        auto delay = options_.backoffBase;
        for (std::uint32_t i = 1; i < slot.attempt &&
                                  delay < options_.backoffCap;
             ++i)
            delay *= 2;
        if (delay > options_.backoffCap)
            delay = options_.backoffCap;
        slot.notBefore = Clock::now() + delay;
    };

    for (std::uint32_t s = 0; s < options_.workers; ++s)
        launch(s);

    for (;;) {
        bool all_settled = true;
        bool any_running = false;
        const auto now = Clock::now();
        for (std::uint32_t s = 0; s < options_.workers; ++s) {
            Slot &slot = slots[s];
            if (slot.settled)
                continue;
            all_settled = false;
            if (slot.pid < 0) {
                if (now >= slot.notBefore)
                    launch(s);
                if (slot.pid >= 0)
                    any_running = true;
                continue;
            }
            any_running = true;

            int status = 0;
            const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid) {
                const bool ok = WIFEXITED(status) &&
                                WEXITSTATUS(status) == 0;
                if (!ok) {
                    warn("SweepSupervisor: slot " +
                         std::to_string(s) + " worker " +
                         std::to_string(slot.pid) +
                         (WIFSIGNALED(status)
                              ? " died on signal " +
                                    std::to_string(WTERMSIG(status))
                              : " exited " +
                                    std::to_string(
                                        WEXITSTATUS(status))));
                }
                settle(slot, ok, status);
                continue;
            }
            if (r < 0 && errno == ECHILD) {
                // Should not happen (we only wait on our own forks);
                // treat as a crash so the slot is not stuck forever.
                settle(slot, false, 0);
                continue;
            }

            // Hang detection: the worker is alive but its heartbeat
            // file has gone silent past the timeout — kill it and let
            // the normal crash path restart it (leases it held go
            // stale and peers take them over meanwhile).
            const std::string hb = heartbeatPath(s);
            if (!hb.empty()) {
                const long long age = fileAgeMs(hb);
                if (age > options_.hangTimeout.count()) {
                    warn("SweepSupervisor: slot " + std::to_string(s) +
                         " worker " + std::to_string(slot.pid) +
                         " heartbeat silent for " +
                         std::to_string(age) + " ms; killing");
                    ++slot.report.hangKills;
                    (void)::kill(slot.pid, SIGKILL);
                    // Reaped by the WNOHANG poll on a later tick.
                }
            }
        }
        if (all_settled)
            break;
        if (!any_running) {
            // Everyone is in backoff; sleep until the earliest
            // relaunch instead of spinning.
            auto wake = Clock::time_point::max();
            for (const Slot &slot : slots) {
                if (!slot.settled && slot.pid < 0 &&
                    slot.notBefore < wake)
                    wake = slot.notBefore;
            }
            if (wake != Clock::time_point::max() && wake > now) {
                std::this_thread::sleep_until(wake);
                continue;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    Report report;
    report.allSucceeded = true;
    for (Slot &slot : slots) {
        report.totalRestarts += slot.report.restarts;
        report.totalHangKills += slot.report.hangKills;
        if (!slot.report.succeeded)
            report.allSucceeded = false;
        report.workers.push_back(std::move(slot.report));
    }
    if (!report.allSucceeded)
        warn("SweepSupervisor: " + report.summaryLine());
    return report;
}

} // namespace ebm
