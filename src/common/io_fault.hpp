/**
 * @file
 * Injectable I/O seam for crash-consistency testing.
 *
 * Every durable write the result store performs goes through an
 * IoShim instead of calling pwrite/fsync/ftruncate directly. With no
 * FaultInjector attached the shim is a transparent retry-on-EINTR
 * wrapper (the exact loops DiskCache used inline); with one attached,
 * it deterministically injects the I/O failures a real deployment
 * meets:
 *
 *   - IoShortWrite:      half the buffer lands, then the write errors
 *                        (a partial append the caller must undo).
 *   - IoFsyncFail:       fsync reports failure — the data reached the
 *                        page cache but durability is not guaranteed.
 *   - IoEnospc / IoEio:  the write fails up front (disk full, I/O
 *                        error) with the matching errno.
 *   - IoAbortAfterWrite: the process dies (SIGKILL) immediately after
 *                        a complete write — durable frame, no cleanup,
 *                        leases left behind.
 *   - IoAbortMidWrite:   the process dies with only half the buffer
 *                        written — the canonical torn-tail producer.
 *
 * All points are driven by the shared FaultInjector, so a seeded
 * schedule replays bit-identically: the Nth batch append of a given
 * writer fails (or kills it) on every run of the same seed. The abort
 * points fire at write granularity, and DiskCache issues exactly one
 * shim write per group-commit batch — so "the Nth write" is "the Nth
 * frame-batch boundary".
 *
 * Thread safety: the shim itself is stateless; the injector it queries
 * follows the FaultInjector rules (single-threaded query streams —
 * DiskCache serializes all shim calls behind its single-writer append
 * role and ioMu_).
 */
#pragma once

#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/fault_injector.hpp"

namespace ebm {

/** Injectable wrapper over the durable-write syscalls. */
class IoShim
{
  public:
    explicit IoShim(FaultInjector *injector = nullptr)
        : injector_(injector)
    {
    }

    FaultInjector *injector() const { return injector_; }
    void setInjector(FaultInjector *injector) { injector_ = injector; }

    /**
     * Write all @p len bytes at @p off, retrying on EINTR.
     *
     * Injection points (queried in this order, first hit wins):
     * IoEnospc/IoEio fail before any byte lands; IoShortWrite and
     * IoAbortMidWrite write len/2 bytes first; IoAbortAfterWrite
     * completes the write, then kills the process.
     */
    Status
    pwriteAll(int fd, std::uint64_t off, const char *data,
              std::size_t len)
    {
        if (injector_ != nullptr) {
            if (injector_->shouldFire(FaultInjector::Point::IoEnospc)) {
                errno = ENOSPC;
                return ioError("injected ENOSPC");
            }
            if (injector_->shouldFire(FaultInjector::Point::IoEio)) {
                errno = EIO;
                return ioError("injected EIO");
            }
            if (injector_->shouldFire(
                    FaultInjector::Point::IoShortWrite)) {
                (void)rawPwriteAll(fd, off, data, len / 2);
                errno = EIO;
                return ioError("injected short write (" +
                               std::to_string(len / 2) + " of " +
                               std::to_string(len) + " bytes landed)");
            }
            if (injector_->shouldFire(
                    FaultInjector::Point::IoAbortMidWrite)) {
                (void)rawPwriteAll(fd, off, data, len / 2);
                die();
            }
        }
        if (!rawPwriteAll(fd, off, data, len))
            return ioError("write failed: " + errnoName());
        if (injector_ != nullptr &&
            injector_->shouldFire(
                FaultInjector::Point::IoAbortAfterWrite)) {
            die();
        }
        return Status::success();
    }

    /** fsync @p fd (injection point: IoFsyncFail). */
    Status
    fsyncFd(int fd)
    {
        if (injector_ != nullptr &&
            injector_->shouldFire(FaultInjector::Point::IoFsyncFail)) {
            errno = EIO;
            return ioError("injected fsync failure");
        }
        if (::fsync(fd) != 0)
            return ioError("fsync failed: " + errnoName());
        return Status::success();
    }

    /** ftruncate @p fd to @p len (no injection: truncation is the
     * *recovery* action — failing it is the read-only case the caller
     * handles by degrading, not a fault worth scheduling). */
    Status
    truncateFd(int fd, std::uint64_t len)
    {
        if (::ftruncate(fd, static_cast<off_t>(len)) != 0)
            return ioError("ftruncate failed: " + errnoName());
        return Status::success();
    }

  private:
    static std::string
    errnoName()
    {
        switch (errno) {
          case ENOSPC: return "ENOSPC";
          case EIO:    return "EIO";
          case EROFS:  return "EROFS";
          case EBADF:  return "EBADF";
          case EACCES: return "EACCES";
          default:     return "errno " + std::to_string(errno);
        }
    }

    static Status
    ioError(std::string what)
    {
        return Status(Error{Errc::CacheIo, std::move(what)});
    }

    /** The process-abort faults: SIGKILL, exactly like a chaos kill or
     * an OOM reap — no destructors, no atexit, no flocks released
     * gracefully (the kernel drops them with the fd table). */
    [[noreturn]] static void
    die()
    {
        (void)::kill(::getpid(), SIGKILL);
        // SIGKILL cannot be handled; pause until it lands.
        for (;;)
            ::pause();
    }

    static bool
    rawPwriteAll(int fd, std::uint64_t off, const char *data,
                 std::size_t len)
    {
        while (len > 0) {
            const ssize_t n =
                ::pwrite(fd, data, len, static_cast<off_t>(off));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            data += n;
            off += static_cast<std::uint64_t>(n);
            len -= static_cast<std::size_t>(n);
        }
        return true;
    }

    FaultInjector *injector_;
};

} // namespace ebm
