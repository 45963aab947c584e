/**
 * @file
 * Network lease client: the worker half of the cooperative fill
 * (harness/coordinator.hpp has the protocol). The sweep dispatch gates
 * (Exhaustive::sweep, ProfileDb::profile) coordinate through it when
 * several workers fill one cold store: who owns a row, how ownership
 * is kept alive, how a dead owner's row is taken over, and how the
 * row's result travels. A NetLeaseProvider speaks the lease verbs as
 * request/response RPCs over one TCP connection to an ebm_coordinator
 * and implements the result transport by streaming CRC-framed v3
 * records (PUT) and probing the coordinator's store (GET) — the
 * worker's own DiskCache is private scratch. Processes on one host
 * cooperate the same way, through a localhost coordinator.
 *
 * The merge invariant: compact() sorts by key and the simulation is
 * deterministic, so any mix of workers, takeovers, and duplicate
 * computes compacts the coordinator's store to the bytes a serial
 * fill would have produced.
 *
 * Threading: the sweep's JobPool workers and every LeaseHeartbeater
 * tick share this one connection; RPCs are serialized under a mutex
 * (they are microseconds against rows that take milliseconds to
 * seconds — the coordinator's LatencyHistogram keeps the receipts).
 *
 * Failure policy: the fabric is an optimization, never a correctness
 * dependency. If the connection breaks — coordinator gone, RPC
 * timeout, garbled frame — the provider latches a degraded mode that
 * behaves like no coordination at all: every tryAcquire is granted
 * locally (epoch 0), peeks read Absent, publishes fail quietly. The
 * sweep then computes everything itself, which is always correct,
 * merely not shared; and because real peers never see this worker's
 * leases again (its connection died with it), the coordinator orphans
 * them and peers take the rows over under bumped epochs.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/net.hpp"
#include "common/wire.hpp"

namespace ebm {

/** Row leases + record streaming over one coordinator connection. */
class NetLeaseProvider
{
  public:
    /** A waiter's view of another worker's lease on a key. */
    enum class State : std::uint8_t {
        Absent,  ///< No lease (result durable, or owner takeover race).
        Active,  ///< A live owner is computing the row.
        Stale,   ///< The owner stopped heartbeating: take over.
        Skipped, ///< The owner exhausted retries: replicate the skip.
    };

    struct Options
    {
        /** Connect retries (the worker may start before the
         * coordinator finishes binding) and their spacing. */
        std::uint32_t connectAttempts = 40;
        std::chrono::milliseconds connectBackoff{250};
        /** Per-RPC response deadline; zero = 4x the coordinator's
         * staleness window (min 2s). A coordinator that cannot answer
         * within that is treated as gone (degraded mode). */
        std::chrono::milliseconds rpcTimeout{0};
    };

    /**
     * Connect to "host:port" and handshake (HELLO verifies the
     * float-ABI fingerprint and app-catalog version — a foreign
     * machine's records must never reach the store — and returns the
     * coordinator's staleness window, which paces this worker's
     * heartbeats and RPC deadline). @return nullptr when the address
     * is malformed, the coordinator is unreachable after the retry
     * budget, or the handshake is refused.
     */
    static std::unique_ptr<NetLeaseProvider>
    connect(const std::string &address, const Options &options);
    static std::unique_ptr<NetLeaseProvider>
    connect(const std::string &address);

    /** Atomically lease @p key under a fresh fencing epoch. @return
     * true = this worker owns the row and must compute it. */
    bool tryAcquire(const std::string &key);

    /** Keep the owned lease alive. @return false when fenced — a peer
     * took the row over and this worker's result is a duplicate. */
    bool heartbeat(const std::string &key);

    /** The row's result is durable (publish() succeeded): drop the
     * lease so waiters fall through to the result. @return false when
     * fenced (the newer owner's lease was left untouched). */
    bool release(const std::string &key);

    /** Retries exhausted: record a skip so every waiter replicates
     * it, then drop the lease. @return false when fenced. */
    bool markSkipped(const std::string &key);

    /** Poll another worker's lease on @p key. */
    State peek(const std::string &key);

    /** Take over a stale lease under a bumped fencing epoch. @return
     * true = this worker owns the row now. */
    bool breakStale(const std::string &key);

    /** The fencing epoch this instance holds @p key under; 0 when it
     * does not own the key (or holds it locally after a degrade). */
    std::uint64_t ownedEpoch(const std::string &key) const;

    /**
     * Make the owned row's result durable where waiting peers will
     * find it: the record is streamed as a CRC-framed v3 frame and
     * acknowledged once the coordinator's writer committed it. Call
     * before release(). @return false when the result could not be
     * made durable for peers (it is still good locally).
     */
    bool publish(const std::string &key,
                 const std::vector<double> &values);

    /**
     * Probe the coordinator for a peer's durable result for @p key.
     * Validated like DiskCache::getValidated — exactly @p expected
     * finite doubles, anything else is a miss.
     */
    std::optional<std::vector<double>>
    fetch(const std::string &key, std::size_t expected);

    /** Has the connection been lost (standalone degrade latched)? */
    bool degraded() const;

    /** The staleness window the coordinator reported at HELLO. */
    std::chrono::milliseconds coordinatorStaleMs() const
    {
        return staleMs_;
    }

    /** In-run heartbeat period: a quarter of the coordinator's
     * window (at least 10ms), so a live owner stays at least three
     * missed ticks away from ever looking stale. */
    std::chrono::milliseconds heartbeatInterval() const;

  private:
    NetLeaseProvider(UniqueFd fd, Options options);

    /** One serialized request/response exchange. Returns std::nullopt
     * (and latches degraded mode) on any transport failure. */
    std::optional<std::string> rpc(const std::string &request);

    int timeoutMs() const;

    Options options_;
    std::chrono::milliseconds staleMs_{0};

    mutable std::mutex mu_;
    UniqueFd fd_;
    wire::FrameReader reader_;
    bool degraded_ = false;
    bool degradeWarned_ = false;
    /** Epochs of leases this instance currently holds. */
    std::unordered_map<std::string, std::uint64_t> owned_;
};

/**
 * The lease client for one sweep, from EBM_COORDINATOR=host:port;
 * nullptr when it is unset (the ordinary uncoordinated sweep) or the
 * coordinator cannot be reached (warned: the sweep degrades to
 * standalone, which is always correct, merely not shared).
 */
std::unique_ptr<NetLeaseProvider> makeLeaseProvider();

/**
 * Periodic in-run heartbeat for one held lease (RAII): spans a row's
 * whole attempt loop with a background thread that renews the lease
 * every heartbeatInterval(), so a row longer than the coordinator's
 * staleness window never looks abandoned to peers. The same tick
 * touches the EBM_WORKER_HEARTBEAT file (touchWorkerHeartbeat in
 * sweep_supervisor.hpp), tying the supervisor's hang detector to the
 * same liveness signal.
 *
 * If a tick discovers the lease was fenced (a peer took the row over
 * after a stall longer than the window), it stops renewing and
 * latches fenced(); the owner checks after the run and demotes its
 * result to a duplicate compute.
 */
class LeaseHeartbeater
{
  public:
    /** Start heartbeating @p key on @p lease. Either may be null /
     * empty — then this is an inert object (the unleased path). */
    LeaseHeartbeater(NetLeaseProvider *lease, std::string key);
    ~LeaseHeartbeater();

    LeaseHeartbeater(const LeaseHeartbeater &) = delete;
    LeaseHeartbeater &operator=(const LeaseHeartbeater &) = delete;

    /** Did a heartbeat discover the lease was taken over? */
    bool fenced() const
    {
        return fenced_.load(std::memory_order_relaxed);
    }

  private:
    void run();

    NetLeaseProvider *lease_;
    std::string key_;
    std::atomic<bool> fenced_{false};
    bool stop_ = false;
    std::mutex mu_;
    std::condition_variable cv_;
    std::thread thread_;
};

} // namespace ebm
