/**
 * @file
 * The sweep coordinator: the one mechanism by which several worker
 * processes split a cold fill (DESIGN.md §8.3). One Coordinator owns
 * a v3 result store and hands out row leases over TCP; workers
 * (ebm_sweep_worker, or any figure binary with
 * EBM_COORDINATOR=host:port, harness/lease_net.hpp) run the ordinary
 * dispatch loop against leased rows and stream CRC-framed v3 records
 * back, which the coordinator group-commits through its own DiskCache
 * writer — so `compact()` byte-identity is the merge invariant,
 * whether the workers share a host (a localhost coordinator) or not.
 *
 * Protocol: EBS1 frames (common/wire.hpp), one request/response pair
 * per frame. Text verbs, with the record stream carrying raw storefmt
 * frame bytes after the verb line:
 *
 *   HELLO <fingerprint> <catalogVersion>  -> OK <staleMs> | ERROR ...
 *   ACQ <key>            -> OK <epoch> | HELD | SKIP
 *   HB <epoch> <key>     -> OK | FENCED
 *   REL <epoch> <key>    -> OK | FENCED      (store synced first)
 *   SKIPMARK <epoch> <key> -> OK | FENCED
 *   PEEK <key>           -> ABSENT | ACTIVE | STALE | SKIP
 *   BREAK <key>          -> OK <epoch> | DENIED
 *   GET <key>            -> HIT\n<storefmt frame> | MISS
 *   PUT\n<storefmt frame> -> OK | ERROR ...
 *   PING / STATS / SHUTDOWN -> OK ...
 *
 * Fencing over TCP: the coordinator is the single authority for
 * per-key epochs, heartbeats are RPCs timestamped on the
 * coordinator's clock, and staleness is judged against the
 * coordinator's window (Options::staleThreshold), which HELLO reports
 * so every worker paces its heartbeats to it. Takeover epochs past 1
 * are echoed into the store header (DiskCache::noteFencingEpoch) until
 * compaction renders the store canonical. A connection that drops —
 * worker killed, crashed mid-record-stream, network gone — orphans
 * its leases immediately: peers see STALE without waiting out the
 * window, BREAK reassigns the row under a bumped epoch, and the dead
 * owner's epoch-carrying verbs are refused (FENCED) if it ever
 * resurfaces. A record cut off mid-stream never reaches the store at
 * all: the wire frame doesn't reassemble, so unlike a torn file
 * append there is no tail to truncate.
 *
 * Lease RPC service time is recorded in a LatencyHistogram
 * (common/stats.hpp) and surfaced through STATS and stats() — the
 * fabric's scaling story depends on this number staying microscopic
 * next to a row's simulation time.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/net.hpp"
#include "common/stats.hpp"

namespace ebm {

class DiskCache;

/** TCP lease/record server over one result store. */
class Coordinator
{
  public:
    /** Lease staleness window unless Options::staleThreshold (the
     * daemon's --stale-ms) overrides it. */
    static constexpr std::chrono::milliseconds kDefaultStaleThreshold{
        10000};

    struct Options
    {
        /** Numeric IPv4 bind address (empty = all interfaces). */
        std::string host = "127.0.0.1";
        /** 0 = kernel-assigned ephemeral; read back with port(). */
        std::uint16_t port = 0;
        /** Lease staleness window (HELLO reports it to workers). */
        std::chrono::milliseconds staleThreshold =
            kDefaultStaleThreshold;
        /** Honor the SHUTDOWN verb (daemon mode). */
        bool allowRemoteShutdown = false;
    };

    /** Monotonic service counters + lease RPC latency percentiles. */
    struct Stats
    {
        std::uint64_t connections = 0;
        std::uint64_t rpcs = 0;
        std::uint64_t acquiresGranted = 0;
        std::uint64_t acquiresDenied = 0;
        std::uint64_t takeovers = 0;   ///< BREAK reassignments.
        std::uint64_t fencedOps = 0;   ///< Stale-epoch verbs refused.
        std::uint64_t orphanedLeases = 0; ///< Dropped connections.
        std::uint64_t recordsCommitted = 0;
        std::uint64_t recordBytes = 0;
        std::uint64_t fetchHits = 0;
        std::uint64_t fetchMisses = 0;
        std::uint64_t skipsMarked = 0;
        std::uint64_t badFrames = 0;   ///< PUT payloads that failed CRC.
        double rpcP50Us = 0.0;
        double rpcP99Us = 0.0;

        std::string summaryLine() const;
    };

    Coordinator(DiskCache &cache, Options options);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Create and bind the listener without starting any thread; after
     * this, port() is final. Split from start() so a test or bench
     * can fork workers between bind and start — children inherit one
     * quiet listening fd instead of a running thread's locks, and
     * their connects queue in the backlog until start().
     */
    Status bind();

    /** bind() if not yet bound, then start the accept thread. */
    Status start();

    /** Stop accepting, shut open connections, join all threads. Safe
     * to call twice; the destructor calls it. */
    void stop();

    /** The bound port (after bind()/start()); 0 before. */
    std::uint16_t port() const { return port_; }

    /** "host:port" for workers' EBM_COORDINATOR. */
    std::string address() const;

    Stats stats() const;

    /** Did a client ask for SHUTDOWN (daemon mode)? */
    bool shutdownRequested() const;

    /** Block until SHUTDOWN or stop(). */
    void waitForShutdown();

    /** The staleness window in force. */
    std::chrono::milliseconds staleThreshold() const
    {
        return options_.staleThreshold;
    }

  private:
    struct Lease
    {
        std::uint64_t epoch = 0;
        std::chrono::steady_clock::time_point beat;
        std::uint64_t conn = 0;
        bool orphaned = false; ///< Owner's connection dropped.
    };

    void acceptLoop();
    void serveConnection(int fd, std::uint64_t conn_id);
    /** Handle one request payload; returns the response payload. */
    std::string handle(const std::string &payload,
                       std::uint64_t conn_id);
    std::string handleAcquire(const std::string &key,
                              std::uint64_t conn_id);
    std::string handleBreak(const std::string &key,
                            std::uint64_t conn_id);
    std::string handlePeek(const std::string &key);
    std::string handlePut(const std::string &payload);
    std::string handleGet(const std::string &key);
    /** Validate an epoch-carrying verb; erases the lease on success
     * when @p erase is set. */
    bool validateEpoch(const std::string &key, std::uint64_t epoch,
                       bool erase);
    void orphanConnection(std::uint64_t conn_id);
    std::string statsLine() const;

    DiskCache &cache_;
    Options options_;

    UniqueFd listener_;
    std::uint16_t port_ = 0;
    std::thread acceptThread_;
    bool started_ = false;

    mutable std::mutex connMu_;
    std::vector<std::thread> connThreads_;
    std::unordered_set<int> openFds_;
    std::uint64_t nextConnId_ = 1;
    bool stopping_ = false;
    bool shutdownRequested_ = false;
    std::condition_variable shutdownCv_;

    mutable std::mutex leaseMu_;
    std::unordered_map<std::string, Lease> leases_;
    /** Per-key monotonic fencing epochs (coordinator lifetime). */
    std::unordered_map<std::string, std::uint64_t> epochs_;
    std::unordered_map<std::string,
                       std::chrono::steady_clock::time_point>
        skips_;

    LatencyHistogram rpcLatency_;
    mutable std::mutex statsMu_;
    Stats counters_;
};

} // namespace ebm
