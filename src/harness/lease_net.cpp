#include "harness/lease_net.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/config.hpp"
#include "common/log.hpp"
#include "harness/disk_cache.hpp"
#include "harness/store_format.hpp"
#include "harness/sweep_supervisor.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

NetLeaseProvider::NetLeaseProvider(UniqueFd fd, Options options)
    : options_(options), fd_(std::move(fd))
{
}

std::unique_ptr<NetLeaseProvider>
NetLeaseProvider::connect(const std::string &address)
{
    // The env-driven entry point (makeLeaseProvider) honors retry
    // overrides so a CI job or test can shrink the 40x250ms default
    // budget when the coordinator is expected to already be up.
    Options options;
    if (const char *s = std::getenv("EBM_NET_CONNECT_ATTEMPTS")) {
        const unsigned long v = std::strtoul(s, nullptr, 10);
        if (v > 0)
            options.connectAttempts = static_cast<std::uint32_t>(v);
    }
    if (const char *s = std::getenv("EBM_NET_CONNECT_BACKOFF_MS")) {
        options.connectBackoff =
            std::chrono::milliseconds(std::strtoul(s, nullptr, 10));
    }
    return connect(address, options);
}

std::unique_ptr<NetLeaseProvider>
NetLeaseProvider::connect(const std::string &address,
                          const Options &options)
{
    std::string host;
    std::uint16_t port = 0;
    if (!parseHostPort(address, host, port)) {
        warn("NetLeaseProvider: malformed coordinator address '" +
             address + "' (want host:port)");
        return nullptr;
    }
    UniqueFd fd;
    for (std::uint32_t attempt = 0;; ++attempt) {
        auto result = netConnectTcp(host, port);
        if (result) {
            fd = std::move(result.value());
            break;
        }
        if (attempt + 1 >= std::max(options.connectAttempts, 1u)) {
            warn("NetLeaseProvider: " + result.error().message);
            return nullptr;
        }
        std::this_thread::sleep_for(options.connectBackoff);
    }
    auto provider = std::unique_ptr<NetLeaseProvider>(
        new NetLeaseProvider(std::move(fd), options));
    // Handshake before any lease verb: a worker whose doubles don't
    // round-trip byte-identically with the coordinator's store (or
    // whose app catalog disagrees) must not contribute records.
    std::lock_guard<std::mutex> lk(provider->mu_);
    const auto reply = provider->rpc(
        "HELLO " + DiskCache::machineFingerprint() + " " +
        std::to_string(kAppCatalogVersion));
    if (!reply || reply->rfind("OK", 0) != 0) {
        warn("NetLeaseProvider: coordinator at " + address +
             " refused the handshake" +
             (reply ? ": " + *reply : std::string()));
        return nullptr;
    }
    // The coordinator's staleness window paces our heartbeats and
    // RPC deadline: a worker on its own clock would renew too rarely
    // for a short window and peers would take over live rows.
    const auto tokens = wire::splitTokens(*reply);
    std::uint64_t stale_ms = 0;
    if (tokens.size() != 2 || !parseUint(tokens[1].c_str(), stale_ms) ||
        stale_ms == 0) {
        warn("NetLeaseProvider: coordinator at " + address +
             " sent no staleness window: " + *reply);
        return nullptr;
    }
    provider->staleMs_ = std::chrono::milliseconds(stale_ms);
    return provider;
}

std::chrono::milliseconds
NetLeaseProvider::heartbeatInterval() const
{
    return std::max(staleMs_ / 4, std::chrono::milliseconds(10));
}

int
NetLeaseProvider::timeoutMs() const
{
    if (options_.rpcTimeout.count() > 0)
        return static_cast<int>(options_.rpcTimeout.count());
    return static_cast<int>(
        std::max<std::chrono::milliseconds::rep>(staleMs_.count() * 4,
                                                 2000));
}

std::optional<std::string>
NetLeaseProvider::rpc(const std::string &request)
{
    if (degraded_)
        return std::nullopt;
    std::string reply;
    if (wire::sendFrame(fd_.get(), request) &&
        wire::recvFrame(fd_.get(), reader_, reply, timeoutMs()))
        return reply;
    degraded_ = true;
    fd_.reset();
    if (!degradeWarned_) {
        degradeWarned_ = true;
        warn("NetLeaseProvider: lost the coordinator connection; "
             "this sweep degrades to standalone (results stay "
             "local, peers take over our leased rows)");
    }
    return std::nullopt;
}

bool
NetLeaseProvider::tryAcquire(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto reply = rpc("ACQ " + key);
    if (!reply) {
        // Degraded: compute locally. Epoch 0 keeps noteEpoch quiet
        // and release/heartbeat local-only.
        owned_[key] = 0;
        return true;
    }
    if (reply->rfind("OK ", 0) == 0) {
        owned_[key] = std::strtoull(reply->c_str() + 3, nullptr, 10);
        return true;
    }
    return false; // HELD or SKIP.
}

bool
NetLeaseProvider::heartbeat(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    if (it == owned_.end())
        return false;
    if (degraded_ || it->second == 0)
        return true; // Local-only lease: nothing to renew.
    const auto reply =
        rpc("HB " + std::to_string(it->second) + " " + key);
    if (!reply)
        return true; // Connection just died: keep computing.
    if (*reply == "OK")
        return true;
    owned_.erase(key); // Fenced: the row is not ours to touch.
    return false;
}

bool
NetLeaseProvider::release(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    if (it == owned_.end())
        return false;
    const std::uint64_t epoch = it->second;
    owned_.erase(it);
    if (degraded_ || epoch == 0)
        return true;
    const auto reply =
        rpc("REL " + std::to_string(epoch) + " " + key);
    if (!reply)
        return true; // Connection died; the coordinator orphans it.
    if (*reply == "OK")
        return true;
    warn("NetLeaseProvider: fenced out of " + key +
         "; leaving the newer lease in place");
    return false;
}

bool
NetLeaseProvider::markSkipped(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    if (it == owned_.end())
        return false;
    const std::uint64_t epoch = it->second;
    owned_.erase(it);
    if (degraded_ || epoch == 0)
        return true;
    const auto reply =
        rpc("SKIPMARK " + std::to_string(epoch) + " " + key);
    return reply && *reply == "OK";
}

NetLeaseProvider::State
NetLeaseProvider::peek(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto reply = rpc("PEEK " + key);
    if (!reply)
        return State::Absent; // Degraded: lease it, compute locally.
    if (*reply == "ACTIVE")
        return State::Active;
    if (*reply == "STALE")
        return State::Stale;
    if (*reply == "SKIP")
        return State::Skipped;
    return State::Absent;
}

bool
NetLeaseProvider::breakStale(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto reply = rpc("BREAK " + key);
    if (!reply) {
        owned_[key] = 0;
        return true; // Degraded: compute locally.
    }
    if (reply->rfind("OK ", 0) == 0) {
        owned_[key] = std::strtoull(reply->c_str() + 3, nullptr, 10);
        return true;
    }
    return false;
}

std::uint64_t
NetLeaseProvider::ownedEpoch(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    return it == owned_.end() ? 0 : it->second;
}

bool
NetLeaseProvider::publish(const std::string &key,
                          const std::vector<double> &values)
{
    // The record travels as the exact storefmt frame an append would
    // write — key, raw double bit patterns, CRC — inside the wire
    // envelope; the coordinator re-verifies the CRC and group-commits
    // it through its own DiskCache writer.
    std::string request = "PUT\n";
    storefmt::appendFrame(request, key, values);
    std::lock_guard<std::mutex> lk(mu_);
    const auto reply = rpc(request);
    return reply && *reply == "OK";
}

std::optional<std::vector<double>>
NetLeaseProvider::fetch(const std::string &key, std::size_t expected)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto reply = rpc("GET " + key);
    if (!reply || reply->rfind("HIT\n", 0) != 0)
        return std::nullopt;
    constexpr std::size_t kVerbBytes = 4; // "HIT\n"
    storefmt::Frame frame;
    const auto parsed = storefmt::parseFrameAt(
        reply->data(), kVerbBytes, reply->size(), frame);
    if (parsed != storefmt::FrameParse::Ok || frame.key != key)
        return std::nullopt;
    // Same validation contract as DiskCache::getValidated: exactly
    // the expected shape, every value finite — anything else is a
    // miss (recompute), never a crash.
    if (frame.values.size() != expected)
        return std::nullopt;
    for (const double v : frame.values) {
        if (!std::isfinite(v))
            return std::nullopt;
    }
    return std::move(frame.values);
}

bool
NetLeaseProvider::degraded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return degraded_;
}

std::unique_ptr<NetLeaseProvider>
makeLeaseProvider()
{
    const char *coordinator = std::getenv("EBM_COORDINATOR");
    if (coordinator == nullptr || coordinator[0] == '\0')
        return nullptr;
    auto net = NetLeaseProvider::connect(coordinator);
    if (net == nullptr) {
        warn("makeLeaseProvider: cannot reach coordinator " +
             std::string(coordinator) +
             "; sweep degrades to standalone (results stay local)");
    }
    return net;
}

LeaseHeartbeater::LeaseHeartbeater(NetLeaseProvider *lease,
                                   std::string key)
    : lease_(lease), key_(std::move(key))
{
    if (lease_ == nullptr || key_.empty())
        return;
    thread_ = std::thread([this] { run(); });
}

LeaseHeartbeater::~LeaseHeartbeater()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
LeaseHeartbeater::run()
{
    const auto interval = lease_->heartbeatInterval();
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (cv_.wait_for(lk, interval, [this] { return stop_; }))
            return;
        lk.unlock();
        touchWorkerHeartbeat();
        const bool ok = lease_->heartbeat(key_);
        lk.lock();
        if (!ok) {
            // Fenced: stop renewing a lease that is no longer ours
            // and let the owner discover it after the run.
            fenced_.store(true, std::memory_order_relaxed);
            return;
        }
    }
}

} // namespace ebm
