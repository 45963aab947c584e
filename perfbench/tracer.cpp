/**
 * @file
 * Traced replay of one benchmark workload through the program's public
 * API: DiskCache, ProfileDb::profile, Exhaustive::sweep, the figures'
 * own evaluation loop (bench::runComparison, which makes the online
 * Runner::run calls), WarmStateCache and an in-process Coordinator.
 * Every call gets one span (name, start, end, parent); at exit the
 * spans are written as Chrome trace-event JSON and the per-layer
 * counters are printed as one JSON object on the last line of stdout.
 *
 * Usage:
 *   perf_tracer --workload static-cold --dir D --trace-out F
 *   perf_tracer --workload online-warm --dir D --trace-out F
 *       (D holds a copy of the prepared store; before the JSON line,
 *       stdout holds each figure's table under a line naming it)
 *   perf_tracer --workload fill-shared --dir D --trace-out F
 *       --worker PATH --workers K --pair A B [--pair A B ...]
 *
 * The store is D/ebm_results.cache; fill-shared gives each pair its
 * own store under D/fill-A_B/. Simulation threads come from EBM_JOBS.
 */
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/coordinator.hpp"
#include "harness/warm_state.hpp"
#include "scheme_eval.hpp"

extern char **environ;

using namespace ebm;
namespace fs = std::filesystem;

// The program's Runner::run and Exhaustive::sweep. CMakeLists.txt links
// with --wrap for both symbols, so every call to them, the program's
// own included, enters wrappedRun / wrappedSweep below, which reach
// the real functions through the __real_ names. Member functions take
// `this` as their first argument.
RunResult realRun(const Runner *runner, const std::vector<AppProfile> &apps,
                  TlpPolicy &policy, std::vector<std::uint32_t> core_share)
    __asm__("__real_" EBM_RUN_SYMBOL);
RunResult wrappedRun(const Runner *runner,
                     const std::vector<AppProfile> &apps, TlpPolicy &policy,
                     std::vector<std::uint32_t> core_share)
    __asm__("__wrap_" EBM_RUN_SYMBOL);
ComboTable realSweep(Exhaustive *exhaustive, const Workload &wl,
                     std::vector<std::uint32_t> levels)
    __asm__("__real_" EBM_SWEEP_SYMBOL);
ComboTable wrappedSweep(Exhaustive *exhaustive, const Workload &wl,
                        std::vector<std::uint32_t> levels)
    __asm__("__wrap_" EBM_SWEEP_SYMBOL);

namespace {

using Clock = std::chrono::steady_clock;

/** In-memory span recorder for the main thread; spans nest by call
 * order. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
    };

    int
    begin(const std::string &name)
    {
        spans_.push_back({name, nowUs(), 0.0,
                          stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    double
    end(int id)
    {
        spans_[id].endUs = nowUs();
        stack_.pop_back();
        return (spans_[id].endUs - spans_[id].startUs) / 1000.0;
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    /** Share of [0, now] covered by top-level spans. */
    double
    topLevelCoverage() const
    {
        double covered = 0.0;
        for (const Span &s : spans_) {
            if (s.parent < 0)
                covered += s.endUs - s.startUs;
        }
        return covered / nowUs();
    }

    void
    writeChrome(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::string name;
            for (const char c : s.name)
                name += (c == '"' || c == '\\') ? '_' : c;
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
                          name.c_str(), s.startUs, s.endUs - s.startUs,
                          i, s.parent,
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer gTracer;
const std::thread::id gMainThread = std::this_thread::get_id();

/** RAII span; ms() closes it early and returns its length. */
class Scope
{
  public:
    explicit Scope(const std::string &name) : id_(gTracer.begin(name)) {}
    ~Scope()
    {
        if (!closed_)
            gTracer.end(id_);
    }
    double
    ms()
    {
        closed_ = true;
        return gTracer.end(id_);
    }

  private:
    int id_;
    bool closed_ = false;
};

using Metrics = std::map<std::string, double>;

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec +
                               ru.ru_stime.tv_usec) /
               1e6;
}

/** What the wrapped Exhaustive::sweep calls saw (main thread only). */
struct Sweeps
{
    std::vector<double> ms;
    double wallS = 0.0;
    double cpuS = 0.0;
    double simulatedCycles = 0.0;
    double simulatedWallS = 0.0;
} gSweeps;

/** What the wrapped Runner::run calls with an online policy saw. Today
 * the program makes them one after another on the main thread; the
 * lock keeps the counts right if it runs them on JobPool threads
 * (ROADMAP item 1), and only main-thread calls get a span. */
struct OnlineRuns
{
    std::mutex mu;
    std::map<std::string, std::vector<double>> ms; ///< By policy kind.
    std::set<std::string> distinct; ///< Policy name, apps, core share.
    double cycles = 0.0;
    double seconds = 0.0;
    std::vector<double> pbsSamples;
    std::vector<double> pbsChanges;
} gOnline;

} // namespace

ComboTable
wrappedSweep(Exhaustive *exhaustive, const Workload &wl,
             std::vector<std::uint32_t> levels)
{
    const std::size_t simulated = exhaustive->status().simulated;
    const double cpu0 = cpuSeconds();
    Scope s("Exhaustive::sweep " + wl.name);
    ComboTable table = realSweep(exhaustive, wl, std::move(levels));
    const double ms_taken = s.ms();
    gSweeps.ms.push_back(ms_taken);
    gSweeps.wallS += ms_taken / 1000.0;
    gSweeps.cpuS += cpuSeconds() - cpu0;
    if (exhaustive->status().simulated > simulated) {
        for (const RunResult &r : table.results)
            gSweeps.simulatedCycles += static_cast<double>(r.measuredCycles);
        gSweeps.simulatedWallS += ms_taken / 1000.0;
    }
    return table;
}

RunResult
wrappedRun(const Runner *runner, const std::vector<AppProfile> &apps,
           TlpPolicy &policy, std::vector<std::uint32_t> core_share)
{
    const auto *pbs = dynamic_cast<const PbsPolicy *>(&policy);
    const char *kind = pbs != nullptr                               ? "pbs"
                       : dynamic_cast<DynCta *>(&policy) != nullptr ? "dyncta"
                       : dynamic_cast<ModBypass *>(&policy) != nullptr
                           ? "modbypass"
                           : nullptr;
    if (kind == nullptr) // a static combination: a sweep or ladder row
        return realRun(runner, apps, policy, std::move(core_share));

    std::string key = policy.name();
    for (const AppProfile &app : apps)
        key += " " + app.name;
    for (const std::uint32_t cores : core_share)
        key += " " + std::to_string(cores);
    std::optional<Scope> span;
    if (std::this_thread::get_id() == gMainThread)
        span.emplace("Runner::run " + key);
    const Clock::time_point t0 = Clock::now();
    RunResult r = realRun(runner, apps, policy, std::move(core_share));
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();

    const std::lock_guard<std::mutex> lock(gOnline.mu);
    gOnline.ms[kind].push_back(s * 1000.0);
    gOnline.distinct.insert(key);
    gOnline.seconds += s;
    gOnline.cycles += static_cast<double>(r.measuredCycles);
    if (pbs != nullptr) {
        gOnline.pbsSamples.push_back(r.samplesTaken);
        // RunResult::tlpTimeline stays empty: the policy keeps it.
        gOnline.pbsChanges.push_back(
            static_cast<double>(pbs->timeline().size()));
    }
    return r;
}

namespace {

/** Alone ladders of every catalogue app (Table IV's set-up). */
void
profileAll(const Runner &runner, DiskCache &cache, ProfileDb &profiles,
           Metrics &m)
{
    Scope all("profile_db");
    for (const AppProfile &app : appCatalog()) {
        for (const std::uint32_t level : GpuConfig::tlpLevels()) {
            const bool stored =
                cache.getValidated(runner.aloneKey(app.name, level), 4)
                    .has_value();
            m[stored ? "profile_db.levels_from_store"
                     : "profile_db.levels_simulated"] += 1;
        }
        Scope one("ProfileDb::profile " + app.name);
        profiles.profile(app);
    }
    m["profile_db.ms"] = all.ms();
}

void
reportSweeps(const Exhaustive &exhaustive, Metrics &m)
{
    const SweepStatus &st = exhaustive.status();
    m["exhaustive.sweep_ms_p50"] = percentile(gSweeps.ms, 0.5);
    m["exhaustive.sweep_ms_max"] = percentile(gSweeps.ms, 1.0);
    m["exhaustive.combos"] = st.combos;
    m["exhaustive.combos_simulated"] = st.simulated;
    m["exhaustive.combos_from_store"] = st.fromCache;
    m["exhaustive.combos_from_peers"] = st.fromPeers;
    m["exhaustive.combos_retried"] = st.retried;
    m["exhaustive.combos_skipped"] = st.skipped;
}

void
reportStore(const DiskCache &cache, Metrics &m)
{
    m["disk_cache.entries_loaded"] = cache.loadReport().entriesLoaded;
    m["disk_cache.bytes_written"] =
        static_cast<double>(cache.bytesWritten());
    m["disk_cache.append_batches"] =
        static_cast<double>(cache.appendBatches());
    m["disk_cache.entries_appended"] =
        static_cast<double>(cache.entriesAppended());
    std::error_code ec;
    const auto size = fs::file_size(cache.path(), ec);
    m["disk_cache.store_bytes"] = ec ? 0.0 : static_cast<double>(size);
}

void
reportWarmState(Metrics &m)
{
    const WarmStateCache::Stats ws = WarmStateCache::instance().stats();
    m["warm_state.hits"] = static_cast<double>(ws.hits);
    m["warm_state.misses"] = static_cast<double>(ws.misses);
    m["warm_state.resumes"] = static_cast<double>(ws.resumes);
    m["warm_state.evictions"] = static_cast<double>(ws.evictions);
}

/** static-cold: the alone ladders and the sweeps of the static
 * figures (every static figure's table is one of the ten
 * representative pairs' sweeps), from an empty store. */
void
staticCold(const std::string &dir, Metrics &m)
{
    std::unique_ptr<DiskCache> cache;
    {
        Scope s("DiskCache open");
        cache = std::make_unique<DiskCache>(dir + "/ebm_results.cache");
        m["disk_cache.open_ms"] = s.ms();
    }
    const Runner runner(Experiment::standardConfig(2),
                        Experiment::standardOptions());
    ProfileDb profiles(runner, *cache);
    Exhaustive exhaustive(runner, *cache);
    profileAll(runner, *cache, profiles, m);
    {
        Scope all("exhaustive");
        for (const Workload &wl : representativeWorkloads())
            exhaustive.sweep(wl);
    }
    reportSweeps(exhaustive, m);
    if (gSweeps.wallS > 0.0)
        m["job_pool.efficiency"] =
            gSweeps.cpuS / (gSweeps.wallS * exhaustive.jobs());
    if (gSweeps.simulatedWallS > 0.0)
        m["runner.cycles_per_s"] =
            gSweeps.simulatedCycles / gSweeps.simulatedWallS;
    {
        Scope s("DiskCache::sync");
        cache->sync();
        m["disk_cache.sync_ms"] = s.ms();
    }
    reportStore(*cache, m);
    reportWarmState(m);
}

/** online-warm: fig09, fig10 and sec6c's own evaluation loop against a
 * store that already holds every static table. The online Runner::run
 * calls it makes are counted by wrappedRun. */
void
onlineWarm(const std::string &dir, Metrics &m)
{
    std::unique_ptr<Experiment> exp;
    {
        Scope s("DiskCache open");
        exp = std::make_unique<Experiment>(2, dir + "/ebm_results.cache");
        m["disk_cache.open_ms"] = s.ms();
    }
    profileAll(exp->runner(), exp->cache(), exp->profiles(), m);
    const std::pair<bench::Report, const char *> figures[] = {
        {bench::Report::WS, "fig09_ws_comparison"},
        {bench::Report::FI, "fig10_fi_comparison"},
        {bench::Report::HS, "sec6c_hs_comparison"}};
    for (const auto &[report, figure] : figures) {
        Scope s(figure);
        bench::runComparison(*exp, report, figure);
    }
    reportSweeps(exp->exhaustive(), m);
    std::size_t runs = 0;
    for (const auto &[kind, v] : gOnline.ms) {
        runs += v.size();
        m["runner.online_ms_p50." + kind] = percentile(v, 0.5);
    }
    m["runner.online_runs"] = static_cast<double>(runs);
    m["runner.online_runs_distinct"] =
        static_cast<double>(gOnline.distinct.size());
    m["runner.cycles_per_s"] =
        gOnline.seconds > 0.0 ? gOnline.cycles / gOnline.seconds : 0.0;
    m["core.pbs_samples_p50"] = percentile(gOnline.pbsSamples, 0.5);
    m["core.pbs_tlp_changes_p50"] = percentile(gOnline.pbsChanges, 0.5);
    reportStore(exp->cache(), m);
    reportWarmState(m);
}

/** Start @p argv with EBM_JOBS=1 and EBM_COORDINATOR unset; stdout and
 * stderr go to @p out. */
pid_t
spawn(const std::vector<std::string> &argv, const std::string &out)
{
    std::vector<std::string> env_strings;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("EBM_", 0) != 0)
            env_strings.push_back(kv);
    }
    env_strings.push_back("EBM_JOBS=1");
    std::vector<char *> args, envp;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    for (const std::string &e : env_strings)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        // Only async-signal-safe calls here: the parent has threads.
        const int fd = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dup2(fd, 1);
            dup2(fd, 2);
        }
        execve(args[0], args.data(), envp.data());
        _exit(127);
    }
    return pid;
}

/** fill-shared: per pair, an in-process Coordinator over a fresh store
 * and @p workers ebm_sweep_worker processes leasing rows from it. */
void
fillShared(const std::string &dir,
           const std::vector<std::pair<std::string, std::string>> &pairs,
           const std::string &worker, int workers, Metrics &m, int &bad)
{
    std::vector<double> p50s, p99s, fill_ms;
    for (const auto &[a, b] : pairs) {
        const std::string pdir = dir + "/fill-" + a + "_" + b;
        fs::create_directories(pdir);
        Scope fill("fill " + a + "_" + b);
        std::unique_ptr<DiskCache> cache;
        {
            Scope s("DiskCache open");
            cache = std::make_unique<DiskCache>(pdir + "/ebm_results.cache");
            m["disk_cache.open_ms"] += s.ms();
        }
        Coordinator coord(*cache, Coordinator::Options{});
        {
            Scope s("Coordinator::start");
            const Status st = coord.start();
            if (!st.ok())
                fatal(st.error());
        }
        {
            Scope s("workers");
            std::vector<pid_t> pids;
            for (int i = 0; i < workers; ++i) {
                pids.push_back(spawn(
                    {worker, "--coordinator", coord.address(), "--pair", a,
                     b, "--cache",
                     pdir + "/worker" + std::to_string(i) + ".cache"},
                    pdir + "/worker" + std::to_string(i) + ".out"));
            }
            for (const pid_t pid : pids) {
                int status = 0;
                waitpid(pid, &status, 0);
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                    ++bad;
            }
            fill_ms.push_back(s.ms());
        }
        {
            Scope s("Coordinator::stop");
            coord.stop();
        }
        const Coordinator::Stats st = coord.stats();
        m["coordinator.rpcs"] += static_cast<double>(st.rpcs);
        m["coordinator.acquires_granted"] +=
            static_cast<double>(st.acquiresGranted);
        m["coordinator.acquires_denied"] +=
            static_cast<double>(st.acquiresDenied);
        m["coordinator.records_committed"] +=
            static_cast<double>(st.recordsCommitted);
        m["coordinator.record_bytes"] += static_cast<double>(st.recordBytes);
        p50s.push_back(st.rpcP50Us);
        p99s.push_back(st.rpcP99Us);
        {
            Scope s("DiskCache::sync");
            cache->sync();
            m["disk_cache.sync_ms"] += s.ms();
        }
        {
            Scope s("DiskCache::compact");
            if (!cache->compact())
                ++bad;
        }
        m["disk_cache.bytes_written"] +=
            static_cast<double>(cache->bytesWritten());
        m["disk_cache.append_batches"] +=
            static_cast<double>(cache->appendBatches());
        m["disk_cache.entries_appended"] +=
            static_cast<double>(cache->entriesAppended());
        m["disk_cache.store_bytes"] += static_cast<double>(
            fs::file_size(pdir + "/ebm_results.cache"));
    }
    // The workers' sweeps run in other processes: a pair's sweep time
    // here is the wall from spawning its workers to the last exit.
    m["exhaustive.sweep_ms_p50"] = percentile(fill_ms, 0.5);
    m["exhaustive.sweep_ms_max"] = percentile(fill_ms, 1.0);
    m["coordinator.rpc_us_p50"] = percentile(p50s, 0.5);
    m["coordinator.rpc_us_p99"] = percentile(p99s, 1.0);
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuarded("perf_tracer", [&] {
        std::string workload, dir, trace_out, worker;
        int workers = 0;
        std::vector<std::pair<std::string, std::string>> pairs;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--workload" && i + 1 < argc)
                workload = argv[++i];
            else if (arg == "--dir" && i + 1 < argc)
                dir = argv[++i];
            else if (arg == "--trace-out" && i + 1 < argc)
                trace_out = argv[++i];
            else if (arg == "--worker" && i + 1 < argc)
                worker = argv[++i];
            else if (arg == "--workers" && i + 1 < argc)
                workers = std::atoi(argv[++i]);
            else if (arg == "--pair" && i + 2 < argc) {
                pairs.emplace_back(argv[i + 1], argv[i + 2]);
                i += 2;
            } else
                fatal(Error{Errc::InvalidArgument,
                            "unknown argument '" + arg + "'"});
        }
        if (dir.empty() || trace_out.empty())
            fatal(Error{Errc::InvalidArgument, "--dir and --trace-out"});

        Metrics m;
        int bad = 0;
        if (workload == "static-cold")
            staticCold(dir, m);
        else if (workload == "online-warm")
            onlineWarm(dir, m);
        else if (workload == "fill-shared")
            fillShared(dir, pairs, worker, workers, m, bad);
        else
            fatal(Error{Errc::InvalidArgument,
                        "unknown workload '" + workload + "'"});

        m["trace.top_span_coverage"] = gTracer.topLevelCoverage();
        m["trace.failures"] = bad;
        gTracer.writeChrome(trace_out);
        std::printf("{");
        const char *sep = "";
        for (const auto &[name, value] : m) {
            std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
            sep = ", ";
        }
        std::printf("}\n");
        return 0;
    });
}
