#!/usr/bin/env python3
"""Figure-suite benchmark: runs the paper's figure binaries and the
distributed sweep fabric as a user would, checks what they print, and
reports wall clock, CPU, set-up time and memory as one JSON line.

    python3 perfbench/run.py --workload static-cold --seed 1 \
        --seconds 5 --trace 0

Run it from the root of a source checkout. The first run builds the
program (Release) and this benchmark's tracer into .bench_build/ and
prepares online-warm's store once. See perfbench/README.md for the
workloads, metrics and reference numbers.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EBM_BUILD = BUILD / "ebm"
TRACER_BUILD = BUILD / "perfbench"

# The static figures in suite order, except that Table IV leads: it
# profiles every app of the catalogue alone, which is the suite's
# set-up (every later binary reads those ladders back from the store).
STATIC_SUITE = ["tab04_app_table", "fig01_motivation", "fig02_tlp_effects",
                "fig03_eb_hierarchy", "fig04_ws_eb_gap",
                "fig05_alone_ratios", "fig06_patterns_ws",
                "fig07_patterns_fi_hs", "abl_signal_choice"]
ONLINE_SUITE = ["tab04_app_table", "fig09_ws_comparison",
                "fig10_fi_comparison", "sec6c_hs_comparison"]
ONLINE_GAINS = {"fig09_ws_comparison": ("pbs_ws_gain", "PBS-WS"),
                "fig10_fi_comparison": ("pbs_fi_gain", "PBS-FI"),
                "sec6c_hs_comparison": ("pbs_hs_gain", "PBS-HS")}
FABRIC = ["ebm_coordinator", "ebm_sweep_worker"]
PROGRAMS = sorted(set(STATIC_SUITE + ONLINE_SUITE)) + FABRIC

# The 16 applications of the evaluated suite and the paper's ten
# representative pairs, which fill-shared leaves out.
EVALUATED_APPS = ["BFS", "BLK", "CFD", "DS", "FFT", "FWT", "GUPS", "HISTO",
                  "JPEG", "LIB", "LPS", "LUH", "RAY", "SCP", "SRAD", "TRD"]
REPRESENTATIVE = [("DS", "TRD"), ("BFS", "FFT"), ("BLK", "BFS"),
                  ("BLK", "TRD"), ("FFT", "TRD"), ("FWT", "TRD"),
                  ("JPEG", "CFD"), ("JPEG", "LIB"), ("JPEG", "LUH"),
                  ("SCP", "TRD")]
FILL_PAIRS = 2          # pairs cold-filled per fill-shared round
FILL_WORKERS = 3        # ebm_sweep_worker processes per pair, 1 thread each
# Set-up samples per run: static-cold's is the round's own 4-5 s
# ladder (repeating it would cost a fifth of the run); fill-shared
# adds these to the one set-up per pair.
SETUP_REPEATS = {"static-cold": 1, "online-warm": 15, "fill-shared": 9}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run, with their units. A layer that a
# workload does not pass through reads 0 on it (README.md says which
# workload moves which metric).
PER_LAYER = {
    "runner.online_runs": "count", "runner.online_runs_distinct": "count",
    "runner.online_ms_p50.pbs": "ms", "runner.online_ms_p50.dyncta": "ms",
    "runner.online_ms_p50.modbypass": "ms", "runner.cycles_per_s": "1/s",
    "core.pbs_samples_p50": "count", "core.pbs_tlp_changes_p50": "count",
    "core.pbs_ws_gain": "ratio", "core.pbs_fi_gain": "ratio",
    "core.pbs_hs_gain": "ratio",
    "profile_db.ms": "ms", "profile_db.levels_simulated": "count",
    "profile_db.levels_from_store": "count",
    "exhaustive.sweep_ms_p50": "ms", "exhaustive.sweep_ms_max": "ms",
    "exhaustive.combos_simulated": "count",
    "exhaustive.combos_from_store": "count",
    "exhaustive.combos_from_peers": "count",
    "exhaustive.combos_retried": "count",
    "exhaustive.combos_skipped": "count",
    "job_pool.efficiency": "ratio",
    "warm_state.hits": "count", "warm_state.misses": "count",
    "warm_state.resumes": "count", "warm_state.evictions": "count",
    "disk_cache.open_ms": "ms", "disk_cache.entries_loaded": "count",
    "disk_cache.bytes_written": "bytes", "disk_cache.append_batches": "count",
    "disk_cache.entries_appended": "count", "disk_cache.sync_ms": "ms",
    "disk_cache.store_bytes": "bytes",
    "coordinator.rpcs": "count", "coordinator.rpc_us_p50": "us",
    "coordinator.rpc_us_p99": "us", "coordinator.acquires_granted": "count",
    "coordinator.acquires_denied": "count",
    "coordinator.records_committed": "count",
    "coordinator.record_bytes": "bytes",
    "worker.rows_simulated_min": "count", "worker.rows_simulated_max": "count",
    "trace.top_span_coverage": "ratio", "trace.wall_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    """Simulation threads: every core this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env(**extra):
    """The inherited environment without any EBM_* knob, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EBM_")}
    env.update({k: str(v) for k, v in extra.items()})
    return env


# --------------------------------------------------------------- build

def source_stamp():
    """Names, sizes and mtimes of every file the build reads."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "examples", "perfbench"):
        paths = [ROOT / top] if top.endswith(".txt") else sorted(
            p for p in (ROOT / top).rglob("*")
            if p.suffix in (".cpp", ".hpp", ".txt"))
        for p in paths:
            st = p.stat()
            h.update(f"{p.relative_to(ROOT)} {st.st_size} "
                     f"{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def build():
    """Configure and build the program and the tracer (Release), unless
    no source file changed since the last build."""
    if not (ROOT / "CMakeLists.txt").exists():
        log(f"no program sources under {ROOT}: nothing to benchmark")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    stamp_file = BUILD / "build.stamp"
    stamp = source_stamp()
    if stamp_file.exists() and stamp_file.read_text() == stamp:
        return
    logf = BUILD / "build.log"
    steps = []
    if not (EBM_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(EBM_BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(EBM_BUILD), "-j", str(jobs()),
                  "--target"] + PROGRAMS)
    if not (TRACER_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(TRACER_BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DEBM_BUILD={EBM_BUILD}"])
    steps.append(["cmake", "--build", str(TRACER_BUILD), "-j", str(jobs())])
    with open(logf, "ab") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"build failed: {' '.join(cmd)} (see {logf})")
                sys.exit(2)
    stamp_file.write_text(stamp)


def binary(name):
    sub = "examples" if name in FABRIC else "bench"
    return EBM_BUILD / sub / name


# ----------------------------------------------------- process accounting

class Ops:
    """Operations attempted and failed. A failed output check also
    makes the run incorrect; a failed process only counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.correct = True

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def check(self, problems):
        """One output check: passes when @p problems is empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            self.problems += problems
        return not problems


class Proc:
    """One program process; its exit code and rusage are collected when
    running() or wait() reaps it."""

    started = []

    def __init__(self, argv, out, env, cwd, stdout_pipe=False):
        Proc.started.append(self)
        self.name = Path(argv[0]).name
        self.out = out
        self.rc = None
        self.t0 = time.monotonic()
        self.p = subprocess.Popen(
            [str(a) for a in argv], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if stdout_pipe else open(out, "wb"),
            stderr=open(str(out) + ".err", "wb"))

    def running(self):
        if self.rc is None:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid:
                self._reaped(status, ru)
        return self.rc is None

    def wait(self):
        if self.rc is None:
            self._reaped(*os.wait4(self.p.pid, 0)[1:])
        return self

    def _reaped(self, status, ru):
        self.rc = self.p.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.monotonic() - self.t0
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0

    def text(self):
        return Path(self.out).read_text()


class Round:
    """Wall, CPU and peak RSS of the program processes of one round."""

    def __init__(self, ops):
        self.ops = ops
        self.cpu = 0.0
        self.rss_mb = 0.0

    def done(self, proc):
        proc.wait()
        self.cpu += proc.cpu
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        self.ops.op(proc.rc == 0, f"{proc.name} exited {proc.rc}")
        return proc


def fresh_dir(work, name):
    d = work / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def run_figure(rnd, name, store_dir):
    """One figure binary against the store in @p store_dir."""
    env = child_env(EBM_JOBS=jobs(), EBM_CACHE_DIR=store_dir)
    return rnd.done(Proc([binary(name)], store_dir / f"{name}.out", env,
                         store_dir))


def sweep_rows(ops, text, where):
    """Count the sweep rows a process reported and check their sums."""
    for s in checks.sweep_statuses(text):
        ops.attempted += s["combos"]
        ops.failed += s["skipped"]
    return ops.check(checks.check_sweep_statuses(text, where))


STORE = "ebm_results.cache"


# ------------------------------------------------------------ workloads

def figure_round(work, ops, suite, store, setup_repeats):
    """Run @p suite in order on a fresh store (a copy of @p store, or
    empty). Its first binary is the set-up; it also runs
    @p setup_repeats - 1 more times on stores of its own before the
    round, and must print the same every time."""
    def fresh_store(name):
        d = fresh_dir(work, name)
        if store:
            shutil.copyfile(store, d / STORE)
        return d

    extra = [run_figure(Round(ops), suite[0], fresh_store(f"setup{i}"))
             for i in range(setup_repeats - 1)]
    d = fresh_store("round")
    rnd = Round(ops)
    t0 = time.monotonic()
    procs = [run_figure(rnd, name, d) for name in suite]
    wall = time.monotonic() - t0
    for proc in procs:
        sweep_rows(ops, proc.text(), proc.name)
    setups = extra + procs[:1]
    ops.check([] if len({p.text() for p in setups}) == 1 else
              [f"{suite[0]}: set-up repetitions printed different tables"])
    return procs, d, {"wall": wall, "cpu": rnd.cpu, "rss": rnd.rss_mb,
                      "setups": [p.wall for p in setups]}


def static_cold(work, ops, seed):
    """The static figures from an empty store at the JobPool width."""
    procs, _, res = figure_round(work, ops, STATIC_SUITE, None,
                                 SETUP_REPEATS["static-cold"])
    ops.check(checks.check_fig04(procs[STATIC_SUITE.index(
        "fig04_ws_eb_gap")].text()))
    return res


def binaries_digest(names):
    h = hashlib.sha256()
    for name in names:
        h.update(binary(name).read_bytes())
    return h.hexdigest()[:16]


def online_prep():
    """The store and tables one untimed run of the online suite leaves
    behind, made once per build and reused by every later run. fig09
    fills the store; fig10 and sec6c then only read it, so they run
    side by side."""
    prep = BUILD / "prep" / f"online-warm-{binaries_digest(ONLINE_SUITE)}"
    if (prep / "done").exists():
        return prep
    log("online-warm: preparing the store (one untimed run of "
        f"{' '.join(ONLINE_SUITE)})")
    tmp = fresh_dir(BUILD / "prep", f"tmp-{os.getpid()}")
    ops = Ops()
    rnd = Round(ops)
    for name in ONLINE_SUITE[:2]:
        run_figure(rnd, name, tmp)
    env = child_env(EBM_JOBS=1, EBM_CACHE_DIR=tmp)
    for proc in [Proc([binary(name)], tmp / f"{name}.out", env, tmp)
                 for name in ONLINE_SUITE[2:]]:
        rnd.done(proc)
    if ops.failed:
        log("online-warm: preparation failed: " + "; ".join(ops.problems))
        sys.exit(3)
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(prep, ignore_errors=True)
    tmp.rename(prep)
    return prep


def online_warm(work, ops, seed):
    """fig09, fig10 and sec6c against the prepared store."""
    prep = online_prep()
    procs, d, res = figure_round(work, ops, ONLINE_SUITE, prep / STORE,
                                 SETUP_REPEATS["online-warm"])
    for proc in procs:
        text = proc.text()
        ref = (prep / f"{proc.name}.out").read_text()
        ops.check([] if checks.tables_only(text) == checks.tables_only(ref)
                  else [f"{proc.name}: tables differ from the preparation run"])
        if proc.name in ONLINE_GAINS:
            ops.check(checks.check_comparison(text, proc.name))
    ops.check([] if (d / STORE).read_bytes() == (prep / STORE).read_bytes()
              else ["online-warm: a warm run changed the store"])
    return res


def fill_pairs(seed):
    """FILL_PAIRS pairs of the 16 evaluated apps, drawn by @p seed from
    the 110 pairings that are not representative pairs."""
    rep = {frozenset(p) for p in REPRESENTATIVE}
    pool = [(a, b) for i, a in enumerate(EVALUATED_APPS)
            for b in EVALUATED_APPS[i + 1:] if frozenset((a, b)) not in rep]
    return random.Random(seed).sample(pool, FILL_PAIRS)


def ebs1_request(sock, payload):
    """One request/response over the coordinator's EBS1 framing."""
    body = payload.encode()
    h = 0xcbf29ce484222325
    for c in body:
        h = ((h ^ c) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    sock.sendall(struct.pack("<II", 0x31534245, len(body)) + body +
                 struct.pack("<Q", h))
    buf = b""
    while len(buf) < 8 or len(buf) < 16 + struct.unpack("<I", buf[4:8])[0]:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("coordinator closed the connection")
        buf += chunk
    n = struct.unpack("<I", buf[4:8])[0]
    return buf[8:8 + n].decode()


def stat_field(line, name):
    for tok in line.split():
        if tok.startswith(name + "="):
            return float(tok.split("=", 1)[1])
    return 0.0


def start_fill(d, a, b):
    """Start a coordinator over an empty store in @p d and
    FILL_WORKERS workers on pair (a, b); return once the first lease is
    granted, as (start time, set-up time or None, coordinator, the
    lines it printed first, workers)."""
    t0 = time.monotonic()
    coord = Proc([binary("ebm_coordinator"), "--cache", d / STORE,
                  "--port", "0", "--compact"], d / "coordinator.out",
                 child_env(), d, stdout_pipe=True)
    head = [coord.p.stdout.readline().decode()]
    while head[-1] and not head[-1].startswith("EBM_COORDINATOR="):
        head.append(coord.p.stdout.readline().decode())
    if not head[-1]:
        return t0, None, coord, head, []
    addr = head[-1].strip().split("=", 1)[1]
    workers = [Proc([binary("ebm_sweep_worker"), "--coordinator", addr,
                     "--pair", a, b, "--cache", d / f"worker{i}.cache"],
                    d / f"worker{i}.out", child_env(EBM_JOBS=1), d)
               for i in range(FILL_WORKERS)]
    host, port = addr.rsplit(":", 1)
    setup = None
    try:
        with socket.create_connection((host, int(port))) as s:
            while setup is None and any(w.running() for w in workers):
                if stat_field(ebs1_request(s, "STATS"), "granted") >= 1:
                    setup = time.monotonic() - t0
                else:
                    time.sleep(0.0005)  # leave the cores to the workers
    except OSError as e:
        log(f"fill {a}_{b}: coordinator unreachable: {e}")
    return t0, setup, coord, head, workers


def setup_probe(work, ops, a, b, i):
    """One extra fill-shared set-up: start the fill, stop it at the
    first granted lease."""
    d = fresh_dir(work, f"probe{i}-{a}_{b}")
    _, setup, coord, _, workers = start_fill(d, a, b)
    for w in workers:
        w.p.kill()
        w.wait()
    coord.p.terminate()
    coord.p.stdout.read()
    coord.wait()
    ops.op(setup is not None, f"set-up probe {a}_{b}: no lease granted")
    return setup


def fill_one(work, ops, rnd, a, b):
    """Cold-fill one pair through a coordinator and FILL_WORKERS
    workers; returns (wall, set-up, compacted store path)."""
    d = fresh_dir(work, f"fill-{a}_{b}")
    t0, setup, coord, head, workers = start_fill(d, a, b)
    ops.op(setup is not None, f"fill {a}_{b}: no lease was ever granted")
    for w in workers:
        rnd.done(w)
    coord.p.terminate()
    rest = coord.p.stdout.read().decode()
    rnd.done(coord)
    wall = time.monotonic() - t0
    Path(coord.out).write_text("".join(head) + rest)

    for i, w in enumerate(workers):
        sweep_rows(ops, w.text(), f"{w.name}[{i}] {a}_{b}")
    summary = next((line for line in rest.splitlines()
                    if "coordinator: conns=" in line), "")
    ops.attempted += int(stat_field(summary, "granted"))
    ops.check([] if summary and stat_field(summary, "fenced") == 0 and
              stat_field(summary, "bad_frames") == 0 else
              [f"ebm_coordinator {a}_{b}: no summary, fenced verbs or bad "
               f"frames: {summary!r}"])
    return wall, setup or 0.0, d / STORE


def serial_fill(work, ops, a, b):
    """The reference: one process fills the pair on its own."""
    d = fresh_dir(work, f"serial-{a}_{b}")
    proc = Proc([binary("ebm_sweep_worker"), "--pair", a, b, "--cache",
                 d / STORE, "--jobs", jobs(), "--compact"], d / "serial.out",
                child_env(), d).wait()
    ops.op(proc.rc == 0, f"serial ebm_sweep_worker {a}_{b} exited {proc.rc}")
    return d / STORE


def check_fill(work, ops, a, b, store):
    ref = serial_fill(work, ops, a, b)
    same = store.exists() and store.read_bytes() == ref.read_bytes()
    ops.check([] if same else [f"fill {a}_{b}: coordinator store differs "
                               "from a serial fill (cmp)"])


def fill_shared(work, ops, seed):
    """Coordinator + workers cold-fill seed-drawn held-out pairs."""
    pairs = fill_pairs(seed)
    setups = [setup_probe(work, ops, *pairs[0], i) or 0.0
              for i in range(SETUP_REPEATS["fill-shared"])]
    rnd = Round(ops)
    wall, stores = 0.0, []
    for a, b in pairs:
        w, s, store = fill_one(work, ops, rnd, a, b)
        log(f"fill-shared: {a}_{b} filled in {w:.3f} s")
        wall += w
        setups.append(s)
        stores.append((a, b, store))
    t0 = time.monotonic()
    for a, b, store in stores:
        check_fill(work, ops, a, b, store)
    log(f"fill-shared: serial fills and cmp took {time.monotonic() - t0:.3f} s")
    return {"wall": wall, "cpu": rnd.cpu, "rss": rnd.rss_mb,
            "setups": setups}


WORKLOADS = {"static-cold": static_cold, "online-warm": online_warm,
             "fill-shared": fill_shared}


# ----------------------------------------------------------------- main

def untraced(workload, seed, seconds, work):
    ops = Ops()
    rounds = []
    while sum(r["wall"] for r in rounds) < seconds:
        rounds.append(WORKLOADS[workload](work / f"r{len(rounds)}", ops,
                                          seed))
        log(f"{workload}: round {len(rounds)}: wall {rounds[-1]['wall']:.3f} s"
            f", cpu {rounds[-1]['cpu']:.3f} s")
    setups = [s for r in rounds for s in r["setups"]]
    values = {"wall_s": statistics.median(r["wall"] for r in rounds),
              "cpu_s": statistics.median(r["cpu"] for r in rounds),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": max(r["rss"] for r in rounds)}
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in values.items()}
    return ops, metrics


def traced(workload, seed, work):
    """The per-layer run: the tracer replays the workload's calls
    in-process; its spans go to .bench_build/traces/."""
    ops = Ops()
    d = fresh_dir(work, "trace")
    out = BUILD / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    argv = [TRACER_BUILD / "perf_tracer", "--workload", workload,
            "--dir", d, "--trace-out", out]
    pairs = []
    if workload == "online-warm":
        prep = online_prep()
        shutil.copyfile(prep / STORE, d / STORE)
    elif workload == "fill-shared":
        pairs = fill_pairs(seed)
        argv += ["--worker", binary("ebm_sweep_worker"),
                 "--workers", FILL_WORKERS]
        for a, b in pairs:
            argv += ["--pair", a, b]
    proc = Proc(argv, d / "tracer.out", child_env(EBM_JOBS=jobs()), d).wait()
    ops.op(proc.rc == 0, f"perf_tracer exited {proc.rc}")
    lines = proc.text().strip().splitlines()
    got = json.loads(lines[-1]) if proc.rc == 0 and lines else {}
    ops.op(got.get("trace.failures", 1) == 0,
           "perf_tracer: a worker or a compaction failed")
    coverage = got.get("trace.top_span_coverage", 0)
    ops.check([] if coverage >= 0.9 else
              [f"perf_tracer: top-level spans cover {coverage:.1%} of its wall"])
    if workload != "fill-shared":
        combos = got.get("exhaustive.combos", 0)
        ops.attempted += int(combos + got.get("runner.online_runs", 0))
        ops.check([] if combos and combos == sum(
            got.get(f"exhaustive.combos_{k}", 0)
            for k in ("simulated", "from_store", "from_peers")) and not (
            got.get("exhaustive.combos_retried", 1) or
            got.get("exhaustive.combos_skipped", 1)) else
            [f"perf_tracer: sweep counts do not add up: {got}"])
    if workload == "online-warm":
        # The tracer ran the figures' own evaluation loop: each table
        # must pass the figure checks and equal the binary's table.
        sections = checks.sections(proc.text(), ONLINE_GAINS)
        for fig, (gain, column) in ONLINE_GAINS.items():
            text = sections.get(fig, "")
            ref = (prep / f"{fig}.out").read_text()
            ops.check(checks.check_comparison(text, f"traced {fig}"))
            if ops.check([] if checks.parse_tables(text) ==
                         checks.parse_tables(ref) else
                         [f"traced {fig}: table differs from the binary's"]):
                got[f"core.{gain}"] = checks.gmean_of(text, column)
    statuses = []
    for a, b in pairs:
        for w in sorted((d / f"fill-{a}_{b}").glob("worker*.out")):
            text = w.read_text()
            sweep_rows(ops, text, f"{w.name} {a}_{b}")
            statuses += checks.sweep_statuses(text)
        check_fill(work, ops, a, b, d / f"fill-{a}_{b}" / STORE)
    if statuses:
        # The workers' sweeps ran in their own processes: their
        # `sweep status:` lines are the exhaustive layer's counters.
        rows = [s["simulated"] for s in statuses]
        got["worker.rows_simulated_min"] = min(rows)
        got["worker.rows_simulated_max"] = max(rows)
        for key, field in (("simulated", "simulated"),
                           ("from_store", "from_cache"),
                           ("from_peers", "from_peers"),
                           ("retried", "retried"), ("skipped", "skipped")):
            got[f"exhaustive.combos_{key}"] = sum(s[field] for s in statuses)
    got["trace.wall_s"] = proc.wall
    log(f"{workload}: traced wall {proc.wall:.3f} s, top-level spans cover "
        f"{coverage:.1%}; trace in {out}")
    metrics = {k: {"value": got.get(k, 0), "unit": u}
               for k, u in PER_LAYER.items()}
    return ops, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    online_prep()
    work = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            ops, metrics = traced(args.workload, args.seed, work)
        else:
            ops, metrics = untraced(args.workload, args.seed,
                                    args.seconds, work)
    finally:
        for proc in Proc.started:  # only left running after an error
            if proc.running():
                proc.p.kill()
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    for p in ops.problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": ops.correct,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
