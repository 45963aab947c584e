#!/usr/bin/env python3
"""Run two interleaved sets of the benchmark on one build and compare them.

    python3 perfbench/compare.py --runs 10

Runs are interleaved (run i of both sets, for every workload, before
run i + 1), each lasts BENCHMARK.json's run_seconds, and every run gets
its own seed: set 1 uses seeds 1..runs, set 2 the next runs seeds. For
every workload and end-to-end metric it prints each set's median and
quartiles, the interquartile spread as a share of the median, and
whether the sets agree: every spread but set-up time's within the
metric's bound, set 2's median within the bound of set 1's (either way,
set-up time's too), and the same share of failed operations in both
sets. The raw results go to .bench_build/compare-<time>.json. Exits 1
when the sets disagree.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(args.runs):
        for s in range(SETS):
            for w in workloads:
                seed = 1 + s * args.runs + i
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                       "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                took = time.monotonic() - t0
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                res["seed"], res["run_s"] = seed, took
                res["log"] = proc.stderr.splitlines()
                results[w][s].append(res)
                print(f"run {i + 1}/{args.runs} set {s + 1} {w} seed {seed}: "
                      f"{took:.1f} s, " + ", ".join(
                          f"{k}={v['value']:.4g}"
                          for k, v in res["metrics"].items()), flush=True)

    out = ROOT / ".bench_build" / f"compare-{int(time.time())}.json"
    out.write_text(json.dumps(results, indent=1))
    ok = agree(results, metrics)
    print(f"\nraw results: {out}")
    print("sets agree" if ok else "sets DISAGREE")
    sys.exit(0 if ok else 1)


def agree(results, metrics):
    """Print each workload's sets and whether they agree."""
    ok = True
    for w in results:
        sets = results[w]
        shares = {(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs)) for runs in sets}
        fail_share = {f / a for f, a in shares}
        print(f"\n{w}: failed share per set "
              f"{sorted(fail_share)}, correct in every run: "
              f"{all(r['correct'] for runs in sets for r in runs)}")
        if len(fail_share) != 1 or not all(
                r["correct"] for runs in sets for r in runs):
            ok = False
        print(f"  {'metric':<12} {'set':>3} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>7} {'vs set 1':>8} {'bound':>6}  ok")
        for name, m in metrics.items():
            first = None
            for s, runs in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][name]["value"]
                                         for r in runs])
                spread = (q3 - q1) / med
                first = med if first is None else first
                drift = (med - first) / first
                # Set-up time's spread is shown but not judged: on
                # static-cold it is one 4-5 s sample per run, and on
                # fill-shared it is mostly process start-up, and both
                # follow the shared host's load (README.md).
                good = abs(drift) <= m["bound"] and (
                    name == "setup_s" or spread <= m["bound"])
                ok &= good
                print(f"  {name:<12} {s + 1:>3} {q1:>11.4f} {med:>11.4f} "
                      f"{q3:>11.4f} {spread:>7.3f} {drift:>+8.3f} "
                      f"{m['bound']:>6}  {'yes' if good else 'NO'}")
    return ok


if __name__ == "__main__":
    main()
