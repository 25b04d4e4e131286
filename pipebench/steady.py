#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

Runs every workload of BENCHMARK.json repeatedly, one seed per run and
alternating the workload order between iterations, then reports for each
end-to-end metric on each workload the median, the quartiles, the spread
(interquartile distance as a share of the median) against the metric's
bound, the share of failed operations, and the hypervisor steal share of
every run (machine-wide, read from /proc/stat around the run).

Run from the repository root:

    python3 pipebench/steady.py --runs 10
    python3 pipebench/steady.py --runs 5 --workloads query-stream --first-seed 100

The summary is also written as JSON to .bench_build/steady.json. The
exit code is 1 when any spread, setup_s included, exceeds its bound or a
run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def cpu_stat():
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
    return busy, v[7]


def run_once(cmd, workload, seed, seconds, trace):
    b0, s0 = cpu_stat()
    t0 = time.time()
    p = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    b1, s1 = cpu_stat()
    steal = (s1 - s0) / (b1 - b0) if b1 > b0 else 0.0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    return res, steal, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {n: [] for n in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for n in order:
            seed = args.first_seed + i
            res, steal, wall = run_once(cmd, n, seed, seconds, 0)
            runs[n].append({"seed": seed, "steal": steal, "wall_s": wall, **res})
            print(f"# {n} seed {seed}: {wall:.1f} s, steal {steal:.3f}, correct {res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)

    ok = True
    summary = {}
    for n in names:
        rs = runs[n]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"\n== {n}: steal per run {[round(r['steal'], 3) for r in rs]}")
        print(f"   failed share per run: {shares}")
        if not all(r["correct"] for r in rs):
            ok = False
            print("   INCORRECT RUNS")
        summary[n] = {"steal": [r["steal"] for r in rs], "failed_share": shares, "metrics": {}}
        print(f"   {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}{'spread/bound':>14}")
        for m in bounds:
            vals = [r["metrics"][m]["value"] for r in rs]
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            rel = spread / bounds[m]
            flag = ""
            if spread > bounds[m]:
                ok = False
                flag = "  OVER BOUND"
            elif rel > 1 / 3:
                flag = "  above a third"
            print(f"   {m:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bounds[m]:>7.2f}{rel:>14.2f}{flag}")
            summary[n]["metrics"][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                        "bound": bounds[m], "values": vals}
    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump({"runs": runs, "summary": summary}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
