#!/usr/bin/env python3
"""Steadiness check for the fleet benchmark.

    python3 fleetbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                 [--first-seed N] [--out FILE]

Run from the root of the checkout. Runs fleetbench/run.py --runs times per
workload (one at a time, each with the next seed) and prints, for every
end-to-end metric of BENCHMARK.json, the median of the runs, the distance
between the first and third quartile (statistics.quantiles(values, n=4)),
and that spread as a share of the median against the metric's bound. A
spread above a third of its bound is marked WIDE (setup_s is exempt: only
its median is bounded). It also prints each workload's share of failed
operations, which must be the same in every run, the environment block
every run records (hardware threads, build type, compiler, git rev) and the
runs' wall times. All results go to --out as JSON. Exits 1 when a run fails
or is incorrect, a spread exceeds its bound, or the failed share differs
between runs.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None, None, wall
    env = None
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    return json.loads(lines[-1]), env, wall


def main():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=".bench_build/fleetbench/steadiness.json")
    args = ap.parse_args()

    ok = True
    report = {"runs": []}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, env, wall = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            results.append(result)
            report["runs"].append({"workload": workload, "seed": seed,
                                   "wall_s": wall, "env": env,
                                   "result": result})
            if i == 0:
                print(f"{workload}: env {json.dumps(env)}")
        if len(results) < 2:
            continue
        walls = [r["wall_s"] for r in report["runs"] if r["workload"] == workload]
        print(f"{workload}: {len(results)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s per run")
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        share_ok = len(shares) == 1
        ok = ok and share_ok
        print(f"{workload}: failed share {sorted(str(s) for s in shares)}"
              f"{'' if share_ok else '  DIFFERS'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            exempt = name == "setup_s"
            mark = "ok"
            if not exempt and spread > bound:
                mark, ok = "OVER", False
            elif not exempt and spread > bound / 3:
                mark = "WIDE"
            print(f"  {name:22s} median {med:14.4f} {metric['unit']:8s} "
                  f"IQR {q3 - q1:12.4f}  spread {spread:7.2%} "
                  f"(bound {bound:.0%}) {'exempt' if exempt else mark}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
