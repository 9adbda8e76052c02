"""Run every workload several times and report each end-to-end metric's spread.

    python3 perfbench/steady.py                # ten seeds per workload
    python3 perfbench/steady.py --runs 1       # each workload once

Runs ``run.py`` once per workload and seed (seeds first-seed .. first-seed +
runs - 1, workloads interleaved), one process at a time, and prints per
workload and metric the median, the quartiles (``statistics.quantiles``,
n=4), the interquartile spread as a share of the median, and the metric's
bound from BENCHMARK.json, plus the attempted and failed job counts.  The
raw results go to ``perfbench/out/steady-<time>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    results = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in results:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True)
            res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            shown = ", ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"{w} seed {seed}: {shown}", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"{'workload':18s} {'metric':12s} {'unit':5s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w, runs in results.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            print(f"{w:18s} {metric['name']:12s} {metric['unit']:5s} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {(q3 - q1) / med:7.1%} {metric['bound']:6.2f}")
        att = [r["attempted"] for r in runs]
        fail = [r["failed"] for r in runs]
        ok = all(r["correct"] for r in runs)
        print(f"{w:18s} attempted {min(att)}..{max(att)}, failed {sum(fail)}, correct {ok}")
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
