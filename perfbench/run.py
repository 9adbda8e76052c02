"""Run one benchmark workload against the padicdyn sources of this checkout.

    python3 perfbench/run.py --workload zp-shadow --seed 1 --seconds 20 --trace 0

The workload runs in a fresh worker process (``worker.py``) with the
checkout's ``src`` on the import path; with ``--trace 0`` six more worker
processes only set up, and ``setup_s`` is the median of the seven set-up
times.  One process runs at a time.  The last line of standard output is
the result: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
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
WORKLOADS = ("zp-shadow", "tables-and-counts", "qp-affine", "cli")
SETUPS = 7             # set-up samples per run, the measured worker included
DEADLINE_S = 175       # a run must end within 180 s


def worker_env():
    """Sources from this checkout; the bytecode cache beside the outputs, so
    imports read compiled modules whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, "out", "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1), check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "padicdyn", "__init__.py")):
        sys.stderr.write(f"no padicdyn sources under {ROOT}/src\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if args.trace else [
        run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUPS - 1)]
    res = run_worker(args, deadline)
    for err in res["errors"]:
        sys.stderr.write(f"{args.workload}: {err}\n")
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
        sys.stderr.write(f"{args.workload}: tracing overhead {res['trace_overhead']:.1%} "
                         f"(one traced round against untraced rounds)\n")
    else:
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": res["jobs"] / res["best_sum_s"], "unit": "1/s"},
            "job_p50_ms": {"value": res["p50_s"] * 1000, "unit": "ms"},
            "job_p90_ms": {"value": res["p90_s"] * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
