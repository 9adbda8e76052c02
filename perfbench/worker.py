"""One workload in its own process: set up, run whole rounds, check, report.

Run by ``run.py`` with the checkout's ``src`` on PYTHONPATH.  Set-up time
runs from the first line of this file to the end of input building, so it
covers interpreter-side imports, ``import padicdyn`` and the inputs.
Prints one JSON line: the set-up time and, unless --setup-only, the job
latency summary (a job's latency is its fastest repeat), the counts and,
with --trace 1, the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 2
IMPORT_PROBES = 5


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Runner:
    """Runs job lists round by round, timing each job and checking outputs.

    Round 0 checks every output against the reference; later rounds check
    that each output equals round 0's, so the program stays deterministic.
    ``best[i]`` is job i's fastest time over the rounds run so far.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [None] * len(jobs)
        self.best = [float("inf")] * len(jobs)
        self.round_times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wrong = 0
        self.rounds = 0

    def _note(self, job, message):
        if len(self.errors) < 20:
            self.errors.append(f"{job.kind}: {message}")

    def round(self, call=lambda job: job.run()):
        clock = time.perf_counter
        total = 0.0
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            t = clock()
            try:
                out = call(job)
            except Exception as exc:  # a failed job is counted, the run goes on
                self.failed += 1
                self._note(job, f"failed: {type(exc).__name__}: {exc}")
                continue
            d = clock() - t
            self.best[i] = min(self.best[i], d)
            total += d
            if self.rounds == 0:
                err = job.check(out)
                self.first[i] = out
            else:
                err = None if out == self.first[i] else "output differs from round 0"
            if err:
                self.wrong += 1
                self._note(job, f"wrong: {err}")
        self.round_times.append(total)
        self.rounds += 1
        return total


def import_ms():
    """Median fresh-interpreter time to import padicdyn, less a bare start."""
    def probe(code):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - t

    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(probe("pass"))
        full.append(probe("import padicdyn"))
    return (statistics.median(full) - statistics.median(bare)) * 1000


def layer_metrics(tracer, main_ms, imp_ms):
    c, s = tracer.counts, tracer.self_s
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "core.calls": (tracer.layer_calls("core"), "count"),
        "core.self_s": (s["core"], "s"),
        "maps.eval_calls": (c["eval_calls"], "count"),
        "maps.digit_lookups": (c["digit_lookups"], "count"),
        "maps.self_s": (s["maps"], "s"),
        "maps.table_entries_built": (c["table_entries_built"], "count"),
        "maps.build_s": (tracer.build_s, "s"),
        "shadowing.self_s": (s["shadowing"], "s"),
        "shadowing.digits_per_lookup": (ratio(c["solve_digits"], c["solve_lookups"]),
                                        "digit/lookup"),
        "shadowing.dilatation_sweeps": (c["dilatation_sweeps"], "count"),
        "conjugacy.self_s": (s["conjugacy"], "s"),
        "conjugacy.h_evals": (c["h_evals"], "count"),
        "conjugacy.h_evals_per_sample": (ratio(c["h_evals"], c["verify_samples"]),
                                         "eval/sample"),
        "analysis.self_s": (s["analysis"], "s"),
        "analysis.pairs_checked": (c["pairs_checked"], "count"),
        "mahler.self_s": (s["mahler"], "s"),
        "oracle.self_s": (s["oracle"], "s"),
        "oracle.points_enumerated": (c["points_enumerated"], "count"),
        "cli.import_ms": (imp_ms, "ms"),
        "cli.main_ms": (main_ms, "ms"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    import workloads  # imports padicdyn

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        jobs = tracer.span("bench.setup",
                           lambda: workloads.build(args.workload, args.seed, workdir))
    else:
        jobs = workloads.build(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # inputs live for the whole run: keep them out of the collector's scans
    gc.collect()
    gc.freeze()

    runner = Runner(jobs)
    out = {"setup_s": setup_s}
    start = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        traced, untraced, main_ms = trace_round(args, tracer, runner, workloads)
    while time.perf_counter() - start < args.seconds or runner.rounds < MIN_ROUNDS:
        runner.round()
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, main_ms, import_ms())
        if untraced is None:
            untraced = statistics.median(runner.round_times[:1] + runner.round_times[2:])
        out["trace_overhead"] = traced / untraced - 1
        tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"))
    best = sorted(b for b in runner.best if b != float("inf"))
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out.update({
        "jobs": len(jobs),
        "rounds": runner.rounds,
        "best_sum_s": sum(best),
        "p50_s": percentile(best, 50) if best else 0.0,
        "p90_s": percentile(best, 90) if best else 0.0,
        "peak_rss_mb": usage / 1024,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": runner.wrong == 0,
        "errors": runner.errors,
    })
    print(json.dumps(out))
    return 0


def trace_round(args, tracer, runner, workloads):
    """An untraced round 0 (it runs the checks), then one traced round.

    For ``cli`` both run the corpus in process through ``main(argv)``, with
    three more untraced rounds; ``cli.main_ms`` is the median over the
    commands of each one's fastest untraced call.  Returns the traced
    round's time, the untraced reference round time (None: take it from the
    later untraced rounds) and ``cli.main_ms``.
    """
    def traced_round(r):
        tracer.install()
        try:
            return r.round(lambda job: tracer.span(f"bench.{job.kind}", job.run))
        finally:
            tracer.uninstall()

    if args.workload != "cli":
        runner.round()
        return traced_round(runner), None, 0.0
    inproc = Runner([workloads.Job(job.kind, lambda a=job.argv: workloads.in_process_main(a),
                                   job.check) for job in runner.jobs])
    for _ in range(4):
        inproc.round()
    main_ms = statistics.median(inproc.best) * 1000
    traced = traced_round(inproc)
    runner.attempted += inproc.attempted
    runner.failed += inproc.failed
    runner.wrong += inproc.wrong
    runner.errors += inproc.errors
    return traced, statistics.median(inproc.round_times[1:4]), main_ms


if __name__ == "__main__":
    sys.exit(main())
