#!/usr/bin/env python3
"""Benchmark of the `isingvi` CLI.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` every job is a separate `python -m isingvi.cli`
process, run one after another (a closed loop with one client), and the
end-to-end metrics are measured. With `--trace 1` the same jobs run in this
process through `isingvi.cli.main(argv)`, alternating rounds without and with
timing spans around every public function, and the per-layer metrics are
measured. Either way every job's output is checked.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json. Everything before it is a human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_MIN = 9        # set-up samples per untraced run, spread over its rounds
IMPORT_REPEATS = 5
RUN_LIMIT_S = 170.0   # every run, set-up included, ends well inside 180 s
# The program's BLAS calls are level-1 and level-2 on small operands. A second
# OpenBLAS thread spins on the other core without shortening the wall time
# and makes each job's time depend on what else runs there.
BLAS_THREADS = 1
# numba is optional; pin the kernel backend so a result always times the same one.
KERNEL_BACKEND = "numpy"
UNITS = {"peak_rss_mb": "MB", "output_mb": "MB", "solver_steps": "count",
         "failed_frac": "frac"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["ISINGVI_BACKEND"] = KERNEL_BACKEND
    return env


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "isingvi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": int(job_env()["OPENBLAS_NUM_THREADS"]),
            "kernel_backend": job_env()["ISINGVI_BACKEND"],
            "nproc": nproc(), "loadavg_start": os.getloadavg(),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "platform": platform.platform()}


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Runner:
    """Runs jobs, keeps the counts of attempted and failed jobs, and the deadline."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.bad = set()       # keys of the jobs that failed in the current round
        self.peak_rss_mb = 0.0
        self.failures = []
        self.env = job_env()

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def prepare(self, jobs):
        for job in jobs:
            if job.out:
                shutil.rmtree(job.out, ignore_errors=True)
                os.makedirs(job.out)

    def subprocess_job(self, job) -> float:
        """Run one job as its own process; return its wall time in seconds."""
        if job.copy_in:
            shutil.copy(*job.copy_in)
        log = os.path.join(self.work, f"{job.key}.log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "isingvi.cli", *job.argv],
                                    stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        self.count(job, proc.returncode, lambda: read_text(log))
        return wall

    def inprocess_job(self, job, tracer=None) -> float:
        """Run one job through isingvi.cli.main in this process; return its wall time."""
        import isingvi.cli

        if job.copy_in:
            shutil.copy(*job.copy_in)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                t0 = time.perf_counter()
                rc = isingvi.cli.main(job.argv)
                wall = time.perf_counter() - t0
            else:
                tracer.current_job = job.key
                idx = tracer.open(f"{tracing.ROOT_LAYER}.{job.key}")
                rc = isingvi.cli.main(job.argv)
                tracer.close(idx)
                wall = tracer.end[idx] - tracer.start[idx]
        self.count(job, rc, out.getvalue)
        return wall

    def count(self, job, rc, read_output):
        self.attempted += 1
        if rc != 0:
            self.bad.add(job.key)
            self.failures.append(f"{job.key}: exit code {rc} ({' '.join(job.argv)}): "
                                 f"{read_output()[-500:]}")

    def check(self, wl) -> int:
        """Run the workload's output checks; return how many ran."""
        try:
            results = wl.check()
        except (OSError, KeyError, ValueError, IndexError) as exc:
            results = [workloads.CheckResult(job.key, "outputs readable", False, repr(exc))
                       for job in wl.jobs]
        self.bad |= {r.job for r in results if not r.ok}
        self.failures += [f"{r.job}: check {r.name} failed ({r.detail})"
                          for r in results if not r.ok]
        return len(results)

    def end_round(self):
        """A job counts once as failed per round, however many of its checks failed."""
        self.failed += len(self.bad)
        self.bad.clear()


def keep_going(t0: float, round_walls: list, seconds: float, runner: Runner) -> bool:
    """Start another round only if one more median round fits in the budget."""
    need = median(round_walls)
    elapsed = time.perf_counter() - t0
    return elapsed + need <= seconds and need < runner.remaining()


def stats(values: list) -> dict:
    return {"median": median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def untraced(wl, runner: Runner, seconds: float):
    """Rounds of set-up then timed jobs, until one more round would overrun `seconds`.

    Set-up runs at the start of every round (more than once when few rounds
    fit), so its samples spread over the whole run rather than one spell of it.
    """
    setups, rounds, outputs, spent, checks = [], [], [], [], 0
    per_round = 1

    def set_up() -> bool:
        setups.append(sum(runner.subprocess_job(job) for job in wl.setup))
        runner.end_round()
        return runner.failed == 0

    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for _ in range(per_round):
            if not set_up():
                return None
        runner.prepare(wl.jobs)
        per_verb = {}
        for job in wl.jobs:
            per_verb[job.verb] = per_verb.get(job.verb, 0.0) + runner.subprocess_job(job)
        checks += runner.check(wl)
        runner.end_round()
        rounds.append(per_verb)
        outputs.append(workloads.output_totals(wl.jobs))
        spent.append(time.perf_counter() - t_round)
        if not keep_going(t0, spent, seconds, runner):
            break
        per_round = math.ceil(SETUP_MIN / max(1.0, seconds // median(spent)))
    while len(setups) < SETUP_MIN:
        if not set_up():
            return None
    samples = {"setup_s": setups, "wall_s": [sum(r.values()) for r in rounds]}
    for verb in rounds[0]:
        samples[f"time_s.{verb}"] = [r[verb] for r in rounds]
    samples["peak_rss_mb"] = [runner.peak_rss_mb]
    samples["output_mb"] = [o["bytes"] / 2**20 for o in outputs]
    samples["solver_steps"] = [o["steps"] for o in outputs]
    return samples, checks


def import_time(runner: Runner) -> float:
    walls = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import isingvi.cli"], env=runner.env,
                       cwd=ROOT, check=True, timeout=max(runner.remaining(), 1.0))
        walls.append(time.perf_counter() - t0)
    return median(walls)


def traced(wl, runner: Runner, seconds: float):
    sys.path.insert(0, SRC)
    import isingvi.cli  # noqa: F401  (imported before timing starts)

    import_s = import_time(runner)
    tracer = tracing.Tracer()
    jobs = wl.setup + wl.jobs
    plain, spanned, per_round, self_err, checks = [], [], [], 0.0, 0
    t0 = time.perf_counter()
    runner.prepare(wl.jobs)
    for job in jobs:  # warm-up round: first calls and file caches are not timed
        runner.inprocess_job(job)
    checks += runner.check(wl)
    runner.end_round()
    while True:
        runner.prepare(wl.jobs)
        plain.append(sum(runner.inprocess_job(job) for job in jobs))
        checks += runner.check(wl)
        runner.end_round()
        runner.prepare(wl.jobs)
        lo = len(tracer)
        tracer.install(SRC)
        try:
            spanned.append(sum(runner.inprocess_job(job, tracer) for job in jobs))
        finally:
            tracer.uninstall()
        checks += runner.check(wl)
        runner.end_round()
        hi = len(tracer)
        metrics = tracing.round_metrics(tracer, lo, hi)
        metrics["layer_self_s"] = tracing.layer_self_times(tracer, lo, hi)
        per_round.append(metrics)
        # Self times of each job's spans must add up to the job's traced wall.
        own = {}
        for i, s in zip(range(lo, hi), tracing.self_times(tracer, lo, hi)):
            own[tracer.job[i]] = own.get(tracer.job[i], 0.0) + s
        for i in range(lo, hi):
            if tracer.parent[i] == -1:
                self_err = max(self_err, abs(own[tracer.job[i]] - (tracer.end[i] - tracer.start[i])))
        if not keep_going(t0, [a + b for a, b in zip(plain, spanned)], seconds, runner):
            break
    layer_self = [r.pop("layer_self_s") for r in per_round]
    metrics = tracing.median_metrics(per_round)
    metrics["cli.import_s"] = import_s
    metrics["cli.summary_flags_false"] = workloads.output_totals(wl.jobs)["flags_false"]
    metrics["tracing.overhead_s"] = median(spanned) - median(plain)
    return {"metrics": metrics, "layer_self_s": layer_self, "untraced_wall_s": plain,
            "traced_wall_s": spanned, "self_time_error_s": self_err,
            "spans": len(tracer)}, checks, tracer


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def print_table(title, rows):
    print(f"## {title}")
    print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'min':>12s} {'max':>12s} {'n':>3s}")
    for name, unit, st in rows:
        print(f"{name:34s} {unit:6s} {st['median']:12.6g} {st['min']:12.6g} "
              f"{st['max']:12.6g} {st['n']:3d}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isingvi", "cli.py")):
        print(f"error: no isingvi sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    start = time.perf_counter()
    work = os.path.join(HERE, "_work", args.workload)
    results_dir = os.path.join(HERE, "_results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    os.environ.update({k: v for k, v in job_env().items()
                       if k.endswith("_THREADS") or k == "ISINGVI_BACKEND"})
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    runner = Runner(work, start + RUN_LIMIT_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        measured = untraced(wl, runner, args.seconds)
    else:
        measured = traced(wl, runner, args.seconds)
    if measured is None:
        print("error: set-up failed:\n" + "\n".join(runner.failures), file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    print(f"# workload {args.workload}: {runner.attempted} jobs, {runner.failed} failed, "
          f"{measured[1]} output checks; loadavg end {env['loadavg_end']}")
    for line in runner.failures:
        print(f"# FAILED {line}")

    record = {"env": env, "workload": args.workload, "trace": args.trace,
              "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.failures}
    metrics = {}
    if args.trace == 0:
        samples = measured[0]
        samples["failed_frac"] = [runner.failed / runner.attempted]
        rows = [(name, UNITS.get(name, "s"), stats(v)) for name, v in samples.items()]
        print_table("end-to-end (tracing off)", rows)
        record["samples"] = samples
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": median(samples[m["name"]]), "unit": m["unit"]}
    else:
        info, tracer = measured[0], measured[2]
        layer = info["metrics"]
        print(f"## per-layer (traced, {len(info['traced_wall_s'])} round(s), "
              f"{info['spans']} spans)")
        for name, value in layer.items():
            shown = "absent: its layer did no work on this workload" if value is None \
                else f"{value:.6g}"
            print(f"{name:34s} {shown}")
        print("## self time per layer, last traced round (s)")
        last = info["layer_self_s"][-1]
        for name, value in sorted(last.items(), key=lambda kv: -kv[1]):
            print(f"{name:34s} {value:.6g}")
        print(f"{'sum of layer self times':34s} {sum(last.values()):.6g}")
        print(f"{'traced wall':34s} {info['traced_wall_s'][-1]:.6g}")
        print(f"{'untraced wall (in process)':34s} {info['untraced_wall_s'][-1]:.6g}")
        print(f"{'tracing overhead (median)':34s} {layer['tracing.overhead_s']:.6g}")
        print(f"{'max |job self sum - job wall|':34s} {info['self_time_error_s']:.3g}")
        spans_path = os.path.join(results_dir, f"spans-{tag}.csv.gz")
        tracer.write_csv_gz(spans_path)
        record.update(info)
        for m in spec["per_layer"]:
            value = layer.get(m["name"])
            if value is None:
                print(f"# absent {m['name']}: reported as 0", file=sys.stderr)
                value = 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
