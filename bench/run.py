"""Benchmark of the cbswb command line, end to end and layer by layer.

    python3 bench/run.py --workload finite-lattice --seed 1 --seconds 25 --trace 0

Each job is one `cbswb.cli.main(argv)` call made in this process, so it
pays for argument parsing, JSON loading, the computation and report
rendering, as a user of the command does.  Jobs run serially in a closed
loop with one client: the job list of the workload is run pass after pass
until `--seconds` have elapsed and at least three passes are done, always
finishing the pass.  Job times are paced: scaled by how fast a fixed probe
ran around each job (see speed_probe), so that other tenants of the machine
do not show up as a change of the program.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it runs one untraced pass, then traced passes (see layers.py) for
`--seconds`, and reports the per-layer metrics per pass together with the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Inputs are generated from the seed (gen.py) under `.bench_work/` in the
repository root; outputs are checked against expectations computed before
the timed loop (checks.py).  A record of the run, with the sha256 of every
job's standard output, is written to `.bench_work/` as well.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 9
# every job runs at least this often, so its median has three runs to choose from
MIN_PASSES = 3
# Other tenants of a shared machine slow it down by up to 1.8x for minutes at
# a time, so every job time is scaled by PACE_SECONDS over the time a fixed
# probe took around the job.  PACE_SECONDS is a fixed reference, close to the
# probe's time on a 2-core x86-64 VM with Python 3.11, so paced times read
# as seconds on such a machine.
PROBE_SIZE = 80
PACE_SECONDS = 0.004

# Imports cbswb and reads the generated inputs in a fresh interpreter, the
# work a user pays before the first job; prints the seconds it took and the
# machine's pace right after.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cbswb.cli
for path in sys.argv[3:]:
    with open(path) as fh:
        json.load(fh)
t = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import speed_probe
print(t, speed_probe())
"""


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("finite-lattice", "truncation", "symbolic"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def require_checkout():
    for rel in ("src/cbswb/cli.py", "corpus/z4.json", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            sys.exit(f"error: {rel} not found; run from a checkout of the repository")


def run_metadata(args):
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "cbswb")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                src.update(fn.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(files):
    """Median paced seconds over fresh interpreters to import cbswb and read the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, BENCH, *files],
                              capture_output=True, text=True, check=True, cwd=ROOT)
        seconds, probe = map(float, proc.stdout.split())
        times.append(seconds * PACE_SECONDS / probe)
    return statistics.median(times)


def speed_probe():
    """Seconds a fixed union-find pass takes now: the machine's current pace.

    The work is the kind the congruence kernels do (list indexing, small
    function calls, tuples from itertools.product), so it slows down with
    them when the machine is contended; none of it is cbswb code.
    """
    t0 = time.perf_counter()
    parent = list(range(PROBE_SIZE))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.product(range(PROBE_SIZE), repeat=2):
        if (a * 7 + b) % 5 == 0:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        (a, b)[:1] + (find(b),)
    return time.perf_counter() - t0


def run_job(main, argv):
    """(exit code or None on a crash, stdout, seconds, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = None
            err.write(repr(exc))
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt, err.getvalue()


class Loop:
    """Runs the job list in passes and keeps the first output of every job.

    The first output of each job is checked after the timed loop; every
    later run of the job must reproduce it byte for byte.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [None] * len(jobs)
        self.sha = [None] * len(jobs)
        self.reasons = {}
        self.runs = []  # (job index, output matches the first run)
        self.reset_times()

    def run(self, main, seconds, min_passes=MIN_PASSES):
        """Run whole passes until `seconds` have elapsed; return the number of passes."""
        passes = 0
        t0 = time.perf_counter()
        before = speed_probe()
        while passes < min_passes or time.perf_counter() - t0 < seconds:
            for i, job in enumerate(self.jobs):
                code, out, dt, err = run_job(main, job["argv"])
                after = speed_probe()
                self.seconds[i].append(dt)
                self.probe[i].append((before + after) / 2)
                before = after
                sha = hashlib.sha256(out.encode()).hexdigest()
                if self.sha[i] is None:
                    self.first[i], self.sha[i] = (code, out, err), sha
                same = sha == self.sha[i] and code == self.first[i][0]
                if not same:
                    self.reasons.setdefault(i, "output differs from the first run")
                self.runs.append((i, same))
            passes += 1
        return passes

    def check(self, check, *context):
        """Check the first output of every job; a failed check fails all its runs."""
        for i, job in enumerate(self.jobs):
            code, out, err = self.first[i]
            try:
                reason = check(job, code, out, *context) if code is not None else err
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {exc!r}"
            if reason:
                self.reasons[i] = reason
        self.first = None

    def reset_times(self):
        self.seconds = [[] for _ in self.jobs]
        self.probe = [[] for _ in self.jobs]

    def paced_runs(self):
        """Wall time of every run of every job, scaled to the reference pace."""
        return [[dt * PACE_SECONDS / probe for dt, probe in zip(secs, probes)]
                for secs, probes in zip(self.seconds, self.probe)]

    def paced_seconds(self):
        """Each job's median paced time over its runs."""
        return [statistics.median(runs) for runs in self.paced_runs()]

    @property
    def failed(self):
        return sum(1 for i, same in self.runs if not same or i in self.reasons)


def main():
    args = parse_args()
    require_checkout()
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests"), BENCH]
    import checks
    import gen

    meta = run_metadata(args)
    workdir = os.path.join(WORK, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs, inputs, digest = gen.generate(args.workload, args.seed, os.path.join(ROOT, "corpus"), workdir)
        checks.prepare(jobs, inputs)
        setup_s = measure_setup(inputs.files)
        print(f"inputs: {len(inputs.files)} files, {len(jobs)} jobs per pass, sha256 {digest}", flush=True)

        from cbswb import cli

        loop = Loop(jobs)
        if args.trace:
            import layers

            loop.run(cli.main, 0.0, min_passes=1)
            untraced = len(jobs) / sum(loop.paced_seconds())
            loop.reset_times()
            tracer = layers.Tracer()
            tracer.install()
            try:
                passes = loop.run(cli.main, args.seconds, min_passes=1)
            finally:
                tracer.uninstall()
            traced = len(jobs) / sum(loop.paced_seconds())
            spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.txt.gz")
            summary = tracer.summary(passes)
            metrics = {name: (summary[name], unit) for name, unit in layers.metric_names()}
            metrics["trace.untraced_jobs_per_s"] = (untraced, "1/s")
            metrics["trace.traced_jobs_per_s"] = (traced, "1/s")
            metrics["trace.overhead_ratio"] = (untraced / traced, "ratio")
        else:
            passes = loop.run(cli.main, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            per_job = loop.paced_seconds()
            times = [t for runs in loop.paced_runs() for t in runs]
            p80 = statistics.quantiles(times, n=5)[3]
            metrics = {
                "jobs_per_s": (len(jobs) / sum(per_job), "1/s"),
                "job_p50_s": (statistics.median(times), "s"),
                "job_p80_s": (p80, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
        loop.check(checks.check, inputs)
        if args.trace:
            tracer.write(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = loop.failed
    attempted = len(loop.runs)
    refuted = sum(job["expect"]["exit"] == 1 for job in jobs) / len(jobs)
    meta["loadavg_end"] = os.getloadavg()
    meta["passes"] = passes
    meta["inputs_sha256"] = digest
    record = {
        "meta": meta,
        "jobs": [{"argv": [a.replace(workdir + os.sep, "") for a in job["argv"]],
                  "sha256": sha, "seconds": secs, "probe": probe}
                 for job, sha, secs, probe in zip(jobs, loop.sha, loop.seconds, loop.probe)],
        "failures": {str(i): r for i, r in sorted(loop.reasons.items())},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("meta: " + json.dumps(meta))
    for i, reason in sorted(loop.reasons.items()):
        print(f"FAILED job {i} ({jobs[i]['argv'][0]}): {reason}")
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(f"refuted_share {refuted:.6g} ratio (jobs whose expected exit code is 1)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_p80_s":
            note = f" ({len(times)} job runs, {sum(t > value for t in times)} above)"
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
