"""Benchmark runner for bsl.

    python3 bench/run.py --workload {coldstart,fine} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is taken from
the checkout's `src/`.  Without that directory the runner exits with
code 2 and prints no result.

Untraced (--trace 0): a closed loop with one client.  A pass runs the
workload's jobs in order, each as a fresh process (`python -m bsl ...`
or `python bench/jobs.py transport`) started only after the previous one
exits.  Passes repeat while another one fits in --seconds.  Set-up is
timed by fresh processes that import bsl and bsl.cli: a few at the
start of the run and one before each pass, so that set-up and passes
sample the same stretch of time.

Traced (--trace 1): passes of the same jobs inside one process
(bench/inproc.py), with every public bsl function wrapped; they give
per-layer self time and counts, and the tracer's own cost.

Every output is checked (bench/jobs.py).  Standard output ends with a
detail record (environment, seed, job list, per-pass figures, failures
by message) and, as the last line, the result: `correct`, `attempted`,
`failed` and the metrics, each the median over the run's passes.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as joblib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 170.0     # a run, set-up included, must end within 180 s
SETUP_PROBES = 3        # timed fresh imports at the start of a run; one more
                        # precedes each pass, and the median of all is reported
PROBE = "import bsl, bsl.cli; print(bsl.__file__)"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BSL_THREADS")
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
# the traced run must attribute at least this share of a pass to import
# plus the self time of some layer; the rest is benchmark glue
ACCOUNTED_MIN = 0.97


class BenchError(RuntimeError):
    """The benchmark cannot measure (not a failure of a bsl job)."""


@dataclass
class Proc:
    """Outcome of one child process."""
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float

    def last_err(self):
        lines = [ln for ln in self.stderr.splitlines() if ln.strip()]
        return lines[-1] if lines else ""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, deadline):
    """Run argv to completion (killed at the deadline); wall time and
    max RSS come from the child's own wait4."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=_env())
        lock, state = threading.Lock(), {"reaped": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, 9)

        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        with lock:
            state["reaped"] = True
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"), wall, usage.ru_maxrss / 1024.0)


def job_argv(job):
    kind, argv = job
    if kind == "cli":
        return [sys.executable, "-m", "bsl", *argv]
    return [sys.executable, str(HERE / "jobs.py"), *argv]


# ---------------------------------------------------------------------------
# set-up and environment


def setup_probe(deadline):
    """Wall time of one fresh `import bsl, bsl.cli` process."""
    probe = spawn([sys.executable, "-c", PROBE], deadline)
    if probe.rc != 0:
        raise BenchError(f"cannot import bsl from {SRC}: {probe.last_err()}")
    path = probe.stdout.strip()
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"bsl was imported from {path}, not from {SRC}")
    return probe.wall_s


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment():
    uname = platform.uname()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "system": f"{uname.system} {uname.release} {uname.machine}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "limits": ("nothing is pinned, dropped or tuned: timings share the "
                   "machine's CPUs, caches and memory with whatever else runs"),
    }


# ---------------------------------------------------------------------------
# checking


class Tally:
    """Outcomes of the jobs of a run: failures by message, check errors,
    eigenvalue errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_errors = []
        self.failures = {}      # (job, rc, message) -> count
        self.relerrs = []
        self.outside_bar = 0    # eigenvalues whose error exceeds their error bar

    def record(self, job, rc, stdout, stderr_last):
        """Count one job; returns whether it succeeded."""
        self.attempted += 1
        label = joblib.job_label(job)
        if rc == 0:
            try:
                relerrs, outside_bar = joblib.check(job, stdout)
                self.relerrs += relerrs
                self.outside_bar += outside_bar
                return True
            except (AssertionError, ValueError, KeyError, TypeError, IndexError) as exc:
                msg = f"output check: {type(exc).__name__}: {exc}"
                self.check_errors.append(f"{label}: {msg}")
        elif rc < 0:
            msg = f"killed by signal {-rc} (run time limit)"
        else:
            msg = stderr_last
        self.failed += 1
        key = (label, rc, msg)
        self.failures[key] = self.failures.get(key, 0) + 1
        return False

    def summary(self):
        return [{"job": j, "rc": rc, "message": m, "count": c}
                for (j, rc, m), c in self.failures.items()]


# ---------------------------------------------------------------------------
# untraced run


def process_pass(job_list, deadline, tally):
    t0 = time.perf_counter()
    procs = [spawn(job_argv(job), deadline) for job in job_list]
    pass_s = time.perf_counter() - t0
    ok = [tally.record(job, p.rc, p.stdout, p.last_err())
          for job, p in zip(job_list, procs)]
    return {"pass_s": pass_s, "peak_rss_mb": max(p.maxrss_mb for p in procs),
            "job_s": [p.wall_s for p in procs], "ok": ok}


def untraced_run(job_list, seconds, deadline, tally):
    """Set-up probes, then passes (each after one more probe) while
    another one fits in `seconds`."""
    setup = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    end = time.monotonic() + seconds
    passes = []
    while True:
        setup.append(setup_probe(deadline))
        passes.append(process_pass(job_list, deadline, tally))
        typical = statistics.median(setup) + statistics.median(
            p["pass_s"] for p in passes)
        if time.monotonic() + typical > min(end, deadline):
            return setup, passes


def end_to_end_metrics(passes, setup_walls, tally):
    med = statistics.median
    return {
        "setup_s": {"value": med(setup_walls), "unit": "s"},
        "pass_s": {"value": med(p["pass_s"] for p in passes), "unit": "s"},
        "ok_frac": {"value": (tally.attempted - tally.failed) / tally.attempted,
                    "unit": "ratio"},
        # 1.0 when no eigenvalue was reported at all
        "max_relerr": {"value": max(tally.relerrs, default=1.0), "unit": "ratio"},
        "peak_rss_mb": {"value": med(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# traced run


def _scipy_imports(stderr):
    """Cumulative -X importtime seconds of scipy.interpolate and scipy.linalg."""
    found = {"scipy.interpolate": 0.0, "scipy.linalg": 0.0}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) in found:
            found[m.group(2)] += int(m.group(1)) * 1e-6
    return found


def inproc_pass(workload, seed, deadline, tally, spans_file=None):
    argv = [sys.executable, "-X", "importtime", str(HERE / "inproc.py"),
            workload, str(seed)]
    if spans_file is not None:
        argv.append(str(spans_file))
    proc = spawn(argv, deadline)
    if proc.rc != 0:
        raise BenchError(f"in-process pass exited {proc.rc}: {proc.last_err()}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    for job, out in zip(joblib.jobs(workload, seed), doc.pop("outcomes")):
        errs = [ln for ln in out["stderr"].splitlines() if ln.strip()]
        tally.record(job, out["rc"], out["stdout"], errs[-1] if errs else "")
    doc["scipy"] = _scipy_imports(proc.stderr)
    doc["wall_s"] = proc.wall_s
    return doc


def traced_run(workload, seed, seconds, deadline, tally):
    traced = []
    end = time.monotonic() + seconds
    spans_file = OUT / f"spans-{workload}-{seed}.json.gz"
    while True:
        traced.append(inproc_pass(workload, seed, deadline, tally,
                                  spans_file if not traced else None))
        typical = statistics.median(p["wall_s"] for p in traced)
        if time.monotonic() + typical > min(end, deadline):
            return traced


def trace_checks(workload, traced):
    """Self-checks of the traced run; each returned string is a failure."""
    errors = []
    for i, doc in enumerate(traced):
        if doc["unwrapped"]:
            errors.append(f"pass {i}: untraced aliases: {doc['unwrapped']}")
        layers = doc["trace"]["layers"]
        for layer in joblib.DECLARED_LAYERS[workload]:
            if layers[layer]["calls"] == 0:
                errors.append(f"pass {i}: layer {layer} was never called")
        share = accounted_share(doc)
        if share < ACCOUNTED_MIN:
            errors.append(f"pass {i}: import plus layer self time covers only "
                          f"{share:.3f} of the traced pass")
    return errors


def accounted_share(doc):
    """Share of a traced pass (import plus jobs) that import and the layer
    self times account for."""
    accounted = doc["import_s"] + sum(v["self_s"] for v in doc["trace"]["layers"].values())
    return accounted / (doc["import_s"] + doc["jobs_s"])


def layer_figures(doc):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    trace, eig = doc["trace"], doc["trace"]["eigen"]

    def func(name, key):
        return trace["funcs"].get(name, {}).get(key, 0)

    figs = {
        "import.self_s": (doc["import_s"], "s"),
        "import.scipy_interpolate_s": (doc["scipy"]["scipy.interpolate"], "s"),
        "import.scipy_linalg_s": (doc["scipy"]["scipy.linalg"], "s"),
    }
    for name in joblib.LAYERS:
        figs[f"{name}.self_s"] = (trace["layers"][name]["self_s"], "s")
        figs[f"{name}.calls"] = (trace["layers"][name]["calls"], "count")
    eigen_self = func("eigen.eigenpairs", "self_s")
    figs.update({
        "eigen.eigenpairs.self_s": (eigen_self, "s"),
        "eigen.nodes": (eig["nodes"], "count"),
        "eigen.modes": (eig["modes"], "count"),
        "eigen.us_per_node_mode": (1e6 * eigen_self / max(eig["node_modes"], 1), "us"),
        "eigen.failures": (eig["failures"], "count"),
        "eigen.certified_frac": (eig["pairs"] / max(eig["modes"], 1), "ratio"),
        "geometry.orbit_profile.self_s": (func("geometry.orbit_profile", "self_s"), "s"),
        "geometry.orbit_profile.nodes": (trace["orbit_profile_nodes"], "count"),
        "diagrams.isotropy_probe.calls": (func("diagrams.isotropy_probe", "calls"), "count"),
        "diagrams.transport_invariant.calls": (
            func("diagrams.transport_invariant", "calls"), "count"),
        "algebra.quat_mul.calls": (func("algebra.quat_mul", "calls"), "count"),
        # what tracing added to the pass: spans times the calibrated cost
        # of one wrapped call, plus the time spent in the tracer's hooks
        "trace.overhead_s": (trace["spans"] * trace["span_cost_s"] + trace["hook_s"],
                             "s"),
    })
    return figs


def per_layer_metrics(traced):
    """Medians over the traced passes."""
    med = statistics.median
    figs = [layer_figures(doc) for doc in traced]
    return {name: {"value": med(f[name][0] for f in figs), "unit": unit}
            for name, (_, unit) in figs[0].items()}


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bsl" / "__init__.py").is_file():
        print(f"bench: no bsl package under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    load_before = os.getloadavg()
    job_list = joblib.jobs(args.workload, args.seed)
    tally = Tally()
    setup_walls = []
    try:
        if args.trace:
            passes = traced_run(args.workload, args.seed, args.seconds,
                                deadline, tally)
            problems = trace_checks(args.workload, passes)
            metrics = per_layer_metrics(passes)
            pass_view = [{"pass_s": t["pass_s"], "import_s": t["import_s"],
                          "spans": t["trace"]["spans"],
                          "span_cost_s": t["trace"]["span_cost_s"],
                          "hook_s": t["trace"]["hook_s"],
                          "accounted_share": accounted_share(t),
                          "layers": t["trace"]["layers"],
                          "funcs": t["trace"]["funcs"]}
                         for t in passes]
        else:
            setup_walls, passes = untraced_run(job_list, args.seconds, deadline, tally)
            problems = []
            metrics = end_to_end_metrics(passes, setup_walls, tally)
            pass_view = passes
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    problems = tally.check_errors + problems
    detail = {
        "benchmark": "bsl", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {**environment(), "loadavg_before": load_before,
                "loadavg_after": os.getloadavg()},
        "jobs": [joblib.job_label(j) for j in job_list],
        "setup_s": setup_walls, "passes": pass_view,
        "fail_frac": tally.failed / tally.attempted,
        "outside_error_bar": tally.outside_bar,
        "failures": tally.summary(), "problems": problems,
        "run_s": time.monotonic() - start,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
