"""One traced pass of a workload inside a single process.

    python -X importtime bench/inproc.py WORKLOAD SEED [SPANS_FILE]

The pass imports bsl, then runs every job of the workload in order: CLI
jobs through `bsl.cli.main(argv)` with stdout and stderr captured, API
jobs by calling them.  Before the first job the public functions of
every bsl module are wrapped from outside, under every name any bsl
module holds them by, and each call records a span (name, start, end,
parent span, job id) in memory.  The diagram callables
handed out by `diagrams.catalog` and the functions returned by
`diagrams.transport_invariant` are wrapped too, because jobs call
through them.  At the end the spans are aggregated per layer (the bsl
module) and per function; SPANS_FILE, if given, receives them as gzip'd
JSON.  The cost of one span is calibrated in the same process by timing
a wrapped no-op against the bare call.  The last line of stdout is one JSON object with the pass time,
the job outcomes and the aggregates; `-X importtime` lines on stderr
give the scipy import costs.
"""

import contextlib
import gzip
import inspect
import io
import json
import os
import sys
import time
import traceback
from array import array
from dataclasses import fields, replace

_T0 = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path.insert(0, _SRC)

import bsl  # noqa: E402
import bsl.cli  # noqa: E402

_T_IMPORTED = time.perf_counter()

import jobs  # noqa: E402


class Tracer:
    """Span recorder over wrapped bsl functions.

    Spans live in flat arrays indexed by span id; a span's parent is the
    innermost span open when it started (-1 for none).
    """

    def __init__(self):
        self.names = []             # interned span names
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.error = {}             # span id -> exception class name
        self._stack = []
        self.job_id = -1
        self.wrapped = {}           # id(original) -> wrapper
        self.eigen_calls = []       # (nodes, k, returned pairs, failed)
        self.profile_nodes = 0
        self.hook_s = 0.0           # time spent in post and observe hooks

    def wrap(self, name, fn, post=None, observe=None):
        """A wrapper of fn that records a span named name.

        post maps the return value (used to wrap callables handed out);
        observe(args, kwargs, result, exc) sees every call.  Their time
        is summed in hook_s.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    t = perf()
                    result = post(result)
                    self.hook_s += perf() - t
                return result
            except BaseException as e:
                exc = e
                self.error[sid] = type(e).__name__
                raise
            finally:
                self.end[sid] = perf()
                stack.pop()
                if observe is not None:
                    t = perf()
                    observe(args, kwargs, result, exc)
                    self.hook_s += perf() - t

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public bsl function under every name bsl holds it by.

        Returns where an unwrapped original is still reachable (in a
        container, a default argument or a class body), which must be
        nowhere: calls through such a reference would escape the trace.
        """
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "bsl" or n.startswith("bsl."))
                and n != "bsl.__main__"}
        originals = {}
        for modname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    originals[id(obj)] = (f"{modname.split('.')[-1]}.{attr}", obj)
        special = {
            "diagrams.catalog": {"post": self._wrap_diagram},
            "diagrams.swap": {"post": self._wrap_diagram},
            "diagrams.transport_invariant": {
                "post": lambda f: self.wrap("diagrams.transported", f)},
            "eigen.eigenpairs": {"observe": self._observe_eigenpairs},
            "geometry.orbit_profile": {"observe": self._observe_profile},
        }
        for key, (name, fn) in originals.items():
            self.wrapped[key] = self.wrap(name, fn, **special.get(name, {}))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in self.wrapped:
                    setattr(mod, attr, self.wrapped[id(obj)])
        return sorted(label for label, obj in _references(mods)
                      if id(obj) in originals)

    def _wrap_diagram(self, d):
        updates = {}
        for f in fields(d):
            fn = getattr(d, f.name)
            if callable(fn) and not hasattr(fn, "__wrapped__"):
                updates[f.name] = self.wrap(f"diagrams.StarDiagram.{f.name}", fn)
        return replace(d, **updates)

    def _observe_eigenpairs(self, args, kwargs, result, exc):
        op = args[0] if args else kwargs["op"]
        k = int(args[1] if len(args) > 1 else kwargs["k"])
        pairs = 0 if exc is not None else len(result[0])
        failed = type(exc).__name__ == "ConvergenceFailure"
        self.eigen_calls.append((op.n + 1, k, pairs, failed))

    def _observe_profile(self, args, kwargs, result, exc):
        n = args[2] if len(args) > 2 else kwargs["n"]
        self.profile_nodes += int(n) + 1

    # -- aggregation -------------------------------------------------------

    def aggregate(self):
        """Self time and call counts per layer and per function."""
        nspans = len(self.start)
        child = [0.0] * nspans
        for sid in range(nspans):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        funcs = {}
        for sid in range(nspans):
            name = self.names[self.name[sid]]
            rec = funcs.setdefault(name, [0.0, 0])
            rec[0] += self.end[sid] - self.start[sid] - child[sid]
            rec[1] += 1
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in jobs.LAYERS}
        for name, (self_s, calls) in funcs.items():
            layer = layers.setdefault(name.split(".")[0], {"self_s": 0.0, "calls": 0})
            layer["self_s"] += self_s
            layer["calls"] += calls
        return {
            "layers": layers,
            "funcs": {n: {"self_s": s, "calls": c} for n, (s, c) in funcs.items()},
            "spans": nspans,
            "eigen": {
                "nodes": sum(c[0] for c in self.eigen_calls),
                "modes": sum(c[1] for c in self.eigen_calls),
                "node_modes": sum(c[0] * c[1] for c in self.eigen_calls),
                "pairs": sum(c[2] for c in self.eigen_calls),
                "calls": len(self.eigen_calls),
                "failures": sum(c[3] for c in self.eigen_calls),
            },
            "orbit_profile_nodes": self.profile_nodes,
            "hook_s": self.hook_s,
        }

    def dump(self, path):
        doc = {"names": self.names,
               "columns": ["name", "start", "end", "parent", "job"],
               "spans": [list(self.name), list(self.start), list(self.end),
                         list(self.parent), list(self.job)],
               "errors": {str(k): v for k, v in self.error.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _references(mods):
    """(label, object) for module globals and what they hold one level down."""
    for modname, mod in mods.items():
        for attr, obj in vars(mod).items():
            label = f"{modname}.{attr}"
            yield label, obj
            if isinstance(obj, dict):
                inner = obj.values()
            elif isinstance(obj, (list, tuple, set, frozenset)):
                inner = obj
            elif inspect.isfunction(obj):
                inner = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
            elif inspect.isclass(obj) and obj.__module__ == modname:
                inner = vars(obj).values()
            else:
                continue
            for item in inner:
                yield f"{label}[...]", item


def _noop():
    pass


def span_cost(calls=20000, repeats=5):
    """Seconds one wrapped call adds to a bare call, on a throwaway tracer:
    the best of a few timed loops, so a preempted loop does not count."""
    wrapped = Tracer().wrap("calibration.noop", _noop)
    perf = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = perf()
        for _ in range(calls):
            _noop()
        t1 = perf()
        for _ in range(calls):
            wrapped()
        t2 = perf()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def run_job(job):
    """Run one job in this process: (exit code, stdout, stderr)."""
    kind, argv = job
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if kind == "cli":
                rc = bsl.cli.main(list(argv))
            else:
                print(json.dumps(jobs.API_JOBS[argv[0]](), sort_keys=True))
                rc = 0
        except Exception:    # a crash ends the job, as it would a process
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main(argv):
    workload, seed = argv[0], int(argv[1])
    spans_file = argv[2] if len(argv) > 2 else None
    if not os.path.abspath(bsl.__file__).startswith(_SRC + os.sep):
        sys.exit(f"bsl was imported from {bsl.__file__}, not from {_SRC}")
    tracer = Tracer()
    unwrapped = tracer.install()
    t_jobs = time.perf_counter()
    outcomes = []
    for i, job in enumerate(jobs.jobs(workload, seed)):
        tracer.job_id = i
        rc, out, err = run_job(job)
        outcomes.append({"rc": rc, "stdout": out, "stderr": err})
    t_end = time.perf_counter()
    doc = {"pass_s": t_end - _T0, "import_s": _T_IMPORTED - _T0,
           "jobs_s": t_end - t_jobs,
           "outcomes": outcomes, "unwrapped": unwrapped,
           "trace": {**tracer.aggregate(), "span_cost_s": span_cost()}}
    if spans_file:
        tracer.dump(spans_file)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
