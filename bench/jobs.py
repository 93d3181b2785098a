"""Workloads of the bsl benchmark: job lists, output checks, the API job.

A job is ("cli", argv) for one `python -m bsl ...` invocation or
("api", [name]) for a short script over the public API.  Job lists come
from the workload name and seed only; the seed sets `verify --seed`,
while grids and mode counts stay fixed so the cost of a pass does not
depend on the seed.

Importing this module loads only the standard library.  bsl, numpy and
scipy are imported inside `transport_job`, so the benchmark runner stays
a light process.  Run as a script (`python bench/jobs.py transport`)
it performs the API job and prints its result as JSON.
"""

import json
import math
import sys

WORKLOADS = ("coldstart", "fine")

# The package's modules; with the import phase these are the layers the
# traced run reports.
LAYERS = ("cli", "lab", "eigen", "sturm", "geometry", "diagrams", "algebra")

# The layers a workload is declared to exercise.  The traced run asserts
# a nonzero call count for each of them.
DECLARED_LAYERS = {
    "coldstart": ("cli", "lab", "eigen", "sturm", "geometry", "diagrams",
                  "algebra"),
    "fine": ("cli", "lab", "eigen", "sturm", "geometry"),
}

# Acceptance tolerances (README criteria 1-3, 6 and 8).
MODE_TOL = 1e-6            # first five modes at grid >= 1024
MODE_TOL_MODES = 5
MODE_TOL_GRID = 1024
RELGAP_TOL = 1e-8          # compare: largest relative gap of an isospectral pair
JOINT_TOL = 1e-8           # transported eigenfunction residual
EXACT_TOL = 1e-12          # verify residuals, transport round trip


def jobs(workload, seed):
    """The job list of one pass of a workload."""
    if workload == "coldstart":
        return [
            ("cli", ["catalog"]),
            ("cli", ["verify", "--diagram", "gm", "--samples", "1000",
                     "--seed", str(seed)]),
            ("cli", ["spectrum", "--diagram", "hopf", "--grid", "256",
                     "--modes", "3"]),
            ("api", ["transport"]),
        ]
    if workload == "fine":
        return [
            ("cli", ["spectrum", "--diagram", "hopf", "--side", "Mprime",
                     "--grid", "1024", "--modes", "64"]),
            ("cli", ["spectrum", "--diagram", "hopf", "--side", "P",
                     "--grid", "16384", "--modes", "5"]),
            ("cli", ["compare", "--diagram", "trivial-s2", "--grid", "4096",
                     "--modes", "5"]),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def job_shape(job):
    """A job with its seeded values masked, for comparing job lists."""
    kind, argv = job
    masked, hide = [], False
    for tok in argv:
        masked.append("*" if hide else tok)
        hide = tok == "--seed"
    return kind, tuple(masked)


def job_label(job):
    kind, argv = job
    return " ".join(argv) if kind == "cli" else f"api:{argv[0]}"


# ---------------------------------------------------------------------------
# output checks


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _closed_form(diagram, i):
    """The i-th nonzero basic eigenvalue: 4l(l+1) for hopf, l(l+1) otherwise."""
    return (4.0 if diagram == "hopf" else 1.0) * i * (i + 1)


def _check_modes(diagram, grid, lams, errs):
    """Relative errors against the closed forms, and the number of modes
    whose error exceeds the error bar the program reports (recorded, not
    a failure); raise on a failed acceptance tolerance."""
    relerrs, outside_bar = [], 0
    for i, (lam, err) in enumerate(zip(lams, errs), 1):
        exact = _closed_form(diagram, i)
        relerr = abs(lam - exact) / exact
        if i <= MODE_TOL_MODES and grid >= MODE_TOL_GRID and relerr > MODE_TOL:
            raise AssertionError(f"mode {i}: relative error {relerr:.3e} > {MODE_TOL}")
        outside_bar += abs(lam - exact) > err
        relerrs.append(relerr)
    return relerrs, outside_bar


def _check_spectrum(argv, res):
    modes = res["modes"]
    lams = [m["lambda"] for m in modes for _ in range(m["mult"])]
    errs = [m["err"] for m in modes for _ in range(m["mult"])]
    k = int(_flag(argv, "--modes"))
    if len(lams) != k:
        raise AssertionError(f"{len(lams)} modes reported, {k} requested")
    return _check_modes(_flag(argv, "--diagram"), int(_flag(argv, "--grid")),
                        lams, errs)


def _check_compare(argv, res):
    if res["isospectral"] is not True:
        raise AssertionError("verdict is not isospectral")
    if res["max_relgap"] > RELGAP_TOL:
        raise AssertionError(f"max relgap {res['max_relgap']:.3e} > {RELGAP_TOL}")
    diagram, grid = _flag(argv, "--diagram"), int(_flag(argv, "--grid"))
    k = int(_flag(argv, "--modes"))
    relerrs, outside_bar = [], 0
    for lam_key, err_key in (("lambda_m", "err_m"), ("lambda_mprime", "err_mprime")):
        if len(res[lam_key]) != k:
            raise AssertionError(f"{lam_key}: {len(res[lam_key])} modes, {k} requested")
        side_relerrs, side_outside = _check_modes(diagram, grid, res[lam_key],
                                                  res[err_key])
        relerrs += side_relerrs
        outside_bar += side_outside
    return relerrs, outside_bar


def _check_verify(argv, res):
    worst = max(res["commute_residual"], res["membership"]["bullet"],
                res["membership"]["star"])
    if worst > EXACT_TOL:
        raise AssertionError(f"action residual {worst:.3e} > {EXACT_TOL}")
    free = res["freeness"]
    if not (free["bullet_only_identity"] and free["star_only_identity"]):
        raise AssertionError("an action is not free on the sampled points")
    return [], 0


def _check_catalog(text):
    ids = [line.split()[0] for line in text.splitlines() if line.strip()]
    if ids != ["trivial-s2", "hopf", "gm"]:
        raise AssertionError(f"catalog lists {ids}")
    return [], 0


def _check_transport(res):
    for eid, r in res["joint"].items():
        if not r <= JOINT_TOL:
            raise AssertionError(f"{eid}: joint residual {r:.3e} > {JOINT_TOL}")
    for eid, r in res["ring"].items():
        if r["sum_mismatches"] or r["product_mismatches"]:
            raise AssertionError(f"{eid}: transport is not a ring map")
        if not r["roundtrip"] <= EXACT_TOL:
            raise AssertionError(f"{eid}: round trip {r['roundtrip']:.3e} > {EXACT_TOL}")
    return [], 0


_CLI_CHECKS = {"spectrum": _check_spectrum, "compare": _check_compare,
               "verify": _check_verify}


def check(job, stdout):
    """Check a successful job's output.

    Returns the relative errors of the eigenvalues it reports (empty for
    jobs that report none) and how many of them lie outside their
    reported error bar; raises AssertionError, ValueError or KeyError on
    a wrong or malformed output.
    """
    kind, argv = job
    if kind == "api":
        return _check_transport(json.loads(stdout))
    if argv[0] == "catalog":
        return _check_catalog(stdout)
    doc = json.loads(stdout)
    if doc.get("command") != argv[0]:
        raise AssertionError(f"envelope says command {doc.get('command')!r}")
    return _CLI_CHECKS[argv[0]](argv, doc["result"])


# ---------------------------------------------------------------------------
# the public-API job


_INVARIANTS = {
    "trivial-s2": lambda x: float(x[2]) ** 2 + 0.3,
    "hopf": lambda x: math.cos(float(x[0])) + 0.5,
    "gm": lambda col: col[0].w ** 2 + 0.7 * col[1].w,
}


def transport_job():
    """Transport through the public API: the index-1 joint eigenfunction
    residual at n=512 for hopf and trivial-s2, and the ring-map and
    involution checks of invariant-function transport on every entry
    (1000 samples each)."""
    import numpy as np

    from bsl.diagrams import CATALOG_IDS, catalog, swap, transport_invariant
    from bsl.geometry import kaluza_klein
    from bsl.lab import joint_eigenfunction_check

    joint = {}
    for eid in ("hopf", "trivial-s2"):
        d = catalog(eid)
        joint[eid] = joint_eigenfunction_check(d, kaluza_klein(d), 1, 512)
    ring = {}
    for eid in CATALOG_IDS:
        d = catalog(eid)
        f1 = _INVARIANTS[eid]

        def f2(x, f1=f1):
            return 0.5 * f1(x) ** 2 - 0.8

        t1 = transport_invariant(d, f1)
        t2 = transport_invariant(d, f2)
        t_sum = transport_invariant(d, lambda x: f1(x) + f2(x))
        t_prod = transport_invariant(d, lambda x: f1(x) * f2(x))
        back = transport_invariant(swap(d), t1)
        rng = np.random.default_rng(13)
        sums = prods = 0
        roundtrip = 0.0
        for _ in range(1000):
            p = d.random_point(rng)
            y = d.proj_star(p)
            a, b = t1(y), t2(y)
            sums += t_sum(y) != a + b
            prods += t_prod(y) != a * b
            x = d.proj_bullet(p)
            roundtrip = max(roundtrip, abs(back(x) - f1(x)))
        ring[eid] = {"sum_mismatches": int(sums), "product_mismatches": int(prods),
                     "roundtrip": float(roundtrip)}
    return {"joint": joint, "ring": ring}


API_JOBS = {"transport": transport_job}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in API_JOBS:
        sys.exit(f"usage: jobs.py {{{','.join(API_JOBS)}}}")
    print(json.dumps(API_JOBS[sys.argv[1]](), sort_keys=True))
