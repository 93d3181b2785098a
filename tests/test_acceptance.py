"""Acceptance gate: one test per shipped criterion, with stated tolerances.

Each test prints one PASS/FAIL line on the real terminal so a full run
reads as a checklist.  CLI-facing criteria drive the installed package
through subprocesses; library-facing ones call the public API.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bsl.diagrams import catalog, swap, transport_invariant
from bsl.geometry import kaluza_klein, laplacian_identity_residual, warp
from bsl.lab import fubini_defect, joint_eigenfunction_check

SPHERE = np.array([2.0, 6.0, 12.0, 20.0])
HALF_SPHERE = np.array([8.0, 24.0, 48.0, 80.0, 120.0])

INVARIANTS = {
    "trivial-s2": lambda x: float(x[2]) ** 2 + 0.3,
    "hopf": lambda x: math.cos(float(x[0])) + 0.5,
    "gm": lambda col: col[0].w ** 2 + 0.7 * col[1].w,
}


@contextlib.contextmanager
def verdict(capfd, num, label):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE CRITERION {num}: FAIL ({label})", flush=True)
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE CRITERION {num}: PASS ({label})", flush=True)


def run_cli(argv, limit):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "bsl"] + argv,
                          capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"
    return proc


def flat_modes(result):
    out = []
    for mode in result["modes"]:
        out.extend([mode["lambda"]] * mode["mult"])
    return np.array(out)


def test_criterion_1_product_spectrum(tmp_path, capfd):
    with verdict(capfd, 1, "trivial-s2 M spectrum at grid 1024"):
        out = os.path.join(tmp_path, "c1.json")
        run_cli(["spectrum", "--diagram", "trivial-s2", "--side", "M",
                 "--grid", "1024", "--modes", "4", "--out", out], limit=5.0)
        lams = flat_modes(json.loads(Path(out).read_text())["result"])
        assert lams.size == 4
        assert np.max(np.abs(lams - SPHERE) / SPHERE) <= 1e-6


def test_criterion_2_hopf_isospectrality(tmp_path, capfd):
    with verdict(capfd, 2, "hopf quotient comparison at grid 1024"):
        out = os.path.join(tmp_path, "c2.json")
        run_cli(["compare", "--diagram", "hopf", "--grid", "1024",
                 "--modes", "5", "--out", out], limit=10.0)
        res = json.loads(Path(out).read_text())["result"]
        assert res["isospectral"] is True
        assert res["max_relgap"] <= 1e-8
        for key in ("lambda_m", "lambda_mprime"):
            vals = np.array(res[key])
            assert np.max(np.abs(vals - HALF_SPHERE) / HALF_SPHERE) <= 1e-6


def test_criterion_3_joint_eigenfunctions(capfd):
    with verdict(capfd, 3, "transported eigenfunctions at 10x native residual"):
        for eid in ("hopf", "trivial-s2"):
            d = catalog(eid)
            m = kaluza_klein(d)
            for index in range(1, 6):
                r = joint_eigenfunction_check(d, m, index, 512)
                assert r <= 1e-8, (eid, index, r)


def test_criterion_4_warp_schedule(tmp_path, capfd):
    with verdict(capfd, 4, "vertical warp breaks hopf isospectrality"):
        out = os.path.join(tmp_path, "c4.json")
        run_cli(["warp", "--diagram", "hopf", "--scales", "0.25,0.5,1,2",
                 "--out", out], limit=30.0)
        res = json.loads(Path(out).read_text())["result"]
        control = res["reports"][0]
        assert control["scale"] == 0.0
        assert control["lambda1_warped"] == control["lambda1_unwarped"]
        assert control["broke_isospectrality"] is False
        assert res["any_broke"] is True


def test_criterion_5_reduction_identity_order(capfd):
    with verdict(capfd, 5, "reduction identity residual is second order"):
        m = kaluza_klein(catalog("hopf"))
        rng = np.random.default_rng(3)
        u = rng.standard_normal(65)
        u /= np.max(np.abs(u))
        mw = warp(m, u, 0.5)
        phi = lambda t: np.cos(3.0 * t) + 0.25 * np.sin(t)
        ratio = (laplacian_identity_residual(mw, phi, 512)
                 / laplacian_identity_residual(mw, phi, 1024))
        assert 3.5 <= ratio <= 4.5, ratio


def test_criterion_6_exact_action_checks(tmp_path, capfd):
    with verdict(capfd, 6, "gm actions commute, stay on Sp(2), act freely"):
        out = os.path.join(tmp_path, "c6.json")
        run_cli(["verify", "--diagram", "gm", "--samples", "1000",
                 "--seed", "7", "--out", out], limit=5.0)
        res = json.loads(Path(out).read_text())["result"]
        assert res["commute_residual"] <= 1e-12
        assert res["membership"]["bullet"] <= 1e-12
        assert res["membership"]["star"] <= 1e-12
        assert res["freeness"]["points"] == 100
        assert res["freeness"]["bullet_only_identity"] is True
        assert res["freeness"]["star_only_identity"] is True


def test_criterion_7_fubini_consistency(capfd):
    with verdict(capfd, 7, "Haar-Fubini quadrature consistency on hopf"):
        d = catalog("hopf")
        m = kaluza_klein(d)
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal(4)

            def f(t, a=a):
                return (a[0] + a[1] * np.cos(t) + a[2] * np.cos(2.0 * t)
                        + a[3] * np.sin(t))

            assert fubini_defect(d, m, f, 256) <= 1e-9


def test_criterion_8_transport_algebra(capfd):
    with verdict(capfd, 8, "transport is a ring map and an involution"):
        for eid in ("trivial-s2", "hopf", "gm"):
            d = catalog(eid)
            f1 = INVARIANTS[eid]
            f2 = lambda x: 0.5 * f1(x) ** 2 - 0.8
            t1 = transport_invariant(d, f1)
            t2 = transport_invariant(d, f2)
            t_sum = transport_invariant(d, lambda x: f1(x) + f2(x))
            t_prod = transport_invariant(d, lambda x: f1(x) * f2(x))
            back = transport_invariant(swap(d), t1)
            rng = np.random.default_rng(13)
            for _ in range(1000):
                p = d.random_point(rng)
                y = d.proj_star(p)
                assert t_sum(y) == t1(y) + t2(y)
                assert t_prod(y) == t1(y) * t2(y)
                x = d.proj_bullet(p)
                assert abs(back(x) - f1(x)) <= 1e-12


def test_criterion_9_deterministic_reports(tmp_path, capfd):
    with verdict(capfd, 9, "byte-identical reports for identical configs"):
        for name, argv in (
            ("spectrum", ["spectrum", "--diagram", "hopf", "--grid", "256",
                          "--modes", "3"]),
            ("verify", ["verify", "--diagram", "gm", "--samples", "200",
                        "--seed", "7"]),
        ):
            out = os.path.join(tmp_path, f"det-{name}.json")
            run_cli(argv + ["--out", out], limit=30.0)
            first = Path(out).read_bytes()
            run_cli(argv + ["--out", out], limit=30.0)
            assert Path(out).read_bytes() == first
