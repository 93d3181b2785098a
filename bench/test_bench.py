"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py

The traced tests run one in-process pass of each workload (about 5-10 s
each on a 2-CPU machine).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jobs
import run

HERE = Path(__file__).resolve().parent


def metric_names(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seeds_change_values_not_the_job_list(workload):
    a, b = jobs.jobs(workload, 1), jobs.jobs(workload, 2)
    assert [jobs.job_shape(j) for j in a] == [jobs.job_shape(j) for j in b]
    if workload != "fine":
        assert a != b


def test_tracer_wraps_every_alias():
    script = (
        "import sys; sys.argv = ['inproc.py']\n"
        "import inproc, bsl, bsl.lab, bsl.eigen, bsl.sturm, bsl.algebra, bsl.diagrams\n"
        "t = inproc.Tracer(); assert t.install() == []\n"
        "for f in (bsl.lab.eigenpairs, bsl.lab.assemble, bsl.eigenpairs, bsl.assemble,\n"
        "          bsl.diagrams.quat_mul, bsl.algebra.quat_mul):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
        "assert bsl.lab.eigenpairs is bsl.eigen.eigenpairs is bsl.eigenpairs\n"
        "assert bsl.lab.assemble is bsl.sturm.assemble\n"
        "d = bsl.diagrams.catalog('hopf')\n"
        "assert hasattr(d.proj_star, '__wrapped__')\n"
        "assert hasattr(bsl.diagrams.swap(d).proj_star, '__wrapped__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_pass_covers_declared_layers(workload):
    tally = run.Tally()
    doc = run.inproc_pass(workload, 1, time.monotonic() + 170, tally)
    assert tally.check_errors == []
    # declared layers all called, import plus layer self times account
    # for the pass, no alias left unwrapped
    assert run.trace_checks(workload, [doc]) == []
    metrics = run.per_layer_metrics([doc])
    assert set(metrics) == metric_names("per_layer")
    assert 0 < metrics["trace.overhead_s"]["value"] < doc["pass_s"]


def test_end_to_end_metrics_match_the_spec():
    tally = run.Tally()
    tally.attempted = 3
    metrics = run.end_to_end_metrics([{"pass_s": 1.0, "peak_rss_mb": 80.0}], [0.9], tally)
    assert set(metrics) == metric_names("end_to_end")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_a_wrong_spectrum():
    job = ("cli", ["spectrum", "--diagram", "hopf", "--grid", "1024", "--modes", "2"])
    good = {"command": "spectrum", "result": {"modes": [
        {"lambda": 8.0 + 1e-9, "mult": 1, "err": 1e-6},
        {"lambda": 24.0 + 1e-8, "mult": 1, "err": 1e-6}]}}
    relerrs, outside_bar = jobs.check(job, json.dumps(good))
    assert max(relerrs) < 1e-9 and outside_bar == 0
    bad = json.loads(json.dumps(good))
    bad["result"]["modes"][1]["lambda"] = 24.001
    with pytest.raises(AssertionError):
        jobs.check(job, json.dumps(bad))


def test_an_optimistic_error_bar_is_counted_not_failed():
    job = ("cli", ["spectrum", "--diagram", "hopf", "--grid", "1024", "--modes", "1"])
    out = {"command": "spectrum", "result": {"modes": [
        {"lambda": 8.0 + 1e-9, "mult": 1, "err": 1e-12}]}}
    relerrs, outside_bar = jobs.check(job, json.dumps(out))
    assert relerrs[0] < 1e-6 and outside_bar == 1
