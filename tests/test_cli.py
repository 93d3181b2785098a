"""Command-line envelope, exit codes, and output files."""

import dataclasses
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsl.__main__ as bsl_main
import bsl.cli as cli
import bsl.diagrams as diagrams
import bsl.eigen as eigen
from bsl import __version__
from bsl.cli import main


def run_json(tmp_path, name, argv):
    out = os.path.join(tmp_path, name)
    rc = main(argv + ["--out", out])
    doc = json.loads(Path(out).read_text())
    return rc, doc, out


def test_catalog_text(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for eid in ("trivial-s2", "hopf", "gm"):
        assert eid in out
    assert "[spectra unsupported]" in out
    gm_line = [ln for ln in out.splitlines() if ln.startswith("gm")][0]
    assert "cohomogeneity_one=false" in gm_line


def test_catalog_json(tmp_path):
    rc, doc, _ = run_json(tmp_path, "cat.json", ["catalog", "--format", "json"])
    assert rc == 0
    assert doc["schema"] == 2 and doc["tool"] == "bsl"
    assert doc["version"] == __version__
    assert doc["command"] == "catalog"
    assert [row["id"] for row in doc["result"]] == ["trivial-s2", "hopf", "gm"]
    assert doc["result"][2]["spectra_supported"] is False


def test_spectrum_envelope(tmp_path):
    rc, doc, _ = run_json(tmp_path, "spectrum.json",
                          ["spectrum", "--diagram", "trivial-s2", "--side", "M",
                           "--grid", "128", "--modes", "2"])
    assert rc == 0
    cfg = doc["config"]
    assert cfg["diagram"] == "trivial-s2" and cfg["side"] == "M"
    assert cfg["grid"] == 128 and cfg["modes"] == 2
    modes = doc["result"]["modes"]
    assert len(modes) == 2
    assert abs(modes[0]["lambda"] - 2.0) <= 1e-4
    assert abs(modes[1]["lambda"] - 6.0) <= 1e-4
    assert modes[0]["err"] >= 0.0


def test_spectrum_csv(tmp_path):
    out = os.path.join(tmp_path, "spectrum.csv")
    rc = main(["spectrum", "--diagram", "hopf", "--grid", "128", "--modes", "3",
               "--format", "csv", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "index,lambda,mult,err"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and abs(float(first[1]) - 8.0) <= 1e-4


def test_spectrum_include_zero(tmp_path):
    rc, doc, _ = run_json(tmp_path, "z.json",
                          ["spectrum", "--diagram", "hopf", "--grid", "128",
                           "--modes", "1", "--include-zero"])
    assert rc == 0
    modes = doc["result"]["modes"]
    assert modes[0] == {"lambda": 0.0, "mult": 1, "err": 0.0}
    assert len(modes) == 2


def test_spectrum_profile_dump(tmp_path):
    prof = os.path.join(tmp_path, "prof.csv")
    rc, doc, _ = run_json(tmp_path, "s.json",
                          ["spectrum", "--diagram", "hopf", "--grid", "128",
                           "--modes", "1", "--dump-profile", prof])
    assert rc == 0
    assert Path(prof).read_text().startswith("t,w,h\n")
    meta = json.loads(Path(prof[:-4] + ".json").read_text())
    assert meta["side"] == "M" and meta["n"] == 128


def test_profile_dump_builds_each_grid_once(tmp_path, monkeypatch):
    # a Richardson pair builds its grid-n profile only; n/2 is its even nodes
    built = []
    orig = cli.geometry.orbit_profile

    def counting(m, side, n, *rest):
        built.append((side, n))
        return orig(m, side, n, *rest)

    monkeypatch.setattr(cli.geometry, "orbit_profile", counting)
    prof = os.path.join(tmp_path, "prof.csv")
    for argv, builds in [
            (["spectrum", "--diagram", "hopf", "--side", "P", "--grid", "128",
              "--modes", "2", "--dump-profile", prof], [("P", 128)]),
            (["compare", "--diagram", "hopf", "--grid", "128", "--modes", "2"],
             [("M", 128), ("Mprime", 128)]),
            # the unwarped base, the scale-0 control and the 0.5 row
            (["warp", "--diagram", "hopf", "--grid", "128", "--scales", "0.5"],
             [("Mprime", 128)] * 3)]:
        built.clear()
        rc, _, _ = run_json(tmp_path, "out.json", argv)
        assert rc == 0
        assert sorted(built) == builds, argv[0]
    # the dump is the profile the solve used, as a fresh build writes it
    m = cli.geometry.kaluza_klein("hopf")
    assert Path(prof).read_text() == cli._profile_csv_text(orig(m, "P", 128))


def test_unsupported_diagram_exits_2(capsys):
    assert main(["spectrum", "--diagram", "gm", "--grid", "128"]) == 2


def test_bad_arguments_exit_2(capsys):
    assert main(["spectrum", "--diagram", "hopf", "--grid", "100"]) == 2
    assert main(["spectrum", "--diagram", "hopf", "--grid", "32"]) == 2
    assert main(["spectrum", "--diagram", "hopf", "--modes", "65"]) == 2
    assert main(["spectrum", "--diagram", "unknown"]) == 2
    assert main(["spectrum"]) == 2
    assert main([]) == 2
    assert main(["spectrum", "--diagram", "hopf", "--grid", "131072"]) == 2
    assert main(["verify", "--diagram", "gm", "--samples", "0"]) == 2
    assert main(["verify", "--diagram", "gm", "--samples", "-5"]) == 2
    assert main(["verify", "--diagram", "gm", "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    for tol in ("-1", "nan", "inf"):
        assert main(["compare", "--diagram", "hopf", "--grid", "64",
                     "--tolerance", tol]) == 2
    for scales in ("-1", "nan", "inf", "0.5,nan"):
        assert main(["warp", "--diagram", "hopf", "--grid", "64",
                     "--scales", scales]) == 2
        assert "finite and nonnegative" in capsys.readouterr().err
    # warp solves only the first mode, so it takes no --modes
    assert main(["warp", "--diagram", "hopf", "--modes", "3"]) == 2
    # verify writes only JSON, so it takes no --format
    assert main(["verify", "--diagram", "gm", "--format", "json"]) == 2
    # only verify draws random numbers, so only verify takes --seed
    for argv in (["spectrum", "--diagram", "hopf"], ["compare", "--diagram", "hopf"],
                 ["warp", "--diagram", "hopf"], ["catalog"]):
        assert main(argv + ["--seed", "1"]) == 2, argv
    # plotdata is removed, and its exit code 5 with it
    capsys.readouterr()
    assert main(["plotdata", "x.json"]) == 2
    assert "invalid choice: 'plotdata'" in capsys.readouterr().err


def exit_code_argvs(tmp_path):
    """One argv per documented exit code, each reached through real input,
    with no patched internals."""
    out = str(tmp_path / "report.json")
    return {
        0: ["catalog", "--out", out],
        2: ["spectrum", "--diagram", "gm", "--grid", "64"],
        # the warp scale overflows the fiber length, and a Mprime weight
        # to NaN, on the n/2 grid
        3: ["warp", "--diagram", "hopf", "--grid", "64", "--scales", "1e5"],
        4: ["compare", "--diagram", "hopf", "--grid", "64", "--modes", "1",
            "--expect", "nonisospectral", "--out", out],
    }


def last_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def test_readme_exit_code_table(tmp_path, capsys):
    # one argv per code that the README's exit-code paragraph documents
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = text[text.index("Exit codes:"):].split("\n\n", 1)[0]
    documented = sorted(int(c) for c in re.findall(r"`(\d)`", para))
    argvs = exit_code_argvs(tmp_path)
    assert documented == sorted(argvs)
    for code, argv in argvs.items():
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        if code == 3:
            assert ("warp scale 100000.0 takes the fiber term exp(2 c u) B0 "
                    "out of the double range: 2c*max|u| = 21600.6, while "
                    "doubles span e^-744.44 to e^709.78") in err
            assert "weight must be positive" in err and "side Mprime, n=32" in err


def test_process_entry_keeps_every_exit_code(tmp_path, capsys):
    # `python -m bsl` freezes the heap before it exits; the code and the
    # last stderr line stay those of the in-process call
    for code, argv in exit_code_argvs(tmp_path).items():
        assert main(argv) == code, argv
        expected = last_line(capsys.readouterr().err)
        proc = subprocess.run([sys.executable, "-m", "bsl", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, argv
        assert last_line(proc.stderr) == expected, argv


def test_main_never_freezes_the_heap():
    # callers run many commands in one process; a freeze there would keep
    # their cyclic garbage alive for good
    frozen = gc.get_freeze_count()
    for code, argv in [
            (0, ["spectrum", "--diagram", "hopf", "--grid", "64", "--modes", "1"]),
            (2, ["spectrum", "--diagram", "hopf", "--grid", "100"]),
            (3, ["warp", "--diagram", "hopf", "--grid", "64", "--scales", "1e4"])]:
        assert main(argv) == code, argv
        assert gc.get_freeze_count() == frozen, argv


def test_process_entry_freezes_the_heap_on_exit():
    code = ("import gc, sys; from bsl.__main__ import run; "
            "sys.argv = ['bsl', 'catalog']; rc = run(); "
            "print(rc, gc.get_freeze_count() > 0, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0
    assert "[spectra unsupported]" in proc.stdout
    assert proc.stderr.strip() == "0 True"


def test_script_entry_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["bsl"].partition(":")
    assert getattr(importlib.import_module(module), attr) is bsl_main.run


@pytest.mark.parametrize("eid", ["hopf", "trivial-s2"])
def test_overflowing_warp_scales_exit_3_without_warnings(eid, capsys):
    # with warnings raised as errors, a numpy overflow or invalid-value
    # warning would escape as exit 1.  At 3000 the fiber term stays finite
    # but spans so many decades that the weights no longer certify a mode
    assert main(["warp", "--diagram", eid, "--grid", "64",
                 "--scales", "3000"]) == 3
    err = capsys.readouterr().err
    assert ("relative pencil residual" in err
            and "exceeds 1e-09 at mode 1 (n=32, side Mprime)" in err)
    # beyond it the fiber term overflows to inf where the warp table is
    # positive (the weight is then inf / inf = NaN) and underflows to 0
    # where it is negative (the weight is then 0); node 1 is on the
    # positive side for hopf and on the negative one for trivial-s2.  The
    # message names the cause: the scale, and 2c max|u| (max|u| = 0.108)
    # against the double range
    value = {"hopf": "nan", "trivial-s2": "0.0"}[eid]
    for scale, exponent in (("1e4", "2160.06"), ("1e5", "21600.6"),
                            ("1e300", "2.16006e+299")):
        assert main(["warp", "--diagram", eid, "--grid", "64",
                     "--scales", scale]) == 3, scale
        err = capsys.readouterr().err
        assert (f"bsl: warp scale {float(scale)!r} takes the fiber term "
                f"exp(2 c u) B0 out of the double range: 2c*max|u| = "
                f"{exponent}, while doubles span e^-744.44 to e^709.78; "
                f"weight must be positive") in err, scale
        assert f"side Mprime, n=32, node 1 has w={value}" in err, scale


@pytest.mark.parametrize("eid", ["hopf", "trivial-s2"])
def test_strong_finite_warps_solve(eid, capsys):
    # the star-quotient weight is formed without a cancelling difference,
    # so a warp whose fiber term stays finite leaves it positive
    assert main(["warp", "--diagram", eid, "--grid", "64",
                 "--scales", "200,1000"]) == 0
    assert capsys.readouterr().err == ""


def test_missing_output_directory_exits_2_before_any_work(tmp_path, capsys,
                                                        monkeypatch):
    # rejected while parsing, so no command starts its work
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("cmd_catalog", "cmd_spectrum", "cmd_verify"):
        monkeypatch.setattr(cli, name, no_work)
    bad = os.path.join(tmp_path, "no-such-dir", "x")
    for argv in (["catalog", "--out", bad],
                 ["spectrum", "--diagram", "hopf", "--out", bad],
                 ["spectrum", "--diagram", "hopf", "--dump-profile", bad]):
        assert main(argv) == 2, argv
        assert "does not exist" in capsys.readouterr().err
    # an existing directory in place of the output file, or of the
    # sidecar that a profile dump writes next to its CSV
    here = str(tmp_path)
    os.mkdir(os.path.join(here, "x.json"))
    for argv in (["spectrum", "--diagram", "hopf", "--grid", "64", "--out", here],
                 ["spectrum", "--diagram", "hopf", "--dump-profile", here],
                 ["catalog", "--out", here],
                 ["verify", "--diagram", "gm", "--out", here + os.sep],
                 ["spectrum", "--diagram", "hopf", "--grid", "64",
                  "--dump-profile", os.path.join(here, "x.csv")]):
        assert main(argv) == 2, argv
        assert "is a directory" in capsys.readouterr().err
    # a trailing separator names a directory even where none exists yet
    newdir = os.path.join(here, "newdir") + os.sep
    assert main(["catalog", "--out", newdir]) == 2
    assert f"{newdir!r} names a directory, not a file" in capsys.readouterr().err
    # an empty path would otherwise fall through to stdout
    assert main(["catalog", "--out", ""]) == 2
    assert "output path is empty" in capsys.readouterr().err
    assert sorted(os.listdir(here)) == ["x.json"]


def test_out_may_not_overwrite_the_profile_dump(tmp_path, capsys, monkeypatch):
    def no_profile(*args, **kwargs):
        raise AssertionError("the profile was built")

    monkeypatch.setattr(cli.geometry, "orbit_profile", no_profile)
    monkeypatch.chdir(tmp_path)
    for dump, out in (("y.csv", "y.json"), ("y.csv", "y.csv"),
                      ("y.csv", os.path.join(tmp_path, "y.json")),
                      ("prof", "prof.json")):
        assert main(["spectrum", "--diagram", "hopf", "--grid", "64",
                     "--modes", "1", "--dump-profile", dump, "--out", out]) == 2
        assert (f"bsl: --out {out!r} is a file that --dump-profile writes"
                in capsys.readouterr().err)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_files_follow_the_umask(tmp_path, umask):
    # every output is created as open() would create it
    out = os.path.join(tmp_path, "s.json")
    prof = os.path.join(tmp_path, "p.csv")
    old = os.umask(umask)
    try:
        assert main(["spectrum", "--diagram", "hopf", "--grid", "64",
                     "--modes", "1", "--dump-profile", prof, "--out", out]) == 0
    finally:
        os.umask(old)
    for path in (out, prof, os.path.join(tmp_path, "p.json")):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path
    assert sorted(os.listdir(tmp_path)) == ["p.csv", "p.json", "s.json"]


def test_modes_beyond_the_coarse_grid_exit_2(capsys):
    # the n/2 grid of the Richardson pair holds n/2 - 3 nonzero modes
    assert main(["spectrum", "--diagram", "hopf", "--grid", "64",
                 "--modes", "64"]) == 2
    assert "holds at most 29" in capsys.readouterr().err


def test_solver_failure_exits_3_with_numbers(capsys, monkeypatch):
    monkeypatch.setattr(eigen, "_BACKWARD_C", 0.0)
    assert main(["spectrum", "--diagram", "hopf", "--grid", "64"]) == 3
    err = capsys.readouterr().err
    assert "backward error" in err and "mode 1 (n=32, side M)" in err


@pytest.mark.parametrize("side", ["M", "Mprime"])
def test_sixty_four_modes_at_1024_are_certified(side, capsys):
    # the pencil residual of mode 64 sits within 5% of its 1e-9 bound
    # here, so a change in the profiles can turn this job into exit 3
    assert main(["spectrum", "--diagram", "hopf", "--side", side,
                 "--grid", "1024", "--modes", "64"]) == 0
    modes = json.loads(capsys.readouterr().out)["result"]["modes"]
    assert sum(mode["mult"] for mode in modes) == 64


@pytest.mark.parametrize("grid", [2048, 8192, 65536])
def test_fine_grids_are_certified(tmp_path, grid):
    for diagram, scale in (("hopf", 4.0), ("trivial-s2", 1.0)):
        rc, doc, _ = run_json(tmp_path, f"{diagram}.json",
                              ["spectrum", "--diagram", diagram, "--side", "M",
                               "--grid", str(grid), "--modes", "5"])
        assert rc == 0
        lams = [m["lambda"] for m in doc["result"]["modes"]]
        exact = [scale * l * (l + 1) for l in range(1, 6)]
        assert len(lams) == 5
        for lam, ref in zip(lams, exact):
            assert abs(lam - ref) <= 1e-6 * ref, (diagram, grid, lam)


def test_launch_imports_no_scipy():
    # scipy is loaded only by a solve or a warp, not by every launch
    code = ("import sys, bsl, bsl.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_compare_verdict_and_expectations(tmp_path):
    rc, doc, _ = run_json(tmp_path, "cmp.json",
                          ["compare", "--diagram", "hopf", "--grid", "128",
                           "--modes", "2", "--expect", "isospectral"])
    assert rc == 0
    assert doc["result"]["isospectral"] is True
    assert doc["result"]["max_relgap"] <= 1e-8
    # a failed expectation still writes the report, then exits 4
    out = os.path.join(tmp_path, "cmp2.json")
    rc = main(["compare", "--diagram", "hopf", "--grid", "128", "--modes", "2",
               "--expect", "nonisospectral", "--out", out])
    assert rc == 4
    assert json.loads(Path(out).read_text())["result"]["isospectral"] is True


def test_compare_tolerance_override(tmp_path):
    rc, doc, _ = run_json(tmp_path, "tol.json",
                          ["compare", "--diagram", "hopf", "--grid", "128",
                           "--modes", "1", "--tolerance", "1e-15"])
    assert rc == 0
    assert doc["result"]["tolerance"] == 1e-15
    assert doc["result"]["isospectral"] is False


def test_warp_command(tmp_path):
    rc, doc, _ = run_json(tmp_path, "warp.json",
                          ["warp", "--diagram", "hopf", "--grid", "256",
                           "--scales", "2.0", "--expect", "nonisospectral"])
    assert rc == 0
    rows = doc["result"]["reports"]
    assert [r["scale"] for r in rows] == [0.0, 2.0]
    assert rows[0]["broke_isospectrality"] is False
    assert rows[0]["lambda1_warped"] == rows[0]["lambda1_unwarped"]
    assert rows[1]["broke_isospectrality"] is True
    assert set(rows[1]) == {
        "broke_isospectrality", "entry_id", "err_unwarped", "err_warped",
        "fingerprint", "lambda1_unwarped", "lambda1_warped", "n", "scale",
        "star_volume_range"}
    assert doc["result"]["any_broke"] is True
    # the opposite expectation exits 4
    out = os.path.join(tmp_path, "warp2.json")
    rc = main(["warp", "--diagram", "hopf", "--grid", "256", "--scales", "2.0",
               "--expect", "isospectral", "--out", out])
    assert rc == 4


def test_warp_csv(tmp_path):
    out = os.path.join(tmp_path, "warp.csv")
    rc = main(["warp", "--diagram", "trivial-s2", "--grid", "128",
               "--scales", "0.5", "--format", "csv", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "scale,lambda1_unwarped,lambda1_warped,broke"
    assert len(lines) == 3


def test_verify_config_records_only_its_own_options(tmp_path):
    # verify takes no --format, so its config has no format key
    rc, doc, out = run_json(tmp_path, "verify.json",
                            ["verify", "--diagram", "gm", "--samples", "10",
                             "--seed", "7"])
    assert rc == 0
    assert doc["config"] == {"diagram": "gm", "out": out, "samples": 10, "seed": 7}


def test_verify_payload(tmp_path):
    rc, doc, _ = run_json(tmp_path, "verify.json",
                          ["verify", "--diagram", "gm", "--samples", "100",
                           "--seed", "7"])
    assert rc == 0
    res = doc["result"]
    assert res["commute_residual"] <= 1e-12
    assert res["membership"]["bullet"] <= 1e-12
    assert res["membership"]["star"] <= 1e-12
    assert res["freeness"]["bullet_only_identity"] is True
    assert res["freeness"]["star_only_identity"] is True
    assert res["isotropy"]["all_equal"] is True
    assert isinstance(res["orbit_normalization"], str)


@pytest.mark.parametrize("eid", ["gm", "hopf"])
def test_an_action_that_ignores_g_is_not_free(tmp_path, monkeypatch, eid):
    # its distance has no net axis at all; the probe must still count
    # every net element, not one container
    still = dataclasses.replace(diagrams.catalog(eid), bullet_action=lambda g, p: p)
    net = diagrams.group_net(still.group, 8)
    size = net.w.size if eid == "gm" else net.size
    p = still.random_point(np.random.default_rng(0))
    mask = diagrams.isotropy_probe(still, "bullet", p, grid=8)
    assert mask.shape == (size,) and mask.all()
    monkeypatch.setattr(diagrams, "catalog", lambda _id: still)
    rc, doc, _ = run_json(tmp_path, "v.json",
                          ["verify", "--diagram", eid, "--samples", "5"])
    assert rc == 0
    assert doc["result"]["freeness"]["bullet_only_identity"] is False
    assert doc["result"]["freeness"]["star_only_identity"] is True


def test_outputs_are_deterministic(tmp_path):
    argv = ["spectrum", "--diagram", "trivial-s2", "--grid", "128",
            "--modes", "2", "--out", os.path.join(tmp_path, "det.json")]
    assert main(list(argv)) == 0
    first = Path(argv[-1]).read_bytes()
    assert main(list(argv)) == 0
    assert Path(argv[-1]).read_bytes() == first
