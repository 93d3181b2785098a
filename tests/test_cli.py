"""Command-line envelope, exit codes, and report post-processing."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

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
    assert doc["schema"] == 1 and doc["tool"] == "bsl"
    assert doc["version"] == __version__
    assert doc["command"] == "catalog"
    assert [row["id"] for row in doc["result"]] == ["trivial-s2", "hopf", "gm"]
    assert doc["result"][2]["spectra_supported"] is False


def test_spectrum_envelope(tmp_path):
    rc, doc, _ = run_json(tmp_path, "spectrum.json",
                          ["spectrum", "--diagram", "trivial-s2", "--side", "M",
                           "--grid", "128", "--modes", "2", "--seed", "3"])
    assert rc == 0
    cfg = doc["config"]
    assert cfg["diagram"] == "trivial-s2" and cfg["side"] == "M"
    assert cfg["grid"] == 128 and cfg["modes"] == 2 and cfg["seed"] == 3
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
    built = []
    orig = cli.geometry.orbit_profile

    def counting(m, side, n, *rest):
        built.append((side, n))
        return orig(m, side, n, *rest)

    monkeypatch.setattr(cli.geometry, "orbit_profile", counting)
    prof = os.path.join(tmp_path, "prof.csv")
    rc, _, _ = run_json(tmp_path, "s.json",
                        ["spectrum", "--diagram", "hopf", "--side", "P",
                         "--grid", "128", "--modes", "2", "--dump-profile", prof])
    assert rc == 0
    assert sorted(built) == [("P", 64), ("P", 128)]
    # the dump is the profile the solve used, as a fresh build writes it
    m = cli.geometry.kaluza_klein("hopf")
    assert Path(prof).read_text() == cli.geometry.profile_csv_text(orig(m, "P", 128))


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
    for tol in ("-1", "nan", "inf"):
        assert main(["compare", "--diagram", "hopf", "--grid", "64",
                     "--tolerance", tol]) == 2


def test_missing_output_directory_exits_2_before_any_work(tmp_path, capsys,
                                                        monkeypatch):
    # rejected while parsing, so no command starts its work
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("cmd_catalog", "cmd_spectrum", "cmd_plotdata"):
        monkeypatch.setattr(cli, name, no_work)
    bad = os.path.join(tmp_path, "no-such-dir", "x")
    for argv in (["catalog", "--out", bad],
                 ["spectrum", "--diagram", "hopf", "--out", bad],
                 ["spectrum", "--diagram", "hopf", "--dump-profile", bad],
                 ["plotdata", os.path.join(tmp_path, "in.json"), "--svg", bad]):
        assert main(argv) == 2, argv
        assert "does not exist" in capsys.readouterr().err


def test_modes_beyond_the_coarse_grid_exit_2(capsys):
    # the n/2 grid of the Richardson pair holds n/2 - 3 nonzero modes
    assert main(["spectrum", "--diagram", "hopf", "--grid", "64",
                 "--modes", "64"]) == 2
    assert "holds at most 29" in capsys.readouterr().err
    assert main(["warp", "--diagram", "hopf", "--grid", "64", "--modes", "30",
                 "--scales", "1"]) == 2


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
    assert rows[1]["rhs"] == "undefined"
    assert rows[1]["audit"]["consistent"] == "undefined"
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
    assert lines[0] == "scale,lambda1_unwarped,lambda1_warped,lhs,rhs,broke"
    assert len(lines) == 3


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
    size = net.data.w.size if eid == "gm" else net.data.size
    p = still.random_point(np.random.default_rng(0))
    mask = diagrams.isotropy_probe(still, "bullet", p, grid=8)
    assert mask.shape == (size,) and mask.all()
    monkeypatch.setattr(diagrams, "catalog", lambda _id: still)
    rc, doc, _ = run_json(tmp_path, "v.json",
                          ["verify", "--diagram", eid, "--samples", "5"])
    assert rc == 0
    assert doc["result"]["freeness"]["bullet_only_identity"] is False
    assert doc["result"]["freeness"]["star_only_identity"] is True


def test_plotdata_from_reports(tmp_path):
    _, _, spec = run_json(tmp_path, "s.json",
                          ["spectrum", "--diagram", "hopf", "--grid", "128",
                           "--modes", "3"])
    out = os.path.join(tmp_path, "s.plot.csv")
    svg = os.path.join(tmp_path, "s.svg")
    assert main(["plotdata", spec, "--out", out, "--svg", svg]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "index,lambda" and len(lines) == 4
    root = ET.fromstring(Path(svg).read_text())
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root)

    _, _, cmp_path = run_json(tmp_path, "c.json",
                              ["compare", "--diagram", "hopf", "--grid", "128",
                               "--modes", "2"])
    out2 = os.path.join(tmp_path, "c.plot.csv")
    assert main(["plotdata", cmp_path, "--out", out2]) == 0
    assert Path(out2).read_text().startswith("index,relgap\n")

    _, _, warp_path = run_json(tmp_path, "w.json",
                               ["warp", "--diagram", "trivial-s2",
                                "--grid", "128", "--scales", "0.5"])
    out3 = os.path.join(tmp_path, "w.plot.csv")
    assert main(["plotdata", warp_path, "--out", out3]) == 0
    assert Path(out3).read_text().startswith("scale,lambda1_warped\n")


def test_plotdata_from_profile_csv(tmp_path):
    prof = os.path.join(tmp_path, "p.csv")
    main(["spectrum", "--diagram", "hopf", "--grid", "128", "--modes", "1",
          "--dump-profile", prof, "--out", os.path.join(tmp_path, "x.json")])
    out = os.path.join(tmp_path, "p.plot.csv")
    assert main(["plotdata", prof, "--out", out]) == 0
    assert Path(out).read_text().startswith("t,w\n")


def test_plotdata_rejects_malformed_input(tmp_path, capsys):
    bad = os.path.join(tmp_path, "bad.json")
    Path(bad).write_text("{not json")
    assert main(["plotdata", bad]) == 5
    missing = os.path.join(tmp_path, "nope.json")
    assert main(["plotdata", missing]) == 5
    badcsv = os.path.join(tmp_path, "bad.csv")
    Path(badcsv).write_text("a,b\n1,2\n")
    assert main(["plotdata", badcsv]) == 5
    # verify reports hold no series
    _, _, vpath = run_json(tmp_path, "v.json",
                           ["verify", "--diagram", "hopf", "--samples", "10"])
    assert main(["plotdata", vpath]) == 5
    # a row with one field, an empty series, a value that is not finite:
    # each is refused with a message before any output is written
    svg = os.path.join(tmp_path, "never.svg")
    for name, text in [
            ("one_field.csv", "t,w,h\n0.0,1.0,0.0\n0.5\n"),
            ("empty.json", '{"command": "spectrum", "result": {"modes": []}}'),
            ("inf.json", '{"command": "compare", "result": {"relgaps": [1e400]}}')]:
        path = os.path.join(tmp_path, name)
        Path(path).write_text(text)
        capsys.readouterr()
        assert main(["plotdata", path, "--svg", svg]) == 5, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert "malformed plotdata input" in captured.err, name
        assert not os.path.exists(svg), name


def test_outputs_are_deterministic(tmp_path):
    argv = ["spectrum", "--diagram", "trivial-s2", "--grid", "128",
            "--modes", "2", "--out", os.path.join(tmp_path, "det.json")]
    assert main(list(argv)) == 0
    first = Path(argv[-1]).read_bytes()
    assert main(list(argv)) == 0
    assert Path(argv[-1]).read_bytes() == first
