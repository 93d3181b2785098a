"""Batch command-line front end.

Subcommands: catalog, spectrum, compare, warp, verify, plotdata.  Every
JSON output is a versioned envelope {schema, tool, version, command,
config, result} written atomically, so identical configurations produce
byte-identical files; only verify draws random numbers, and its config
records the seed.  Exit codes:
0 success, 2 usage or unsupported diagram, 3 solver failure or a profile
weight that is not positive and finite (a warp scale at which the fiber
length overflows or underflows makes one), 4 failed --expect assertion,
5 malformed plotdata input.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, diagrams, geometry, lab
from .eigen import ConvergenceFailure, TooManyModes
from .geometry import NotCohomogeneityOne, _atomic_write_text
from .sturm import NonpositiveWeight

_GRID_MAX = 65536


def _grid_type(s: str) -> int:
    n = int(s)
    if n < 64 or n > _GRID_MAX or n & (n - 1) != 0:
        raise argparse.ArgumentTypeError(
            f"grid must be a power of two from 64 to {_GRID_MAX}")
    return n


def _modes_type(s: str) -> int:
    k = int(s)
    if not 1 <= k <= 64:
        raise argparse.ArgumentTypeError("modes must be between 1 and 64")
    return k


def _samples_type(s: str) -> int:
    k = int(s)
    if k < 1:
        raise argparse.ArgumentTypeError("samples must be at least 1")
    return k


def _seed_type(s: str) -> int:
    seed = int(s)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be an integer >= 0")
    return seed


def _tolerance_type(s: str) -> float:
    tol = float(s)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError("tolerance must be finite and >= 0")
    return tol


def _side_type(s: str) -> str:
    try:
        return geometry.normalize_side(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _scales_type(s: str):
    try:
        vals = tuple(float(tok) for tok in s.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("scales must be comma-separated numbers")
    if not vals:
        raise argparse.ArgumentTypeError("empty scale list")
    if not all(math.isfinite(v) and v >= 0.0 for v in vals):
        raise argparse.ArgumentTypeError("scales must be finite and nonnegative")
    return vals


def _out_path(s: str) -> str:
    # checked before any work: a missing directory, or a directory in
    # place of the file, would otherwise fail only at the final write,
    # after the whole solve
    parent = os.path.dirname(os.path.abspath(s))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent!r} does not exist")
    if os.path.isdir(s):
        raise argparse.ArgumentTypeError(f"{s!r} is a directory, not a file")
    return s


def _emit(args, command: str, config: dict, result, csv_text=None) -> int:
    if getattr(args, "format", "json") == "csv" and csv_text is not None:
        payload = csv_text
    else:
        doc = {"schema": 2, "tool": "bsl", "version": __version__,
               "command": command, "config": config, "result": result}
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write(getattr(args, "out", None), payload)
    return 0


def _write(out, text: str):
    if out:
        _atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _base_config(args, **extra) -> dict:
    # format is recorded only for commands that take --format
    cfg = {"out": args.out}
    if hasattr(args, "format"):
        cfg["format"] = args.format
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args) -> int:
    rows = [{"id": e.id, "description": e.description, "group": e.group,
             "cohomogeneity_one": e.cohomogeneity_one,
             "spectra_supported": e.cohomogeneity_one}
            for e in diagrams.catalog_entries()]
    if args.format == "json":
        return _emit(args, "catalog", _base_config(args), rows)
    lines = []
    for r in rows:
        note = "" if r["spectra_supported"] else "  [spectra unsupported]"
        lines.append(f"{r['id']:<12} group={r['group']:<4} "
                     f"cohomogeneity_one={str(r['cohomogeneity_one']).lower()}"
                     f"  {r['description']}{note}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _spectrum_result(spec, include_zero: bool) -> dict:
    modes = list(zip(spec.lambdas.tolist(), spec.errors.tolist()))
    if include_zero:
        # exact for constants, so prepended with value and error 0
        modes.insert(0, (0.0, 0.0))
    return {"side": spec.side, "n": spec.n, "fingerprint": spec.fingerprint,
            # modes are simple; "mult" stays, always 1, for schema stability
            "modes": [{"lambda": lam, "mult": 1, "err": err}
                      for lam, err in modes]}


def cmd_spectrum(args) -> int:
    m = geometry.kaluza_klein(args.diagram)
    # one grid-n profile serves the solve and the dump
    prof = geometry.orbit_profile(m, args.side, args.grid)
    spec, _, _ = lab._richardson(prof, args.modes)
    if args.dump_profile:
        geometry.write_profile(prof, m, args.dump_profile)
    cfg = _base_config(args, diagram=args.diagram, side=args.side,
                       grid=args.grid, modes=args.modes,
                       include_zero=args.include_zero)
    result = _spectrum_result(spec, args.include_zero)
    lines = ["index,lambda,mult,err"]
    for i, mode in enumerate(result["modes"], 1):
        lines.append(f"{i},{mode['lambda']!r},{mode['mult']},{mode['err']!r}")
    return _emit(args, "spectrum", cfg, result, csv_text="\n".join(lines) + "\n")


def cmd_compare(args) -> int:
    m = geometry.kaluza_klein(args.diagram)
    report = lab.compare_basic_spectra(args.diagram, m, args.modes, args.grid)
    if args.tolerance is not None:
        from dataclasses import replace
        report = replace(report, tolerance=float(args.tolerance),
                         isospectral=bool(report.max_relgap <= args.tolerance))
    cfg = _base_config(args, diagram=args.diagram, grid=args.grid,
                       modes=args.modes, expect=args.expect,
                       tolerance=args.tolerance)
    rc = _emit(args, "compare", cfg, asdict(report),
               csv_text=lab.compare_csv_text(report))
    if args.expect == "isospectral" and not report.isospectral:
        print("bsl: expected isospectral, verdict says otherwise", file=sys.stderr)
        return 4
    if args.expect == "nonisospectral" and report.isospectral:
        print("bsl: expected nonisospectral, verdict says otherwise", file=sys.stderr)
        return 4
    return rc


def cmd_warp(args) -> int:
    m = geometry.kaluza_klein(args.diagram)
    reports = lab.warp_break(args.diagram, m, scales=args.scales, n=args.grid)
    any_broke = any(r.broke_isospectrality for r in reports)
    result = {"reports": [asdict(r) for r in reports],
              "any_broke": any_broke}
    cfg = _base_config(args, diagram=args.diagram, grid=args.grid,
                       expect=args.expect,
                       scales=list(args.scales) if args.scales else None)
    lines = ["scale,lambda1_unwarped,lambda1_warped,broke"]
    for r in reports:
        lines.append(f"{r.scale!r},{r.lambda1_unwarped!r},{r.lambda1_warped!r},"
                     f"{r.broke_isospectrality}")
    rc = _emit(args, "warp", cfg, result, csv_text="\n".join(lines) + "\n")
    if args.expect == "nonisospectral" and not any_broke:
        print("bsl: expected a warp to break isospectrality; none did",
              file=sys.stderr)
        return 4
    if args.expect == "isospectral" and any_broke:
        print("bsl: expected isospectrality to survive; a warp broke it",
              file=sys.stderr)
        return 4
    return rc


def cmd_verify(args) -> int:
    d = diagrams.catalog(args.diagram)
    rng = np.random.default_rng(args.seed)
    commute = diagrams.check_commute(d, args.samples, rng)

    from .algebra import random_element
    memb_bullet = memb_star = 0.0
    for _ in range(args.samples):
        p = d.random_point(rng)
        g = random_element(d.group, rng)
        memb_bullet = max(memb_bullet, d.membership(d.bullet_action(g, p)))
        memb_star = max(memb_star, d.membership(d.star_action(g, p)))

    free_grid = 8
    free = {"bullet": True, "star": True}
    for _ in range(100):
        p = d.random_point(rng)
        for which in free:
            mask = diagrams.isotropy_probe(d, which, p, grid=free_grid)
            free[which] &= bool(np.count_nonzero(mask) == 1)

    pairs = []
    for _ in range(5):
        pairs.append(list(diagrams.isotropy_compare(d, d.random_point(rng))))
    result = {
        "commute_residual": commute,
        "membership": {"bullet": memb_bullet, "star": memb_star},
        "freeness": {"points": 100, "net_grid": free_grid,
                     "bullet_only_identity": free["bullet"],
                     "star_only_identity": free["star"]},
        "isotropy": {"pairs": pairs,
                     "all_equal": all(a == b for a, b in pairs)},
        "orbit_normalization": ("orbit volumes count the parameterisation "
                                "with multiplicity; ratios are unaffected"),
    }
    cfg = _base_config(args, diagram=args.diagram, samples=args.samples,
                       seed=args.seed)
    return _emit(args, "verify", cfg, result)


# ---------------------------------------------------------------------------
# plotdata


def _series_from_json(doc):
    cmd = doc.get("command")
    res = doc.get("result")
    if cmd == "spectrum":
        xs = list(range(1, len(res["modes"]) + 1))
        ys = [mode["lambda"] for mode in res["modes"]]
        return "index,lambda", xs, ys
    if cmd == "compare":
        xs = list(range(1, len(res["relgaps"]) + 1))
        ys = list(res["relgaps"])
        return "index,relgap", xs, ys
    if cmd == "warp":
        xs = [r["scale"] for r in res["reports"]]
        ys = [r["lambda1_warped"] for r in res["reports"]]
        return "scale,lambda1_warped", xs, ys
    raise ValueError(f"no plottable series in a {cmd!r} report")


def _series_from_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[:2] != ["t", "w"]:
        raise ValueError("profile CSV must start with a t,w header")
    xs, ys = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) < 2:
            raise ValueError(f"profile CSV row {ln!r} has no w field")
        xs.append(float(parts[0]))
        ys.append(float(parts[1]))
    return "t,w", xs, ys


def _check_plottable(xs, ys):
    # the SVG scales both axes to the data range, so every value and
    # both ranges must be finite numbers
    if not xs:
        raise ValueError("no data points to plot")
    for vals in (xs, ys):
        if not (all(math.isfinite(v) for v in vals)
                and math.isfinite(max(vals) - min(vals))):
            raise ValueError("plotted values and their ranges must be finite")


def _svg_text(header: str, xs, ys) -> str:
    W, H, pad = 640.0, 400.0, 50.0
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax <= xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax <= ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5

    def sx(x):
        return pad + (x - xmin) / (xmax - xmin) * (W - 2 * pad)

    def sy(y):
        return H - pad - (y - ymin) / (ymax - ymin) * (H - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    xl, yl = header.split(",", 1)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
        f'viewBox="0 0 {W:.0f} {H:.0f}">\n'
        f'  <rect x="0" y="0" width="{W:.0f}" height="{H:.0f}" fill="white"/>\n'
        f'  <line x1="{pad:.2f}" y1="{H - pad:.2f}" x2="{W - pad:.2f}" '
        f'y2="{H - pad:.2f}" stroke="black"/>\n'
        f'  <line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" '
        f'y2="{H - pad:.2f}" stroke="black"/>\n'
        f'  <polyline points="{pts}" fill="none" stroke="#1f5fa6" '
        f'stroke-width="1.5"/>\n'
        f'  <text x="{W / 2:.2f}" y="{H - 12:.2f}" text-anchor="middle" '
        f'font-size="13">{xl}</text>\n'
        f'  <text x="14" y="{H / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {H / 2:.2f})">{yl}</text>\n'
        f'</svg>\n')


def cmd_plotdata(args) -> int:
    try:
        with open(args.input, "r") as fh:
            raw = fh.read()
        if args.input.lower().endswith(".json"):
            header, xs, ys = _series_from_json(json.loads(raw))
        else:
            header, xs, ys = _series_from_csv(raw)
        _check_plottable(xs, ys)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        print(f"bsl: malformed plotdata input: {exc}", file=sys.stderr)
        return 5
    lines = [header]
    lines.extend(f"{x!r},{y!r}" for x, y in zip(xs, ys))
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _atomic_write_text(args.svg, _svg_text(header, xs, ys))
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bsl",
        description="Basic-spectrum laboratory for star-diagram quotients.")
    p.add_argument("--version", action="version", version=f"bsl {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, modes=True):
        sp.add_argument("--diagram", required=True, choices=diagrams.CATALOG_IDS)
        sp.add_argument("--grid", type=_grid_type, default=512)
        if modes:
            sp.add_argument("--modes", type=_modes_type, default=5)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", type=_out_path)

    sp = sub.add_parser("catalog", help="list the diagram catalog")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", type=_out_path)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("spectrum", help="basic spectrum of one side")
    common(sp)
    sp.add_argument("--side", type=_side_type, default="M")
    sp.add_argument("--include-zero", action="store_true")
    sp.add_argument("--dump-profile", metavar="CSV", type=_out_path)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("compare", help="compare the two quotient spectra")
    common(sp)
    sp.add_argument("--expect", choices=("isospectral", "nonisospectral"))
    sp.add_argument("--tolerance", type=_tolerance_type)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("warp", help="vertical warp-break schedule")
    common(sp, modes=False)
    sp.add_argument("--scales", type=_scales_type)
    sp.add_argument("--expect", choices=("isospectral", "nonisospectral"))
    sp.set_defaults(func=cmd_warp)

    sp = sub.add_parser("verify", help="exact checks of the diagram actions")
    sp.add_argument("--diagram", required=True, choices=diagrams.CATALOG_IDS)
    sp.add_argument("--samples", type=_samples_type, default=200)
    sp.add_argument("--seed", type=_seed_type, default=0)
    sp.add_argument("--out", type=_out_path)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plotdata", help="CSV/SVG series from a report")
    sp.add_argument("input", help="report JSON or profile CSV")
    sp.add_argument("--out", type=_out_path)
    sp.add_argument("--svg", type=_out_path)
    sp.set_defaults(func=cmd_plotdata)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (NotCohomogeneityOne, TooManyModes) as exc:
        print(f"bsl: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceFailure, NonpositiveWeight) as exc:
        print(f"bsl: {exc}", file=sys.stderr)
        return 3
    except LookupError as exc:
        print(f"bsl: {exc}", file=sys.stderr)
        return 2
