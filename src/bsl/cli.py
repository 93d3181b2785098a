"""Batch command-line front end.

Subcommands: catalog, spectrum, compare, warp, verify.  Every JSON
output is a versioned envelope {schema, tool, version, command, config,
result}, so identical configurations produce byte-identical files; only
verify draws random numbers, and its config records the seed.  This
module owns every file bsl writes: it formats the JSON, CSV and text
outputs and the profile dump with its sidecar, and writes each one
atomically.  Exit codes:
0 success, 2 usage or unsupported diagram, 3 solver failure or a profile
weight that is not positive and finite (a warp scale at which the fiber
length overflows or underflows makes one), 4 failed --expect assertion.
Code 5 belonged to the removed plotdata command and is not reused.
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
from .geometry import NotCohomogeneityOne
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
    if not s:
        raise argparse.ArgumentTypeError("output path is empty")
    parent = os.path.dirname(os.path.abspath(s))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent!r} does not exist")
    if os.path.isdir(s):
        raise argparse.ArgumentTypeError(f"{s!r} is a directory, not a file")
    # abspath drops a trailing separator, so "new/" would write a file "new"
    if os.path.basename(s) in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"{s!r} names a directory, not a file")
    return s


def _sidecar_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return (root if ext.lower() == ".csv" else csv_path) + ".json"


def _dump_path(s: str) -> str:
    # the dump writes its CSV and a sidecar derived from it
    _out_path(s)
    _out_path(_sidecar_path(s))
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


def _atomic_write_text(path: str, text: str):
    # created with mode 0o666, so the kernel applies the umask as open()
    # would; mkstemp's 0o600 would survive the rename
    target = os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(target), f".bsl-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _profile_csv_text(p) -> str:
    h = geometry.mean_curvature(p)
    lines = ["t,w,h"]
    for ti, wi, hi in zip(p.t, p.w, h):
        lines.append(f"{float(ti)!r},{float(wi)!r},{float(hi)!r}")
    return "\n".join(lines) + "\n"


def _write_profile(p, m, csv_path: str):
    """Dump a profile as CSV plus a JSON sidecar."""
    _atomic_write_text(csv_path, _profile_csv_text(p))
    meta = {
        "entry": p.entry_id,
        "side": p.side,
        "n": p.n,
        "L": p.L,
        "endpoints": list(p.endpoints),
        "Q": m.fiber_scale,
        "warp_scale": m.warp_scale if m.warp_u is not None else 0.0,
    }
    _atomic_write_text(_sidecar_path(csv_path),
                       json.dumps(meta, sort_keys=True, indent=2) + "\n")


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
    if args.dump_profile and args.out and os.path.abspath(args.out) in (
            os.path.abspath(args.dump_profile),
            os.path.abspath(_sidecar_path(args.dump_profile))):
        print(f"bsl: --out {args.out!r} is a file that --dump-profile writes",
              file=sys.stderr)
        return 2
    m = geometry.kaluza_klein(args.diagram)
    # one grid-n profile serves the solve and the dump
    prof = geometry.orbit_profile(m, args.side, args.grid)
    spec, _, _ = lab._richardson(prof, args.modes)
    if args.dump_profile:
        _write_profile(prof, m, args.dump_profile)
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
    lines = ["index,lambda_M,lambda_Mprime,relgap"]
    for i, (a, b, g) in enumerate(zip(report.lambda_m, report.lambda_mprime,
                                      report.relgaps), 1):
        lines.append(f"{i},{a!r},{b!r},{g!r}")
    rc = _emit(args, "compare", cfg, asdict(report),
               csv_text="\n".join(lines) + "\n")
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
    sp.add_argument("--dump-profile", metavar="CSV", type=_dump_path)
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
