"""Run-to-run spread of the benchmark, and the seed check.

    python3 bench/spread.py --workload fine --runs 10

Runs bench/run.py once per seed (1, 2, ..., runs) for BENCHMARK.json's
run_seconds and prints, for every end-to-end metric, its median and the
distance between its first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
a third of the bound BENCHMARK.json fixes for it.  The seed check asks
that every seed gives the same job list (seeded values masked), the
same ok_frac and a pass_s within the pass_s bound of the median.  Exits
1 if a run fails, a check fails, or a spread reaches a third of its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import jobs as joblib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    seeds = range(1, args.runs + 1)
    shapes = {tuple(map(joblib.job_shape, joblib.jobs(args.workload, s))) for s in seeds}
    ok = len(shapes) == 1
    if not ok:
        print("seed check: job lists differ between seeds")
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return 1
        res = json.loads(lines[-1])
        detail = json.loads(lines[-2])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} passes={len(detail['passes'])} "
              f"setup_probes={len(detail['setup_s'])} "
              f"setup_s={res['metrics']['setup_s']['value']:.3f} "
              f"pass_s={res['metrics']['pass_s']['value']:.3f} "
              f"load={detail['env']['loadavg_before'][0]:.2f}->"
              f"{detail['env']['loadavg_after'][0]:.2f}", flush=True)
        ok &= res["correct"]
        results.append(res["metrics"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound/3':>8}")
    for name in results[0]:
        values = [r[name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else (float("inf") if q3 > q1 else 0.0)
        mark = "" if spread < bounds[name] / 3 else "  <-- too wide"
        ok &= not mark
        print(f"{name:34} {med:14.6g} {spread:11.4f} {bounds[name] / 3:8.4f}{mark}")
    ok_fracs = {r["ok_frac"]["value"] for r in results}
    pass_med = statistics.median(r["pass_s"]["value"] for r in results)
    far = [r["pass_s"]["value"] for r in results
           if abs(r["pass_s"]["value"] - pass_med) > bounds["pass_s"] * pass_med]
    print(f"seed check: ok_frac values {sorted(ok_fracs)}; "
          f"pass_s outside the bound of the median: {far}")
    ok &= len(ok_fracs) == 1 and not far
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
