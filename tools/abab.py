"""Alternating parent/change benchmark runs and their summary.

    python3 tools/abab.py PARENT CHANGE --workload warmup-sourcefree \
        --seeds 41 42 43 44 45 [--seconds 15]

PARENT and CHANGE are two checkouts of the repository.  For each workload
and seed the tool runs ``perfbench/run.py --trace 0`` once in each
checkout, one benchmark process at a time, and alternates which side runs
first from one seed to the next.  It then prints, per workload and
end-to-end metric, each side's median [q1, q3], the change of the medians,
the number of pairs in which the change reads lower and a verdict: ``gain``
when the change reads better in at least 9/10 of the pairs and its median
beats the parent's by more than the parent's q3 - q1, ``beyond bound`` when
its median is worse than the parent's by more than the metric's ``bound``
in BENCHMARK.json, else ``within bound``.  It flags every
run whose ``failed`` count is above zero and every seed whose output
digests differ between the two sides.  ``QF_THREADS`` is passed through as
set (run.py uses one BLAS thread when it is unset).

The checkout's path alone moves some readings.  Two byte-identical
checkouts at different paths read ``predict_mask`` minima 2.2% apart
(0.998-1.013 ms against 1.019-1.037 ms over 6 runs each, in both orders);
on the warm-up's ``step_ms_min`` they were about 0.4% apart.  So run a
control beside a claim, ``abab.py PARENT PARENT_COPY`` with PARENT_COPY a
copy of the parent at another path, and treat a claim on ``infer_ms_min``
below about 3% as unresolved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result line plus the
    output digest from the run's result file."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py {workload} seed {seed} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    path = os.path.join(checkout, ".perfbench_work", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="ascii") as fh:
        digest = json.load(fh)["digest"]
    return {"workload": workload, "seed": seed, "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest}


def run_pairs(checkouts: dict, workloads: list, seeds: list, seconds: float,
              runner=run_once, log=None) -> list:
    """Every (workload, seed) pair, one run at a time; the side that runs
    first alternates from one pair to the next.  ``log`` is called with each
    record as it arrives."""
    records = []
    turn = 0
    for workload in workloads:
        for seed in seeds:
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            for side in order:
                rec = {"side": side,
                       **runner(checkouts[side], workload, seed, seconds)}
                records.append(rec)
                if log is not None:
                    log(rec)
    return records


def _quartiles(values: list) -> tuple:
    """(median, q1, q3), the quartiles inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def read_bounds(path: str = BENCHMARK) -> dict:
    """End-to-end metric name -> (relative bound, "lower" or "higher")."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(parent: list, change: list, bound: float,
            better: str = "lower") -> str:
    """``gain``, ``beyond bound`` or ``within bound`` for one metric's
    paired values (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    (pm, p1, p3), (cm, _, _) = _quartiles(parent), _quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "beyond bound"
    return "within bound"


def summarize(records: list, bounds: dict | None = None) -> list[str]:
    """The report lines: per workload and metric, both sides' median
    [q1, q3], the relative change of the medians, the pairs where the
    change reads lower and the verdict against ``bounds`` (by default
    those of BENCHMARK.json; a metric it lacks has no bound); then one line
    per failed run and per seed whose digests differ between the sides."""
    bounds = read_bounds() if bounds is None else bounds
    lines = []
    by = {}
    for r in records:
        by.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["side"]] = r
    for workload, seeds in by.items():
        pairs = [s for s in seeds.values() if all(side in s for side in SIDES)]
        lines.append(f"{workload}: {len(pairs)} pairs")
        metrics = list(pairs[0]["parent"]["metrics"]) if pairs else []
        for m in metrics:
            vals = {side: [p[side]["metrics"][m] for p in pairs] for side in SIDES}
            (pm, p1, p3), (cm, c1, c3) = (_quartiles(vals[s]) for s in SIDES)
            lower = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
            rel = (cm - pm) / pm if pm else float("nan")
            bound, better = bounds.get(m, (math.inf, "lower"))
            lines.append(f"  {m}: {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}] ({rel:+.1%}), "
                         f"change lower in {lower}/{len(pairs)}, "
                         + verdict(vals["parent"], vals["change"], bound,
                                   better))
        for seed, sides in seeds.items():
            for side, r in sides.items():
                if r["failed"] > 0:
                    lines.append(f"  FAILED: {side} seed {seed} had "
                                 f"{r['failed']} failed phases or checks")
            digests = {sides[s]["digest"] for s in SIDES if s in sides}
            if len(digests) > 1:
                lines.append(f"  DIGEST MISMATCH: seed {seed}: "
                             + " vs ".join(f"{s} {sides[s]['digest'][:16]}"
                                           for s in SIDES))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    for path in checkouts.values():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"{path}: no perfbench/run.py")

    def log(rec):
        print(f"{rec['workload']} seed {rec['seed']} {rec['side']}: "
              + ", ".join(f"{k} {v:.4g}" for k, v in rec["metrics"].items())
              + f", failed {rec['failed']}", flush=True)

    records = run_pairs(checkouts, args.workload, args.seeds, args.seconds,
                        log=log)
    print("\n".join(summarize(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
