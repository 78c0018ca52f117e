"""Alternating parent/change benchmark runs and their summary.

    python3 tools/abab.py PARENT CHANGE --workload adapt-paired \
        warmup-sourcefree --seeds 41 42 43 44 45 [--seconds 15] \
        [--record BENCH_x.json]

PARENT and CHANGE are two checkouts of the repository.  For each workload
and seed the tool runs ``perfbench/run.py --trace 0`` once in each
checkout, one benchmark process at a time, and alternates which side runs
first from one seed to the next.  It then prints, per workload and
end-to-end metric, each side's median [q1, q3], the change of the medians,
the number of pairs in which the change reads lower and a verdict: ``gain``
when the change reads better in at least 9/10 of the pairs and its median
beats the parent's by more than the parent's q3 - q1, ``beyond bound`` when
its median is worse than the parent's by more than the metric's ``bound``
in BENCHMARK.json, ``unresolved`` when the parent's q3 - q1 exceeds that
bound times the parent's median (the runs spread too widely to tell an
unchanged metric from a worse one) unless every change run reads better
than every parent run, else ``within bound``.  It flags every
run whose ``failed`` count is above zero and every seed whose output
digests differ between the two sides.  ``QF_THREADS`` is passed through as
set (run.py uses one BLAS thread when it is unset).

``--record PATH`` also writes the batch as one JSON file: each run's host
facts, metrics and digest; a host-speed probe taken in this process before
and after the runs (the minimum time of a fixed 64x64 gemm and of a fixed
Python loop), which makes batches on a drifting host comparable; and per
workload and metric both sides' median and quartiles, the pair wins and
the verdict.

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
import time

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
        stored = json.load(fh)
    return {"workload": workload, "seed": seed, "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": stored["digest"], "host": stored["host"]}


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


def pair_wins(parent: list, change: list, better: str = "lower") -> int:
    """The pairs in which the change reads better than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list, change: list, bound: float,
            better: str = "lower") -> str:
    """``gain``, ``beyond bound``, ``unresolved`` or ``within bound`` for
    one metric's paired values (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    (pm, p1, p3), (cm, _, _) = _quartiles(parent), _quartiles(change)
    wins = pair_wins(parent, change, better)
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "beyond bound"
    apart = (max(change) < min(parent) if better == "lower"
             else min(change) > max(parent))
    if p3 - p1 > bound * abs(pm) and not apart:
        return "unresolved"
    return "within bound"


def _by_seed(records: list) -> dict:
    """workload -> seed -> side -> record."""
    by = {}
    for r in records:
        by.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["side"]] = r
    return by


def compare(records: list, bounds: dict | None = None) -> dict:
    """Per workload, the number of complete (parent, change) pairs and per
    end-to-end metric both sides' median and quartiles, the pairs where the
    change reads lower and where it reads better, and the verdict against
    ``bounds`` (by default those of BENCHMARK.json; a metric it lacks has
    no bound)."""
    bounds = read_bounds() if bounds is None else bounds
    out = {}
    for workload, seeds in _by_seed(records).items():
        pairs = [s for s in seeds.values() if all(side in s for side in SIDES)]
        metrics = {}
        for m in (pairs[0]["parent"]["metrics"] if pairs else ()):
            vals = {side: [p[side]["metrics"][m] for p in pairs] for side in SIDES}
            bound, better = bounds.get(m, (math.inf, "lower"))
            metrics[m] = {
                **{side: dict(zip(("median", "q1", "q3"),
                                  _quartiles(vals[side]))) for side in SIDES},
                "change_lower": sum(c < p for p, c in
                                    zip(vals["parent"], vals["change"])),
                "wins": pair_wins(vals["parent"], vals["change"], better),
                "verdict": verdict(vals["parent"], vals["change"], bound,
                                   better)}
        out[workload] = {"pairs": len(pairs), "metrics": metrics}
    return out


def summarize(records: list, bounds: dict | None = None) -> list[str]:
    """The report lines: per workload and metric, both sides' median
    [q1, q3], the relative change of the medians, the pairs where the
    change reads lower and the verdict (see ``compare``); then one line
    per failed run and per seed whose digests differ between the sides."""
    lines = []
    by = _by_seed(records)
    for workload, cmp in compare(records, bounds).items():
        lines.append(f"{workload}: {cmp['pairs']} pairs")
        for m, st in cmp["metrics"].items():
            (pm, p1, p3), (cm, c1, c3) = (
                (st[s]["median"], st[s]["q1"], st[s]["q3"]) for s in SIDES)
            rel = (cm - pm) / pm if pm else float("nan")
            lines.append(f"  {m}: {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}] ({rel:+.1%}), "
                         f"change lower in {st['change_lower']}/"
                         f"{cmp['pairs']}, {st['verdict']}")
        for seed, sides in by[workload].items():
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


def _loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i
    return acc


PROBE_REPEATS = 20


def host_probe() -> dict:
    """The host's speed as this process sees it: the minimum time of a
    fixed 64x64 float64 gemm (the engine's scale; small enough that
    OpenBLAS runs it on one thread whatever its pool size), taken per call
    over 100 calls, and of a fixed 100000-step Python loop, each the best
    of ``PROBE_REPEATS`` repeats."""
    import numpy as np

    a = np.random.default_rng(0).random((64, 64))
    best = {"gemm_s_min": math.inf, "loop_s_min": math.inf}
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        for _ in range(100):
            a @ a
        best["gemm_s_min"] = min(best["gemm_s_min"],
                                 (time.perf_counter() - t) / 100)
        t = time.perf_counter()
        _loop(100_000)
        best["loop_s_min"] = min(best["loop_s_min"], time.perf_counter() - t)
    return best


def write_record(path: str, records: list, probes: dict, seconds: float,
                 bounds: dict | None = None) -> None:
    """The batch as one JSON file (see the module docstring)."""
    record = {"seconds": seconds, "probe": probes,
              "summary": compare(records, bounds), "runs": records}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="extend", nargs="+",
                        required=True,
                        help="perfbench workloads, after one flag or "
                             "after several")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--record", metavar="PATH",
                        help="also write the batch as one JSON record")
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

    probes = {"before": host_probe()} if args.record else {}
    records = run_pairs(checkouts, args.workload, args.seeds, args.seconds,
                        log=log)
    print("\n".join(summarize(records)))
    if args.record:
        probes["after"] = host_probe()
        write_record(args.record, records, probes, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
