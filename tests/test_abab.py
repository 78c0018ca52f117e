"""tools/abab.py: the alternating run order, the summary of canned runs
and the JSON record."""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import abab  # noqa: E402


def _rec(side, seed, step, rss, failed=0, digest="d0", workload="w"):
    return {"side": side, "workload": workload, "seed": seed,
            "failed": failed, "digest": digest,
            "metrics": {"step_ms_min": step, "peak_rss_mb": rss}}


def test_summary_of_canned_runs():
    records = []
    for seed, (p, c) in enumerate([(12.0, 10.0), (12.4, 10.2), (12.2, 10.6),
                                   (12.6, 12.8), (12.8, 10.4)]):
        records += [_rec("parent", seed, p, 57.5), _rec("change", seed, c, 56.5)]
    lines = abab.summarize(records)
    assert lines[0] == "w: 5 pairs"
    assert lines[1] == ("  step_ms_min: 12.4 [12.2, 12.6] -> 10.4 [10.2, 10.6] "
                        "(-16.1%), change lower in 4/5, within bound")
    assert lines[2] == ("  peak_rss_mb: 57.5 [57.5, 57.5] -> 56.5 [56.5, 56.5] "
                        "(-1.7%), change lower in 5/5, gain")
    assert len(lines) == 3


def _verdicts(parent, change, bounds):
    records = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        records += [_rec("parent", seed, p, 50.0), _rec("change", seed, c, 50.0)]
    return [ln.rsplit(", ", 1)[1]
            for ln in abab.summarize(records, bounds)[1:3]]


def test_verdicts_gain_beyond_and_within_bound():
    """Gain: better in 9/10 pairs and the median moves by more than the
    parent's IQR.  Beyond bound: the median worse by more than the bound.
    Otherwise within bound, also for 8/10 wins or a move inside the IQR."""
    bounds = {"step_ms_min": (0.25, "lower"), "peak_rss_mb": (0.1, "lower")}
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    gain = [p - 1.0 for p in parent[:9]] + [parent[9] + 0.1]
    assert _verdicts(parent, gain, bounds) == ["gain", "within bound"]
    eight = [p - 1.0 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert _verdicts(parent, eight, bounds)[0] == "within bound"
    inside_iqr = [p - 0.5 for p in parent]          # IQR of parent is 0.9
    assert _verdicts(parent, inside_iqr, bounds)[0] == "within bound"
    worse = [p * 1.3 for p in parent]
    assert _verdicts(parent, worse, bounds)[0] == "beyond bound"
    assert _verdicts(parent, [p * 1.2 for p in parent],
                     bounds)[0] == "within bound"
    # a metric where higher is better gains by reading higher
    higher = {"step_ms_min": (0.25, "higher")}
    assert _verdicts(parent, [p + 2.0 for p in parent], higher)[0] == "gain"
    assert _verdicts(parent, worse, higher)[0] == "gain"
    assert _verdicts(parent, [p * 0.7 for p in parent],
                     higher)[0] == "beyond bound"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    """A parent whose q3 - q1 exceeds the bound times its median cannot
    tell an unchanged metric from a worse one: ``unresolved``, unless
    every change run reads better than every parent run.  A gain or a
    median beyond the bound still reads as such."""
    bounds = {"step_ms_min": (0.25, "lower"), "peak_rss_mb": (0.1, "lower")}
    # setup_s-like: q1 0.8, q3 1.4, IQR 0.6 > 0.25 * median 1.0
    parent = [0.6, 0.8, 0.8, 0.9, 1.0, 1.0, 1.1, 1.4, 1.4, 1.6]
    assert _verdicts(parent, parent, bounds)[0] == "unresolved"
    assert _verdicts(parent, [p * 1.1 for p in parent],
                     bounds)[0] == "unresolved"
    assert _verdicts(parent, [p * 1.3 for p in parent],
                     bounds)[0] == "beyond bound"
    apart = [0.5] * 10                  # every run below every parent run
    assert _verdicts(parent, apart, bounds)[0] == "gain"
    almost = [p - 0.05 for p in parent]   # better in every pair, not apart
    assert _verdicts(parent, almost, bounds)[0] == "unresolved"
    # apart, but by less than the parent's IQR: no gain, and not unresolved
    assert abab.verdict(parent, [0.59] * 10, 0.25) == "within bound"
    # higher is better: only runs above every parent run are apart
    assert abab.verdict(parent, [0.59] * 10, 0.25, "higher") == "beyond bound"
    assert abab.verdict(parent, [1.3] * 10, 0.25, "higher") == "unresolved"
    assert abab.verdict(parent, parent, 0.25, "higher") == "unresolved"


def test_record_holds_runs_probe_and_summary(tmp_path, monkeypatch):
    """``--record`` writes one JSON file: every run's metrics, digest and
    host facts, the probe before and after the runs, and per metric both
    sides' median and quartiles, the pair wins and the verdict."""
    records = []
    for seed, (p, c) in enumerate([(12.0, 10.0), (12.4, 10.2), (12.2, 10.6),
                                   (12.6, 12.8), (12.8, 10.4)]):
        records += [dict(_rec("parent", seed, p, 57.5), host={"nproc": 2}),
                    dict(_rec("change", seed, c, 56.5), host={"nproc": 2})]
    for side in ("p", "c"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    seen = {}

    def fake_pairs(checkouts, workloads, seeds, seconds, log=None):
        seen["args"] = (sorted(checkouts), workloads, seeds, seconds)
        return records

    monkeypatch.setattr(abab, "run_pairs", fake_pairs)
    monkeypatch.setattr(abab, "host_probe",
                        lambda: {"gemm_s_min": 1e-3, "loop_s_min": 2e-3})
    path = tmp_path / "BENCH_x.json"
    assert abab.main([str(tmp_path / "p"), str(tmp_path / "c"), "--workload",
                      "w", "--seeds", "0", "1", "--seconds", "3",
                      "--record", str(path)]) == 0
    assert seen["args"] == (["change", "parent"], ["w"], [0, 1], 3.0)
    rec = json.loads(path.read_text())
    assert rec["seconds"] == 3.0
    assert rec["probe"] == {side: {"gemm_s_min": 1e-3, "loop_s_min": 2e-3}
                            for side in ("before", "after")}
    assert rec["runs"] == records
    step = rec["summary"]["w"]["metrics"]["step_ms_min"]
    assert rec["summary"]["w"]["pairs"] == 5
    assert step["parent"] == {"median": 12.4, "q1": 12.2, "q3": 12.6}
    assert step["change"] == {"median": 10.4, "q1": 10.2, "q3": 10.6}
    assert (step["change_lower"], step["wins"]) == (4, 4)
    assert step["verdict"] == "within bound"
    assert rec["summary"]["w"]["metrics"]["peak_rss_mb"]["verdict"] == "gain"


def test_workloads_follow_one_flag_or_several(tmp_path, monkeypatch):
    """``--workload`` takes several names after one flag, as ``--seeds``
    does, and repeated flags add theirs, in order."""
    for side in ("p", "c"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    seen = []
    monkeypatch.setattr(abab, "run_pairs",
                        lambda checkouts, workloads, *rest, **kw:
                        seen.append(workloads) or [])
    paths = [str(tmp_path / "p"), str(tmp_path / "c")]
    for flags, want in ((["--workload", "a", "b"], ["a", "b"]),
                        (["--workload", "a", "--workload", "b", "c"],
                         ["a", "b", "c"])):
        assert abab.main(paths + flags + ["--seeds", "1", "2"]) == 0
        assert seen.pop() == want


def test_host_probe_times_both_kernels():
    probe = abab.host_probe()
    assert sorted(probe) == ["gemm_s_min", "loop_s_min"]
    assert all(0.0 < v < math.inf for v in probe.values())


def test_bounds_come_from_the_benchmark_file():
    bounds = abab.read_bounds()
    assert bounds["peak_rss_mb"] == (0.1, "lower")
    assert bounds["step_ms_min"] == (0.25, "lower")


def test_summary_flags_failures_and_digest_mismatches():
    records = [_rec("parent", 1, 12.0, 57.0), _rec("change", 1, 11.0, 57.0),
               _rec("change", 2, 11.0, 57.0, failed=2, digest="e1"),
               _rec("parent", 2, 12.0, 57.0, digest="d1")]
    lines = abab.summarize(records)
    assert "  FAILED: change seed 2 had 2 failed phases or checks" in lines
    assert "  DIGEST MISMATCH: seed 2: parent d1 vs change e1" in lines
    assert not any("seed 1" in ln for ln in lines)


def test_summary_counts_only_complete_pairs():
    records = [_rec("parent", 1, 12.0, 57.0), _rec("change", 1, 11.0, 57.0),
               _rec("parent", 2, 9.0, 50.0)]
    assert abab.summarize(records)[:2] == [
        "w: 1 pairs",
        "  step_ms_min: 12 [12, 12] -> 11 [11, 11] (-8.3%), "
        "change lower in 1/1, gain"]


def test_runs_alternate_and_never_overlap():
    active, order = [], []

    def runner(checkout, workload, seed, seconds):
        assert not active, "a second benchmark process was started"
        active.append(checkout)
        order.append((workload, seed, checkout))
        active.pop()
        return {"workload": workload, "seed": seed, "failed": 0,
                "digest": "d", "metrics": {"step_ms_min": 1.0}}

    records = abab.run_pairs({"parent": "P", "change": "C"}, ["a", "b"],
                             [7, 8], 1.0, runner=runner)
    assert [c for _, _, c in order] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert [(w, s) for w, s, _ in order[::2]] == [("a", 7), ("a", 8),
                                                   ("b", 7), ("b", 8)]
    assert [r["side"] for r in records[:2]] == ["parent", "change"]


def test_cli_rejects_a_path_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        abab.main([str(tmp_path), str(tmp_path), "--workload", "w",
                   "--seeds", "1"])
