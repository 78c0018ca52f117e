"""tools/chain_digest.py: the tiny chain's listing is reproducible, also
across BLAS thread counts, and ``--against`` names the paths that differ."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "chain_digest.py")


def _tool():
    spec = importlib.util.spec_from_file_location("chain_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listing(*args):
    proc = subprocess.run([sys.executable, TOOL, ROOT, *args],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_two_runs_print_the_same_listing():
    first = _listing("--seed", "3", "--batch", "2")
    assert first == _listing("--seed", "3", "--batch", "2")
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    for out in ("w.ckpt.bin", "a.ckpt.bin", "ap.ckpt.bin", "a.csv", "ap.csv",
                "pairs.tsv", "eval_a/report.csv", "eval_ap/report.csv",
                "w.ckpt.plabels/0000.pgm", "data/source/images/0000.ppm"):
        assert out in paths
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)


def test_thread_count_does_not_change_the_listing(monkeypatch):
    """QF_THREADS=1 and =2 chains write the same bytes: one BLAS thread or
    two, every output file is identical."""
    tool = _tool()
    listings = []
    for threads in ("1", "2"):
        monkeypatch.setenv("QF_THREADS", threads)
        listings.append(tool.run_chain(ROOT, seed=1, batch=2))
    assert len(listings[0]) > 30
    assert listings[0] == listings[1]


def test_against_prints_the_differing_paths(monkeypatch, capsys):
    tool = _tool()
    chains = {"a": ["1" * 64 + "  same", "2" * 64 + "  changed",
                    "3" * 64 + "  only_a"],
              "b": ["1" * 64 + "  same", "4" * 64 + "  changed",
                    "5" * 64 + "  only_b"]}
    monkeypatch.setattr(tool, "run_chain", lambda checkout, *a: chains[checkout])
    assert tool.main(["a", "--against", "b"]) == 1
    assert capsys.readouterr().out.split() == ["changed", "only_a", "only_b"]
    chains["b"] = chains["a"]
    assert tool.main(["a", "--against", "b"]) == 0
    assert capsys.readouterr().out == ""


def test_against_the_same_checkout_exits_zero():
    proc = subprocess.run([sys.executable, TOOL, ROOT, "--against", ROOT,
                           "--seed", "2", "--batch", "1"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("0 paths differ")


def test_sweep_runs_each_case_in_both_checkouts(monkeypatch, capsys):
    """--sweep runs seeds 0, 1, 4 at batch 1-3, seed 1 / batch 2 with
    each override, seed 1 / batch 3 at crop 64 and seed 1 / batch 2 with
    each cross toggle off, in both checkouts, and prints one line per
    case: 17 cases."""
    tool = _tool()
    calls = []

    def fake(checkout, seed, batch, sets):
        calls.append((checkout, seed, batch, list(sets)))
        digest = "1" if checkout == "b" and sets == ["crop=64"] else "0"
        return [digest * 64 + "  out.bin", "2" * 64 + "  same"]
    monkeypatch.setattr(tool, "run_chain", fake)
    assert tool.main(["a", "--against", "b", "--sweep"]) == 1
    cases = [(s, b, []) for s in (0, 1, 4) for b in (1, 2, 3)] + [
        (1, 2, [kv]) for kv in ("share_branch_weights=false",
                                "label_correction=false", "adversarial=false",
                                "self_training=false", "crop=64")] + [
        (1, 3, ["crop=64"])] + [
        (1, 2, [kv]) for kv in ("use_cross_src=false", "use_cross_tgt=false")]
    assert len(cases) == 17
    assert calls == [(side, *case) for case in cases for side in "ab"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cases)
    assert lines[0] == "seed 0 batch 1: 0 of 2 paths differ"
    assert lines[-4] == "seed 1 batch 2 crop=64: 1 of 2 paths differ out.bin"
    assert lines[-3] == "seed 1 batch 3 crop=64: 1 of 2 paths differ out.bin"
    assert lines[-1] == ("seed 1 batch 2 use_cross_tgt=false: 0 of 2 paths "
                         "differ")


def test_sweep_needs_against(capsys):
    tool = _tool()
    with pytest.raises(SystemExit):
        tool.main(["a", "--sweep"])
