"""tools/chain_digest.py: the tiny chain's listing is reproducible, also
across BLAS thread counts, and ``--against`` names the paths that differ."""

import importlib.util
import os
import subprocess
import sys

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
