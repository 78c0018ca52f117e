"""tools/chain_digest.py: the tiny chain's listing is reproducible."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "chain_digest.py")


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
