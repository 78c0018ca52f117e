"""tools/traffic_lines.py: one sweep case through the CLI, traced line by
line, covers the backward sweep but never raises a non-finite error."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "traffic_lines.py")
TENSOR = os.path.join(ROOT, "src", "quadseg", "tensor.py")


def _expand(ranges):
    out = set()
    for part in ranges.split(", "):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def _line_of(text):
    with open(TENSOR) as fh:
        hits = [i for i, line in enumerate(fh, start=1) if text in line]
    assert len(hits) == 1, text
    return hits[0]


def test_one_case_covers_the_backward_sweep_but_not_the_finite_raise():
    proc = subprocess.run([sys.executable, TOOL, ROOT, "--cases", "1"],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    words = lines[-1].split()
    missed, total = int(words[0]), int(words[2])
    assert lines[-1] == f"{missed} of {total} executable lines never ran"
    assert 0 < missed < total
    start = lines.index("quadseg/tensor.py")
    never = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        qualname, ranges = line.strip().split(": ")
        never[qualname] = _expand(ranges)
    raise_line = _line_of('raise FloatingPointError(f"{opname}: non-finite')
    assert raise_line in never["_check_finite"]
    for text in ("self.swept = True", "parts = rule(g)", "self.grads = grads"):
        assert _line_of(text) not in never.get("Tape.backward", set())
