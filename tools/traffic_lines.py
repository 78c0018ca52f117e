"""Lines of ``src/quadseg`` that real traffic never runs.

    python3 tools/traffic_lines.py CHECKOUT [--cases K]

Traces ``CHECKOUT/src/quadseg`` line by line (``sys.settrace``, and
``threading.settrace`` for the worker threads it starts) while it runs,
in this process and through ``quadseg.cli.main``, the chain of
``chain_digest.chain_commands`` for each case of ``chain_digest.sweep_cases``
(or only the first K), each followed by a ``warmup --resume`` of the
chain's finished warm-up, and then ``verify``.  Each case runs in its own
temporary directory, which is removed afterwards.

The output lists, per file and then per function, the executable lines
(those that compile to bytecode) that never ran, as ``qualname: 12, 15-17``,
and ends with the count.  A line that never ran is an input check, an error
path, a test oracle, or code that nothing reaches.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import threading
import types

TOOLS = os.path.dirname(os.path.abspath(__file__))


def _chain_digest():
    spec = importlib.util.spec_from_file_location(
        "chain_digest", os.path.join(TOOLS, "chain_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def executable_lines(path: str) -> dict[int, str]:
    """Each line of ``path`` that has bytecode -> the qualified name of the
    innermost code object (function, class body or ``<module>``) it is in."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    out: dict[int, str] = {}

    def walk(co: types.CodeType) -> None:
        for _, _, line in co.co_lines():
            if line:
                out[line] = co.co_qualname
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(code)
    return out


def traced_lines(package_dir: str, run) -> set[tuple[str, int]]:
    """``(file, line)`` of every line under ``package_dir`` that ran while
    ``run()`` ran, on this thread or on one that it started.  A call counts
    its code object's first line, where a function's entry instruction
    sits."""
    prefix = os.path.abspath(package_dir) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        co = frame.f_code
        if not co.co_filename.startswith(prefix):
            return None
        hits.add((co.co_filename, co.co_firstlineno))
        return local

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def never_ran(package_dir: str, hits) -> dict[str, dict[str, list[int]]]:
    """Per file (relative to the package's parent) and function, in source
    order, the executable lines not in ``hits``."""
    out: dict[str, dict[str, list[int]]] = {}
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.abspath(os.path.join(package_dir, name))
        groups: dict[str, list[int]] = {}
        for line, qualname in sorted(executable_lines(path).items()):
            if (path, line) not in hits:
                groups.setdefault(qualname, []).append(line)
        rel = os.path.relpath(path, os.path.dirname(os.path.dirname(path)))
        out[rel] = groups
    return out


def run_traffic(cases) -> None:
    """The traced traffic: every case's chain and resumed warm-up, then
    ``verify``, through ``quadseg.cli.main`` with its output captured."""
    from quadseg import cli

    def main(cmd: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(cmd)
        if code != 0:
            raise RuntimeError(f"quadseg {' '.join(cmd)} exited {code}\n"
                               f"{out.getvalue()[-2000:]}")

    chain = _chain_digest()
    here = os.getcwd()
    for seed, batch, sets in cases:
        cmds = chain.chain_commands(seed, batch, list(sets))
        resumed = next(c for c in cmds if c[0] == "warmup") + ["--resume",
                                                               "w.ckpt"]
        resumed[resumed.index("--out") + 1] = "wr.ckpt"
        resumed[resumed.index("--log") + 1] = "wr.csv"
        with tempfile.TemporaryDirectory(prefix="traffic_lines_") as work:
            os.chdir(work)
            try:
                for cmd in [*cmds, resumed]:
                    main(cmd)
            finally:
                os.chdir(here)
    main(["verify"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository checkout to trace")
    parser.add_argument("--cases", type=int, default=None, metavar="K",
                        help="run only the first K sweep cases")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    package = os.path.join(src, "quadseg")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        parser.error(f"{args.checkout}: no src/quadseg/cli.py")
    if "quadseg" in sys.modules:
        parser.error("quadseg is already imported; run the tool on its own")
    sys.path.insert(0, src)
    cases = _chain_digest().sweep_cases()[:args.cases]
    hits = traced_lines(package, lambda: run_traffic(cases))
    total = missed = 0
    for rel, groups in never_ran(package, hits).items():
        total += len(executable_lines(os.path.join(src, rel)))
        if groups:
            print(rel)
        for qualname, lines in groups.items():
            missed += len(lines)
            print(f"  {qualname}: {_ranges(lines)}")
    print(f"{missed} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
