"""The benchmark's tracer wraps quadseg functions by name: each one it lists
must exist, and the encoder layers it names by stage must keep ``prefix``
as their second parameter.  Every name the benchmark's workloads and
runner import from quadseg, and every attribute they read off an imported
quadseg module, must exist too.  The benchmark files are read as source,
so nothing under ``perfbench/`` is imported or run."""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


def _traced_functions() -> list[tuple[str, str]]:
    """(module, function) of every entry in the tracer's ``_FUNCTIONS``."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), TRACER)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["_FUNCTIONS"]):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"no _FUNCTIONS table in {TRACER}")


def test_every_traced_function_exists():
    pairs = _traced_functions()
    assert len(pairs) > 30
    missing = [f"{m}.{f}" for m, f in pairs
               if not callable(getattr(importlib.import_module(f"quadseg.{m}"),
                                       f, None))]
    assert missing == []


@pytest.mark.parametrize("name", ["attention", "mix_ffn", "patch_merge"])
def test_stage_named_layers_take_prefix_second(name):
    from quadseg import encoder
    assert ("encoder", name) in _traced_functions()
    params = list(inspect.signature(getattr(encoder, name)).parameters)
    assert params[1] == "prefix"


def _quadseg_uses(path: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from quadseg... import name`` in ``path``,
    wherever it stands, and of every ``alias.attr`` read where ``alias`` is
    a quadseg module that such an import bound."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    uses, modules = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "quadseg"):
            package = hasattr(importlib.import_module(node.module), "__path__")
            for alias in node.names:
                uses.append((node.module, alias.name))
                sub = f"{node.module}.{alias.name}"
                if package and importlib.util.find_spec(sub) is not None:
                    modules[alias.asname or alias.name] = sub
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((modules[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_name_the_benchmark_imports_exists(name):
    uses = _quadseg_uses(os.path.join(PERFBENCH, name))
    assert uses
    missing = [f"{m}.{n}" for m, n in uses
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []
