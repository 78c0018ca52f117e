"""The benchmark's tracer wraps quadseg functions by name: each one it lists
must exist, and the encoder layers it names by stage must keep ``prefix``
as their second parameter.  The tracer's table is read as source, so
nothing under ``perfbench/`` is imported or run."""

import ast
import importlib
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


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
