"""The benchmark's tracer wraps quadseg functions by name: each one it lists
must exist, and the encoder layers it names by stage must keep ``prefix``
as their second parameter.  Every name the benchmark's workloads and
runner import from quadseg, and every attribute they read off an imported
quadseg module, must exist too, and each call they make to one must bind
to its signature.  The benchmark files are read as source, so nothing
under ``perfbench/`` is imported or run."""

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


def _quadseg_bindings(tree) -> tuple[dict, dict]:
    """The names that ``from quadseg... import name`` binds anywhere in
    ``tree``, as ``{local: (module, name)}``, and of those the ones bound
    to a quadseg module, as ``{local: module}``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "quadseg"):
            package = hasattr(importlib.import_module(node.module), "__path__")
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = (node.module, alias.name)
                sub = f"{node.module}.{alias.name}"
                if package and importlib.util.find_spec(sub) is not None:
                    modules[local] = sub
    return names, modules


def _parse(path: str):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _quadseg_uses(path: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from quadseg... import name`` in ``path``,
    wherever it stands, and of every ``alias.attr`` read where ``alias`` is
    a quadseg module that such an import bound."""
    tree = _parse(path)
    names, modules = _quadseg_bindings(tree)
    uses = list(names.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((modules[node.value.id], node.attr))
    return uses


def _quadseg_calls(path: str) -> list[tuple[str, str, int, list, int]]:
    """(module, name, positional count, keyword names, line) of every call
    in ``path`` to a name ``_quadseg_uses`` finds, called by its imported
    name or as ``alias.attr``; calls that pass ``*`` or ``**`` arguments
    are left out."""
    tree = _parse(path)
    names, modules = _quadseg_bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            target = names[f.id]
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id in modules):
            target = (modules[f.value.id], f.attr)
        else:
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        calls.append((*target, len(node.args), [k.arg for k in node.keywords],
                      node.lineno))
    return calls


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_name_the_benchmark_imports_exists(name):
    uses = _quadseg_uses(os.path.join(PERFBENCH, name))
    assert uses
    missing = [f"{m}.{n}" for m, n in uses
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_call_the_benchmark_makes_binds(name):
    """Each call the benchmark makes to a quadseg function or class fits
    its signature: as many positional arguments and the same keyword
    names bind, so a changed signature fails here, not in a benchmark
    run."""
    calls = _quadseg_calls(os.path.join(PERFBENCH, name))
    assert calls
    unbound = []
    for module, attr, npos, keywords, line in calls:
        sig = inspect.signature(getattr(importlib.import_module(module), attr))
        try:
            sig.bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as e:
            unbound.append(f"{name}:{line} {module}.{attr}: {e}")
    assert unbound == []
