"""Every qstream name the benchmark's traced run wraps or calls still
exists, so that a refactor cannot turn a per-layer metric into "missing"
unnoticed.  perfbench/traced.py is only read, never imported."""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED = os.path.join(ROOT, "perfbench", "traced.py")


def _traced_names():
    """The (module, dotted attribute) pairs of traced.py: those of its
    SPANS, every name it imports from a qstream module, and every
    `module.attr` it reads of a module imported as `from qstream import
    module`."""
    with open(TRACED, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    names = {(module, path) for module, path, *_ in spans}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "qstream"):
            for alias in node.names:
                if node.module == "qstream":
                    modules[alias.asname or alias.name] = \
                        f"qstream.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return spans, names


def test_traced_names_resolve():
    spans, names = _traced_names()
    assert len(spans) > 10
    assert {("qstream.scenarios", "initial_state"),
            ("qstream.scenarios", "propagator_config"),
            ("qstream.optics", "FresnelEvaluator"),
            ("qstream.trajectories", "VelocitySampler.sample")} <= names
    missing = []
    for module, path in sorted(names):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []
