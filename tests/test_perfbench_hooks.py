"""Every attribute the traced benchmark patches by name exists in the program.

``perfbench/tracer.py`` wraps functions and methods named in its ``SPANNED``
table and ``SIMILARITY`` pair, and each tape op named in
``perfbench/catalog.py``'s ``TAPE_OPS``. A rename in ``src/`` would break the
traced run only when it runs, so the tables are read here (as literals,
without importing the benchmark) and resolved the way the tracer does.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def table(file_name: str, name: str):
    """The literal value assigned to ``name`` at the top level of a perfbench file."""
    tree = ast.parse((PERFBENCH / file_name).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{file_name} assigns no {name}")


HOOKS = sorted(table("tracer.py", "SPANNED").values()) + [table("tracer.py", "SIMILARITY")] + [
    ("interbert.numerics.tensor", op) for op in table("catalog.py", "TAPE_OPS")]


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}:{a}" for m, a in HOOKS])
def test_every_traced_hook_resolves(module_name, attr):
    holder = importlib.import_module(module_name)
    for part in attr.split("."):
        holder = getattr(holder, part, None)
        assert holder is not None, f"perfbench patches {module_name}.{attr}, which does not exist"
    assert callable(holder)
