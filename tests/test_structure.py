"""Guards on the shape of the package sources.

Every large allocation is checked against the memory budget by one
function, ``walk.check_budget``: it alone reads ``DEFAULT_MEMORY_BUDGET``
and raises ``ResourceLimitError``. A module that imported the budget by
name would hold its own copy, and patching or changing the budget would
miss it.
"""

import ast
from pathlib import Path

import qrwalk

SRC = Path(qrwalk.__file__).parent
BUDGET, ERROR = "DEFAULT_MEMORY_BUDGET", "ResourceLimitError"


def _names(node) -> set[str]:
    """Names an expression refers to, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def gate_breaches(source: str, module: str) -> list[str]:
    """Each place in ``source`` that raises ``ResourceLimitError``, reads
    the budget or imports it by name, outside ``walk.check_budget``."""
    tree = ast.parse(source)
    inside = set()
    if module == "walk.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "check_budget":
                inside = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Raise) and node.exc is not None \
                and ERROR in _names(node.exc):
            found.append((node.lineno, f"raises {ERROR}"))
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Load) \
                and BUDGET in (getattr(node, "id", None),
                               getattr(node, "attr", None)):
            found.append((node.lineno, f"reads {BUDGET}"))
        elif isinstance(node, ast.ImportFrom) \
                and BUDGET in {a.name for a in node.names}:
            found.append((node.lineno, f"imports {BUDGET}"))
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_only_check_budget_reads_the_budget_and_raises():
    walk_source = (SRC / "walk.py").read_text()
    assert "def check_budget(" in walk_source
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in gate_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_guard_sees_each_breach():
    source = (
        "from .walk import DEFAULT_MEMORY_BUDGET\n"
        "def f(n):\n"
        "    if n > walk.DEFAULT_MEMORY_BUDGET:\n"
        "        raise errors.ResourceLimitError('too big')\n"
        "def check_budget(n):\n"
        "    raise ResourceLimitError(DEFAULT_MEMORY_BUDGET)\n"
    )
    assert gate_breaches(source, "other.py") == [
        "other.py:1 imports DEFAULT_MEMORY_BUDGET",
        "other.py:3 reads DEFAULT_MEMORY_BUDGET",
        "other.py:4 raises ResourceLimitError",
        "other.py:6 raises ResourceLimitError",
        "other.py:6 reads DEFAULT_MEMORY_BUDGET",
    ]
    assert gate_breaches(source, "walk.py") == [
        "walk.py:1 imports DEFAULT_MEMORY_BUDGET",
        "walk.py:3 reads DEFAULT_MEMORY_BUDGET",
        "walk.py:4 raises ResourceLimitError",
    ]
