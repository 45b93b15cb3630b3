"""The package holds only what its own code runs.

A top-level function or class of ``src/hexamer`` that no other package code
references has tests as its only callers; it belongs under ``tests/``
(``paper_checks.py`` holds the paper-claim computations no command runs).
The same holds for a method or property of a class outside the public API.
"""
import ast
from collections import Counter
from pathlib import Path

import hexamer

SRC = Path(__file__).resolve().parents[1] / "src" / "hexamer"

# The public API stays whether or not the package calls it.
EXEMPT = set(hexamer.__all__)


def _uses(node) -> Counter:
    """Names read in ``node``, as bare names or as attributes."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_no_test_only_definitions():
    uses, defs = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += _uses(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node))
    # A definition's references to itself do not count as a caller, nor do
    # those made by definitions already found unused.
    unused = {}
    while True:
        found = {
            f"{mod}.{node.name}": node
            for mod, node in defs
            if node.name not in EXEMPT
            and f"{mod}.{node.name}" not in unused
            and uses[node.name] - _uses(node)[node.name] <= 0
        }
        if not found:
            break
        for node in found.values():
            uses -= _uses(node)
        unused.update(found)
    assert not unused, f"no src/ code references: {', '.join(sorted(unused))}"


def test_no_test_only_members():
    """Every method or property of a non-public class is named in src/ outside its own body.

    Dunder methods are called implicitly and are skipped; dataclass fields
    are not checked (tests read some, such as the leading-order boundary data).
    """
    uses, members = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += _uses(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name not in EXEMPT:
                members += [
                    (f"{path.stem}.{cls.name}.{node.name}", node)
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    unused = sorted(
        name for name, node in members
        if uses[node.name] - _uses(node)[node.name] <= 0
    )
    assert not unused, f"no src/ code outside their bodies names: {', '.join(unused)}"
