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


def _passes(call: ast.Call, index: int, name: str) -> bool:
    """Whether ``call`` sets the parameter ``name``, at ``index`` among the positional ones, itself."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    if any(kw.arg is None for kw in call.keywords) or starred:
        return False   # *args or **kwargs: taken to rely on the default
    return len(call.args) > index or any(kw.arg == name for kw in call.keywords)


def test_no_unrelied_defaults():
    """Every default of a non-public function or method is relied on by some call in src/ or perfbench/.

    A default that every call passes explicitly is a settable value that no
    caller uses.  Calls are matched by name, bare or as an attribute, and a
    method's calls bind ``self`` or ``cls`` first (src/ has no static
    methods); a definition without such calls (dunders, callbacks) is not
    checked.
    """
    program = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    calls = {}
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    defs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name not in EXEMPT:
                defs.append((f"{path.stem}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef) and node.name not in EXEMPT:
                defs += [
                    (f"{path.stem}.{node.name}.{fn.name}", fn, 1)
                    for fn in node.body if isinstance(fn, ast.FunctionDef)
                ]
    unrelied = []
    for qualname, fn, bound in defs:
        params = fn.args.posonlyargs + fn.args.args
        defaulted = [(i - bound, p.arg) for i, p in enumerate(params)][len(params) - len(fn.args.defaults):]
        defaulted += [(float("inf"), p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        sites = calls.get(fn.name, [])
        unrelied += [
            f"{qualname}({name})" for index, name in defaulted
            if sites and all(_passes(call, index, name) for call in sites)
        ]
    assert not unrelied, f"every src/ and perfbench/ call passes: {', '.join(unrelied)}"
