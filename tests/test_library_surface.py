"""No library code that only tests call.

Every top-level function and class of ``src/matirec``, and every method,
property and classmethod of its classes, must be referenced, as a name or an
attribute, somewhere in the library or the benchmark (``clibench``) outside
its own definition; the package ``__init__`` does not count, and neither do
dunder methods, which Python calls itself.  A name that only tests use
belongs in ``tests/oracles.py``; the few kept on purpose are listed in
``EXEMPT`` with their reason, and an entry no longer needed fails the test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "matirec"
BENCHMARK = ROOT / "clibench"

# ``CheckInLog.from_checkins`` builds a log from validated in-memory
# ``CheckIn`` records: it is the record-input boundary of ``ingest``, beside
# ``parse_checkins`` for files (``LogColumns.intern`` names both), kept for
# callers that hold check-ins rather than files.
EXEMPT = {"ingest.py:CheckInLog.from_checkins"}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names read anywhere in ``tree`` outside ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def and class and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def test_every_library_definition_has_a_caller():
    sources = [p for p in sorted(LIBRARY.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sources}
    for p in sorted(BENCHMARK.glob("*.py")):
        trees[p] = ast.parse(p.read_text(encoding="utf-8"))
    everywhere = {p: _references(tree) for p, tree in trees.items()}
    unused = []
    for path in sources:
        for qualified, node in _definitions(trees[path]):
            used = any(node.name in refs for p, refs in everywhere.items() if p != path)
            if not used and node.name not in _references(trees[path], skip=node):
                unused.append(f"{path.name}:{qualified}")
    stale = EXEMPT - set(unused)
    assert not stale, f"exempt but gone or now called by the library: {sorted(stale)}"
    unused = [name for name in unused if name not in EXEMPT]
    assert not unused, f"referenced only by tests (move to tests/oracles.py): {unused}"
