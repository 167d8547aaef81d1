"""No library code that only tests call.

Every top-level function and class of ``src/matirec`` must be referenced, as
a name or an attribute, somewhere in the library or the benchmark
(``clibench``) outside its own definition; the package ``__init__`` does not
count.  A name that only tests use belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "matirec"
BENCHMARK = ROOT / "clibench"


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


def test_every_library_definition_has_a_caller():
    sources = [p for p in sorted(LIBRARY.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sources}
    for p in sorted(BENCHMARK.glob("*.py")):
        trees[p] = ast.parse(p.read_text(encoding="utf-8"))
    everywhere = {p: _references(tree) for p, tree in trees.items()}
    unused = []
    for path in sources:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = any(node.name in refs for p, refs in everywhere.items() if p != path)
            if not used and node.name not in _references(trees[path], skip=node):
                unused.append(f"{path.name}:{node.name}")
    assert not unused, f"referenced only by tests (move to tests/oracles.py): {unused}"
