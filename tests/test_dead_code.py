"""No private function or class of the package is left without a caller:
each module-level one is referenced somewhere in src/ outside its own body."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pseudofuzzy"
# called by the import system, not by name: PEP 562's module __getattr__
EXEMPT = {("arith", "__getattr__")}


def names_in(node, skip=None):
    """Every name node references, as a Name, an attribute or an import, outside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from names_in(child, skip)


def test_every_private_function_and_class_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or (module, node.name) in EXEMPT:
                continue
            if not any(node.name in names_in(other, node) for other in trees.values()):
                unused.append(f"{module}.{node.name}")
    assert not unused, f"private names that nothing in src/ references: {unused}"
