"""No private name of the package is left without a reference: each
module-level function, class and constant whose name is private, and each
type alias (a CapWords name bound by assignment), is referenced somewhere
in src/ outside its own definition. Dunders such as __all__ are exempt."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pseudofuzzy"
# called by the import system, not by name: PEP 562's module __getattr__
EXEMPT = {("arith", "__getattr__")}
CAP_WORDS = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


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


def definitions(tree):
    """(name, node, is_assignment) for each module-level definition, those in a top-level if too."""
    for node in tree.body:
        body = node.body + node.orelse if isinstance(node, ast.If) else [node]
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield statement.name, statement, False
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield target.id, statement, True


def is_checked(name, is_assignment):
    if name.startswith("__") and name.endswith("__"):
        return False
    return name.startswith("_") or (is_assignment and CAP_WORDS.fullmatch(name) is not None)


def test_every_private_function_and_class_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, node, is_assignment in definitions(tree):
            if not is_checked(name, is_assignment) or (module, name) in EXEMPT:
                continue
            if not any(name in names_in(other, node) for other in trees.values()):
                unused.append(f"{module}.{name}")
    assert not unused, f"private names and type aliases that nothing in src/ references: {unused}"
