import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diophlab"


def _names(node) -> Counter:
    """The names and attribute names read anywhere under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_function_is_used():
    # a module-level _function no code of the package reads, outside its
    # own body, is a dead wrapper
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert trees
    used = sum((_names(tree) for tree in trees), Counter())
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and used[node.name] == _names(node)[node.name]]
    assert dead == []
