"""Every definition in ropeslr earns its place: a top-level function or
class, or a method or property that is not a dunder, is referenced
somewhere in the package outside its own body, is a registered command-line
handler, or is a function the benchmark's traced pass times
(perfbench/layers.py TIMED).  An API that only the tests call fails here."""

import ast
import sys
from pathlib import Path

from ropeslr import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ropeslr"


def definitions(tree):
    """(qualified name, bare name, node) of each top-level function or class
    and each method or property of a top-level class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def referenced_names(node):
    """Every bare name and attribute name read anywhere under node."""
    return [sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))]


def unreferenced(trees, exempt):
    """Qualified names of the definitions in trees (module -> AST) whose bare
    name is not in exempt and is read nowhere outside its own definition."""
    read = [name for tree in trees.values() for name in referenced_names(tree)]
    return [f"{mod}.{qualified}" for mod, tree in trees.items()
            for qualified, name, node in definitions(tree)
            if name not in exempt
            and read.count(name) == referenced_names(node).count(name)]


def test_every_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exempt = ({handler.__name__ for _, handler in cli._COMMANDS.values()}
              | {name.rpartition(".")[2] for name in layers.TIMED})
    assert unreferenced(trees, exempt) == []


def test_the_guard_flags_test_only_methods_and_ignores_recursion():
    source = ("class A:\n"
              "    def used(self):\n"
              "        return self.helper()\n"
              "    def helper(self):\n"
              "        return 1\n"
              "    def orphan(self):\n"
              "        return self.orphan()\n"
              "    def __len__(self):\n"
              "        return 0\n"
              "def entry():\n"
              "    return A().used()\n")
    assert unreferenced({"m": ast.parse(source)}, {"entry"}) == ["m.A.orphan"]
