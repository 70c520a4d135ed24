"""Every definition in ropeslr earns its place: a top-level function or
class, or a method or property that is not a dunder, is referenced
somewhere in the package outside its own body, is a registered command-line
handler, or is a function the benchmark's traced pass times
(perfbench/layers.py TIMED).  An API that only the tests call fails here,
and so does a module-level constant, dunders aside, that the package never
reads."""

import ast
import sys
from pathlib import Path

from ropeslr import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ropeslr"


def is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, bare name, node) of each top-level function or class
    and each method or property of a top-level class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
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


def constants(tree):
    """Names bound by a module-level assignment, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (sub.id for target in targets for sub in ast.walk(target)
                        if isinstance(sub, ast.Name) and not is_dunder(sub.id))


def unread_constants(trees):
    """Module-qualified constants of trees that no module of trees reads as
    a name or an attribute."""
    read = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
    return [f"{mod}.{name}" for mod, tree in trees.items() for name in constants(tree)
            if name not in read]


def package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_has_a_caller_in_the_package():
    exempt = ({handler.__name__ for _, handler in cli._COMMANDS.values()}
              | {name.rpartition(".")[2] for name in layers.TIMED})
    assert unreferenced(package_trees(), exempt) == []


def test_every_module_constant_is_read_in_the_package():
    assert unread_constants(package_trees()) == []


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


def test_the_constant_guard_flags_unread_names_only():
    source = ("USED = 1\n"
              "DEAD: int = 2\n"
              "PAIR_A, PAIR_B = 3, 4\n"
              "__all__ = ['f']\n"
              "def f():\n"
              "    return USED + PAIR_A\n")
    other = "from m import PAIR_B\nPAIR_B.real\n"
    trees = {"m": ast.parse(source), "n": ast.parse(other)}
    assert unread_constants(trees) == ["m.DEAD"]
