"""Each module of the package keeps its private names to itself: no module
imports another's _-prefixed name or reaches one through a module binding.
And the package defines no public name that only tests call: each one is
used in src/ outside its own definition or named in README's library
layout table."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supercolor"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """Each import of another module's private name, and each attribute
    read of one through a name bound to a package module."""
    tree = ast.parse(source)
    modules = set()  # local names of package modules: from . import pi as pi_mod
    found = []
    for node in ast.walk(tree):
        package = isinstance(node, ast.ImportFrom) and (
            node.level or node.module.startswith("supercolor")
        )
        if package:
            for alias in node.names:
                if node.module is None or node.module == "supercolor":
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def test_the_check_sees_both_kinds_of_use():
    source = (
        "from .core import SetFn, _check_pairs\n"
        "from . import oracle, pi as pi_mod\n"
        "pi_mod._build(oracle._trials, oracle.__name__, pi_mod.build)\n"
    )
    assert private_uses(source) == [
        "from core import _check_pairs",
        "pi_mod._build (line 3)",
        "oracle._trials (line 3)",
    ]


def test_no_module_uses_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = {p.name: uses for p in modules if (uses := private_uses(p.read_text()))}
    assert found == {}


def _names_read(node: ast.AST) -> Counter:
    """How often each name is read in node, as a name or an attribute."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            read[sub.attr] += 1
    return read


def unused_public_names(sources: dict[str, str], documented: set[str]) -> list[str]:
    """Each public top-level function or class, and each public method of a
    top-level class, that no source reads outside its own definition and
    that documented does not name.  An import is not a read, so a name that
    the package only re-exports counts as unused."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node, node.name)] + [
                (m, f"{node.name}.{m.name}") for m in node.body if isinstance(m, ast.FunctionDef)
            ]
            for defn, name in defs:
                if defn.name.startswith("_") or defn.name in documented:
                    continue
                if read[defn.name] == _names_read(defn)[defn.name]:
                    found.append(f"{module}:{name}")
    return found


def layout_table_names(readme: str) -> set[str]:
    """Every identifier inside backticks in the rows of README's library
    layout table."""
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `supercolor.")]
    return {
        word
        for row in rows
        for code in re.findall(r"`([^`]+)`", row)
        for word in re.findall(r"\w+", code)
    }


def test_the_surface_check_sees_unused_names():
    sources = {
        "a.py": (
            "class Graph:\n"
            "    def degree(self): return self.degree()\n"
            "    def edges(self): pass\n"
            "    def _private(self): pass\n"
            "def helper(x): return helper(x)\n"
            "def documented(): pass\n"
        ),
        "b.py": "from .a import Graph, helper\nGraph().edges()\n",
    }
    assert unused_public_names(sources, {"documented"}) == ["a.py:Graph.degree", "a.py:helper"]
    readme = "## Library layout\n| `supercolor.a` | `Graph` (`from_pairs(s, t)`) |\n## CLI\n`cli`\n"
    assert layout_table_names(readme) == {"supercolor", "a", "Graph", "from_pairs", "s", "t"}


def test_every_public_name_is_used_in_src_or_documented():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    documented = layout_table_names((ROOT / "README.md").read_text())
    assert unused_public_names(sources, documented) == []
