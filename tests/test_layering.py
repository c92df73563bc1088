"""Each module of the package keeps its private names to itself: no module
imports another's _-prefixed name or reaches one through a module binding."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supercolor"


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
