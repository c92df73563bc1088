import pathlib
import sys

import pytest

from supercolor import GroundSet, SetFn, load_instance, oracle

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def example_path() -> pathlib.Path:
    return DATA / "example1.json"


@pytest.fixture(scope="session")
def example_instance(example_path):
    """The worked ten-element instance: g1 a six-set function, g2 empty."""
    return load_instance(example_path)


@pytest.fixture(scope="session")
def example_g(example_instance) -> SetFn:
    return example_instance[0]


@pytest.fixture(autouse=True)
def certified_search(monkeypatch):
    """Certify every coloring oracle._search returns, from the index alone:
    each element's color lies in its domain mask, and each constraint's
    members take at least its bound of distinct colors.  A test that stubs
    _search itself replaces this wrapper."""
    search = oracle._search

    def certify(domains, index):
        coloring = search(domains, index)
        if coloring is None:
            return None
        if list(coloring) != list(index.names):
            pytest.fail(f"coloring of {list(coloring)} for elements {list(index.names)}")
        colors = list(coloring.values())
        for name, color, domain in zip(index.names, colors, domains):
            if not domain >> color & 1:
                pytest.fail(f"color {color} of {name!r} outside its domain {bin(domain)}")
        for elems, bound in zip(index.members, index.bounds):
            if len({colors[i] for i in elems}) < bound:
                names = [index.names[i] for i in elems]
                pytest.fail(f"short constraint: {names} take fewer than {bound} colors")
        return coloring

    monkeypatch.setattr(oracle, "_search", certify)


@pytest.fixture()
def shallow_stack():
    """shallow_stack(fn, *args) calls fn with 40 frames of stack to spare, so
    a call whose stack grows with its input raises RecursionError."""

    def call(fn, *args, **kwargs):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setrecursionlimit(limit)

    return call


@pytest.fixture()
def abc_ground() -> GroundSet:
    return GroundSet(("a", "b", "c"))


def names_of_sets(ground, masks):
    return {ground.names_of(m) for m in masks}
