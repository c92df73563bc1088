"""Fuzz of the CLI exit-code contract: whatever the input files and numeric
options hold, every command exits 0, 1, 2 or 3, never 4 (internal error)."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from supercolor import GenConfig, ResourceLimitError, gen_instance, instance_payload
from supercolor.cli import run
from supercolor.gen import STRATEGIES


NAMES = ("a", "b", "c", "d", "e")  # the element names gen_instance uses
S_VERTICES = ("s1", "s2", "s3")
T_VERTICES = ("t1", "t2")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.integers(),
    st.floats(),
    st.sampled_from(NAMES + S_VERTICES),
    st.text(max_size=3),
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def shapes(valid, keys):
    """Well-formed documents, ones with a single field replaced by anything
    at all, and anything at all."""
    corrupted = st.tuples(valid, st.sampled_from(keys), junk).map(
        lambda t: {**t[0], t[1]: t[2]}
    )
    return st.one_of(valid, valid, valid, corrupted, junk)


def generated(cfg):
    try:
        return instance_payload(*gen_instance(cfg))
    except ResourceLimitError:
        return {}


name = st.one_of(st.sampled_from(NAMES), st.sampled_from(NAMES), scalars)
# the largest magnitudes the decoder takes (4300 digits) and parse_instance takes
big = st.sampled_from((10**4300 - 1, -(10**4300 - 1), 10**4299 - 1, -(10**4299 - 1)))
entry = st.one_of(
    st.fixed_dictionaries(
        {"set": st.lists(name, max_size=4), "value": st.one_of(st.integers(-2, 5), big)},
        optional={"extra": junk},
    ),
    junk,
)
supermodular = st.builds(
    GenConfig,
    seed=st.integers(0, 2**32 - 1),
    n_elements=st.integers(1, len(NAMES)),
    strategy=st.sampled_from(STRATEGIES),
).map(generated)
arbitrary = st.fixed_dictionaries(
    {
        "elements": st.lists(name, min_size=1, max_size=5),
        "g1": st.lists(entry, max_size=4),
        "g2": st.lists(entry, max_size=4),
    }
)
extra_entry = st.tuples(supermodular, st.sampled_from(("g1", "g2")), entry).map(
    lambda t: {**t[0], t[1]: [*t[0].get(t[1], []), t[2]]}
)


# {a,b} and {b,c} at one drawn value, with their union and intersection:
# the supermodularity checks add the two values and print the sum
crossing = st.tuples(big, st.integers(-2, 5), st.integers(-2, 5)).map(
    lambda t: {
        "elements": ["a", "b", "c"],
        "g1": [
            {"set": ["a", "b"], "value": t[0]},
            {"set": ["b", "c"], "value": t[0]},
            {"set": ["b"], "value": t[1]},
            {"set": ["a", "b", "c"], "value": t[2]},
        ],
        "g2": [],
    }
)
# one set listed twice on one side, the second value any scalar: SetFn must
# reject it as input without comparing the two values
duplicate = st.tuples(
    st.sampled_from(("g1", "g2")),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
    st.integers(-2, 5),
    scalars,
).map(
    lambda t: {
        "elements": list(NAMES),
        "g1": [],
        "g2": [],
        t[0]: [{"set": t[1], "value": t[2]}, {"set": t[1], "value": t[3]}],
    }
)
instance = shapes(
    st.one_of(supermodular, supermodular, extra_entry, crossing, duplicate, arbitrary),
    ("elements", "g1", "g2", "unknown"),
)
lists = shapes(
    st.fixed_dictionaries(
        {u: st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True) for u in NAMES}
    ),
    (*NAMES, "unknown"),
)
graph = shapes(
    st.fixed_dictionaries(
        {
            "S": st.permutations(S_VERTICES),
            "T": st.permutations(T_VERTICES),
            "edges": st.lists(
                st.tuples(st.sampled_from(S_VERTICES), st.sampled_from(T_VERTICES)).map(list),
                min_size=1,
                max_size=6,
            ),
        }
    ),
    ("S", "T", "edges", "unknown"),
)


def file_text(docs):
    """Mostly the JSON text of a generated document; sometimes raw text that
    may not parse, raw bytes that may not be UTF-8, or JSON holding an integer
    past int()'s 4300-digit limit."""
    text = docs.map(json.dumps)
    huge = docs.map(lambda doc: f"[{json.dumps(doc)}, {'9' * 5000}]")
    return st.one_of(text, text, text, st.text(max_size=20), st.binary(max_size=20), huge)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    inst_text=file_text(instance),
    lists_text=file_text(lists),
    graph_text=file_text(graph),
    k=st.one_of(st.integers(1, 6), st.integers(-1, 6), st.integers(-(10**12), 10**12)),
    side=st.one_of(st.integers(1, 2), st.integers(-1, 3)),
    removal=st.lists(st.one_of(st.sampled_from(NAMES), st.text(max_size=3)), max_size=4).map(
        ",".join
    ),
    count=st.integers(-1, 2),
    n_max=st.integers(-1, 11),
    seed=st.integers(),
)
def test_cli_exit_codes_stay_in_contract(
    tmp_path, monkeypatch, inst_text, lists_text, graph_text, k, side, removal, count, n_max, seed
):
    monkeypatch.delenv("SUPERCOLOR_CAPS", raising=False)
    inst, lists_file, graph_file = (
        tmp_path / "inst.json", tmp_path / "lists.json", tmp_path / "graph.json"
    )
    for path, content in ((inst, inst_text), (lists_file, lists_text), (graph_file, graph_text)):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    commands = [
        ["check", str(inst)],
        ["analyze", str(inst), "--side", str(side)],
        ["reduce", str(inst), "--k", removal],
        ["pi", str(inst)],
        ["pi", str(inst), "--method", "schrijver"],
        ["color", str(inst), "--lists", str(lists_file)],
        ["color", str(inst), "--k", str(k)],
        ["verify", str(inst), "--trials", "1"],
        ["transversal", str(inst)],
        ["encode-bipartite", str(graph_file)],
    ]
    bulk = ["--count", str(count), "--n-max", str(n_max), "--seed", str(seed)]
    commands += [["batch-verify", *bulk, "--trials", "1"], ["tightness-probe", *bulk, "--draws", "1"]]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
