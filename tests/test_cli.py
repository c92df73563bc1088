import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import console_pins
from supercolor import (
    DEFAULT_CAPS,
    GenConfig,
    InputError,
    ResourceLimitError,
    SearchCaps,
    bunch,
    cli,
    dump_json,
    gen_instance,
    instance_payload,
    load_instance,
    mixed_configs,
    oracle,
    pi,
)
from supercolor.bunch import checked
from supercolor.cli import batch_verify, caps_from_env, instance_digest, run


ROOT = pathlib.Path(__file__).resolve().parent.parent
PYTHONPATH = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
PINS = console_pins.pins()


def run_python(*argv, **env):
    """Run a fresh interpreter on the package from this checkout."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=PYTHONPATH, **env),
    )


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload


def test_check_ok(capsys, example_path):
    code, payload = run_cli(capsys, "check", str(example_path))
    assert code == 0
    assert payload["ok"] is True
    assert payload["results"]["g1"]["supermodular"]["ok"] is True


def test_check_flags_violations(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"elements": ["a"], "g1": [{"set": ["a"], "value": 2}], "g2": []}'
    )
    code, payload = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert payload["results"]["g1"]["capacity"]["ok"] is False


def test_malformed_json_is_exit_2(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{nope")
    code, _ = run_cli(capsys, "check", str(p))
    assert code == 2


def test_missing_file_is_exit_2(capsys):
    code, _ = run_cli(capsys, "check", "/no/such/file.json")
    assert code == 2


def test_help_is_exit_0_and_a_missing_or_unknown_command_exit_2(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: supercolor")
    assert run([]) == 2
    assert run(["nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("usage: supercolor") == 2


def test_reduce_rejects_attainer_keys_that_print_alike(capsys, tmp_path):
    # {a,b} and {"a,b"} survive removing z and both print as "a,b"
    doc = {
        "elements": ["a", "b", "a,b", "z"],
        "g1": [
            {"set": ["a", "b", "z"], "value": 1},
            {"set": ["a,b", "z"], "value": 1},
            {"set": ["z"], "value": 1},
            {"set": ["a", "b", "a,b", "z"], "value": 1},
        ],
        "g2": [],
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    code = run(["reduce", str(inst), "--k", "z"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'a,b'" in captured.err


def test_reduce_names_as_json_array(capsys, tmp_path):
    # "a,b" holds a comma and " z" a leading space: only the JSON form names them
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"elements": ["a", "b", "a,b", " z"], "g1": [], "g2": []}))
    for raw, removed in (('["a,b"]', ["a,b"]), ('[" z"]', [" z"]), ("a,b", ["a", "b"])):
        code, payload = run_cli(capsys, "reduce", str(inst), "--k", raw)
        assert code == 0, raw
        assert payload["removed"] == removed
        assert payload["elements"] == [x for x in ["a", "b", "a,b", " z"] if x not in removed]


def test_reduce_json_names_match_the_comma_form(capsys, example_path):
    assert run(["reduce", str(example_path), "--k", "f,j"]) == 0
    comma = capsys.readouterr().out
    assert run(["reduce", str(example_path), "--k", '["f", "j"]']) == 0
    assert capsys.readouterr().out == comma


@pytest.mark.parametrize("raw", ["[", '["f",', "[f]", '["f"] x', "[1]", '["f", null]', '[["f"]]'])
def test_reduce_rejects_bad_json_names(capsys, example_path, raw):
    code = run(["reduce", str(example_path), "--k", raw])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--k" in captured.err


def test_color_with_huge_k(capsys, tmp_path):
    inst = tmp_path / "two.json"
    inst.write_text(
        '{"elements": ["a", "b"], "g1": [{"set": ["a", "b"], "value": 2}], "g2": []}'
    )
    code, huge = run_cli(capsys, "color", str(inst), "--k", "100000000000")
    assert code == 0
    code, two = run_cli(capsys, "color", str(inst), "--k", "2")
    assert code == 0
    assert huge["coloring"] == two["coloring"] == {"a": 1, "b": 2}


def test_color_with_lists(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(
        '{"elements": ["a", "b"], "g1": [{"set": ["a", "b"], "value": 2}], "g2": []}'
    )
    lists = tmp_path / "lists.json"
    lists.write_text('{"a": ["red"], "b": ["red", "blue"]}')
    code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 0
    assert payload["coloring"] == {"a": "red", "b": "blue"}
    lists.write_text('{"a": ["red"], "b": ["red"]}')
    code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 1 and payload["coloring"] is None


def test_color_lists_print_each_lists_own_color_objects(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"elements": ["a", "b"], "g1": [], "g2": []}')
    lists = tmp_path / "lists.json"
    lists.write_text('{"a": [1], "b": [1.0]}')
    assert run(["color", str(inst), "--lists", str(lists)]) == 0
    out = capsys.readouterr().out
    assert '"a": 1,' in out and '"b": 1.0' in out


def test_verify_with_no_trials_skips_the_pool_check(capsys, example_path):
    assert run(["verify", str(example_path), "--trials", "0", "--sigma", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("pin", PINS, ids=[pin[0] for pin in PINS])
def test_console_pin(capsys, monkeypatch, pin):
    """A line of tests/data/console.txt, in process: its exit code, and its
    stdout byte for byte."""
    _, code, stdout, argv = pin
    monkeypatch.delenv("SUPERCOLOR_CAPS", raising=False)
    assert run(argv) == code
    if stdout is not None:
        assert capsys.readouterr().out.encode() == stdout.read_bytes()


def test_every_pinned_stdout_is_a_manifest_line_and_every_named_file_exists():
    assert {stdout for _, _, stdout, _ in PINS if stdout} == set(console_pins.DATA.glob("*.out"))
    inputs = [a for *_, argv in PINS for a in argv if a.startswith(str(console_pins.DATA))]
    assert inputs and all(pathlib.Path(a).is_file() for a in inputs)


def test_every_command_has_a_pinned_stdout():
    """console.txt is where a command's stdout is pinned, so each subcommand
    has a line there with an expected file."""
    (commands,) = [
        a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    pinned = {argv[0] for _, _, stdout, argv in PINS if stdout}
    assert set(commands) - pinned == set()


def test_console_pins_runner_from_outside_the_checkout(capsys, monkeypatch, tmp_path):
    """The runner as CI calls it: a fresh interpreter per line, from another
    directory, with SUPERCOLOR_CAPS removed."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", PYTHONPATH)
    monkeypatch.setenv("SUPERCOLOR_CAPS", "garbage")
    command = [sys.executable, "-m", "supercolor"]
    exit_only = "1 - color @triangle.json --k 2"
    assert console_pins.main(command, ["1 not_closed.check.out check @not_closed.json", exit_only]) == 0
    changed = shutil.copy(console_pins.DATA / "not_closed.check.out", tmp_path)
    with open(changed, "r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        fh.write(b"x")  # its closing brace
    line = f"1 {changed} check @not_closed.json"
    assert console_pins.main(command, [line, exit_only]) == 1
    assert capsys.readouterr().err == f"stdout differs: {line}\n"


@pytest.mark.parametrize("entry", [
    lambda path: pi.construct_pi(*load_instance(path)),
    lambda path: pi.schrijver_pi(bunch.checked(*load_instance(path))),
    lambda path: oracle.verify_main_theorem(*load_instance(path), trials=1),
    lambda path: run(["verify", str(path)]),
    lambda path: run(["pi", str(path)]),
], ids=["construct_pi", "schrijver_pi", "verify_main_theorem", "cli-verify", "cli-pi"])
def test_either_sides_invalidity_comes_before_any_capacity_error(capsys, tmp_path, entry):
    # g1 is valid but over capacity, g2 within capacity but not supermodular
    path = tmp_path / "both_bad.json"
    path.write_text(json.dumps({
        "elements": ["a", "b", "c"],
        "g1": [{"set": ["a"], "value": 2}],
        "g2": [
            {"set": ["b"], "value": 0},
            {"set": ["a", "b"], "value": 2},
            {"set": ["b", "c"], "value": 2},
            {"set": ["a", "b", "c"], "value": 1},
        ],
    }))
    message = "function is not supermodular: {a,b}, {b,c} give 4 > 1"
    try:
        code = entry(path)
    except InputError as e:
        assert str(e) == message
    else:
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_color_lists_for_an_unknown_element_are_exit_2(capsys, example_path, tmp_path):
    # instance files and --k reject unknown names; a lists file does too
    lists = tmp_path / "lists.json"
    doc = {name: [1, 2, 3, 4] for name in "abcdefghij"}
    lists.write_text(json.dumps(doc))
    assert run(["color", str(example_path), "--lists", str(lists)]) == 0
    capsys.readouterr()
    lists.write_text(json.dumps(dict(doc, zz=[1])))
    assert run(["color", str(example_path), "--lists", str(lists)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown element 'zz'\n"


@pytest.mark.parametrize(
    "change, message",
    [("drop", "no color list for element 'i'"), ("add", "unknown element 'zz'")],
)
def test_bad_lists_are_exit_2_before_the_list_budget(capsys, tmp_path, change, message):
    # the product of ten-color lists passes the default budget at 'h', so the
    # whole mapping is checked before the budget is spent
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"elements": list("abcdefghi"), "g1": [], "g2": []}))
    doc = {name: list(range(10)) for name in "abcdefghi"}
    if change == "drop":
        del doc["i"]
    else:
        doc["zz"] = [1]
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps(doc))
    assert run(["color", str(inst), "--lists", str(lists)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unhashable_colors_are_exit_2(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"elements": ["a"], "g1": [], "g2": []}')
    lists = tmp_path / "lists.json"
    lists.write_text('{"a": [[1]]}')
    code, _ = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 2


def _big_violation(value):
    """g1 has {a,b} and {b,c} at value, {b} and {a,b,c} at 0: a supermodular
    violation whose printed sums are 2 * value."""
    return json.dumps({
        "elements": ["a", "b", "c"],
        "g1": [
            {"set": ["a", "b"], "value": value},
            {"set": ["b", "c"], "value": value},
            {"set": ["b"], "value": 0},
            {"set": ["a", "b", "c"], "value": 0},
        ],
        "g2": [],
    })


@pytest.mark.parametrize("command", ["check", "pi", "analyze", "reduce", "transversal"])
def test_values_past_the_printable_bound_are_exit_2(capsys, tmp_path, command):
    # the sum of two 4300-digit values may have 4301 digits, which int() will not print
    inst = tmp_path / "inst.json"
    argv = [command, str(inst), *(["--k", "a"] if command == "reduce" else [])]
    for value in (10**4300 - 1, -(10**4300 - 1), 10**4299, -(10**4299)):
        inst.write_text(_big_violation(value))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: g1 value of {a,b} is out of range: |value| must be below 10**4299\n"
        )
    inst.write_text(_big_violation(10**4299 - 1))  # the largest value taken
    total = str(2 * (10**4299 - 1))
    assert run(argv) == (1 if command == "check" else 2)
    captured = capsys.readouterr()
    assert total in (captured.out if command == "check" else captured.err)


def test_boolean_colors_are_exit_2(capsys, tmp_path):
    # true == 1 in Python, so {"a": [1], "b": [true]} would read as one color
    inst = tmp_path / "inst.json"
    inst.write_text(
        '{"elements": ["a", "b"], "g1": [{"set": ["a", "b"], "value": 2}], "g2": []}'
    )
    lists = tmp_path / "lists.json"
    lists.write_text('{"a": [1], "b": [true]}')
    code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 2 and payload is None
    lists.write_text('{"a": [1], "b": [2]}')
    code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 0 and payload["coloring"] == {"a": 1, "b": 2}


@pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_colors_are_exit_2(capsys, tmp_path, raw):
    # json reads these as floats, and the coloring would print them as non-JSON
    inst = tmp_path / "inst.json"
    inst.write_text(
        '{"elements": ["a", "b"], "g1": [{"set": ["a", "b"], "value": 2}], "g2": []}'
    )
    lists = tmp_path / "lists.json"
    lists.write_text(f'{{"a": [{raw}, 1], "b": [{raw}]}}')
    code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 2 and payload is None
    lists.write_text('{"a": [1.5, 1], "b": [1.5]}')
    code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
    assert code == 0 and payload["coloring"] == {"a": 1, "b": 1.5}


@pytest.mark.parametrize("key", ["g1", "g2"])
@pytest.mark.parametrize("value", ["x", None, [1]], ids=["str", "null", "list"])
def test_set_listed_twice_with_a_non_integer_value_is_exit_2(capsys, tmp_path, key, value):
    # the entries are sorted by mask alone, so the two values are never compared
    doc = {"elements": ["a", "b"], "g1": [], "g2": []}
    doc[key] = [{"set": ["a"], "value": 1}, {"set": ["a"], "value": value}]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    code = run(["check", str(inst)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "set values must be integers" in captured.err


def test_unhashable_set_members_are_exit_2(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"elements": ["a", "b"], "g1": [{"set": [["a"]], "value": 1}], "g2": []}')
    code, _ = run_cli(capsys, "check", str(inst))
    assert code == 2


def test_unhashable_vertex_names_are_exit_2(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text('{"S": [["x"]], "T": ["t"], "edges": [[["x"], "t"]]}')
    code, _ = run_cli(capsys, "encode-bipartite", str(graph))
    assert code == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        # Python takes 1 and true as one id
        ({"S": [1, True], "T": ["t"], "edges": [[1, "t"]]}, "duplicate S-vertex id True"),
        ({"S": ["s"], "T": ["t", "u", "t"], "edges": [["s", "t"]]}, "duplicate T-vertex id 't'"),
    ],
)
def test_duplicate_vertex_ids_are_exit_2_and_named(capsys, tmp_path, doc, message):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc))
    assert run(["encode-bipartite", str(graph)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_deeply_nested_json_is_exit_2(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000)
    code, _ = run_cli(capsys, "check", str(p))
    assert code == 2


DIGITS = "9" * 5000  # past int()'s 4300-digit limit
MALFORMED = {
    "instance": {
        "not_utf8": b"\xff\xfe{}",
        "digits": f'{{"elements": ["a"], "g1": [{{"set": ["a"], "value": {DIGITS}}}], "g2": []}}',
        "deep": "[" * 100000,
        "set_string": '{"elements": ["a"], "g1": [{"set": "a", "value": 1}], "g2": []}',
    },
    "graph": {
        "not_utf8": b"\xff\xfe{}",
        "digits": f'{{"S": [{DIGITS}], "T": ["t"], "edges": [[{DIGITS}, "t"]]}}',
        "deep": "[" * 100000,
    },
    "lists": {
        "not_utf8": b"\xff\xfe{}",
        "digits": f'{{"a": [{DIGITS}]}}',
        "deep": "[" * 100000,
    },
    "--k": {"digits": f"[{DIGITS}]", "deep": "[" * 100000},
    "SUPERCOLOR_CAPS": {"digits": f"k_search={DIGITS}"},
}


@pytest.mark.parametrize(
    "entry, case", [(entry, case) for entry, cases in MALFORMED.items() for case in cases]
)
def test_malformed_text_is_exit_2(capsys, tmp_path, monkeypatch, example_path, entry, case):
    raw = MALFORMED[entry][case]
    path = tmp_path / "input.json"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    monkeypatch.delenv("SUPERCOLOR_CAPS", raising=False)
    if entry == "SUPERCOLOR_CAPS":
        monkeypatch.setenv("SUPERCOLOR_CAPS", raw)
    argv = {
        "instance": ["check", str(path)],
        "graph": ["encode-bipartite", str(path)],
        "lists": ["color", str(example_path), "--lists", str(path)],
        "--k": ["reduce", str(example_path), "--k", raw],
        "SUPERCOLOR_CAPS": ["check", str(example_path)],
    }[entry]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("error, code", [
    (InputError("x"), 2),
    (ResourceLimitError("x"), 3),
    (RuntimeError("x"), 4),
])
def test_error_exit_codes(capsys, error, code):
    assert cli.error_exit(error) == code
    assert capsys.readouterr().out == ""


def test_recursion_error_is_internal(capsys):
    # only InputError means bad input; the decoder maps deep nesting to it
    assert cli.error_exit(RecursionError()) == 4
    assert capsys.readouterr().err.startswith("internal error: RecursionError")


@pytest.mark.parametrize("module", ["supercolor", "supercolor.cli"])
def test_module_entry_points(capsys, example_path, module):
    assert run(["check", str(example_path)]) == 0
    expected = capsys.readouterr().out
    proc = run_python("-m", module, "check", str(example_path))
    assert proc.returncode == 0
    assert proc.stdout == expected


# batch-verify and tightness-probe: the tests named *_script_* keep the ids
# they had when these two commands were standalone scripts.

def test_batch_verify_script_cap_is_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOLOR_CAPS", "list_budget=1")
    assert run(["batch-verify", "--count", "5", "--seed", "7"]) == 3
    assert capsys.readouterr().err.startswith("error: list search budget 1 exceeded")


def test_tightness_probe_script_cap_is_exit_3(capsys, monkeypatch):
    monkeypatch.delenv("SUPERCOLOR_CAPS", raising=False)
    argv = ["tightness-probe", "--count", "100", "--seed", "3", "--n-max", "9"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: list search budget 10000000 exceeded")
    assert captured.err.endswith(": product 10077696 at element 'i' (9 of 9)\n")


def test_tightness_probe_script_reads_caps_from_env():
    proc = run_python("-m", "supercolor", "tightness-probe", SUPERCOLOR_CAPS="list_budget=1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: list search budget 1 exceeded")


def test_tightness_probe_script_bad_input_is_exit_2(capsys):
    assert run(["tightness-probe", "--n-max", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need 1 <= n_min <= n_max")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["batch-verify", "--count", "-3"], "count must be nonnegative"),
        (["tightness-probe", "--count", "-1"], "count must be nonnegative"),
        (["tightness-probe", "--draws", "-2"], "draws must be nonnegative"),
        (["batch-verify", "--count", "0", "--trials", "-1"], "trials must be nonnegative"),
        # verify hands its trials to oracle.list_trials unchecked
        (["verify", str(ROOT / "tests" / "data" / "example1.json"), "--trials", "-1"],
         "trials must be nonnegative"),
    ],
)
def test_bulk_negative_counts_are_exit_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_checks_run_under_python_O(example_path):
    # neither the case condition nor construct_pi's default check may
    # depend on __debug__, which python -O turns off
    script = """
import json
from supercolor import load_instance, pi
from supercolor.matching import transversal_mask

try:
    transversal_mask([0b11], [0b1])
    raised = None
except RuntimeError as e:
    raised = str(e)
calls = []
report = pi.condition_report
pi.condition_report = lambda *args: calls.append(1) or report(*args)
pi.construct_pi(*load_instance(%r))
print(json.dumps({"debug": __debug__, "raised": raised, "checks": len(calls)}))
""" % str(example_path)
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "debug": False,
        "raised": "transversal case condition failed (internal bug)",
        "checks": 1,
    }


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("boom")


def test_internal_error_is_exit_4(capsys, example_path, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_check", _raise_runtime_error)
    assert run(["check", str(example_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: boom")


@pytest.mark.parametrize("stdout", ["closed pipe", "full device", "closed fd 1"])
def test_an_unwritable_stdout_is_exit_4(example_path, stdout):
    """Not 1, which means "property violated", and no second failure when
    the interpreter flushes stdout at exit.  The child's stdout is
    block-buffered whatever the caller's environment, so a closed pipe or a
    full device fails at the flush."""
    argv = [sys.executable, "-m", "supercolor", "check", str(example_path)]
    env = dict(os.environ, PYTHONPATH=PYTHONPATH)
    env.pop("PYTHONUNBUFFERED", None)
    if stdout == "closed pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
    elif stdout == "full device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    else:
        argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
        proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("internal error: ")
    assert "Exception ignored" not in proc.stderr


def _crossing_set_raised(entries, kmask, reduce_entries=bunch.reduce_entries):
    """bunch.reduce_entries with the first set that crosses another raised by
    100, which breaks the supermodular inequality on the two."""
    best = reduce_entries(entries, kmask)
    for p in best:
        if any(p & q and p & ~q and q & ~p for q in best):
            best[p] += 100
            break
    return best


@pytest.mark.parametrize("module, name, fake, call, argv, raised", [
    (
        bunch, "reduce_entries", _crossing_set_raised,
        lambda g1, g2: bunch.reduce(g1, g1.ground.mask_of(["f", "j"])),
        ["reduce", "--k", "f,j"], "reduction lost validity (internal bug)",
    ),
    (
        oracle, "find_k_coloring", lambda *args: None,
        lambda g1, g2: pi.schrijver_pi(checked(g1, g2)),
        ["pi", "--method", "schrijver"],
        "no dominating 4-coloring found for a valid instance (internal bug)",
    ),
], ids=["reduce", "schrijver_pi"])
def test_internal_bug_guards_are_exit_4(
    capsys, example_path, example_instance, monkeypatch, module, name, fake, call, argv, raised
):
    # a guard that no valid input reaches, forced by a broken step before it
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(RuntimeError) as e:
        call(*example_instance)
    assert str(e.value).startswith(raised)
    command, *flags = argv
    assert run([command, str(example_path), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: RuntimeError: {raised}")


def test_batch_verify_script_internal_error_is_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "batch_verify", _raise_runtime_error)
    assert run(["batch-verify", "--count", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: boom")


def test_tightness_probe_script_internal_error_is_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_search", _raise_runtime_error)
    assert run(["tightness-probe", "--count", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: boom")


def test_color_requires_exactly_one_mode(capsys, example_path):
    for modes in ([], ["--k", "4", "--lists", "lists.json"]):  # neither, both
        assert run(["color", str(example_path), *modes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: supercolor color" in captured.err


@pytest.mark.parametrize("side", ["0", "3"])
def test_analyze_side_is_1_or_2(capsys, example_path, side):
    assert run(["analyze", str(example_path), "--side", side]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: supercolor analyze" in captured.err


def test_encode_bipartite(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text('{"S": ["s"], "T": ["t1", "t2"], "edges": [["s", "t1"], ["s", "t2"]]}')
    code, payload = run_cli(capsys, "encode-bipartite", str(graph))
    assert code == 0
    assert payload["elements"] == ["s~t1~0", "s~t2~0"]
    assert {tuple(e["set"]): e["value"] for e in payload["g1"]} == {
        ("s~t1~0", "s~t2~0"): 2
    }


@pytest.mark.parametrize(
    "doc, ids",
    [
        (
            {"S": ["a~b", "a"], "T": ["c", "b~c"], "edges": [["a~b", "c"], ["a", "b~c"]]},
            ["a~b~c~0", "a~b~c~1"],
        ),
        ({"S": [1, "1"], "T": [2], "edges": [[1, 2], ["1", 2]]}, ["1~2~0", "1~2~1"]),
    ],
)
def test_encode_bipartite_distinct_ids_for_pairs_that_print_alike(capsys, tmp_path, doc, ids):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc))
    code, payload = run_cli(capsys, "encode-bipartite", str(graph))
    assert code == 0
    assert payload["elements"] == ids


def test_encode_bipartite_past_64_edges(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"S": ["s"], "T": ["t"], "edges": [["s", "t"]] * 65}))
    code, payload = run_cli(capsys, "encode-bipartite", str(graph))
    assert code == 0 and len(payload["elements"]) == 65
    inst = tmp_path / "inst.json"
    inst.write_text(dump_json(payload))
    code, payload = run_cli(capsys, "pi", str(inst))
    assert code == 0 and payload["ok"] is True


@pytest.mark.parametrize("command", ["verify", "color"])
def test_search_past_the_stack_depth_on_a_1000_edge_matching(capsys, tmp_path, command):
    # every tight list has one color, so the search walks 1000 elements deep
    n = 1000
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "S": [f"s{i}" for i in range(n)],
        "T": [f"t{i}" for i in range(n)],
        "edges": [[f"s{i}", f"t{i}"] for i in range(n)],
    }))
    code, payload = run_cli(capsys, "encode-bipartite", str(graph))
    assert code == 0 and len(payload["elements"]) == n
    inst = tmp_path / "inst.json"
    inst.write_text(dump_json(payload))
    if command == "verify":
        code, payload = run_cli(capsys, "verify", str(inst))
        assert code == 0 and payload["ok"] is True
    else:
        lists = tmp_path / "lists.json"
        lists.write_text(json.dumps({name: [7] for name in payload["elements"]}))
        code, payload = run_cli(capsys, "color", str(inst), "--lists", str(lists))
        assert code == 0 and set(payload["coloring"].values()) == {7}


def test_caps_env_round_trip(capsys, example_path, monkeypatch):
    monkeypatch.setenv("SUPERCOLOR_CAPS", "k_search=4")
    code, _ = run_cli(capsys, "color", str(example_path), "--k", "4")
    assert code == 3  # ten elements exceed the lowered cap
    monkeypatch.setenv("SUPERCOLOR_CAPS", "k_search=10,list_budget=10000000")
    code, payload = run_cli(capsys, "color", str(example_path), "--k", "4")
    assert code == 0 and payload["found"]


def test_caps_env_rejects_garbage(monkeypatch, capsys, example_path):
    monkeypatch.setenv("SUPERCOLOR_CAPS", "bogus=1")
    code, _ = run_cli(capsys, "color", str(example_path), "--k", "4")
    assert code == 2


def test_caps_env_rejects_non_ascii_digits(monkeypatch, capsys, example_path):
    # "²" passes str.isdigit but not int()
    monkeypatch.setenv("SUPERCOLOR_CAPS", "k_search=²")
    assert run(["check", str(example_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad SUPERCOLOR_CAPS entry 'k_search=²'\n"


def test_caps_env_skips_empty_entries(monkeypatch, capsys, example_path):
    assert caps_from_env({"SUPERCOLOR_CAPS": "k_search=4,, ,list_budget=7,"}) == SearchCaps(4, 7)
    monkeypatch.setenv("SUPERCOLOR_CAPS", "k_search=4,,")
    assert run(["color", str(example_path), "--k", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k-coloring search capped at 4 elements, got 10\n"


def test_caps_parsing_defaults():
    caps = caps_from_env({})
    assert caps.k_search_elements == 10 and caps.list_budget == 10_000_000


@pytest.mark.parametrize("env", [{}, {"SUPERCOLOR_CAPS": ""}, {"SUPERCOLOR_CAPS": " , "}])
def test_caps_without_entries_are_the_defaults(env):
    assert caps_from_env(env) == DEFAULT_CAPS


@pytest.mark.parametrize("raw, message", [
    ("foo=abc", "bad SUPERCOLOR_CAPS entry 'foo=abc'"),  # the value is read before the key
    ("foo=1", "unknown SUPERCOLOR_CAPS key 'foo'"),
])
def test_caps_entry_errors(raw, message):
    with pytest.raises(InputError) as err:
        caps_from_env({"SUPERCOLOR_CAPS": raw})
    assert str(err.value) == message


def test_instance_digest_stable(example_instance):
    g1, g2 = example_instance
    assert instance_digest(g1, g2) == instance_digest(g1, g2)
    assert instance_digest(g1, g2) != instance_digest(g2, g1)


def test_batch_verify_clean_run(capsys, monkeypatch):
    configs = [
        GenConfig(seed=s, n_elements=5, strategy=strategy)
        for s, strategy in enumerate(("closure", "laminar", "rank_complement", "bipartite"))
    ]
    report = batch_verify(configs, list_trials=2, seed=123)
    assert report.results["instances"] == 4
    assert report.results["failures"] == []
    assert report.results["checks"]["pi_conditions"] == {"pass": 4, "fail": 0}
    monkeypatch.delenv("SUPERCOLOR_CAPS", raising=False)
    argv = ["batch-verify", "--count", "4", "--n-max", "5", "--trials", "2"]
    assert run(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["results"]["checks"]["min_k_equals_delta"]["pass"] == 4
    assert "timing" not in printed


def test_batch_verify_empty():
    report = batch_verify([])
    assert report.results["instances"] == 0
    assert report.results["failures"] == []


def test_batch_verify_deterministic():
    configs = [GenConfig(seed=9, n_elements=5, strategy="closure")]
    a = batch_verify(configs, list_trials=2, seed=1)
    b = batch_verify(configs, list_trials=2, seed=1)
    assert dump_json(a.to_payload()) == dump_json(b.to_payload())


def test_batch_verify_leaves_its_configs_as_they_were():
    # vars() would give each config a __dict__ and leave it there (3.11+)
    configs = mixed_configs(seed=7, count=12, n_max=6)
    before = [[type(r) for r in gc.get_referents(cfg)] for cfg in configs]
    batch_verify(configs, list_trials=0, seed=7)
    assert [[type(r) for r in gc.get_referents(cfg)] for cfg in configs] == before


def test_batch_verify_leaves_no_reference_cycles():
    # a recursive closure would leave a closure-cell cycle per laminar draw
    configs = mixed_configs(7, 300, n_max=7)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        batch_verify(configs, list_trials=1, seed=7)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _collecting(configs, every):
    """The configs, with a full collection before every every-th one."""
    for i, cfg in enumerate(configs):
        if i % every == 0:
            gc.collect()
        yield cfg


def _batch_peak(configs) -> int:
    """batch_verify's tracemalloc peak above its start, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batch_verify(_collecting(configs, 250), list_trials=1, seed=7)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_batch_verify_peak_is_flat_between_collections():
    # without the collections the peak creeps up by memory that gc.collect()
    # frees without finding garbage, most likely the interpreter's free
    # lists; 4 KiB is far below the 45 KiB that a __dict__ left on each
    # config added here
    configs = mixed_configs(7, 1000, n_max=7)
    first, whole = _batch_peak(configs[:250]), _batch_peak(configs)
    assert abs(whole - first) <= 4096, (first, whole)


def test_batch_verify_reads_its_configs_once():
    configs = mixed_configs(seed=7, count=12, n_max=6)
    streamed = batch_verify(iter(configs), list_trials=1, seed=7)
    assert streamed.to_payload() == batch_verify(configs, list_trials=1, seed=7).to_payload()
    blob = json.dumps([vars(c) for c in configs], sort_keys=True, separators=(",", ":"))
    assert streamed.digest == hashlib.sha256(blob.encode()).hexdigest()


# analyze, reduce, transversal and pi print sets by name: console.txt pins
# their stdout on the worked example, and this digest on 200 generated instances.

def test_set_commands_stdout_pinned_on_generated_instances(monkeypatch, tmp_path):
    monkeypatch.delenv("SUPERCOLOR_CAPS", raising=False)
    codes, digest = [], hashlib.sha256()
    for i, cfg in enumerate(mixed_configs(seed=18, count=200, n_max=8)):
        g1, g2 = gen_instance(cfg)
        path = tmp_path / f"inst{i}.json"
        path.write_text(dump_json(instance_payload(g1, g2)))
        every_other = ",".join(g1.ground.names[::2])
        for argv in (
            ["analyze", str(path), "--side", "1"],
            ["analyze", str(path), "--side", "2"],
            ["reduce", str(path), "--k", every_other],
            ["transversal", str(path)],
            ["pi", str(path)],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(run(argv))
            digest.update(out.getvalue().encode())
    assert codes == [0] * 1000
    assert digest.hexdigest() == "003af39419e3ae0141904813cace795f40df578c3530427725c2c78288f0a2a8"
