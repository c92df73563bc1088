"""batch_verify's shared per-instance work, pinned and checked against the
public functions it stands for.

batch_verify takes each generated instance as checked (gen_instance
validates both functions), derives both sides' effective entries and
d-lists once, and builds the oracle's constraint index once for its three
list trials and every k of its minimum color count.  The pin counts that
work by wrapping the functions that do it.  The differential tests rebuild
the battery from construct_pi, verify_conditions, verify_main_theorem and
min_k, and those from find_list_coloring per trial and find_k_coloring per
k, with every coloring found checked by lemmas' ref_dominates.
"""

import importlib
import json
import random
import sys
from collections import Counter
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from supercolor import bunch, core, gen, oracle
from supercolor.cli import batch_verify, instance_digest, run
from supercolor.core import Report, ResourceLimitError, Violation, delta, instance_payload
from supercolor.gen import gen_instance, mixed_configs
from supercolor.oracle import (
    SearchCaps,
    find_list_coloring,
    min_k,
    verify_main_theorem,
)
from supercolor.pi import construct_pi, verify_conditions
from lemmas import ref_dominates, ref_min_k

MODULES = [importlib.import_module(f"supercolor{m}") for m in (
    "", ".core", ".bunch", ".matching", ".pi", ".oracle", ".encode", ".gen", ".cli"
)]
BIG_LISTS = SearchCaps(k_search_elements=10, list_budget=10**12)
TINY = SearchCaps(k_search_elements=2, list_budget=1)


@pytest.fixture
def work(monkeypatch):
    """Counts of the work done after each gen_instance returned: pair walks,
    capacity scans, effective_entries calls on a function's own entries
    (those in work.own), and constraint indexes built for a search.
    work.counts holds one Counter per instance, after one for the work
    before the first."""
    work = SimpleNamespace(counts=[Counter()], own=[])

    def count(name, key, module, which=lambda *args: True):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            if which(*args):
                work.counts[-1][key] += 1
            return real(*args, **kwargs)

        for mod in MODULES:  # every binding, so calls between modules are seen
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)

    count("check_pairs", "pair walks", core)
    count("check_capacity", "capacity scans", core)
    # a hit part's entries are a list, a function's own entries a tuple
    count("effective_entries", "whole-family derivations", bunch,
          lambda entries: entries in work.own)
    count("constraint_index", "index builds", oracle)
    real_gen = gen.gen_instance

    def generating(cfg):
        work.counts.append(Counter())
        g1, g2 = real_gen(cfg)
        work.counts[-1].clear()  # the generator's own checks
        work.own[:] = [g1.entries, g2.entries]
        return g1, g2

    monkeypatch.setattr(gen, "gen_instance", generating)
    return work


def test_battery_does_each_kind_of_work_once_per_instance(work):
    configs = mixed_configs(seed=1, count=50, n_min=6, n_max=7)
    batch_verify(configs, list_trials=3, seed=1, caps=BIG_LISTS)
    assert len(work.counts) == 1 + len(configs)
    for counts in work.counts[1:]:
        assert counts == Counter({"whole-family derivations": 2, "index builds": 1})


def test_public_searches_build_one_index_per_call(work):
    g1, g2 = gen_instance(mixed_configs(seed=2, count=1, n_min=7, n_max=7)[0])
    counts = work.counts[0]  # not through gen.gen_instance, so one Counter
    counts.clear()
    verify_main_theorem(g1, g2, trials=5, caps=BIG_LISTS)
    assert counts["index builds"] == 1
    counts.clear()
    min_k(g1, g2, BIG_LISTS)
    assert counts["index builds"] == 1


def test_tightness_probe_does_each_kind_of_work_once_per_instance(capsys, work):
    assert run(["tightness-probe", "--count", "30", "--draws", "4"]) == 0
    skipped = json.loads(capsys.readouterr().out)["skipped_trivial_instances"]
    assert len(work.counts) == 31
    for counts in work.counts[1:]:
        assert counts["pair walks"] == counts["capacity scans"] == 0
        assert counts["whole-family derivations"] == 2
        assert counts["index builds"] <= 1
    assert sum(c["index builds"] for c in work.counts[1:]) == 30 - skipped > 0


@pytest.mark.parametrize("method", ["keylemma", "schrijver"])
def test_pi_command_validates_and_derives_once(capsys, example_path, work, method):
    work.own[:] = [g.entries for g in core.load_instance(example_path)]
    assert run(["pi", str(example_path), "--method", method]) == 0
    capsys.readouterr()
    assert work.counts == [Counter({
        "pair walks": 2, "capacity scans": 2, "whole-family derivations": 2,
    } | ({"index builds": 1} if method == "schrijver" else {}))]


# -- differential: the battery against the public functions --------------------

def ref_theorem(g1, g2, trials, seed, caps) -> Report:
    """verify_main_theorem from find_list_coloring per trial, on lists drawn
    by Random.sample itself."""
    rng = random.Random(seed)
    sigma = delta(g1, g2) + 2
    lengths = bunch.checked(g1, g2).tight_lengths()
    violations = []
    for trial in range(trials):
        lists = {u: tuple(sorted(rng.sample(range(1, sigma + 1), b))) for u, b in lengths.items()}
        coloring = find_list_coloring(g1, g2, lists, caps)
        if coloring is None:
            subjects = tuple((name, *map(str, lists[name])) for name in g1.ground.names)
            violations.append(Violation("list_coloring_missing", subjects, (trial,)))
        else:
            assert all(coloring[name] in lists[name] for name in g1.ground.names)
            assert ref_dominates(coloring, g1).ok and ref_dominates(coloring, g2).ok
    return Report(tuple(violations))


def ref_battery(cfg, trials, caps) -> dict:
    """batch_verify's results for one config, from the public functions."""
    g1, g2 = gen_instance(cfg)
    pair = construct_pi(g1, g2, check=False)
    conditions = verify_conditions(g1, g2, pair)
    theorem = verify_main_theorem(g1, g2, trials=trials, seed=cfg.seed, caps=caps)
    assert theorem == ref_theorem(g1, g2, trials, cfg.seed, caps)
    k = min_k(g1, g2, caps)
    assert k == ref_min_k(g1, g2, caps)
    threshold_ok = k == delta(g1, g2)
    checks = {}
    for key, ok in (
        ("pi_conditions", conditions.all_ok),
        ("main_theorem", theorem.ok),
        ("min_k_equals_delta", threshold_ok),
    ):
        checks[key] = {"pass": int(ok), "fail": int(not ok)}
    failures = []
    if not (conditions.all_ok and theorem.ok and threshold_ok):
        failures.append({
            "config": asdict(cfg),
            "digest": instance_digest(g1, g2),
            "instance": instance_payload(g1, g2),
            "pi_conditions": conditions.to_dict(),
            "main_theorem": theorem.to_dict(),
            "min_k_equals_delta": threshold_ok,
        })
    return {"instances": 1, "checks": checks, "failures": failures}


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ResourceLimitError as e:
        return "cap", str(e)


def battery(cfg, trials, caps) -> dict:
    return batch_verify([cfg], list_trials=trials, seed=cfg.seed, caps=caps).results


CONFIGS = mixed_configs(seed=17, count=300, n_min=1, n_max=8)


def test_battery_matches_the_public_functions():
    for cfg in CONFIGS:
        got = battery(cfg, 3, BIG_LISTS)
        assert got == ref_battery(cfg, 3, BIG_LISTS), cfg
        # the theorem and the value bound hold on every valid instance
        assert got["failures"] == [], cfg
    strategies = Counter(cfg.strategy for cfg in CONFIGS)
    assert min(strategies.values()) >= 20, strategies


def test_battery_raises_what_the_public_functions_raise():
    kinds = Counter()
    for cfg in CONFIGS:
        got = outcome(battery, cfg, 3, TINY)
        assert got == outcome(ref_battery, cfg, 3, TINY), cfg
        kinds[got[0] if got[0] == "ok" else got[1].split(" ")[0]] += 1
    # list searches refused, k-searches refused, and instances that pass
    assert min(kinds[k] for k in ("ok", "list", "k-coloring")) >= 5, kinds


def test_battery_failure_payloads_match(monkeypatch):
    # a search that colors nothing unless k_coloring calls it: every list
    # trial, list_trials' and find_list_coloring's, fails, and min_k holds
    search = oracle._search

    def k_search_only(domains, index):
        if sys._getframe(1).f_code is oracle.k_coloring.__code__:
            return search(domains, index)
        return None

    monkeypatch.setattr(oracle, "_search", k_search_only)
    for cfg in CONFIGS[:20]:
        got = battery(cfg, 2, BIG_LISTS)
        assert got["failures"] and got == ref_battery(cfg, 2, BIG_LISTS), cfg
