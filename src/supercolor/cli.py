"""Command-line front end: machine JSON on stdout, diagnostics on stderr.

Exit codes: 0 success / property holds, 1 property violated or coloring
absent, 2 input or parse error, 3 resource cap exceeded, 4 internal error
(any other exception; its traceback goes to stderr).  Identical argv,
files and seeds produce byte-identical stdout; timing never goes to stdout.
`batch-verify` and `tightness-probe` run the checks in bulk on seeded
random instances from gen.mixed_configs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Sequence

from .core import (
    InputError,
    ResourceLimitError,
    SetFn,
    check_capacity,
    check_pairs,
    decode_json,
    delta,
    dump_json,
    instance_payload,
    load_instance,
    read_text,
)
from . import bunch, encode, gen, oracle, pi as pi_mod
from .matching import common_transversal
from .oracle import DEFAULT_CAPS, SearchCaps


@dataclass(frozen=True)
class RunReport:
    command: str
    digest: str
    results: dict
    seed: int | None = None

    def to_payload(self) -> dict:
        payload = {"command": self.command, "digest": self.digest, "results": self.results}
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload


def instance_digest(g1: SetFn, g2: SetFn) -> str:
    canon = {
        "elements": list(g1.ground.names),
        "g1": sorted((list(g1.ground.names_of(m)), v) for m, v in g1.entries),
        "g2": sorted((list(g2.ground.names_of(m)), v) for m, v in g2.entries),
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


_CAP_FIELDS = {"k_search": "k_search_elements", "list_budget": "list_budget"}


def caps_from_env(env=os.environ) -> SearchCaps:
    given = {}
    for part in env.get("SUPERCOLOR_CAPS", "").split(","):
        part = part.strip()
        if not part:
            continue
        key, _, num = part.partition("=")
        key = key.strip()
        num = num.strip()
        try:
            if not num.isdecimal():  # isdigit also takes "²", which int() rejects
                raise ValueError
            value = int(num)  # also raises past int()'s digit limit
        except ValueError:
            raise InputError(f"bad SUPERCOLOR_CAPS entry {part!r}") from None
        if key not in _CAP_FIELDS:
            raise InputError(f"unknown SUPERCOLOR_CAPS key {key!r}")
        given[_CAP_FIELDS[key]] = value
    return replace(DEFAULT_CAPS, **given)


# -- subcommand handlers ------------------------------------------------------

def _cmd_check(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    results = {}
    all_ok = True
    for key, g in (("g1", g1), ("g2", g2)):
        family, unequal = check_pairs(g)
        if family.ok:
            supermodular = unequal.to_dict()
        else:
            supermodular = {"ok": False, "skipped": "family not intersecting-closed"}
        capacity = check_capacity(g)
        results[key] = {
            "family": family.to_dict(),
            "supermodular": supermodular,
            "capacity": capacity.to_dict(),
        }
        all_ok = all_ok and family.ok and supermodular.get("ok", False) and capacity.ok
    payload = {
        "command": "check",
        "digest": instance_digest(g1, g2),
        "ok": all_ok,
        "results": results,
    }
    return (0 if all_ok else 1), payload


def _cmd_analyze(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    g = (g1, g2)[args.side - 1]
    names = g.ground.names_of
    eff = bunch.effective_family(g)
    parts = bunch.bunch_partition(g)
    values = dict(g.entries)
    payload = {
        "command": "analyze",
        "digest": instance_digest(g1, g2),
        "side": args.side,
        "effective_family": [list(names(m)) for m in eff],
        "partition": [list(names(p)) for p in parts],
        "d": bunch.d_function(g),
        "part_values": [{"part": list(names(p)), "value": values.get(p)} for p in parts],
    }
    return 0, payload


def _parse_names(raw: str) -> list[str]:
    """--k names: a JSON array of exact names, or comma-separated and stripped."""
    if not raw.startswith("["):
        return [piece.strip() for piece in raw.split(",") if piece.strip()]
    names = decode_json(raw, "--k is not a JSON array")
    if not all(isinstance(n, str) for n in names):
        raise InputError("--k must be a JSON array of element names")
    return names


def _cmd_reduce(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    ground = g1.ground
    k = ground.mask_of(_parse_names(args.k))
    (red1, att1), (red2, att2) = (bunch.reduce(g, k) for g in (g1, g2))
    payload = instance_payload(red1, red2)
    payload["attainers"] = attainers = {"g1": {}, "g2": {}}
    rest = red1.ground  # the ground set without K, which both reduced sides share
    for key, res in (("g1", att1), ("g2", att2)):
        for x, z in sorted(res.items()):
            name = ",".join(rest.names_of(x))  # two sets print alike if names hold ","
            if name in attainers[key]:
                raise InputError(f"two reduced {key} sets both print as {name!r} in attainers")
            attainers[key][name] = list(ground.names_of(z))
    payload["removed"] = list(ground.names_of(k))
    return 0, payload


def _cmd_transversal(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    result = common_transversal(g1, g2)
    payload = {
        "command": "transversal",
        "digest": instance_digest(g1, g2),
        "k": list(result.k),
        "case": result.case_tag,
    }
    return 0, payload


def _cmd_pi(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    inst = bunch.checked(g1, g2)
    span = delta(g1, g2)
    if args.method == "keylemma":
        pair, levels = pi_mod.build(inst, check=False)
        trace = pi_mod.level_log(inst.ground, levels)
    else:
        pair, trace = pi_mod.schrijver_pi(inst, caps), []
    conditions = pi_mod.condition_report(inst, pair)
    if args.method == "keylemma":
        ok = conditions.all_ok
    else:
        # the split pair only promises (ii) plus (i) against the global span
        ok = conditions.ii_ok and all(
            pair.pi1[u] + pair.pi2[u] - 1 <= span for u in g1.ground.names
        )
    payload = {
        "command": "pi",
        "digest": instance_digest(g1, g2),
        "method": args.method,
        "pi1": pair.pi1,
        "pi2": pair.pi2,
        "f": inst.tight_lengths(),
        "delta": span,
        "conditions": conditions.to_dict(),
        "trace": trace,
        "ok": ok,
    }
    return (0 if ok else 1), payload


def _load_lists(path) -> dict:
    doc = decode_json(read_text(path))
    if not isinstance(doc, dict):
        raise InputError("lists file must map element names to color lists")
    for name, colors in doc.items():
        # a boolean would equal the color 1 or 0; NaN and Infinity print as non-JSON
        if not isinstance(colors, list) or any(
            isinstance(c, (list, dict, bool)) or (isinstance(c, float) and not math.isfinite(c))
            for c in colors
        ):
            raise InputError(f"colors of {name!r} must list finite numbers, strings or nulls")
    return doc


def _cmd_color(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    if args.lists is not None:
        coloring = oracle.find_list_coloring(g1, g2, _load_lists(args.lists), caps)
    else:
        coloring = oracle.find_k_coloring(g1, g2, args.k, caps)
    payload = {
        "command": "color",
        "digest": instance_digest(g1, g2),
        "found": coloring is not None,
        "coloring": coloring,
    }
    return (0 if coloring is not None else 1), payload


def _cmd_verify(args, caps) -> tuple[int, dict]:
    g1, g2 = load_instance(args.file)
    sigma = args.sigma if args.sigma is not None else delta(g1, g2) + 2
    report = oracle.verify_main_theorem(g1, g2, args.trials, sigma, args.seed, caps)
    payload = {
        "command": "verify",
        "digest": instance_digest(g1, g2),
        "seed": args.seed,
        "trials": args.trials,
        "sigma": sigma,
        "ok": report.ok,
        "violations": [v.to_dict() for v in report.violations],
    }
    return (0 if report.ok else 1), payload


def _cmd_encode(args, caps) -> tuple[int, dict]:
    graph = encode.load_graph(args.file)
    g1, g2 = encode.encode_bipartite(graph)
    return 0, instance_payload(g1, g2)


def _cmd_gen(args, caps) -> tuple[int, dict]:
    cfg = gen.GenConfig(seed=args.seed, n_elements=args.n, strategy=args.strategy)
    return 0, instance_payload(*gen.gen_instance(cfg))


def _cmd_batch_verify(args, caps) -> tuple[int, dict]:
    configs = gen.mixed_configs(seed=args.seed, count=args.count, n_max=args.n_max)
    report = batch_verify(configs, list_trials=args.trials, seed=args.seed, caps=caps)
    return (1 if report.results["failures"] else 0), report.to_payload()


def _cmd_tightness_probe(args, caps) -> tuple[int, dict]:
    """Draw lists one shorter than max{d1(u), d2(u)} wherever that leaves a
    nonempty list, and count how often a coloring still exists."""
    if args.draws < 0:
        raise InputError("draws must be nonnegative")
    drawn = uncolorable = skipped = 0
    for cfg in gen.mixed_configs(seed=args.seed, count=args.count, n_max=args.n_max):
        g1, g2 = gen.gen_instance(cfg)
        bound = bunch.checked(g1, g2).tight_lengths()
        if all(b == 1 for b in bound.values()):
            skipped += 1  # nothing to shorten
            continue
        shorter = {u: max(1, b - 1) for u, b in bound.items()}
        sigma = delta(g1, g2) + 2
        index = oracle.constraint_index(g1, g2)
        report = oracle.list_trials(index, shorter, args.draws, sigma, cfg.seed ^ 0x7717, caps)
        drawn += args.draws
        uncolorable += len(report.violations)
    return 0, {
        "draws": drawn,
        "colorable": drawn - uncolorable,
        "uncolorable": uncolorable,
        "skipped_trivial_instances": skipped,
        "failure_rate": (uncolorable / drawn) if drawn else None,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="supercolor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("analyze", help="effective family, partition and d-map")
    p.add_argument("file")
    p.add_argument("--side", type=int, choices=(1, 2), default=1)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("reduce", help="reduce both functions by a removal set")
    p.add_argument("file")
    p.add_argument("--k", required=True, help="comma-separated names, or a JSON array of names")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("transversal", help="common partial transversal of both partitions")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_transversal)

    p = sub.add_parser("pi", help="construct the auxiliary pair")
    p.add_argument("file")
    p.add_argument("--method", choices=("keylemma", "schrijver"), default="keylemma")
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("color", help="search for a dominating coloring")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lists", help="JSON file mapping elements to color lists")
    mode.add_argument("--k", type=int, help="search over colors 1..k instead of lists")
    p.set_defaults(handler=_cmd_color)

    p = sub.add_parser("verify", help="random tight-list trials must all color")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sigma", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("encode-bipartite", help="encode a bipartite multigraph")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("gen", help="generate a random valid instance")
    p.add_argument("--strategy", choices=gen.STRATEGIES, default="closure")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("batch-verify", help="run the full battery on random instances")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--trials", type=int, default=3, help="list trials per instance")
    p.set_defaults(handler=_cmd_batch_verify)

    p = sub.add_parser("tightness-probe", help="color random lists one shorter than the bound")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--draws", type=int, default=5, help="list draws per instance")
    p.set_defaults(handler=_cmd_tightness_probe)
    return parser


EXPECTED_ERRORS = (InputError, ResourceLimitError)


def error_exit(e: Exception) -> int:
    """Print e to stderr and return its exit code: 3 for a cap or exhausted
    generator, 2 for any other expected error, 4 for an internal error."""
    if not isinstance(e, EXPECTED_ERRORS):
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exception(e)
        return 4
    print(f"error: {e}", file=sys.stderr)
    return 3 if isinstance(e, ResourceLimitError) else 2


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    started = time.monotonic()
    try:
        caps = caps_from_env()
        code, payload = args.handler(args, caps)
        text = dump_json(payload)
    except Exception as e:  # the exit code tells expected errors from internal ones
        return error_exit(e)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except Exception as e:  # a stdout that cannot take it is exit 4
        # the unwritten bytes stay buffered: point fd 1 at the null device so
        # that the interpreter's flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return error_exit(e)
    print(f"{args.command} finished in {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


# -- batch verification --------------------------------------------------------

def batch_verify(
    configs: Iterable[gen.GenConfig],
    list_trials: int = 3,
    seed: int | None = None,
    caps: SearchCaps = DEFAULT_CAPS,
) -> RunReport:
    """Generate every configured instance and run the full battery on it:
    auxiliary-pair conditions, random tight-list colorability, and the minimum
    color count against the value bound.  Failures carry a replayable config
    and the serialized instance."""
    if list_trials < 0:
        raise InputError("trials must be nonnegative")
    checks = {
        "pi_conditions": {"pass": 0, "fail": 0},
        "main_theorem": {"pass": 0, "fail": 0},
        "min_k_equals_delta": {"pass": 0, "fail": 0},
    }
    failures = []
    instances = 0
    digest = hashlib.sha256(b"[")  # the bytes of one json.dumps of every config
    for cfg in configs:
        if instances:
            digest.update(b",")
        # from the fields, since vars() would leave a __dict__ on each config (3.11+)
        config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        digest.update(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())
        instances += 1
        g1, g2 = gen.gen_instance(cfg)
        inst = bunch.checked(g1, g2)  # no walk: gen_instance recorded both checks
        pair, _ = pi_mod.build(inst, check=False)
        conditions = pi_mod.condition_report(inst, pair)
        index = oracle.constraint_index(g1, g2)
        span = delta(g1, g2)
        theorem = oracle.list_trials(
            index, inst.tight_lengths(), list_trials, span + 2, cfg.seed, caps
        )
        # min_k == span, since pigeonhole rules out every smaller k
        threshold_ok = oracle.k_coloring(index, span, caps) is not None
        for key, ok in (
            ("pi_conditions", conditions.all_ok),
            ("main_theorem", theorem.ok),
            ("min_k_equals_delta", threshold_ok),
        ):
            checks[key]["pass" if ok else "fail"] += 1
        if not (conditions.all_ok and theorem.ok and threshold_ok):
            failures.append(
                {
                    "config": asdict(cfg),
                    "digest": instance_digest(g1, g2),
                    "instance": instance_payload(g1, g2),
                    "pi_conditions": conditions.to_dict(),
                    "main_theorem": theorem.to_dict(),
                    "min_k_equals_delta": threshold_ok,
                }
            )
    failures.sort(key=lambda f: f["digest"])
    digest.update(b"]")
    results = {"instances": instances, "checks": checks, "failures": failures}
    return RunReport(
        command="batch-verify",
        digest=digest.hexdigest(),
        results=results,
        seed=seed,
    )


if __name__ == "__main__":
    main()
