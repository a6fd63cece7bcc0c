"""Command-line front end.

Commands:
  verify           check a set file against a universe
  count            count sum-free subsets of one universe
  sweep-intervals  f(n) for n = 1..n_max next to the half-exponent curve
  sweep-groups     per-isomorphism-class checks over abelian groups
  extract          deterministic sum-free extraction with full trace
  random           randomized nested generator

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error,
3 resource cap or generation timeout.

Universes are selected with --interval N (meaning [1, N]), --interval LO,HI
or --group M1,M2,...  Set files are JSON arrays of integers (interval
values, or canonical group element indices).  CSV output uses '.' decimals
and no locale; exact rationals are printed as p/q next to a float column.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from typing import TYPE_CHECKING, Callable, Optional

from .errors import (DEFAULT_GROUND_CAP, DEFAULT_MAX_ORDER, MAXIMUM_CAP, CapacityError,
                     GenerationTimeout)

if TYPE_CHECKING:
    from .groups import GroupSpec

# Each command imports the modules it runs when it runs, so that building the
# parser loads no walker and a command loads only what it calls.


def _add_universe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interval", metavar="N|LO,HI", help="interval [1, N] or [LO, HI]")
    p.add_argument("--group", metavar="M1,M2,...", help="cyclic moduli")


def _universe_from_args(args):
    from .universe import GroupUniverse, IntervalUniverse

    given = [(flag, text) for flag, text in (("--interval", args.interval),
                                             ("--group", args.group)) if text is not None]
    if len(given) != 1:
        raise ValueError("give either --interval or --group, not both" if given else
                         "no universe given: use --interval N|LO,HI or --group M1,M2,...")
    flag, text = given[0]
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise ValueError(f"{flag} {text!r} has an empty item")
    values = [int(x) for x in items]
    if flag == "--group":
        from .groups import make_group

        return GroupUniverse(make_group(values))
    if len(values) > 2:
        raise ValueError(f"--interval {text!r} has {len(values)} items, expected N or LO,HI")
    return IntervalUniverse(*values) if len(values) == 2 else IntervalUniverse(1, *values)


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def _emit_json(value, path: Optional[str]) -> None:
    import json

    _emit(json.dumps(value, indent=2) + "\n", path)


def _emit_int_list(values: list[int], path: Optional[str]) -> None:
    _emit(f"{values!r}\n", path)  # json.dumps(values), without holding every member's digits


def _emit_rows(fieldnames: list[str], rows: list[dict], fmt: str, path: Optional[str]) -> None:
    if fmt == "json":
        _emit_json(rows, path)
    else:
        _emit(_rows_to_csv(fieldnames, rows), path)


def _read_int_array(path: str) -> list[int]:
    import json

    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, list) or not all(type(v) is int for v in values):  # no bools
        raise ValueError(f"{path}: expected a JSON array of integers")
    return values


def _moduli_label(moduli: tuple[int, ...]) -> str:
    return "x".join(str(m) for m in moduli) if moduli else "1"


# commands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .universe import (ElemSet, count_schur_triples, is_maximal_sum_free, is_sum_free,
                           is_two_wise_sum_free)

    u = _universe_from_args(args)
    values = _read_int_array(args.set)
    s = ElemSet.from_values(u, values)
    if len(s) != len(values):
        raise ValueError("elements must be distinct")
    sf = is_sum_free(s)
    report = {
        "universe": u.describe(),
        "set": s.to_json_list(),
        "sum_free": sf,
        "maximal_sum_free": is_maximal_sum_free(s),
        "two_wise_sum_free": is_two_wise_sum_free(s),
        "schur_triples": count_schur_triples(s),
    }
    if args.format == "json":
        _emit_json(report, args.out)
    else:
        lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
                 for k, v in report.items() if k != "set"]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if sf else 1


def cmd_count(args) -> int:
    from .enumeration import build_count_record

    u = _universe_from_args(args)
    rec = build_count_record(
        u,
        with_maximal=args.maximal,
        with_cardinality=args.by_cardinality,
        with_two_wise=args.two_wise,
        shard_count=args.shards,
    )
    row = {
        "universe": rec.universe,
        "size": rec.size,
        "f": rec.f,
        "f_max": rec.f_max,
        "f_odd": rec.f_odd,
        "f_interval": rec.f_interval,
        "f_2wise": rec.f_two_wise,
        "ratio_half": None if rec.ratio_half is None else f"{rec.ratio_half:.6f}",
        "by_cardinality": None
        if rec.by_cardinality is None
        else ";".join(f"{m}:{c}" for m, c in rec.by_cardinality.items()),
        "shards": rec.shard_count,
    }
    if args.format == "json":
        payload = dict(row)
        payload["by_cardinality"] = rec.by_cardinality
        payload["ratio_half"] = rec.ratio_half
        _emit_json(payload, args.out)
    else:
        _emit(_rows_to_csv(list(row), [row]), args.out)
    return 0


def interval_sweep_rows(n_max: int) -> list[dict]:
    from .enumeration import count_by_largest
    from .universe import IntervalUniverse

    if n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {n_max}")
    # one walk of [1, n_max] (at least [1, 1], as no interval is empty):
    # f(n) counts the sets whose largest element is <= n
    by_top = count_by_largest(IntervalUniverse(1, max(n_max, 1)))
    rows = []
    f = by_top[0]
    for n in range(1, n_max + 1):
        f += by_top[n]
        rows.append(
            {
                "n": n,
                "f": f,
                "log2_f": f"{math.log2(f):.6f}",
                "half_n": f"{n / 2:.1f}",
                "ratio": f"{f / 2 ** (n / 2):.6f}",
                "parity": "odd" if n % 2 else "even",
            }
        )
    return rows


def cmd_sweep_intervals(args) -> int:
    _emit_rows(["n", "f", "log2_f", "half_n", "ratio", "parity"],
               interval_sweep_rows(args.n_max), args.format, args.out)
    return 0


def _mu_row(g: GroupSpec) -> dict:
    from .analysis import density_report

    rep = density_report(g)
    return {"mu": str(rep.mu), "mu_float": f"{float(rep.mu):.6f}", "v": str(rep.v),
            "v_case": rep.v_case, "agree": rep.agree}


def _index2_row(g: GroupSpec) -> dict:
    from .analysis import verify_index2_structure
    from .groups import index2_subgroups

    subgroups = index2_subgroups(g)  # built once, for the check and the count
    ok = verify_index2_structure(g, subgroups)
    return {"subgroups": len(subgroups),
            "expected": (1 << g.even_component_count()) - 1,
            "coset_equality": "n/a" if ok is None else ok}


def _lev_row(g: GroupSpec) -> dict:
    from .analysis import even_order_leading_term

    if g.order % 2:
        return dict.fromkeys(("leading", "f", "ratio", "ratio_float"), "n/a")
    leading, ratio = even_order_leading_term(g)  # ratio = f / leading exactly
    return {"leading": leading, "f": int(ratio * leading), "ratio": str(ratio),
            "ratio_float": f"{float(ratio):.6f}"}


def _giudici1_row(g: GroupSpec) -> dict:
    from .analysis import _singleton_witnesses

    return {"witnesses": ";".join(map(str, _singleton_witnesses(g)))}


def _giudici2_row(g: GroupSpec) -> dict:
    from .analysis import _maximal_of_size

    return {"pairs": ";".join(":".join(str(v) for v in s.members())
                              for s in _maximal_of_size(g, 2))}


# check -> (its columns, its largest ground size, its row as a function of one
# group); the scans walk to depth 1 or 2, so their cap is the order cap, which
# group_sweep_rows checks like the others
GROUP_CHECKS: dict[str, tuple[list[str], int, Callable[[GroupSpec], dict]]] = {
    "mu": (["mu", "mu_float", "v", "v_case", "agree"], MAXIMUM_CAP, _mu_row),
    "index2": (["subgroups", "expected", "coset_equality"], MAXIMUM_CAP, _index2_row),
    "lev": (["leading", "f", "ratio", "ratio_float"], DEFAULT_GROUND_CAP, _lev_row),
    "giudici1": (["witnesses"], DEFAULT_MAX_ORDER - 1, _giudici1_row),
    "giudici2": (["pairs"], DEFAULT_MAX_ORDER - 1, _giudici2_row),
}


def group_sweep_rows(max_order: int, check: str) -> tuple[list[str], list[dict]]:
    # enumeration, the largest module, is compiled first, while the fewest
    # objects are alive: compiled after groups it raised the job's peak RSS
    from . import enumeration, groups

    if check not in GROUP_CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if max_order < 0:
        raise ValueError(f"--max-order must be >= 0, got {max_order}")
    fields, cap, row = GROUP_CHECKS[check]
    if max_order - 1 > cap:  # before the first row, not when the sweep gets there
        raise CapacityError(
            f"check {check} to order {max_order} needs ground size {max_order - 1}, "
            f"cap is {cap}")
    rows = [
        {"moduli": _moduli_label(g.moduli), "order": n, **row(g)}
        for n in range(2, max_order + 1)
        for g in groups.abelian_groups_of_order(n)
    ]
    return ["moduli", "order", *fields], rows


def cmd_sweep_groups(args) -> int:
    _emit_rows(*group_sweep_rows(args.max_order, args.check), args.format, args.out)
    return 0


def cmd_extract(args) -> int:
    from .generate import extract_sum_free

    trace = extract_sum_free(_read_int_array(args.input))
    if args.trace:
        _emit_json(trace.to_json_dict(), args.out)
    else:
        _emit_int_list(trace.subset.to_json_list(), args.out)
    return 0


def cmd_random(args) -> int:
    from .generate import RandomGenConfig, random_sum_free

    cfg = RandomGenConfig(
        seed_element=args.seed_element,
        target_cardinality=args.target,
        sample_hi=args.range,
        max_iterations=args.max_iterations,
        rng_seed=args.seed,
    )
    s = random_sum_free(cfg)
    _emit_int_list(s.to_json_list(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumfree",
        description="Sum-free subsets of integer intervals and finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a set file against a universe")
    _add_universe_flags(p)
    p.add_argument("--set", required=True, help="JSON array of members")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="count sum-free subsets")
    _add_universe_flags(p)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--by-cardinality", action="store_true")
    p.add_argument("--2wise", dest="two_wise", action="store_true")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sweep-intervals", help="counts for [1, n], n = 1..n_max")
    p.add_argument("--n-max", type=int, default=33)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep_intervals)

    p = sub.add_parser("sweep-groups", help="per-class checks over abelian groups")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--check", required=True, choices=list(GROUP_CHECKS))
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep_groups)

    p = sub.add_parser("extract", help="extract a large sum-free subset")
    p.add_argument("input", help="JSON array of positive integers")
    p.add_argument("--trace", action="store_true", help="dump the full trace")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("random", help="randomized nested generator")
    p.add_argument("--seed-element", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--range", type=int, default=1000, help="sampling bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except GenerationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
