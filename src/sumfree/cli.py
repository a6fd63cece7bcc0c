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

Universes are selected with --interval N (meaning [1, N]),
--interval-lo/--interval-hi, or --group M1,M2,...  Set files are JSON
arrays of integers (interval values, or canonical group element indices).
CSV output uses '.' decimals and no locale; exact rationals are printed
as p/q next to a float column.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import (
    density_report,
    even_order_leading_term,
    pair_maximal_groups,
    singleton_maximal_groups,
    verify_index2_structure,
)
from .enumeration import (
    DEFAULT_GROUND_CAP,
    MAXIMUM_CAP,
    build_count_record,
    count_by_largest,
    count_sum_free,
)
from .errors import CapacityError, GenerationTimeout
from .generate import RandomGenConfig, extract_sum_free, random_sum_free
from .groups import (
    DEFAULT_MAX_ORDER,
    GroupSpec,
    abelian_groups_of_order,
    index2_subgroups,
    make_group,
)
from .universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    count_schur_triples,
    is_maximal_sum_free,
    is_sum_free,
    is_two_wise_sum_free,
)


@dataclass
class ExperimentConfig:
    """Settings of the interval counting sweep."""

    n_max: int = 33
    shard_count: int = 1
    cap: int = DEFAULT_GROUND_CAP
    output_path: Optional[str] = None
    format: str = "csv"


def _add_universe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interval", type=int, metavar="N", help="interval [1, N]")
    p.add_argument("--interval-lo", type=int, metavar="LO")
    p.add_argument("--interval-hi", type=int, metavar="HI")
    p.add_argument("--group", metavar="M1,M2,...", help="cyclic moduli")


def _universe_from_args(args):
    picked = sum(
        x is not None
        for x in (args.interval, args.interval_lo, args.interval_hi, args.group)
    )
    if args.group is not None:
        if picked > 1:
            raise ValueError("give either interval flags or --group, not both")
        moduli = [int(x) for x in args.group.split(",") if x.strip()]
        return GroupUniverse(make_group(moduli))
    if args.interval is not None:
        if args.interval_lo is not None or args.interval_hi is not None:
            raise ValueError("--interval conflicts with --interval-lo/--interval-hi")
        return IntervalUniverse(1, args.interval)
    if args.interval_lo is not None and args.interval_hi is not None:
        return IntervalUniverse(args.interval_lo, args.interval_hi)
    raise ValueError(
        "no universe given: use --interval, --interval-lo with --interval-hi, or --group"
    )


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def _emit_rows(fieldnames: list[str], rows: list[dict], fmt: str, path: Optional[str]) -> None:
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", path)
    else:
        _emit(_rows_to_csv(fieldnames, rows), path)


def _read_int_array(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
        raise ValueError(f"{path}: expected a JSON array of integers")
    return values


def _moduli_label(moduli: tuple[int, ...]) -> str:
    return "x".join(str(m) for m in moduli) if moduli else "1"


# commands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    u = _universe_from_args(args)
    if u.ground_size > DEFAULT_MAX_ORDER:  # group orders are capped by make_group
        raise CapacityError(
            f"{u.describe()} has {u.ground_size} elements, cap is {DEFAULT_MAX_ORDER}"
        )
    s = ElemSet.from_values(u, _read_int_array(args.set))
    sf = is_sum_free(u, s)
    report = {
        "universe": u.describe(),
        "set": s.to_json_list(),
        "sum_free": sf,
        "maximal_sum_free": is_maximal_sum_free(u, s),
        "two_wise_sum_free": is_two_wise_sum_free(u, s),
        "schur_triples": count_schur_triples(u, s),
    }
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
                 for k, v in report.items() if k != "set"]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if sf else 1


def cmd_count(args) -> int:
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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_rows_to_csv(list(row), [row]), args.out)
    return 0


def interval_sweep_rows(cfg: ExperimentConfig) -> list[dict]:
    if cfg.n_max < 1:
        return []
    # one walk of [1, n_max]: f(n) counts the sets whose largest element is <= n
    by_top = count_by_largest(IntervalUniverse(1, cfg.n_max), cfg.shard_count, cfg.cap)
    rows = []
    f = by_top[0]
    for n in range(1, cfg.n_max + 1):
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
    cfg = ExperimentConfig(
        n_max=args.n_max,
        shard_count=args.shards,
        output_path=args.out,
        format=args.format,
    )
    _emit_rows(["n", "f", "log2_f", "half_n", "ratio", "parity"], interval_sweep_rows(cfg),
               cfg.format, cfg.output_path)
    return 0


def _mu_row(g: GroupSpec) -> dict:
    rep = density_report(g)
    return {"mu": str(rep.mu), "mu_float": f"{float(rep.mu):.6f}", "v": str(rep.v),
            "v_case": rep.v_case, "agree": rep.agree}


def _index2_row(g: GroupSpec) -> dict:
    ok = verify_index2_structure(g)
    return {"subgroups": len(index2_subgroups(g)),
            "expected": (1 << g.even_component_count()) - 1,
            "coset_equality": "n/a" if ok is None else ok}


def _lev_row(g: GroupSpec) -> dict:
    if g.order % 2:
        return dict.fromkeys(("leading", "f", "ratio", "ratio_float"), "n/a")
    leading, ratio = even_order_leading_term(g)
    return {"leading": leading, "f": count_sum_free(GroupUniverse(g)), "ratio": str(ratio),
            "ratio_float": f"{float(ratio):.6f}"}


def _giudici1_rows(max_order: int) -> Callable[[GroupSpec], dict]:
    hits = {g.moduli: wits for g, wits in singleton_maximal_groups(max_order)}
    return lambda g: {"witnesses": ";".join(str(w.index) for w in hits.get(g.moduli, ()))}


def _giudici2_rows(max_order: int) -> Callable[[GroupSpec], dict]:
    pairs: dict[tuple[int, ...], list[str]] = {}
    for g, s in pair_maximal_groups(max_order):
        pairs.setdefault(g.moduli, []).append(":".join(str(v) for v in s.members()))
    return lambda g: {"pairs": ";".join(pairs.get(g.moduli, []))}


# check -> (its columns, the largest ground size it takes, a function of
# max_order giving the row builder); the scans walk to depth 1 or 2, so
# only the order cap of make_group bounds them
GROUP_CHECKS: dict[str, tuple[list[str], int, Callable[[int], Callable[[GroupSpec], dict]]]] = {
    "mu": (["mu", "mu_float", "v", "v_case", "agree"], MAXIMUM_CAP, lambda _: _mu_row),
    "index2": (["subgroups", "expected", "coset_equality"], MAXIMUM_CAP, lambda _: _index2_row),
    "lev": (["leading", "f", "ratio", "ratio_float"], DEFAULT_GROUND_CAP, lambda _: _lev_row),
    "giudici1": (["witnesses"], DEFAULT_MAX_ORDER - 1, _giudici1_rows),
    "giudici2": (["pairs"], DEFAULT_MAX_ORDER - 1, _giudici2_rows),
}


def group_sweep_rows(max_order: int, check: str) -> tuple[list[str], list[dict]]:
    if check not in GROUP_CHECKS:
        raise ValueError(f"unknown check {check!r}")
    fields, cap, builder = GROUP_CHECKS[check]
    if max_order - 1 > cap:  # before the first row, not when the sweep gets there
        raise CapacityError(
            f"check {check} to order {max_order} needs ground size {max_order - 1}, "
            f"cap is {cap}")
    row = builder(max_order)
    rows = [
        {"moduli": _moduli_label(g.moduli), "order": n, **row(g)}
        for n in range(2, max_order + 1)
        for g in abelian_groups_of_order(n)
    ]
    return ["moduli", "order", *fields], rows


def cmd_sweep_groups(args) -> int:
    _emit_rows(*group_sweep_rows(args.max_order, args.check), args.format, args.out)
    return 0


def cmd_extract(args) -> int:
    trace = extract_sum_free(_read_int_array(args.input))
    if args.trace:
        _emit(json.dumps(trace.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit(json.dumps(trace.subset.to_json_list()) + "\n", args.out)
    return 0


def cmd_random(args) -> int:
    if args.range > DEFAULT_MAX_ORDER:  # every draw builds a mask this wide
        raise CapacityError(
            f"random range [1,{args.range}] has {args.range} elements, "
            f"cap is {DEFAULT_MAX_ORDER}"
        )
    cfg = RandomGenConfig(
        seed_element=args.seed_element,
        target_cardinality=args.target,
        sample_hi=args.range,
        max_iterations=args.max_iterations,
        rng_seed=args.seed,
    )
    s = random_sum_free(cfg)
    _emit(json.dumps(s.to_json_list()) + "\n", args.out)
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
    p.add_argument("--shards", type=int, default=1)
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
