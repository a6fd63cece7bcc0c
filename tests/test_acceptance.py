"""Acceptance gate: the full battery of end-to-end checks with their stated
tolerances and budgets.  Each test prints one PASS/FAIL line with the
measured numbers (run with -s to see them on success too)."""

import math
import random
import time
from fractions import Fraction

from oracles import two_wise_count_oracle
from sumfree.analysis import (
    decomposition_ratio,
    density_report,
    pair_maximal_groups,
    singleton_maximal_groups,
    structure_verdict,
    verify_index2_structure,
    weighted_density_check,
)
from sumfree.arith import is_prime
from sumfree.construct import extremal_intervals, odds
from sumfree.enumeration import (
    count_maximal,
    count_sum_free,
    count_two_wise,
    enumerate_maximum,
    enumerate_naive,
    enumerate_sum_free,
)
from sumfree.generate import extract_sum_free
from sumfree.groups import GroupSpec, abelian_groups_of_order, index2_subgroups
from sumfree.universe import GroupUniverse, IntervalUniverse, is_sum_free

EXTRA_MAXIMUM_SETS = {
    4: {(1, 4)},
    6: {(2, 5, 6), (1, 4, 6)},
    8: {(2, 3, 7, 8)},
}


def report(num: int, label: str, ok: bool, detail: str = "") -> str:
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {label}: {tag}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


def test_01_maximum_cardinality_classification():
    t0 = time.monotonic()
    problems = []
    for n in range(2, 27):
        got = {s.members() for s in enumerate_maximum(IntervalUniverse(1, n))}
        rules = {odds(n).members()}
        rules |= {s.members() for s in extremal_intervals(n)}
        expected = rules | EXTRA_MAXIMUM_SETS.get(n, set())
        if got != expected:
            problems.append((n, got ^ expected))
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30
    report(1, "maximum-cardinality sets and their exceptions", ok,
           f"n=2..26 in {elapsed:.1f}s, mismatches={problems}")
    assert ok, problems


def test_02_counting_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = []
    for n in range(1, 19):
        u = IntervalUniverse(1, n)
        if count_sum_free(u) != enumerate_naive(u):
            mismatches.append(("interval", n))
    for order in range(1, 19):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            if count_sum_free(u) != enumerate_naive(u):
                mismatches.append(("group", g.moduli))
    elapsed = time.monotonic() - t0
    ok = not mismatches
    report(2, "walk count equals naive count", ok,
           f"intervals and groups to 18 in {elapsed:.1f}s")
    assert ok, mismatches


def test_03_interval_count_growth():
    t0 = time.monotonic()
    f = {n: count_sum_free(IntervalUniverse(1, n)) for n in range(1, 34)}
    elapsed = time.monotonic() - t0
    ratio = {n: f[n] / 2 ** (n / 2) for n in f}

    lower_ok = all(f[n] > 1 << ((n + 1) // 2) for n in range(2, 34))
    parity_ok = ratio[33] > ratio[32]
    window_ok = 4.5 <= ratio[32] <= 8 and 4.5 <= ratio[33] <= 8
    if not window_ok:
        print(f"  flag: ratio(32)={ratio[32]:.4f}, ratio(33)={ratio[33]:.4f} "
              "outside the expected window [4.5, 8] (limit values only)")
    ceiling_ok = all(r < 10 for r in ratio.values())
    over = {n: round(r, 4) for n, r in ratio.items() if r >= 10}

    ok = elapsed < 300 and lower_ok and parity_ok and ceiling_ok
    report(3, "interval counts versus the half-exponent curve", ok,
           f"f(33)={f[33]}, ratio(32)={ratio[32]:.4f}, ratio(33)={ratio[33]:.4f}, "
           f"{elapsed:.1f}s")
    assert elapsed < 300
    assert lower_ok
    assert parity_ok
    assert ceiling_ok, f"ratio reaches 10 from n=21 on: {over}"


def test_04_density_sweep():
    t0 = time.monotonic()
    disagreements = []
    out_of_range = []
    for order in range(2, 33):
        for g in abelian_groups_of_order(order):
            rep = density_report(g)
            if not rep.agree:
                disagreements.append((g.moduli, rep.mu, rep.v))
            if not Fraction(2, 7) <= rep.mu <= Fraction(1, 2):
                out_of_range.append((g.moduli, rep.mu))
    c7 = density_report(GroupSpec((7,)))
    elapsed = time.monotonic() - t0
    ok = (not disagreements and not out_of_range
          and c7.mu == Fraction(2, 7) and elapsed < 120)
    report(4, "measured density equals the closed form (orders 2..32)", ok,
           f"{elapsed:.1f}s, mu(C7)={c7.mu}")
    assert ok, (disagreements, out_of_range)


def test_05_index2_structure():
    problems = []
    for order in range(2, 33, 2):
        for g in abelian_groups_of_order(order):
            if verify_index2_structure(g) is not True:
                problems.append(g.moduli)
            if len(index2_subgroups(g)) != (1 << g.even_component_count()) - 1:
                problems.append(("count", g.moduli))
    ok = not problems
    report(5, "half-order sets are exactly the index-2 cosets", ok,
           "even orders 2..32")
    assert ok, problems


def test_06_weighted_density_inequality():
    t0 = time.monotonic()
    failures = []
    tight_cases = []
    for n in range(2, 2001):
        rep = weighted_density_check(n)
        if not rep.ok:
            failures.append(n)
        for d in rep.tight_divisors:
            if len(tight_cases) < 5:
                tight_cases.append((n, d))
    elapsed = time.monotonic() - t0
    rep6 = weighted_density_check(6)
    ok = (not failures and elapsed < 60 and tight_cases
          and rep6.slack_by_divisor[3] == 0)
    report(6, "two-band weighted density inequality", ok,
           f"n=2..2000 in {elapsed:.1f}s, first tight cases {tight_cases}")
    assert ok, failures


def test_07_extraction_battery():
    rng = random.Random(20240817)
    bound_hits = 0
    t0 = time.monotonic()
    for _ in range(500):
        elems = rng.sample(range(1, 10**6 + 1), rng.randint(1, 50))
        tr = extract_sum_free(elems)
        assert set(tr.subset.members()) <= set(elems)
        assert 3 * tr.subset.cardinality > len(elems)
        assert is_sum_free(tr.subset)
        bound_hits += tr.within_prime_bound
    elapsed = time.monotonic() - t0
    report(7, "extraction yields a sum-free third on every instance", True,
           f"500 instances in {elapsed:.1f}s, prime bound held on {bound_hits}")


def test_08_maximal_count_lower_bound():
    rows = []
    ok = True
    for n in range(12, 25):
        fm = count_maximal(IntervalUniverse(1, n))
        floor = 1 << (n // 4)
        rows.append(f"{n}:{fm}/{floor}={fm / 2 ** (n / 4):.2f}")
        if fm < floor:
            ok = False
    report(8, "maximal-set counts clear the quarter-exponent floor", ok,
           " ".join(rows))
    assert ok


def test_09_structure_law_sweep():
    counts = {"pass": 0, "vacuous": 0, "fail": 0}
    failing = []

    def check(s):
        v = structure_verdict(s)
        counts[v.status] += 1
        if v.status == "fail":
            failing.append((s.members(), v.detail))

    enumerate_sum_free(IntervalUniverse(1, 20), check)
    ok = counts["fail"] == 0
    report(9, "large-set structure law never fails", ok,
           f"[1,20]: {counts['pass']} pass, {counts['vacuous']} vacuous")
    assert ok, failing[:5]


def test_10_two_wise_counts():
    small_ok = all(count_two_wise(n) == 1 << n for n in range(1, 5))
    five = count_two_wise(5)
    mismatches = []
    trend = []
    for n in range(1, 15):
        mine = count_two_wise(n)
        if mine != two_wise_count_oracle(n):
            mismatches.append(n)
        trend.append(f"{n}:{math.log2(mine) / n:.3f}")
    ok = small_ok and five < 32 and not mismatches
    report(10, "two-part splittable counts match the coloring oracle", ok,
           f"count(5)={five}, log2/n trend {' '.join(trend[-4:])}")
    assert ok, (small_ok, five, mismatches)


def test_11_small_maximal_scan():
    singles = singleton_maximal_groups(16)
    single_moduli = [g.moduli for g, _ in singles]
    singles_ok = single_moduli == [(2,), (3,), (4,)]
    witnesses_ok = all(
        is_prime(g.element_order(w)) for g, wits in singles for w in wits
    )
    pairs = pair_maximal_groups(16)
    pair_orders = {g.order for g, _ in pairs}
    has_c4 = any(g.moduli == (4,) for g, _ in pairs)
    has_order16 = 16 in pair_orders
    ok = singles_ok and witnesses_ok and has_c4 and has_order16
    report(11, "cardinality-1 and cardinality-2 maximal scans", ok,
           f"singletons={single_moduli}, pair orders={sorted(pair_orders)}")
    assert singles_ok and witnesses_ok
    assert has_c4
    assert has_order16, f"no abelian group of order 16 qualifies; orders seen: {sorted(pair_orders)}"


def test_12_decomposition_trend():
    ratios = {n: decomposition_ratio(n) for n in range(10, 34)}
    floats = {n: float(r) for n, r in ratios.items()}
    in_range = {n: 0.5 <= r <= 2.0 for n, r in floats.items()}
    range_ok = all(in_range.values())
    out = {n: round(floats[n], 3) for n, okay in in_range.items() if not okay}
    converges = abs(floats[33] - 1) < abs(floats[10] - 1)
    ok = range_ok and converges
    report(12, "odd-or-tail decomposition ratio trend", ok,
           f"ratio(10)={floats[10]:.3f}, ratio(33)={floats[33]:.3f}, "
           f"min={min(floats.values()):.3f}, max={max(floats.values()):.3f}")
    assert range_ok, f"ratios outside [0.5, 2.0]: {out}"
    assert converges, (
        f"|ratio(33)-1|={abs(floats[33] - 1):.3f} is not below "
        f"|ratio(10)-1|={abs(floats[10] - 1):.3f}"
    )
