import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_usable_prime

import sumfree.generate
from sumfree.errors import DEFAULT_MAX_ORDER, CapacityError, GenerationTimeout
from sumfree.generate import (
    RandomGenConfig,
    extract_sum_free,
    find_dilator,
    find_prime,
    random_sum_free,
    residue_weights,
)
from sumfree.universe import ElemSet, IntervalUniverse, is_sum_free


def test_config_validation():
    with pytest.raises(ValueError):
        RandomGenConfig(seed_element=1, target_cardinality=0, sample_hi=10)
    with pytest.raises(ValueError):
        RandomGenConfig(seed_element=11, target_cardinality=1, sample_hi=10)
    with pytest.raises(ValueError):
        RandomGenConfig(seed_element=1, target_cardinality=1, sample_hi=10,
                        max_iterations=0)
    # the odds are a largest sum-free subset of [1, 10]
    RandomGenConfig(seed_element=1, target_cardinality=5, sample_hi=10)
    with pytest.raises(ValueError, match="target 6 is out of reach"):
        RandomGenConfig(seed_element=1, target_cardinality=6, sample_hi=10)


def test_config_refuses_a_range_above_the_cap_before_its_other_checks():
    RandomGenConfig(seed_element=1, target_cardinality=1, sample_hi=DEFAULT_MAX_ORDER)
    size = DEFAULT_MAX_ORDER + 1
    # a bad target, seed element or pass count is not reported first
    for target, seed_element, passes in ((1, 1, 1), (0, 1, 1), (1, size + 1, 1), (1, 1, 0)):
        with pytest.raises(CapacityError) as info:
            RandomGenConfig(seed_element=seed_element, target_cardinality=target,
                            sample_hi=size, max_iterations=passes)
        assert str(info.value) == (f"random range [1,{size}] has {size} elements, "
                                   f"cap is {DEFAULT_MAX_ORDER}")


def test_random_sum_free_target_one_is_immediate():
    cfg = RandomGenConfig(seed_element=7, target_cardinality=1, sample_hi=100,
                          rng_seed=3)
    assert random_sum_free(cfg).members() == (7,)


def test_random_sum_free_deterministic_and_valid():
    for seed in (0, 1, 42, 999):
        cfg = RandomGenConfig(seed_element=3, target_cardinality=7, sample_hi=60,
                              rng_seed=seed)
        s1 = random_sum_free(cfg)
        s2 = random_sum_free(cfg)
        assert s1.members() == s2.members()
        assert s1.cardinality == 7
        assert 3 in s1
        assert is_sum_free(s1)


def _random_reference(cfg):
    """The generator with the whole augmented set tested after each coin."""
    u = IntervalUniverse(1, cfg.sample_hi)
    s = ElemSet.from_values(u, [cfg.seed_element])
    rng = random.Random(cfg.rng_seed)
    for _ in range(cfg.max_iterations):
        if s.cardinality >= cfg.target_cardinality:
            break
        candidate = rng.randint(1, cfg.sample_hi)
        augmented = s.with_value(candidate)
        if rng.randint(1, 2) == 1 and is_sum_free(augmented):
            s = augmented
    return s


def test_random_sum_free_matches_whole_set_reference():
    for seed in range(12):
        for element, target, hi, budget in ((1, 6, 12, 400), (3, 7, 60, 100_000),
                                             (5, 20, 500, 100_000), (2, 40, 3000, 100_000)):
            cfg = RandomGenConfig(seed_element=element, target_cardinality=target,
                                  sample_hi=hi, max_iterations=budget, rng_seed=seed)
            expected = _random_reference(cfg).members()
            try:
                got = random_sum_free(cfg).members()
            except GenerationTimeout as exc:
                got = exc.partial.members()
                assert len(got) < target
            assert got == expected, (seed, element, target, hi)


def test_random_sum_free_timeout():
    # the sum-free triples of [1, 5] are {1, 3, 5} and {3, 4, 5}: none holds 2
    cfg = RandomGenConfig(seed_element=2, target_cardinality=3, sample_hi=5,
                          max_iterations=200, rng_seed=0)
    with pytest.raises(GenerationTimeout) as err:
        random_sum_free(cfg)
    assert err.value.partial is not None
    assert err.value.partial.cardinality < 3


def test_random_sum_free_stops_once_maximal():
    # the default budget would spend 100,000 passes on a set that can never grow
    cfg = RandomGenConfig(seed_element=1, target_cardinality=5, sample_hi=10)
    with pytest.raises(GenerationTimeout, match="reached 4 members and is maximal sum-free") as err:
        random_sum_free(cfg)
    assert err.value.partial.members() == (1, 6, 8, 10)


def test_find_prime_examples():
    assert find_prime([5]).p == 2
    assert find_prime([1, 2, 3]).p == 5
    assert find_prime([2, 5, 11]).p == 17
    with pytest.raises(ValueError):
        find_prime([])


def test_find_prime_never_divides():
    rng = random.Random(31)
    for _ in range(100):
        elems = rng.sample(range(1, 100_000), rng.randint(1, 30))
        pick = find_prime(elems)
        assert pick.p % 3 == 2
        assert all(a % pick.p != 0 for a in elems)


# the primes = 2 (mod 3) below 1000: an input that each of them divides
# somewhere has its first usable prime past 1000 (1013)
SMALL_PRIMES_2_MOD_3 = [p for p in range(2, 1000)
                        if p % 3 == 2 and all(p % d for d in range(2, p))]


@st.composite
def prime_search_inputs(draw):
    """The first `cut` primes = 2 (mod 3), multiplied in groups, among random
    extras, all of it doubled or not."""
    cut = draw(st.integers(0, len(SMALL_PRIMES_2_MOD_3)))
    width = draw(st.integers(1, 6))
    covered = SMALL_PRIMES_2_MOD_3[:cut]
    elements = [math.prod(covered[i:i + width]) for i in range(0, cut, width)]
    elements += draw(st.lists(st.integers(1, 10 ** 6), min_size=0 if elements else 1,
                              max_size=80))
    if draw(st.booleans()):
        elements = [2 * a for a in elements]
    return draw(st.permutations(elements))


@settings(max_examples=200, deadline=None)
@given(prime_search_inputs())
@example([1])
@example([2 ** 19])
@example([2, 4, 6, 8, 10, 12])
@example([2 * 5 * 11 * 17 * 23 * 29 * 41 * 47 * 53 * 59])
@example(list(range(1, 33)))  # one full block
@example(list(range(1, 34)))  # a full block and one element
@example(SMALL_PRIMES_2_MOD_3)  # the answer is past 1000
@example([math.prod(SMALL_PRIMES_2_MOD_3[i:i + 3])
          for i in range(0, len(SMALL_PRIMES_2_MOD_3), 3)])
def test_find_prime_matches_the_per_element_scan(elements):
    assert find_prime(elements).p == first_usable_prime(elements)


def test_residue_weights_examples():
    assert residue_weights([1, 2, 3], 5) == {1: 1, 2: 1, 3: 1, 4: 0}
    w = residue_weights([6, 11], 5)
    assert w == {1: 2, 2: 0, 3: 0, 4: 0}
    with pytest.raises(ValueError):
        residue_weights([10], 5)
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"got {p}"):
            residue_weights([1, 2], p)


def test_find_dilator_examples():
    assert find_dilator({1: 1, 2: 1, 3: 1, 4: 0}, 5) == 1
    assert find_dilator({1: 5, 2: 0, 3: 0, 4: 0}, 5) == 2  # need t*1 in {2, 3}
    assert find_dilator({1: 1, 2: 1, 3: 1, 4: 1}, 5) == 1  # smallest qualifying
    for weights in ({1: 0, 2: 0, 3: 0, 4: 0}, {}):  # no weight: no third to catch
        with pytest.raises(ValueError, match="got 0"):
            find_dilator(weights, 5)
    with pytest.raises(ValueError, match=r"need a prime p = 2 \(mod 3\), got 7"):
        find_dilator({1: 1}, 7)  # 7 = 1 (mod 3)


def test_extract_examples():
    tr = extract_sum_free([1, 2, 3])
    assert tr.p == 5 and tr.dilator == 1
    assert tr.residue_set.members() == (2, 3)
    assert tr.subset.members() == (2, 3)
    assert tr.n == 3 and tr.total_weight == 3

    single = extract_sum_free([7])
    assert single.subset.members() == (7,)

    tr = extract_sum_free(range(2, 11))
    assert tr.subset.cardinality >= 4
    assert is_sum_free(tr.subset)


def test_extract_validation():
    with pytest.raises(ValueError):
        extract_sum_free([])
    with pytest.raises(ValueError):
        extract_sum_free([0, 3])
    with pytest.raises(ValueError):
        extract_sum_free([4, 4])


def _no_prime(*args, **kwargs):
    raise AssertionError("prime searched although the input is refused")


def test_extract_refuses_duplicates_before_the_prime_search(monkeypatch):
    monkeypatch.setattr(sumfree.generate, "find_prime", _no_prime)
    # the repeats sit at the ends of the sorted input
    for elements in ([5, 1, 5], [1, 1], [4, 4], [9, 2, 7, 2]):
        with pytest.raises(ValueError, match="elements must be distinct"):
            extract_sum_free(elements)


def test_extract_refuses_an_element_above_the_cap_before_any_work(monkeypatch):
    monkeypatch.setattr(sumfree.generate, "find_prime", _no_prime)
    for elements in ([1, DEFAULT_MAX_ORDER + 1], [10 ** 14, 3, 5]):
        with pytest.raises(CapacityError, match=f"cap is {DEFAULT_MAX_ORDER}"):
            extract_sum_free(elements)
    with pytest.raises(AssertionError, match="prime searched"):  # at the cap it goes on
        extract_sum_free([1, DEFAULT_MAX_ORDER])


def test_extract_battery():
    rng = random.Random(404)
    for _ in range(100):
        elems = rng.sample(range(1, 10**6 + 1), rng.randint(1, 50))
        tr = extract_sum_free(elems)
        assert set(tr.subset.members()) <= set(elems)
        assert 3 * tr.subset.cardinality > len(elems)
        assert is_sum_free(tr.subset)
        assert (tr.dilator * tr.dilator_inverse) % tr.p == 1
        assert tr.total_weight == tr.n


def test_extract_peak_memory_stays_small():
    values = random.Random(20).sample(range(1, 10 ** 6), 20_000)
    extract_sum_free([1, 2, 3])  # modules loaded before tracing
    tracemalloc.start()
    try:
        tr = extract_sum_free(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * tr.subset.cardinality > len(values)
    assert peak < 1_500_000, peak  # the hash set of the input alone took about 1.7 MB


def test_trace_serialization_roundtrip():
    tr = extract_sum_free([3, 8, 20])
    d = tr.to_json_dict()
    assert d["subset"] == list(tr.subset.members())
    assert d["p"] == tr.p and d["dilator"] == tr.dilator
    assert list(d) == ["elements", "n", "log_weight", "p", "k", "weights", "total_weight",
                       "dilator", "dilator_inverse", "residue_set", "subset",
                       "within_prime_bound"]
    assert d["elements"] == [3, 8, 20] and all(type(k) is str for k in d["weights"])
    assert d["residue_set"] == list(tr.residue_set.members())
    assert json.loads(json.dumps(d)) == d
