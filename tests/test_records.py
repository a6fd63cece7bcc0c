"""The value records: equality, hashing, immutability, construction and checks."""

import pickle
from fractions import Fraction

import pytest

from sumfree.analysis import DensityReport, StructureVerdict, WeightedDensityReport
from sumfree.enumeration import CountRecord, _group_count, _interval_count, count_sum_free
from sumfree.generate import ExtractionTrace, PrimePick, RandomGenConfig, extract_sum_free
from sumfree.groups import GroupSpec, Subgroup
from sumfree.universe import ElemSet, GroupUniverse, IntervalUniverse

# each record class -> a function building a fresh instance of it
FACTORIES = {
    IntervalUniverse: lambda: IntervalUniverse(1, 5),
    GroupUniverse: lambda: GroupUniverse(GroupSpec((2, 3))),
    ElemSet: lambda: ElemSet(IntervalUniverse(1, 5), 0b10101),
    GroupSpec: lambda: GroupSpec((2, 3)),
    Subgroup: lambda: Subgroup(GroupSpec((4,)), 0b101),
    CountRecord: lambda: CountRecord(universe="interval[1,5]", size=5, f=12, f_odd=8),
    DensityReport: lambda: DensityReport(GroupSpec((5,)), Fraction(2, 5),
                                         ElemSet(GroupUniverse(GroupSpec((5,))), 0b1100),
                                         Fraction(2, 5), 1, True),
    WeightedDensityReport: lambda: WeightedDensityReport(6, True, Fraction(0), (2,),
                                                         {1: Fraction(1, 7), 2: Fraction(0)}),
    StructureVerdict: lambda: StructureVerdict("pass", "all-odd"),
    RandomGenConfig: lambda: RandomGenConfig(seed_element=1, target_cardinality=2, sample_hi=10),
    PrimePick: lambda: PrimePick(5, 3.0, None, False),
    ExtractionTrace: lambda: extract_sum_free([3, 4, 7, 10]),
}


def test_equal_fields_give_equal_records_with_equal_hashes():
    assert len(FACTORIES) == 12  # every class that was a dataclass
    for cls, make in FACTORIES.items():
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b, cls
        try:
            fields_hash = hash(a._values)
        except TypeError:  # a dict field: unhashable, as a frozen dataclass would be
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == fields_hash, cls
        assert pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_or_fields_differ():
    records = [make() for make in FACTORIES.values()]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b and b != a
        assert a != a._values  # nor does a record equal its field tuple
    assert IntervalUniverse(1, 5) != IntervalUniverse(1, 6)
    assert ElemSet(IntervalUniverse(1, 5), 1) != ElemSet(IntervalUniverse(2, 5), 1)
    assert GroupUniverse(GroupSpec((2, 3))) != GroupUniverse(GroupSpec((3, 2)))
    assert len({IntervalUniverse(1, 5), IntervalUniverse(1, 5), IntervalUniverse(2, 5)}) == 2


def test_assigning_a_field_raises_attribute_error():
    for cls, make in FACTORIES.items():
        record = make()
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == make()
    # cached properties still fill in on the immutable records
    g = GroupSpec((2, 4))
    assert g.order == 8 and g.order is g.order and g == GroupSpec((2, 4))
    assert IntervalUniverse(2, 5).ground_mask == 0b1111


def test_keyword_construction_and_defaults():
    cfg = RandomGenConfig(seed_element=3, target_cardinality=2, sample_hi=10)
    assert (cfg.max_iterations, cfg.rng_seed) == (100_000, 0)
    assert cfg == RandomGenConfig(3, 2, 10, 100_000, 0)
    assert RandomGenConfig(3, 2, 10, rng_seed=4).rng_seed == 4
    rec = CountRecord(universe="group[5]", size=4, f=6)
    assert (rec.f_max, rec.by_cardinality, rec.shard_count) == (None, None, 1)
    assert StructureVerdict("vacuous").detail is None
    assert IntervalUniverse(hi=4, lo=2) == IntervalUniverse(2, 4)
    assert repr(IntervalUniverse(2, 4)) == "IntervalUniverse(lo=2, hi=4)"
    assert repr(StructureVerdict("pass")) == "StructureVerdict(status='pass', detail=None)"
    for bad in (lambda: IntervalUniverse(1), lambda: IntervalUniverse(1, 2, 3),
                lambda: IntervalUniverse(1, lo=1), lambda: IntervalUniverse(1, top=2),
                lambda: RandomGenConfig(1, 2)):
        with pytest.raises(TypeError, match=r"__init__\(\)"):
            bad()


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match=r"need 1 <= lo <= hi, got \[0, 3\]"):
        IntervalUniverse(0, 3)
    with pytest.raises(ValueError, match=r"need 1 <= lo <= hi, got \[4, 3\]"):
        IntervalUniverse(4, 3)
    g4, g6 = GroupSpec((4,)), GroupSpec((6,))
    with pytest.raises(ValueError, match="must contain the identity"):
        Subgroup(g4, 0b100)
    with pytest.raises(ValueError, match="does not divide the group order"):
        Subgroup(g4, 0b111)
    with pytest.raises(ValueError, match="not closed under negation"):
        Subgroup(g4, 0b11)
    with pytest.raises(ValueError, match="not closed under addition"):
        Subgroup(g6, 0b100011)
    with pytest.raises(ValueError, match="target cardinality must be >= 1"):
        RandomGenConfig(1, 0, 10)
    with pytest.raises(ValueError, match=r"seed element 11 outside \[1, 10\]"):
        RandomGenConfig(11, 2, 10)
    with pytest.raises(ValueError, match=r"target 6 is out of reach: .* have at most 5 members"):
        RandomGenConfig(1, 6, 10)
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        RandomGenConfig(1, 2, 10, max_iterations=0)


@pytest.mark.parametrize("field, build", [
    ("lo", lambda: IntervalUniverse(1.0, 5)),
    ("hi", lambda: IntervalUniverse(1, 2.5)),
    ("seed_element", lambda: RandomGenConfig(1.0, 2, 10)),
    ("target_cardinality", lambda: RandomGenConfig(1, 2.0, 10)),
    ("sample_hi", lambda: RandomGenConfig(1, 2, 10.5)),
    ("max_iterations", lambda: RandomGenConfig(1, 2, 10, max_iterations=True)),
])
def test_sizes_must_be_integers(field, build):
    # refused when built, not in a shift or a range deep in a walk or a draw
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        build()


def test_rng_seed_takes_what_random_takes():
    for seed in (None, 2.5, "seed", b"seed"):
        assert RandomGenConfig(1, 2, 10, rng_seed=seed).rng_seed == seed


def test_rebuilt_equal_universes_hit_the_count_caches():
    for cache, build in ((_interval_count, lambda: IntervalUniverse(3, 17)),
                         (_group_count, lambda: GroupUniverse(GroupSpec((3, 3))))):
        first = count_sum_free(build())
        before = cache.cache_info()
        assert count_sum_free(build()) == first
        after = cache.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
