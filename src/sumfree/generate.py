"""Generators of sum-free sets: randomized nesting and deterministic extraction.

The randomized generator grows a nested chain of sum-free sets by
accept/reject sampling (a fair coin gates every accepted candidate).  The
deterministic pipeline extracts from any finite set of positive integers
a sum-free subset of more than a third of its size, by reducing modulo a
suitable prime and dilating into the middle block of residues; every
intermediate is retained on a trace for audit.

Randomness comes from random.Random (Mersenne Twister), seeded per call,
so runs are reproducible across platforms for a fixed seed.
"""

import math
from itertools import count, pairwise
from typing import Iterable, Optional, Sequence

from ._record import Record
from .arith import is_prime
from .errors import DEFAULT_MAX_ORDER, CapacityError, GenerationTimeout
from .universe import ElemSet, IntervalUniverse

import random


class RandomGenConfig(Record):
    """Parameters of the randomized nested generator.

    seed_element starts the chain (the output always contains it),
    target_cardinality (at most ceil(sample_hi / 2)) stops it, candidates
    are drawn uniformly from [1, sample_hi], and max_iterations bounds the
    number of loop passes before giving up with GenerationTimeout (the
    generator gives up at once if its set becomes maximal sum-free).
    """

    seed_element: int
    target_cardinality: int
    sample_hi: int
    max_iterations: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.sample_hi > DEFAULT_MAX_ORDER:  # every draw builds a mask this wide
            raise CapacityError(f"random range [1,{self.sample_hi}] has {self.sample_hi} "
                                f"elements, cap is {DEFAULT_MAX_ORDER}")
        if self.target_cardinality < 1:
            raise ValueError("target cardinality must be >= 1")
        if not 1 <= self.seed_element <= self.sample_hi:
            raise ValueError(
                f"seed element {self.seed_element} outside [1, {self.sample_hi}]"
            )
        top = (self.sample_hi + 1) // 2  # the odds of [1, sample_hi], a largest sum-free set
        if self.target_cardinality > top:
            raise ValueError(f"target {self.target_cardinality} is out of reach: sum-free "
                             f"subsets of [1, {self.sample_hi}] have at most {top} members")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def random_sum_free(cfg: RandomGenConfig) -> ElemSet:
    """Grow a random sum-free subset of [1, sample_hi] around the seed element.

    Each pass draws a uniform candidate, tentatively inserts it, draws a
    fair coin, and commits only if the augmented set is sum-free and the
    coin came up 1.  Deterministic for a fixed rng_seed.  Raises
    GenerationTimeout when the budget runs out first, or at once when the
    set is maximal sum-free below the target; the exception carries the
    partial set.

    The set is sum-free before the insertion, so a candidate c breaks it
    only as a member, as x + y, y - x or y / 2 for members x and y.  A
    mask (bit v - 1) holds those values and grows as each c joins: by c
    itself, c + s, s - c, c - s and c / 2.  c - s comes from the reversed
    member mask (bit hi - x): shifted right by hi + 1 - c it puts bit
    c - x - 1 under each member x.
    """
    hi, full = cfg.sample_hi, (1 << cfg.sample_hi) - 1
    mask = rev = blocked = size = 0
    rng = random.Random(cfg.rng_seed)
    c, passes = cfg.seed_element, cfg.max_iterations
    while True:  # c joins
        mask |= 1 << (c - 1)
        rev |= 1 << (hi - c)
        size += 1
        blocked |= (mask << c | mask | mask >> c | rev >> (hi + 1 - c)) & full
        if not c & 1:
            blocked |= 1 << (c // 2 - 1)
        if size >= cfg.target_cardinality or blocked == full:
            break
        while passes:
            passes -= 1
            c = rng.randint(1, hi)
            if rng.randint(1, 2) == 1 and not blocked >> (c - 1) & 1:
                break
        else:  # out of passes
            break
    s = ElemSet(IntervalUniverse(1, hi), mask)
    if size >= cfg.target_cardinality:
        return s
    why = (f": the set reached {size} members and is maximal sum-free in [1, {hi}]"
           if blocked == full else f" in {cfg.max_iterations} passes (reached {size})")
    raise GenerationTimeout(
        f"no sum-free set of cardinality {cfg.target_cardinality} found{why}", partial=s)


class PrimePick(Record):
    """A usable prime for the extraction pipeline, plus the soft size bound."""

    p: int
    log_weight: float        # sum of log2 over the input elements
    bound: Optional[float]   # 3 * l * ln(l), when defined
    within_bound: bool


def find_prime(elements: Sequence[int]) -> PrimePick:
    """Smallest prime p = 2 (mod 3) dividing no input element.

    Each candidate is tried on the products of the input's blocks of 32,
    built once: a prime divides a product exactly when it divides one of
    its factors (Euclid's lemma).  Also reports whether p <= 3 * l * ln(l)
    with l = sum(log2(a)); the bound is informational only.
    """
    if not elements:
        raise ValueError("need at least one element")
    log_weight = sum(math.log2(a) for a in elements)
    blocks = [math.prod(elements[i:i + 32]) for i in range(0, len(elements), 32)]
    p = next(q for q in count(2, 3) if is_prime(q) and all(b % q for b in blocks))
    bound = 3 * log_weight * math.log(log_weight) if log_weight > 1 else None
    return PrimePick(p, log_weight, bound, bound is not None and p <= bound)


def residue_weights(elements: Sequence[int], p: int) -> dict[int, int]:
    """How many inputs fall in each nonzero residue class mod p.

    Every residue 1..p-1 is present in the result, zero counts included;
    an input divisible by p is an error (the prime was unusable).
    """
    if p < 2:
        raise ValueError(f"need a modulus p >= 2, got {p}")
    weights = {x: 0 for x in range(1, p)}
    for a in elements:
        r = a % p
        if r == 0:
            raise ValueError(f"invalid prime {p}: it divides {a}")
        weights[r] += 1
    return weights


def find_dilator(weights: dict[int, int], p: int) -> int:
    """Smallest t with more than a third of the weight landing in the
    middle block {k+1, ..., 2k+1} of Z_p (p = 3k + 2) after dilation by t.

    Existence is guaranteed by averaging: dilation is a bijection on
    nonzero residues and the block holds k+1 of the 3k+1 of them.
    """
    if not is_prime(p) or p % 3 != 2:
        raise ValueError(f"need a prime p = 2 (mod 3), got {p}")
    k = (p - 2) // 3
    total = sum(weights.values())
    if total < 1:
        raise ValueError(f"need a positive total weight, got {total} from {weights}")
    for t in range(1, p):
        hit = sum(w for x, w in weights.items() if k < t * x % p <= 2 * k + 1)
        if 3 * hit > total:
            return t
    raise AssertionError(f"no dilator found for p={p}; this cannot happen")


class ExtractionTrace(Record):
    """Everything the extraction pipeline computed, for audit and replay."""

    elements: tuple[int, ...]
    n: int
    log_weight: float
    p: int
    k: int
    weights: dict[int, int]
    total_weight: int
    dilator: int
    dilator_inverse: int
    residue_set: ElemSet      # dilated block in Z_p
    subset: ElemSet           # the extracted sum-free subset of the input
    within_prime_bound: bool

    def to_json_dict(self) -> dict:
        """The fields in order, with sets as member lists and string weight keys."""
        out = dict(zip(self._fields, self._values))
        out.update(elements=list(self.elements),
                   weights={str(k): v for k, v in self.weights.items()},
                   residue_set=self.residue_set.to_json_list(), subset=self.subset.to_json_list())
        return out


def extract_sum_free(elements: Iterable[int]) -> ExtractionTrace:
    """Extract a sum-free subset holding more than a third of the input.

    Pipeline: pick a prime p = 2 (mod 3) coprime to the input, weigh the
    nonzero residues, dilate so the middle block of Z_p catches more than
    a third of the weight, pull the block back through the dilation, and
    keep the inputs whose residues land in it.  The result is sum-free
    because the dilated block is sum-free in Z_p and integer sums respect
    residues.
    """
    elems = tuple(sorted(elements))
    if not elems:
        raise ValueError("need at least one element")
    if elems[0] < 1:
        raise ValueError("elements must be positive integers")
    if any(a == b for a, b in pairwise(elems)):
        raise ValueError("elements must be distinct")
    u = IntervalUniverse(1, elems[-1])  # refuses an input too wide for its subset's mask
    n = len(elems)
    pick = find_prime(elems)
    p = pick.p
    weights = residue_weights(elems, p)
    total = sum(weights.values())
    if total != n:
        raise AssertionError("weights lost mass; residue reduction is broken")
    t = find_dilator(weights, p)
    t_inv = pow(t, -1, p)
    from .construct import middle_block  # here, so that random loads no construct or groups

    block = middle_block(p)  # a set of Z_p
    residue_set = ElemSet.from_values(block.universe, ((t_inv * b) % p for b in block.members()))
    chosen = residue_set.mask
    picked = [a for a in elems if chosen >> a % p & 1]
    subset = ElemSet.from_values(u, picked)
    if 3 * subset.cardinality <= n:
        raise AssertionError("extracted subset too small; dilator search is broken")
    return ExtractionTrace(elements=elems, n=n, log_weight=pick.log_weight, p=p,
                           k=(p - 2) // 3, weights=weights, total_weight=total, dilator=t,
                           dilator_inverse=t_inv, residue_set=residue_set, subset=subset,
                           within_prime_bound=pick.within_bound)
