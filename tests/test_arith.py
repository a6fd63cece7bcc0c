import pytest

from sumfree.arith import divisors, is_prime, partitions, prime_factors


def test_is_prime_small():
    primes = [n for n in range(1, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(12) == {2: 2, 3: 1}
    assert prime_factors(49) == {7: 2}
    assert prime_factors(97) == {97: 1}
    with pytest.raises(ValueError, match="cannot factor 0"):
        prime_factors(0)


def test_prime_factors_reconstruct():
    for n in range(1, 500):
        prod = 1
        for p, e in prime_factors(n).items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_partitions_order_and_count():
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions(1)) == [(1,)]
    # partition numbers p(1)..p(8)
    counts = [len(list(partitions(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
    for lam in partitions(6):
        assert sum(lam) == 6
        assert list(lam) == sorted(lam, reverse=True)
