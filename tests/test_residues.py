"""Reduction modulo a prime: the primes, the ring homomorphism onto F_p,
and the rings that have one."""

import pickle
import random

import pytest

from gknichols import ScalarRing
from gknichols.residues import (RESIDUE_PRIME_BOUND, _is_prime,
                                make_residue_map, residue_map,
                                residue_prime)
from tests.test_scalars import _draw, _scalar


def _trial_prime(m):
    return m > 1 and all(m % d for d in range(2, int(m ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    """Small m included: a Miller-Rabin base that is a multiple of m would
    misjudge it, so the bases 2, 7 and 61 themselves are tested too."""
    for m in range(-2, 5000):
        assert _is_prime(m) == _trial_prime(m), m
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5, 7
    for m in (561, 1105, 41041, 825265, 3215031751):
        assert not _is_prime(m)


@pytest.mark.parametrize("order", [3, 4, 5, 7, 8, 9, 12])
def test_residue_map_is_a_ring_homomorphism(order):
    """The reduction modulo p respects +, * and inverses, returns None
    exactly when p divides the denominator, and sends z to a root of unity
    of order exactly N: for the ring's prime and for the smallest prime
    p = 1 (mod N)."""
    ring = ScalarRing(order)
    large = ring.residue_map()
    assert large is residue_map(order)  # built once per N
    assert pickle.loads(pickle.dumps(ring)) == ring
    smallest = next(m for m in range(order + 1, 10 ** 4, order)
                    if _is_prime(m))
    small = make_residue_map(order, *residue_prime(order, smallest + 1))
    rng = random.Random(600 + order)
    for rmap in (large, small):
        p, r, residue, ops = rmap
        assert _trial_prime(p) and p % order == 1 and p < RESIDUE_PRIME_BOUND
        assert [k for k in range(1, order + 1) if pow(r, k, p) == 1] \
            == [order]
        values = [_scalar(ring, _draw(rng, ring.phi)) for _ in range(10)]
        values += [ring.zeta(k) for k in range(order)]
        values += [-ring.zeta(k) for k in range(order)]
        values += [ring.zero(), ring.from_int(p), ring.zeta(1) + p,
                   ring.one() / p, (ring.zeta(1) - 2) / (3 * p)]
        values += [v / p for v in values[:4]]
        images = []
        for a in values:
            x = residue(a.payload)
            assert (x is None) == (a.payload[1] % p == 0)
            if x is not None:
                assert 0 <= x < p
                images.append((a, x))
        for a, x in images:
            if not a.is_zero():
                y = residue(a.inverse().payload)
                if x:
                    assert y is None or ops.mul(x, y) == 1
                    assert ops.mul(x, ops.inv(x)) == 1
                else:
                    assert y is None
            for b, y in images:
                assert residue((a + b).payload) == ops.add(x, y)
                assert residue((a * b).payload) == ops.mul(x, y)
                assert residue((-a).payload) == ops.neg(x)
        assert residue(ring.zeta(1).payload) == r
        assert residue(ring.one().payload) == ops.one == 1


def test_residue_map_only_on_cyclotomic_rings_without_parameters():
    assert ScalarRing(1).residue_map() is None
    assert ScalarRing(2).residue_map() is None
    assert ScalarRing(3, params=("q",)).residue_map() is None
    assert ScalarRing(3).residue_map().p % 3 == 1
