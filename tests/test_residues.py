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


def _assert_homomorphism(rmap, values):
    """On every pair of ``values`` that have residues, the residue map
    respects +, *, negation and inverses."""
    p, residue = rmap.p, rmap.residue
    images = [(a, residue(a.payload)) for a in values]
    images = [(a, x) for a, x in images if x is not None]
    assert all(0 <= x < p for _, x in images)
    for a, x in images:
        assert residue((-a).payload) == -x % p
        if not a.is_zero():
            y = residue(a.inverse().payload)
            if x:
                assert y is None or x * y % p == 1
            else:
                assert y is None
        for b, y in images:
            for value, image in ((a + b, (x + y) % p), (a * b, x * y % p)):
                got = residue(value.payload)
                assert got is None or got == image
    return images


@pytest.mark.parametrize("order", [3, 4, 5, 7, 8, 9, 12])
def test_residue_map_is_a_ring_homomorphism(order):
    """The reduction modulo p respects +, * and inverses, returns None
    exactly when p divides the denominator, and sends z to a root of unity
    of order exactly N: for the ring's prime and for the smallest prime
    p = 1 (mod N)."""
    ring = ScalarRing(order)
    large = ring.residue_map()
    assert large is residue_map(order, 0)  # built once per N
    assert pickle.loads(pickle.dumps(ring)) == ring
    smallest = next(m for m in range(order + 1, 10 ** 4, order)
                    if _is_prime(m))
    small = make_residue_map(order, *residue_prime(order, smallest + 1))
    rng = random.Random(600 + order)
    for rmap in (large, small):
        p, r, t, residue = rmap
        assert t == ()
        assert _trial_prime(p) and p % order == 1 and p < RESIDUE_PRIME_BOUND
        assert [k for k in range(1, order + 1) if pow(r, k, p) == 1] \
            == [order]
        values = [_scalar(ring, _draw(rng, ring.phi)) for _ in range(10)]
        values += [ring.zeta(k) for k in range(order)]
        values += [-ring.zeta(k) for k in range(order)]
        values += [ring.zero(), ring.from_int(p), ring.zeta(1) + p,
                   ring.one() / p, (ring.zeta(1) - 2) / (3 * p)]
        values += [v / p for v in values[:4]]
        for a in values:
            assert (residue(a.payload) is None) == (a.payload[1] % p == 0)
        images = _assert_homomorphism(rmap, values)
        # no sum or product of two values with residues lacks one
        for a, x in images:
            for b, y in images:
                assert residue((a + b).payload) == (x + y) % p
                assert residue((a * b).payload) == x * y % p
        assert residue(ring.zeta(1).payload) == r
        assert residue(ring.one().payload) == 1


def _undefined(rmap, a):
    """Whether the residue of the payload ``a`` is undefined: p divides the
    denominator of a constant, or of a coefficient of a fraction, or the
    denominator vanishes at the parameters' residues."""
    p, r, t, _ = rmap
    num, den = a.payload
    if isinstance(den, int):
        return den % p == 0
    coeffs = list(num.values()) + list(den.values())
    if any(d % p == 0 for _, d in coeffs):
        return True
    value = 0
    for exps, (nums, d) in den.items():
        term = sum(c * pow(r, i, p) for i, c in enumerate(nums)) \
            * pow(d, -1, p)
        for ti, e in zip(t, exps):
            term *= pow(ti, e, p)
        value += term
    return value % p == 0


def _fractions(ring, rng, count):
    """Random fractions of ``ring``: sums of Q(zeta_N) constants (from
    ``_draw``) times monomials of degree <= 1 in each parameter, divided by
    one another."""
    def polynomial():
        total = ring.zero()
        for _ in range(rng.randint(1, 2)):
            term = _scalar(ring, _draw(rng, ring.phi))
            for name in ring.params:
                term = term * ring.param(name) ** rng.randint(0, 1)
            total = total + term
        return total

    out = []
    while len(out) < count:
        num, den = polynomial(), polynomial()
        if not den.is_zero():
            out.append(num / den)
    return out


@pytest.mark.parametrize("order,params", [
    (1, ("q",)), (1, ("q", "s")), (2, ("q",)), (3, ("q",)), (4, ("q", "s")),
    (12, ("q",))])
def test_parameter_residue_map_is_a_ring_homomorphism(order, params):
    """Over Q(zeta_N)(params) each parameter goes to a fixed residue and a
    fraction to num(t)/den(t): +, *, negation and inverses are respected,
    and None comes back exactly when p divides the denominator of a
    constant or the denominator vanishes at t; for the ring's prime and for
    the smallest prime p = 1 (mod N) above 2."""
    ring = ScalarRing(order, params)
    large = ring.residue_map()
    assert large is residue_map(order, len(params))
    assert pickle.loads(pickle.dumps(ring)) == ring
    smallest = next(m for m in range(max(order, 2) + 1, 10 ** 4)
                    if m % order == 1 % order and _is_prime(m))
    small = make_residue_map(order, *residue_prime(order, smallest + 1),
                             len(params))
    rng = random.Random(700 + order + len(params))
    for rmap in (large, small):
        p, r, t, residue = rmap
        assert len(t) == len(params) and all(0 <= x < p for x in t)
        for name, x in zip(params, t):
            assert residue(ring.param(name).payload) == x
        values = _fractions(ring, rng, 6)
        values += [ring.zero(), ring.one(), ring.zeta(1) / p,
                   ring.one() / p]
        for name, x in zip(params, t):
            q = ring.param(name)
            values += [q + p, q / p, (q * p + 1).inverse(),
                       (q - x).inverse(), (q - x) / (q + 1), q * q - x]
        values += [v / p for v in values[:3]]
        for a in values:
            assert (residue(a.payload) is None) == _undefined(rmap, a), a
        assert any(residue(a.payload) is None for a in values)
        images = _assert_homomorphism(rmap, values)
        assert any(a.kind == "f" for a, _ in images)


def test_every_ring_but_q_has_a_residue_map():
    assert ScalarRing(1).residue_map() is None
    assert ScalarRing(2).residue_map() is None
    for order, params in ((3, ()), (12, ()), (1, ("q",)), (2, ("q",)),
                          (3, ("q", "s"))):
        rmap = ScalarRing(order, params).residue_map()
        assert rmap.p % order == 1 % order and len(rmap.t) == len(params)
