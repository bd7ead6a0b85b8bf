"""Linear independence certified modulo a prime.

``residue_map(N, k)`` is a ring homomorphism onto F_p from the elements of
Q(zeta_N)(t_1, ..., t_k) that have a residue.  p = 1 (mod N) is the largest
such prime below ``RESIDUE_PRIME_BOUND``, z goes to a primitive N-th root r
of unity modulo p, a root of Phi_N there since p does not divide N, and the
parameter t_i to a fixed residue.  A constant ``(nums, den)`` goes to
``sum nums_i r^i / den``, or to None when p divides ``den``; a fraction
num/den to num(t)/den(t), or to None when p divides the denominator of one
of their coefficients or den(t) = 0 modulo p.  Evaluation followed by
reduction is a ring homomorphism where it is defined, so an element whose
residue is nonzero is nonzero.  The map is built on first use and cached per
(N, k), never stored on the ring, so a ``ScalarRing`` and a truncation
pickle as before.

:func:`modular_ops` is the ``RingOps`` of F_p on plain ints, with which the
truncation builds a block's images in F_p and reduces them in a
``nichols._Echelon``.  The nichols module docstring says how that
certifies a Z^theta-block, and why it is exact.

The truncation certifies on every ring but Q (``nichols._residue_map``
decides, and says why) and imports this module only there, so a command
that never truncates over such a ring never compiles it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, not_
from typing import Callable, NamedTuple

from .scalars import RingOps, ScalarError, euler_phi

RESIDUE_PRIME_BOUND = 2 ** 30  # products of residues stay below 2^60
# the i-th parameter goes to (i + 1) * _PARAMETER_SEED modulo p.  The roots
# of the catalog's denominators are small rationals and roots of unity, and
# at the primes of N = 1, 2, 3, 4, 12 these residues (i < 2) are no a/b with
# |a|, b < 1000 and have no order below 200; a denominator that vanishes
# there only sends its block to the exact elimination
_PARAMETER_SEED = 0x9E3779B1


def _is_prime(m):
    """Miller-Rabin with the bases 2, 7, 61: exact for m < 4,759,123,141.
    The trial divisions first keep a base that is a multiple of a small m
    from judging it."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 61):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def residue_prime(n: int, below: int = RESIDUE_PRIME_BOUND) -> tuple:
    """(p, r): the largest prime p = 1 (mod n) below ``below`` and a
    primitive n-th root of unity r modulo p, a power g^((p-1)/n)."""
    p = (below - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
        if p < 2:
            raise ScalarError(f"no prime = 1 (mod {n}) below {below}")
    for g in range(1, p):
        r = x = pow(g, (p - 1) // n, p)
        order = 1
        while x != 1:
            x, order = x * r % p, order + 1
        if order == n:
            return p, r


class ResidueMap(NamedTuple):
    """Reduction modulo p: ``residue(payload)`` is the image of a scalar
    payload in F_p, an int 0 <= x < p, or None where it is undefined; z
    goes to ``r`` and the i-th parameter to ``t[i]``."""

    p: int
    r: int
    t: tuple
    residue: Callable


def make_residue_map(n: int, p: int, r: int, nparams: int = 0) -> ResidueMap:
    """The map of the ring Q(zeta_n)(t_1, ..., t_k), k = ``nparams``, to F_p
    for a root r of Phi_n modulo the prime p: a constant (nums, den) goes to
    ``sum nums_i r^i / den``, or to None when p divides ``den``; a fraction
    num/den of polynomials to num(t)/den(t), or to None when p divides the
    denominator of one of their coefficients or den(t) = 0 modulo p."""
    rpow = tuple(pow(r, i, p) for i in range(euler_phi(n)))
    t = tuple(_PARAMETER_SEED * (i + 1) % p for i in range(nparams))

    def constant(a):
        nums, den = a
        x = sum(map(mul, nums, rpow))
        if den == 1:
            return x % p
        if den % p:
            return x * pow(den, -1, p) % p
        return None

    if not nparams:
        return ResidueMap(p, r, t, constant)

    def polynomial(poly):
        total = 0
        for exps, c in poly.items():
            x = constant(c)
            if x is None:
                return None
            for ti, e in zip(t, exps):
                if e:
                    x = x * pow(ti, e, p) % p
            total += x
        return total % p

    def residue(a):
        num, den = a
        if type(den) is int:
            return constant(a)
        d = polynomial(den)
        if not d:
            return None  # den(t) = 0, or p divides a coefficient's den
        x = polynomial(num)
        return None if x is None else x * pow(d, -1, p) % p

    return ResidueMap(p, r, t, residue)


@lru_cache(maxsize=None)
def residue_map(n: int, nparams: int) -> ResidueMap:
    """The reduction modulo ``residue_prime(n)``, one per (n, nparams)."""
    return make_residue_map(n, *residue_prime(n), nparams)


@lru_cache(maxsize=None)
def modular_ops(p: int) -> RingOps:
    """The ``RingOps`` of F_p on ints 0 <= x < p, p a prime.  Its closures
    do not pickle, so it is built here, once per p, and never stored on a
    ring or a truncation."""

    def axpy(acc, vec, coeff):
        # the values of vec and coeff are nonzero modulo the prime p, so
        # their product is too and a zero sum means the key was in acc
        get = acc.get
        if coeff is None:
            coeff = 1
        for k, x in vec.items():
            s = (get(k, 0) + coeff * x) % p
            if s:
                acc[k] = s
            else:
                del acc[k]

    return RingOps(1, lambda a, b: a * b % p, lambda a, b: (a + b) % p,
                   lambda a: -a % p, lambda a: pow(a, -1, p), not_, axpy)
