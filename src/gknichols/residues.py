"""Linear independence certified modulo a prime.

For a ring Q(zeta_N) with no parameters and phi(N) > 1, ``residue_map(N)``
is a ring homomorphism from the constants whose denominator is prime to p
onto F_p: p = 1 (mod N) is the largest such prime below
``RESIDUE_PRIME_BOUND``, and z goes to a primitive N-th root r of unity
modulo p, a root of Phi_N there since p does not divide N.  A constant
``(nums, den)`` goes to ``sum nums_i r^i / den``, or to None when p divides
``den``.  The map is built on first use and cached per N, never stored on
the ring, so a ``ScalarRing`` pickles as before.

:class:`Certificate` is how the truncation uses it: the nichols module
docstring says why a candidate it certifies is a complement word and how a
block that fails the test goes back to the exact elimination.

``ScalarRing.residue_map()`` imports this module, so a command that never
truncates over such a ring never compiles it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, not_
from typing import Callable, NamedTuple

from .scalars import RingOps, ScalarError, euler_phi

RESIDUE_PRIME_BOUND = 2 ** 30  # products of residues stay below 2^60


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
    """Reduction modulo p: ``residue(payload)`` is the image of a constant
    in F_p, or None when p divides its denominator; ``ops`` is the
    arithmetic of F_p on the ints 0 <= x < p."""

    p: int
    r: int
    residue: Callable
    ops: RingOps


def make_residue_map(n: int, p: int, r: int) -> ResidueMap:
    """The map (nums, den) -> sum nums_i r^i / den modulo p, for a root r
    of Phi_n modulo the prime p."""
    rpow = tuple(pow(r, i, p) for i in range(euler_phi(n)))

    def residue(a):
        nums, den = a
        x = sum(map(mul, nums, rpow))
        if den == 1:
            return x % p
        if den % p:
            return x * pow(den, -1, p) % p
        return None

    ops = RingOps(1, lambda a, b: a * b % p, lambda a, b: (a + b) % p,
                  lambda a: -a % p, lambda a: pow(a, -1, p), not_)
    return ResidueMap(p, r, residue, ops)


@lru_cache(maxsize=None)
def residue_map(n: int) -> ResidueMap:
    """The reduction modulo ``residue_prime(n)``, one per n."""
    return make_residue_map(n, *residue_prime(n))


class Certificate:
    """Independence modulo p for the candidates of one degree.

    ``certify(w, img)`` sends the exact image of the candidate w to F_p by
    the map's ``residue`` and reduces it, in an echelon over F_p of the same
    class as ``exact``, against the rows certified before it.  A nonzero
    remainder certifies that w is a complement word.  Otherwise, or when p
    divides a denominator, the Z^theta-block of w (``block(w)``, its group
    counts) switches to the ``exact`` echelon: the block's certified rows
    are replayed into it in their order, and this and every later candidate
    of the block are reduced exactly.  Blocks share no key, so one echelon
    of each kind serves them all.
    """

    def __init__(self, residue_map: ResidueMap, exact, block):
        self.residue = residue_map.residue
        self.modular = type(exact)(residue_map.ops)
        self.exact = exact
        self.block = block
        # block -> [(exact image, word)] certified in order, or None once
        # the block is eliminated exactly
        self.rows = {}
        self.count = 0

    def certify(self, w, img):
        """True when w is certified; False when its block is exact (the
        caller then reduces ``img`` with the exact echelon)."""
        block = self.block(w)
        rows = self.rows.get(block, ())
        if rows is None:
            return False
        residue = self.residue
        vec = {}
        for key, c in img.items():
            x = residue(c)
            if x is None:
                break  # p divides a denominator
            if x:
                vec[key] = x
        else:
            modular = self.modular
            modular.reduce(vec)
            if vec:
                # no combination is needed modulo p, so none is kept
                modular.insert(vec, {}, w)
                if rows:
                    rows.append((img, w))
                else:
                    self.rows[block] = [(img, w)]
                self.count += 1
                return True
        self.rows[block] = None
        exact = self.exact
        for row, label in rows:
            exact.insert(row, exact.reduce(row), label)
        return False
