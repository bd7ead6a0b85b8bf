"""Exact coefficient arithmetic.

Scalars live in Q(zeta_N) optionally extended by transcendental parameters;
every value is stored in a canonical form so that equality is decidable.
A ``Scalar`` has one of two kinds:

* ``"c"``: a constant of Q(zeta_N), rationals included, stored as the pair
  ``(nums, den)``: ``nums`` is a tuple of phi(N) Python ints, the
  coefficients of 1, z, ..., z^{phi-1} modulo the N-th cyclotomic
  polynomial scaled by the positive int ``den``, with
  ``gcd(den, *nums) == 1`` (zero is ``((0,) * phi, 1)``, a rational has
  ``nums[1:]`` all zero);
* ``"f"``: a non-constant pair numerator/denominator of multivariate
  polynomials in the declared parameters whose coefficients are such
  ``(nums, den)`` pairs, kept coprime with monic denominator (leading
  coefficient 1 under graded-lex order).

Cyclotomic arithmetic is integer arithmetic: products are integer
convolutions reduced by the monic integer polynomial Phi_N, sums share one
denominator, and inverses come from the Galois norm.  A ring picks its
constant operations once, when it is built: when phi(N) = 1 (N = 1, 2) they
are integer-pair closures on ``((n,), d)`` with no convolution.

``ScalarRing.ops`` is a :class:`RingOps` record of raw operations (``one``,
``mul``, ``add``, ``neg``, ``inv``, ``is_zero``, ``wrap``, ``unwrap``) for
loops that should not build a ``Scalar`` per operation.  On a ring without
parameters a raw value is the canonical ``(nums, den)`` pair of a constant
and the operations are the ring's constant operations, the ones ``Scalar``
arithmetic calls; on a ring with parameters a raw value is the ``Scalar``
itself, ``wrap`` and ``unwrap`` are the identity, and the operations are
those of :data:`SCALAR_OPS`.  The cyclotomic order is capped at
``MAX_CYCLOTOMIC_ORDER``: the table of powers of z costs O(N * phi(N)).

An ``"f"`` value is reduced by the monic gcd of its numerator and
denominator.  In at most one active parameter that gcd is Euclid's algorithm
over Q(zeta_N), on the remainders of ``_poly_divmod``; in several it is the
primitive pseudo-remainder sequence in the last active parameter over the
polynomials in the others, whose contents are gcds one parameter down
(Brown, J. ACM 18, 1971).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd as _igcd, lcm as _lcm
from operator import add as _add, attrgetter, methodcaller, mul as _mul, \
    neg as _neg
from typing import Any, Callable, NamedTuple

try:
    from gmpy2 import mpq as _Q
    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - gmpy2 is the optional ``fast`` extra
    from fractions import Fraction as _Q
    _BACKEND = "fractions"


MAX_CYCLOTOMIC_ORDER = 1024


def backend() -> str:
    """The rational backend in use: ``"gmpy2"`` or ``"fractions"``."""
    return _BACKEND


class ScalarError(Exception):
    pass


class DivisionByZero(ScalarError):
    pass


class RingMismatch(ScalarError):
    pass


class ZeroInput(ScalarError):
    pass


class ParseError(ScalarError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownParameter(ParseError):
    pass


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple:
    """Integer coefficients of Phi_n, low degree first."""
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            den = list(cyclotomic_coeffs(d))
            quo = [0] * (len(num) - len(den) + 1)
            rem = list(num)
            for k in range(len(quo) - 1, -1, -1):
                c = rem[k + len(den) - 1]
                quo[k] = c
                if c:
                    for j, dj in enumerate(den):
                        rem[k + j] -= c * dj
            num = quo
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


@lru_cache(maxsize=None)
def _zeta_powers(n: int) -> tuple:
    """z^p for 0 <= p < n as integer vectors reduced modulo Phi_n."""
    head = [-c for c in cyclotomic_coeffs(n)[:-1]]  # z^phi (Phi_n monic)
    cur = [1] + [0] * (len(head) - 1)
    out = []
    for _ in range(n):
        out.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * h for c, h in zip(cur, head)]
    return tuple(out)


@lru_cache(maxsize=None)
def _galois_tower(n: int) -> tuple:
    """Steps (k, m) through the Galois group (Z/n)^x of Q(zeta_n): sigma_k,
    z -> z^k, has order m modulo the subgroup H generated by the earlier
    steps, so the cosets sigma_k^i H (i < m) tile the next subgroup."""
    sub, steps = {1 % n}, []
    for k in range(2, n):
        if _igcd(k, n) == 1 and k not in sub:
            m, p = 1, k
            while p not in sub:
                p, m = p * k % n, m + 1
            sub = {h * pow(k, i, n) % n for h in sub for i in range(m)}
            steps.append((k, m))
    return tuple(steps)


# ---------------------------------------------------------------------------
# cyclotomic constants: canonical pairs (nums, den) of ints, see the docstring


def _cyc_reduce(nums, den):
    """The canonical pair for nums / den, den > 0."""
    if den == 1:
        return nums, 1
    g = _igcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple(x // g for x in nums), den // g


def _cyc_add(a, b):
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return _cyc_reduce(tuple(x + y for x, y in zip(an, bn)), ad)
    g = _igcd(ad, bd)
    fa, fb = bd // g, ad // g
    return _cyc_reduce(tuple(x * fa + y * fb for x, y in zip(an, bn)),
                       ad * fa)


def _cyc_neg(a):
    return tuple(-x for x in a[0]), a[1]


def _cyc_is_zero(a):
    return not any(a[0])


# the same operations when phi = 1: a constant is ((n,), d), a rational


def _rat_add(a, b):
    (x,), d = a
    (y,), e = b
    if d == e:
        n = x + y
        if d == 1:
            return (n,), 1
    else:
        n, d = x * e + y * d, d * e
    g = _igcd(n, d)
    return ((n // g,), d // g) if g != 1 else ((n,), d)


def _rat_mul(a, b):
    (x,), d = a
    (y,), e = b
    n, d = x * y, d * e
    if d == 1:
        return (n,), 1
    g = _igcd(n, d)
    return ((n // g,), d // g) if g != 1 else ((n,), d)


def _rat_neg(a):
    return (-a[0][0],), a[1]


def _rat_is_zero(a):
    return not a[0][0]


def _rat_inv(a):
    (x,), d = a
    if x > 0:
        return (d,), x
    if x < 0:
        return (-d,), -x
    raise DivisionByZero("cyclotomic inverse of zero")


class RingOps(NamedTuple):
    """A ring's raw operations; see the module docstring."""

    one: Any
    mul: Callable
    add: Callable
    neg: Callable
    inv: Callable
    is_zero: Callable
    wrap: Callable
    unwrap: Callable


class ScalarRing:
    """Q(zeta_N) with an ordered list of transcendental parameters."""

    def __init__(self, cyclotomic_order: int = 1, params=()):
        if cyclotomic_order < 1:
            raise ScalarError("cyclotomic order must be >= 1")
        if cyclotomic_order > MAX_CYCLOTOMIC_ORDER:
            raise ScalarError(f"cyclotomic order {cyclotomic_order} is above "
                              f"the maximum {MAX_CYCLOTOMIC_ORDER}")
        params = tuple(params)
        if len(set(params)) != len(params):
            raise ScalarError("parameter names must be distinct")
        n = cyclotomic_order
        self.cyclotomic_order = n
        self.params = params
        self.phi = phi = euler_phi(n)
        self._zpow = _zeta_powers(n)
        # nonzero (index, coefficient) pairs of z^p; _red[k - phi] for z^k
        self._zsparse = [tuple((j, r) for j, r in enumerate(v) if r)
                         for v in self._zpow]
        self._red = [self._zsparse[k % n] for k in range(phi, 2 * phi - 1)]
        self._tower = _galois_tower(n)
        self._zero_cyc = ((0,) * phi, 1)
        self._one_cyc = (self._zpow[0], 1)
        # the constant operations, chosen once: Scalar arithmetic, the
        # products of polynomial coefficients and the raw ops call these
        if phi == 1:
            self.cyc_add, self.cyc_mul = _rat_add, _rat_mul
            self.cyc_neg, self.cyc_inv = _rat_neg, _rat_inv
            cyc_is_zero = _rat_is_zero
        else:
            self.cyc_add, self.cyc_mul = _cyc_add, self._conv_mul
            self.cyc_neg, self.cyc_inv = _cyc_neg, self._norm_inv
            cyc_is_zero = _cyc_is_zero
        if params:
            self.ops = SCALAR_OPS._replace(one=self.one())
        else:
            self.ops = RingOps(self._one_cyc, self.cyc_mul, self.cyc_add,
                               self.cyc_neg, self.cyc_inv, cyc_is_zero,
                               partial(Scalar, self, "c"),
                               attrgetter("payload"))

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Scalar":
        return Scalar(self, "c", self._zero_cyc)

    def one(self) -> "Scalar":
        return Scalar(self, "c", self._one_cyc)

    def from_int(self, n) -> "Scalar":
        return self._rational(_Q(n))

    def from_rational(self, p, q=1) -> "Scalar":
        return self._rational(_Q(p, q))

    def _rational(self, r):
        nums = (r.numerator,) + self._zero_cyc[0][1:]
        return Scalar(self, "c", (nums, r.denominator))

    def zeta(self, power: int = 1) -> "Scalar":
        vec = self._zpow[power % self.cyclotomic_order]
        return Scalar(self, "c", (vec, 1))

    def param(self, name: str) -> "Scalar":
        if name not in self.params:
            raise ScalarError(f"unknown parameter {name!r}")
        i = self.params.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.params)))
        num = {exps: self._one_cyc}
        return Scalar(self, "f", (num, self._const_poly(self._one_cyc)))

    def _const_poly(self, c):
        if _cyc_is_zero(c):
            return {}
        return {(0,) * len(self.params): c}

    # -- cyclotomic multiplication -----------------------------------------

    def _int_mul(self, a, b):
        """Product of two integer vectors, reduced modulo Phi_N."""
        phi = self.phi
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    conv[j] += x * y
        out = conv[:phi]
        for k, red in enumerate(self._red, phi):
            c = conv[k]
            if c:
                for j, r in red:
                    out[j] += c * r
        return tuple(out)

    def _conv_mul(self, a, b):
        return _cyc_reduce(self._int_mul(a[0], b[0]), a[1] * b[1])

    def _galois(self, v, k):
        """sigma_k(v) for an integer vector v, sigma_k: z -> z^k."""
        n, zsparse = self.cyclotomic_order, self._zsparse
        out = [0] * self.phi
        for i, x in enumerate(v):
            if x:
                for j, r in zsparse[i * k % n]:
                    out[j] += x * r
        return tuple(out)

    def _conj_prod(self, b, k, m):
        """prod_{1 <= i < m} sigma_k^i(b), by doubling on
        c_t = prod_{i < t} sigma_k^i(b): c_2t = c_t * sigma_k^t(c_t) and
        c_{t+1} = b * sigma_k(c_t)."""
        n, c, t = self.cyclotomic_order, b, 1
        for bit in bin(m - 1)[3:]:
            c = self._int_mul(c, self._galois(c, pow(k, t, n)))
            t *= 2
            if bit == "1":
                c = self._int_mul(b, self._galois(c, k))
                t += 1
        return self._galois(c, k)

    def _norm_inv(self, a):
        """1/a = prod_{k != 1} sigma_k(a) / N(a), sigma_k: z -> z^k.

        The Galois group is walked along ``_tower``: if b is the product of
        the conjugates of a over a subgroup H, the product over the next
        subgroup is b * q with q = prod_{1 <= i < m} sigma_k^i(b)."""
        nums, den = a
        if not any(nums):
            raise DivisionByZero("cyclotomic inverse of zero")
        b, rest = nums, self._zpow[0]  # rest = b / a
        for k, m in self._tower:
            q = self._conj_prod(b, k, m)
            b, rest = self._int_mul(b, q), self._int_mul(rest, q)
        norm = b[0]  # b = N(nums), a rational integer
        if norm < 0:
            norm, den = -norm, -den
        return _cyc_reduce(tuple(den * x for x in rest), norm)

    def __eq__(self, other):
        return (isinstance(other, ScalarRing)
                and self.cyclotomic_order == other.cyclotomic_order
                and self.params == other.params)

    def __hash__(self):
        return hash((self.cyclotomic_order, self.params))

    def __repr__(self):
        return f"ScalarRing(N={self.cyclotomic_order}, params={list(self.params)})"


# ---------------------------------------------------------------------------
# polynomial helpers (dict exponent-tuple -> (nums, den), no zero entries)


def _grlex_key(exps):
    return (sum(exps), exps)


def _poly_add_term(poly, exps, c):
    """poly[exps] += c in place, dropping a zero coefficient."""
    cur = poly.get(exps)
    if cur is not None:
        c = _cyc_add(cur, c)
    if _cyc_is_zero(c):
        poly.pop(exps, None)
    else:
        poly[exps] = c


def _poly_add(ring, a, b):
    out = dict(a)
    for e, c in b.items():
        _poly_add_term(out, e, c)
    return out


def _poly_neg(a):
    return {e: _cyc_neg(c) for e, c in a.items()}


def _poly_mul(ring, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _poly_add_term(out, tuple(x + y for x, y in zip(ea, eb)),
                           ring.cyc_mul(ca, cb))
    return out


def _poly_scale(ring, a, c):
    if _cyc_is_zero(c):
        return {}
    out = {}
    for e, v in a.items():
        w = ring.cyc_mul(v, c)
        if not _cyc_is_zero(w):
            out[e] = w
    return out


def _poly_lt(a):
    return max(a, key=_grlex_key)


def _poly_divmod(ring, a, b):
    """Division of a by the single divisor b (grlex): the remainder dict is
    reduced in place until its leading term is not a multiple of b's."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    quo = {}
    rem = dict(a)
    eb = _poly_lt(b)
    cb_inv = ring.cyc_inv(b[eb])
    while rem:
        er = _poly_lt(rem)
        diff = tuple(x - y for x, y in zip(er, eb))
        if any(d < 0 for d in diff):
            break
        c = ring.cyc_mul(rem[er], cb_inv)
        quo[diff] = c
        c = _cyc_neg(c)
        for e, v in b.items():
            _poly_add_term(rem, tuple(x + y for x, y in zip(diff, e)),
                           ring.cyc_mul(c, v))
    return quo, rem


def _poly_divexact(ring, a, b):
    q, r = _poly_divmod(ring, a, b)
    if r:
        raise ScalarError("inexact polynomial division")
    return q


def _active_vars(*polys):
    vs = set()
    for p in polys:
        for e in p:
            vs.update(i for i, d in enumerate(e) if d > 0)
    return vs


def _poly_to_univar(a, var):
    """Coefficients of a viewed in K[other vars][x_var], as dict deg -> poly."""
    out = {}
    for e, c in a.items():
        _poly_add_term(out.setdefault(e[var], {}),
                       e[:var] + (0,) + e[var + 1:], c)
    return out


def _univar_to_poly(u, var):
    out = {}
    for d, poly in u.items():
        for e, c in poly.items():
            full = e[:var] + (d,) + e[var + 1:]
            out[full] = c
    return out


def _poly_gcd(ring, a, b):
    """Monic gcd under grlex; gcd(0, b) = monic(b)."""
    vs = _active_vars(a, b)
    if len(vs) <= 1:
        while b:
            a, b = b, _poly_divmod(ring, a, b)[1]
        return _poly_monic(ring, a)
    # primitive PRS in K[rest][x_var]; a and b map degree -> coefficient
    var = max(vs)
    ca, a = _primitive(ring, _poly_to_univar(a, var))
    cb, b = _primitive(ring, _poly_to_univar(b, var))
    while b:
        db = max(b)
        lb = b[db]
        while a and max(a) >= db:  # a <- lb * a - la * x^(da - db) * b
            da = max(a)
            neg_la = _poly_neg(a.pop(da))
            a = {d: _poly_mul(ring, p, lb) for d, p in a.items()}
            for d, p in b.items():
                if d != db:
                    k = d + da - db
                    a[k] = _poly_add(ring, a.get(k, {}),
                                     _poly_mul(ring, neg_la, p))
            a = {d: p for d, p in a.items() if p}
        a, b = b, _primitive(ring, a)[1]
    g = _poly_mul(ring, _univar_to_poly(a, var), _poly_gcd(ring, ca, cb))
    return _poly_monic(ring, g)


def _primitive(ring, u):
    """(content, primitive part) of u in K[rest][x], as dict degree -> poly;
    the content is the monic gcd of the coefficients."""
    c = {}
    for p in u.values():
        c = _poly_gcd(ring, c, p)
    return c, {d: _poly_divexact(ring, p, c) for d, p in u.items()}


def _poly_monic(ring, a):
    if not a:
        return a
    lc = a[_poly_lt(a)]
    if lc == ring._one_cyc:
        return a
    return _poly_scale(ring, a, ring.cyc_inv(lc))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultOrder:
    """Finite(m) or NotRootOfUnity (order is None)."""

    order: object  # int or None

    @classmethod
    def finite(cls, m: int) -> "MultOrder":
        return cls(int(m))

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def __repr__(self):
        return f"Finite({self.order})" if self.is_finite else "NotRootOfUnity"


NOT_ROOT_OF_UNITY = MultOrder(None)


class Scalar:
    """An exact element of the ring, immutable.

    kind 'c': payload is a constant's (nums, den) pair, rationals included;
    kind 'f': (numerator, denominator) polynomial pair, normalized.
    """

    __slots__ = ("ring", "kind", "payload", "_hash")

    def __init__(self, ring, kind, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):  # pickle and copy through __init__
        return Scalar, (self.ring, self.kind, self.payload)

    def _as_frac(self):
        ring = self.ring
        if self.kind == "f":
            return self.payload
        return (ring._const_poly(self.payload),
                ring._const_poly(ring._one_cyc))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.kind == "c" and _cyc_is_zero(self.payload)

    def is_one(self) -> bool:
        return self == self.ring.one()

    def is_rational(self) -> bool:
        return self.kind == "c" and not any(self.payload[0][1:])

    def as_rational(self):
        if not self.is_rational():
            raise ScalarError("not a rational scalar")
        nums, den = self.payload
        return _Q(nums[0], den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.payload[1] == 1

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, int):
                return self.ring.from_int(other)
            return NotImplemented
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        ring = a.ring
        if a.kind == "c" and b.kind == "c":
            return Scalar(ring, "c", ring.cyc_add(a.payload, b.payload))
        (na, da), (nb, db) = a._as_frac(), b._as_frac()
        num = _poly_add(ring, _poly_mul(ring, na, db), _poly_mul(ring, nb, da))
        den = _poly_mul(ring, da, db)
        return _make_frac(ring, num, den)

    __radd__ = __add__

    def __neg__(self):
        if self.kind == "c":
            return Scalar(self.ring, "c", self.ring.cyc_neg(self.payload))
        num, den = self.payload
        return Scalar(self.ring, "f", (_poly_neg(num), den))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        ring = a.ring
        if a.kind == "c" and b.kind == "c":
            return Scalar(ring, "c", ring.cyc_mul(a.payload, b.payload))
        if a.kind == "c" or b.kind == "c":
            # constant times fraction: a nonzero constant is a unit, so the
            # scaled numerator stays coprime to the (monic) denominator
            if b.kind == "c":
                a, b = b, a
            if a.is_zero():
                return ring.zero()
            num, den = b.payload
            return Scalar(ring, "f", (_poly_scale(ring, num, a.payload), den))
        (na, da), (nb, db) = a._as_frac(), b._as_frac()
        return _make_frac(ring, _poly_mul(ring, na, nb), _poly_mul(ring, da, db))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("scalar inverse of zero")
        if self.kind == "c":
            return Scalar(self.ring, "c", self.ring.cyc_inv(self.payload))
        num, den = self.payload
        return _make_frac(self.ring, den, num)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        # canonical forms: an "f" value is never a constant
        return self.kind == other.kind and self.payload == other.payload

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():  # equal to an int or _Q, so hash as one
                h = hash(self.as_rational())
            elif self.kind == "c":
                h = hash((self.ring, self.payload))
            else:
                num, den = self.payload
                h = hash((self.ring, _freeze_poly(num), _freeze_poly(den)))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- queries ------------------------------------------------------------

    def mult_order(self) -> MultOrder:
        if self.is_zero():
            raise ZeroInput("multiplicative order of zero")
        if self.kind == "f":
            return NOT_ROOT_OF_UNITY
        n = _lcm(2, self.ring.cyclotomic_order)
        if (self ** n) != self.ring.one():
            return NOT_ROOT_OF_UNITY
        for d in sorted(_divisors(n)):
            if (self ** d) == self.ring.one():
                return MultOrder.finite(d)
        raise AssertionError("unreachable")

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return print_scalar(self)


def _identity(value):
    return value


# the operations on Scalar values, the same in every ring (so ``one`` is
# left None); a ring with parameters uses them with its own ``one``
SCALAR_OPS = RingOps(None, _mul, _add, _neg, methodcaller("inverse"),
                     methodcaller("is_zero"), _identity, _identity)


def _freeze_poly(p):
    return tuple(sorted(p.items(), key=lambda kv: _grlex_key(kv[0])))


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _make_frac(ring, num, den):
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return ring.zero()
    g = _poly_gcd(ring, num, den)
    const = (0,) * len(ring.params)
    if set(g) != {const} or g[const] != ring._one_cyc:
        num = _poly_divexact(ring, num, g)
        den = _poly_divexact(ring, den, g)
    lc = den[_poly_lt(den)]
    if lc != ring._one_cyc:
        inv = ring.cyc_inv(lc)
        num = _poly_scale(ring, num, inv)
        den = _poly_scale(ring, den, inv)
    if set(num) == set(den) == {const}:  # den is monic, so 1
        return Scalar(ring, "c", num[const])
    return Scalar(ring, "f", (num, den))


# ---------------------------------------------------------------------------
# q-numbers


def qnum(n: int, q: Scalar) -> Scalar:
    """(n)_q = 1 + q + ... + q^{n-1}."""
    total = q.ring.zero()
    power = q.ring.one()
    for _ in range(n):
        total = total + power
        power = power * q
    return total


# ---------------------------------------------------------------------------
# parsing and printing


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def take_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_scalar(text: str, ring: ScalarRing) -> Scalar:
    """Parse the scalar grammar: integers, `p/r`, `z`, params, + - * / ^ ()."""
    toks = _Tokens(text)
    value = _parse_sum(toks, ring)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(f"unexpected {text[toks.pos]!r}", toks.pos)
    return value


def _parse_sum(toks, ring):
    value = _parse_product(toks, ring)
    while True:
        ch = toks.peek()
        if ch == "+":
            toks.pos += 1
            value = value + _parse_product(toks, ring)
        elif ch == "-":
            toks.pos += 1
            value = value - _parse_product(toks, ring)
        else:
            return value


def _parse_product(toks, ring):
    value = _parse_power(toks, ring)
    while True:
        ch = toks.peek()
        if ch == "*":
            toks.pos += 1
            value = value * _parse_power(toks, ring)
        elif ch == "/":
            toks.pos += 1
            divisor = _parse_power(toks, ring)
            if divisor.is_zero():
                raise DivisionByZero("division by zero in scalar expression")
            value = value / divisor
        else:
            return value


def _parse_power(toks, ring):
    # unary minus binds weaker than ^, so -z^2 means -(z^2)
    if toks.peek() == "-":
        toks.pos += 1
        return -_parse_power(toks, ring)
    value = _parse_atom(toks, ring)
    if toks.peek() == "^":
        toks.pos += 1
        neg = False
        if toks.peek() == "-":
            toks.pos += 1
            neg = True
        if not toks.peek().isdigit():
            raise ParseError("integer exponent expected", toks.pos)
        exp = toks.take_int()
        value = value ** (-exp if neg else exp)
    return value


def _parse_atom(toks, ring):
    ch = toks.peek()
    if ch == "(":
        toks.pos += 1
        value = _parse_sum(toks, ring)
        if toks.peek() != ")":
            raise ParseError("expected ')'", toks.pos)
        toks.pos += 1
        return value
    if ch.isdigit():
        return ring.from_int(toks.take_int())
    if ch.isalpha() or ch == "_":
        pos = toks.pos
        name = toks.take_name()
        if name == "z":
            return ring.zeta()
        if name in ring.params:
            return ring.param(name)
        raise UnknownParameter(f"unknown name {name!r}", pos)
    raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                     toks.pos)


def _print_cyc(cyc, as_factor=False):
    nums, den = cyc
    parts = []
    for i, n in enumerate(nums):
        if n == 0:
            continue
        c = _Q(n, den)  # each coefficient in lowest terms on its own
        if i == 0:
            parts.append(str(c))
        else:
            var = "z" if i == 1 else f"z^{i}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{c}*{var}")
    if not parts:
        return "0"
    body = parts[0]
    for p in parts[1:]:
        body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    if as_factor and (len(parts) > 1 or "/" in body or body.startswith("-")):
        return f"({body})"
    return body


def _print_poly(ring, p):
    if not p:
        return "0"
    terms = []
    for e in sorted(p, key=_grlex_key, reverse=True):
        factors = []
        for name, d in zip(ring.params, e):
            if d == 1:
                factors.append(name)
            elif d > 1:
                factors.append(f"{name}^{d}")
        coeff = _print_cyc(p[e], as_factor=bool(factors))
        if factors:
            if coeff == "1":
                terms.append("*".join(factors))
            else:
                terms.append(coeff + "*" + "*".join(factors))
        else:
            terms.append(coeff)
    body = terms[0]
    for t in terms[1:]:
        body += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return body


def print_scalar(s: Scalar) -> str:
    if s.kind == "c":
        return _print_cyc(s.payload)
    num, den = s.payload
    ring = s.ring
    const = (0,) * len(ring.params)
    den_is_one = set(den) == {const} and den[const] == ring._one_cyc
    num_str = _print_poly(ring, num)
    if den_is_one:
        return num_str
    den_str = _print_poly(ring, den)
    if len(num) > 1 or const in num and " " in num_str:  # a sum
        num_str = f"({num_str})"
    if len(den) > 1 or "*" in den_str:  # a sum, or a product a*b
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
