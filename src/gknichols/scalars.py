"""Exact coefficient arithmetic.

Scalars live in Q(zeta_N) optionally extended by transcendental parameters;
every value is stored in a canonical form so that equality is decidable.
A ``Scalar`` is a ring and a payload, of one of two kinds:

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
are integer-pair closures on ``((n,), d)`` with no convolution, which return
the one shared payload of a small rational (``sparse.SMALL``); no code reads
a payload's identity.

Most factors in the q-matrices of the paper's braided spaces are roots of
unity +-z^k, the powers of one generator w (z, or -z for odd N).  Each ring
indexes their canonical pairs by the exponent of w, so a product of two of
them is a table lookup, a product with one of them moves the other factor's
coefficients up by k modulo N (through the reduced powers of z) and keeps its
denominator, and the inverse of w^e is w^-e with no Galois-norm walk.

``ScalarRing.ops`` is a :class:`RingOps` record of the ring's operations on
payloads (``one``, ``mul``, ``add``, ``neg``, ``inv``, ``is_zero``, and
``axpy``, acc += coeff * vec on sparse dicts, from :mod:`gknichols.sparse`):
``Scalar`` arithmetic is one call to them, and hot loops call them on raw
payloads, building ``Scalar(ring, payload)`` only for what they return.  A
payload's kind is read off its denominator: an int for a constant, a dict
for a fraction.  On a ring with parameters two constants still go to the
constant operations, a sum of a constant and a fraction needs no reduction,
and any other pair goes to the polynomial arithmetic and ``_make_frac``.  :data:`SCALAR_OPS` is the record for dicts of ``Scalar``s.
The cyclotomic order is capped at ``MAX_CYCLOTOMIC_ORDER``: the table of
powers of z costs O(N * phi(N)).

An ``"f"`` value is reduced by the monic gcd of its numerator and
denominator.  In at most one active parameter that gcd is Euclid's algorithm
over Q(zeta_N), on the remainders of ``_poly_divmod``; in several it is the
primitive pseudo-remainder sequence in the last active parameter over the
polynomials in the others, whose contents are gcds one parameter down
(Brown, J. ACM 18, 1971).

:func:`parse_tree` reads the package's scalar and element texts by one
grammar; :func:`scalar_value` evaluates a scalar tree, and
:func:`join_terms` prints a sum of scalar or element terms.
"""

from __future__ import annotations

from fractions import Fraction as _Q
from functools import lru_cache, partial
from math import gcd as _igcd, lcm as _lcm
from operator import add as _add, methodcaller, mul as _mul, neg as _neg
from typing import Any, Callable, NamedTuple

from . import sparse
from .sparse import SMALL, canon


MAX_CYCLOTOMIC_ORDER = 1024
MAX_EXPONENT = 1024  # |n| in a literal power x^n of a scalar or element
MAX_NESTING = 100  # brackets and unary minus signs inside one another


class GKNicholsError(Exception):
    """The base of the package's error classes (``ScalarError``,
    ``SpecError``, ``ElementError``, ``NicholsError``, ``CatalogError``,
    ``FlourishedError`` and ``WeylError``), so that a caller can catch
    every one without importing the module that raises it."""


class ScalarError(GKNicholsError):
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
def _roots_of_unity(n: int) -> tuple:
    """The roots of unity +-z^k of Q(zeta_n) as the powers of a generator w
    of their group (w = z for even n, -z for odd n; order lcm(2, n)):
    (units, index) with units[e] the canonical pair of w^e and index mapping
    each such pair back to e."""
    zpow = _zeta_powers(n)
    units = tuple((tuple(map(_neg, zpow[e % n])) if n % 2 and e % 2
                   else zpow[e % n], 1) for e in range(_lcm(2, n)))
    return units, {u: e for e, u in enumerate(units)}


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
        return _cyc_reduce(tuple(map(_add, an, bn)), ad)
    g = _igcd(ad, bd)
    fa, fb = bd // g, ad // g
    return _cyc_reduce(tuple(x * fa + y * fb for x, y in zip(an, bn)),
                       ad * fa)


def _cyc_neg(a):
    return tuple(map(_neg, a[0])), a[1]


def _cyc_is_zero(a):
    return not any(a[0])


# the same operations when phi = 1: a constant is ((n,), d), a rational


def _rat_add(a, b):
    (x,), d = a
    (y,), e = b
    if d == e:
        n = x + y
        if d == 1:
            return SMALL[n + 64] if -64 <= n <= 64 else ((n,), 1)
    else:
        n, d = x * e + y * d, d * e
    return canon(n, d)


def _rat_mul(a, b):
    (x,), d = a
    (y,), e = b
    n, d = x * y, d * e
    if d == 1:
        return SMALL[n + 64] if -64 <= n <= 64 else ((n,), 1)
    return canon(n, d)


def _rat_neg(a):
    return canon(-a[0][0], a[1])


def _rat_is_zero(a):
    return not a[0][0]


def _rat_inv(a):
    (x,), d = a
    if x:
        return canon(d, x) if x > 0 else canon(-d, -x)
    raise DivisionByZero("rational inverse of zero")


def _is_const(payload):
    """True for a constant's (nums, den) payload, False for a fraction's."""
    return type(payload[1]) is int


def _frac_is_zero(a):
    return _is_const(a) and _cyc_is_zero(a)


class RingOps(NamedTuple):
    """A ring's operations on payloads; see the module docstring."""

    one: Any
    mul: Callable
    add: Callable
    neg: Callable
    inv: Callable
    is_zero: Callable
    axpy: Callable


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
        for name in params:
            # z reads as zeta_N, and no text reads what is not a name
            if name == "z" or not _is_name(name):
                raise ScalarError(f"parameter name {name!r} must be a name "
                                  f"other than z")
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
        self._units, self._unit_index = _roots_of_unity(n)
        self._zero_cyc = ((0,) * phi, 1)
        self._one_cyc = (self._zpow[0], 1)
        # the constant operations, chosen once: the payload ops and the
        # products of polynomial coefficients call these
        if phi == 1:
            self._zero_cyc, self._one_cyc = SMALL[64], SMALL[65]
            self.cyc_add, self.cyc_mul = _rat_add, _rat_mul
            self.cyc_neg, self.cyc_inv = _rat_neg, _rat_inv
            cyc_is_zero = _rat_is_zero
        else:
            self.cyc_add, self.cyc_mul = _cyc_add, self._conv_mul
            self.cyc_neg, self.cyc_inv = _cyc_neg, self._norm_inv
            cyc_is_zero = _cyc_is_zero
        if params:
            mul, add, neg, inv, is_zero = (self._frac_mul, self._frac_add,
                                           self._frac_neg, self._frac_inv,
                                           _frac_is_zero)
        else:
            mul, add, neg, inv, is_zero = (self.cyc_mul, self.cyc_add,
                                           self.cyc_neg, self.cyc_inv,
                                           cyc_is_zero)
        axpy = sparse.rational_axpy if phi == 1 and not params \
            else partial(sparse.axpy, add, mul, is_zero)
        self.ops = RingOps(self._one_cyc, mul, add, neg, inv, is_zero, axpy)

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Scalar":
        return Scalar(self, self._zero_cyc)

    def one(self) -> "Scalar":
        return Scalar(self, self._one_cyc)

    def from_int(self, n) -> "Scalar":
        return self._rational(_Q(n))

    def from_rational(self, p, q=1) -> "Scalar":
        return self._rational(_Q(p, q))

    def _rational(self, r):
        nums = (r.numerator,) + self._zero_cyc[0][1:]
        return Scalar(self, (nums, r.denominator))

    def zeta(self, power: int = 1) -> "Scalar":
        vec = self._zpow[power % self.cyclotomic_order]
        return Scalar(self, (vec, 1))

    def param(self, name: str) -> "Scalar":
        if name not in self.params:
            raise ScalarError(f"unknown parameter {name!r}")
        i = self.params.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.params)))
        den = {(0,) * len(self.params): self._one_cyc}
        return Scalar(self, ({exps: self._one_cyc}, den))

    # -- payload operations of a ring with parameters -----------------------

    def _frac_add(self, a, b):
        if _is_const(a):
            if _is_const(b):
                return self.cyc_add(a, b)
            a, b = b, a
        elif not _is_const(b):
            (na, da), (nb, db) = a, b
            return _make_frac(self, _poly_add(_poly_mul(self, na, db),
                                              _poly_mul(self, nb, da)),
                              _poly_mul(self, da, db))
        # fraction plus constant: gcd(num + c*den, den) = gcd(num, den) = 1
        # and den stays monic, so the sum is reduced as it stands
        num, den = a
        return _poly_add(num, _poly_scale(self, den, b)), den

    def _frac_mul(self, a, b):
        if _is_const(a):
            if _is_const(b):
                return self.cyc_mul(a, b)
            a, b = b, a
        elif not _is_const(b):
            return _make_frac(self, _poly_mul(self, a[0], b[0]),
                              _poly_mul(self, a[1], b[1]))
        # fraction times constant: a nonzero constant is a unit, so the
        # scaled numerator stays coprime to the (monic) denominator
        if _cyc_is_zero(b):
            return self._zero_cyc
        return _poly_scale(self, a[0], b), a[1]

    def _frac_neg(self, a):
        if _is_const(a):
            return self.cyc_neg(a)
        return _poly_neg(a[0]), a[1]

    def _frac_inv(self, a):
        if _is_const(a):
            if _cyc_is_zero(a):
                raise DivisionByZero("rational-function inverse of zero")
            return self.cyc_inv(a)
        return _make_frac(self, a[1], a[0])

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
        index = self._unit_index
        ea, eb = index.get(a), index.get(b)
        if ea is None:
            if eb is None:
                return _cyc_reduce(self._int_mul(a[0], b[0]), a[1] * b[1])
            return self._rotate(a, eb)
        if eb is None:
            return self._rotate(b, ea)
        units = self._units
        return units[(ea + eb) % len(units)]

    def _rotate(self, a, e):
        """a * w^e for the generator w of the roots of unity (see
        ``_roots_of_unity``): the coefficients of a move up by e modulo N,
        negated when w = -z and e is odd.  w^e is a unit of Z[z], so the
        numerators keep their content and the pair stays canonical."""
        n, zsparse = self.cyclotomic_order, self._zsparse
        out = [0] * self.phi
        for i, x in enumerate(a[0], e):
            if x:
                for j, r in zsparse[i % n]:
                    out[j] += x * r
        if n % 2 and e % 2:
            return tuple(map(_neg, out)), a[1]
        return tuple(out), a[1]

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
        e = self._unit_index.get(a)
        if e is not None:  # a = w^e, so 1/a = w^-e
            units = self._units
            return units[-e % len(units)]
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


def _poly_add(a, b):
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
                    a[k] = _poly_add(a.get(k, {}),
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


class Scalar:
    """An exact element of the ring, immutable.

    kind 'c': payload is a constant's (nums, den) pair, rationals included;
    kind 'f': (numerator, denominator) polynomial pair, normalized.
    """

    __slots__ = ("ring", "payload", "_hash")

    def __init__(self, ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):  # pickle and copy through __init__
        return Scalar, (self.ring, self.payload)

    @property
    def kind(self) -> str:
        return "c" if _is_const(self.payload) else "f"

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.ring.ops.is_zero(self.payload)

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
        ring = self.ring
        return Scalar(ring, ring.ops.add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return Scalar(ring, ring.ops.neg(self.payload))

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
        ring = self.ring
        return Scalar(ring, ring.ops.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        ring = self.ring
        return Scalar(ring, ring.ops.inv(self.payload))

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
            if self.is_zero():
                raise DivisionByZero("division by zero")
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
        return self.payload == other.payload

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

    def mult_order(self) -> int | None:
        """The multiplicative order, or None when not a root of unity."""
        if self.is_zero():
            raise ZeroInput("multiplicative order of zero")
        if self.kind == "f":
            return None
        # the roots of unity of Q(zeta_N) are the powers w^e of _roots_of_unity
        n = len(self.ring._units)
        e = self.ring._unit_index.get(self.payload)
        return None if e is None else n // _igcd(e, n)

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return print_scalar(self)


# the operations on Scalar values, the same in every ring (so ``one`` is
# left None): the values of TensorElement terms and of the oracles' echelons
SCALAR_OPS = RingOps(None, _mul, _add, _neg, methodcaller("inverse"),
                     methodcaller("is_zero"),
                     partial(sparse.axpy, _add, _mul,
                             methodcaller("is_zero")))


def _freeze_poly(p):
    return tuple(sorted(p.items(), key=lambda kv: _grlex_key(kv[0])))


def _make_frac(ring, num, den):
    """The payload of num / den: a fraction's reduced pair, or a constant's
    pair when the quotient is constant."""
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return ring._zero_cyc
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
        return num[const]
    return num, den


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


def _is_name(text) -> bool:
    """Whether ``text`` is one name token of :func:`parse_tree`: a letter or
    ``_``, then letters, digits or ``_``."""
    return isinstance(text, str) and (text[:1].isalpha() or text[:1] == "_") \
        and all(ch.isalnum() or ch == "_" for ch in text)


def parse_tree(text: str, ring: ScalarRing, resolve) -> tuple:
    """Parse a scalar text (``resolve`` None) or an element text into a tree.

    One grammar, from the loosest binding to the tightest: ``+`` and binary
    ``-``; ``*`` (in a scalar also ``/``, in an element also juxtaposition);
    unary ``-``; ``^`` with a non-negative integer exponent (``^-n`` in a
    scalar only).  Atoms are parentheses, integers and names.  A scalar's
    names are ``z`` and the parameters of ``ring``.  An element text adds
    ``p/r`` literals, ``[a, b]``, ``ad(a, b)`` and ``{scalar}`` literals,
    parsed in place; ``resolve(name)`` gives the leaf of any other name, or
    None when it is unknown.

    Nodes are ``("sum", [(negate, node), ...])``, ``("prod", [node, ...])``,
    ``("pow", node, n)``, ``("neg", node)``, ``("comm", left, right)``,
    ``("scalar", node)``, ``("num", numerator, denominator)``,
    ``("name", name)`` for ``z`` and the parameters, and the leaves of
    ``resolve``; ``a/b`` is ``("prod", [a, ("pow", b, -1)])``.  Errors
    raise :class:`ParseError` at their position in ``text``, among them a
    bracket or unary minus nested more than ``MAX_NESTING`` deep.
    """
    pos = depth = 0
    end = len(text)

    def nested(parse, start, arg):  # parse(arg) one level deeper
        nonlocal depth
        if depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", start)
        depth += 1
        node = parse(arg)
        depth -= 1
        return node

    def skip(n):  # step over n characters and the whitespace after them
        nonlocal pos
        pos += n
        while pos < end and text[pos].isspace():
            pos += 1

    def expect(ch):
        if text[pos:pos + 1] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        skip(1)

    def digits():  # a run of ASCII digits; the caller steps over whitespace
        nonlocal pos
        start = pos
        while pos < end and "0" <= text[pos] <= "9":
            pos += 1
        return text[start:pos]

    def parse_sum(scalar):
        terms = [(False, parse_product(scalar))]
        while (ch := text[pos:pos + 1]) in ("+", "-"):
            skip(1)
            terms.append((ch == "-", parse_product(scalar)))
        return terms[0][1] if len(terms) == 1 else ("sum", terms)

    def parse_product(scalar):
        factors = [parse_power(scalar)]
        while True:
            ch = text[pos:pos + 1]
            if ch == "*" or (ch == "/" and scalar):
                skip(1)
                factor = parse_power(scalar)
                factors.append(factor if ch == "*" else ("pow", factor, -1))
            elif not scalar and ch and (ch in "([{" or ch.isalnum()):
                factors.append(parse_power(scalar))
            else:
                return factors[0] if len(factors) == 1 else ("prod", factors)

    def parse_power(scalar):
        if text[pos:pos + 1] == "-":  # weaker than ^: -x^2 is -(x^2)
            start = pos
            skip(1)
            return ("neg", nested(parse_power, start, scalar))
        node = parse_atom(scalar)
        if text[pos:pos + 1] != "^":
            return node
        skip(1)
        sign = 1
        if scalar and text[pos:pos + 1] == "-":
            skip(1)
            sign = -1
        start = pos
        n = digits()
        if not n:
            raise ParseError("positive integer exponent expected", start)
        skip(0)
        n = n.lstrip("0") or "0"  # capped by its digits, before any power
        if len(n) > len(str(MAX_EXPONENT)) or int(n) > MAX_EXPONENT:
            raise ParseError(f"exponent above the maximum {MAX_EXPONENT}",
                             start)
        return ("pow", node, sign * int(n))

    def commutator(close):
        left = parse_sum(False)
        expect(",")
        right = parse_sum(False)
        expect(close)
        return ("comm", left, right)

    def parse_atom(scalar):
        nonlocal pos
        ch = text[pos:pos + 1]
        start = pos
        if ch == "(":
            skip(1)
            node = nested(parse_sum, start, scalar)
            expect(")")
            return node
        if "0" <= ch <= "9":
            num = int(digits())
            if scalar or text[pos:pos + 1] != "/":
                skip(0)
                return ("num", num, 1)
            pos += 1
            den = digits()
            if not den or int(den) == 0:
                raise ParseError(
                    f"bad rational literal {text[start:pos]!r}", start)
            skip(0)
            return ("num", num, int(den))
        if ch.isalpha() or ch == "_":
            while pos < end and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            name = text[start:pos]
            skip(0)
            if scalar:
                if name == "z" or name in ring.params:
                    return ("name", name)
                raise UnknownParameter(f"unknown name {name!r}", start)
            if name == "ad":
                expect("(")
                return nested(commutator, start, ")")
            node = resolve(name)
            if node is None:
                raise ParseError(f"unknown letter or macro {name!r}", start)
            return node
        if ch == "[" and not scalar:
            skip(1)
            return nested(commutator, start, "]")
        if ch == "{" and not scalar:
            skip(1)
            node = nested(parse_sum, start, True)
            if pos == end:
                raise ParseError("unterminated scalar literal", start)
            expect("}")
            return ("scalar", node)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end", pos)

    try:
        skip(0)
        node = parse_sum(resolve is None)
        if pos < end:
            raise ParseError(f"unexpected {text[pos]!r}", pos)
        return node
    finally:
        # the parsers call each other (parse_power itself) through cells of
        # this frame: emptying these two breaks every cycle, so a parse
        # leaves no garbage for the cyclic collector
        del parse_sum, parse_power


def parse_scalar(text: str, ring: ScalarRing) -> Scalar:
    """Parse a scalar text (see :func:`parse_tree`) over ``ring``.

    A spec repeats a few texts (the printed powers of z, ``1``, ``-1``), so
    the payload of each (text, ring) is parsed once and kept in a bounded
    cache; the value is built on ``ring`` itself.  Equal rings (equal order
    and parameters) share entries, as their payloads are the same, and a
    text that raises is parsed again on the next call.  Payloads are never
    written, the dicts of a rational function's included, so one serves
    every call."""
    return Scalar(ring, _parsed_payload(text, ring))


@lru_cache(maxsize=1024)
def _parsed_payload(text, ring):
    return scalar_value(parse_tree(text, ring, None), ring).payload


def evaluate(node, leaf):
    """The value of a tree of :func:`parse_tree`: ``sum``, ``prod``, ``pow``
    and ``neg`` nodes by Python's operators, every other node by
    ``leaf(node)``."""
    kind = node[0]
    if kind == "sum":
        terms = node[1]
        value = evaluate(terms[0][1], leaf)
        for negate, term in terms[1:]:
            other = evaluate(term, leaf)
            value = value - other if negate else value + other
        return value
    if kind == "prod":
        factors = node[1]
        value = evaluate(factors[0], leaf)
        for factor in factors[1:]:
            value = value * evaluate(factor, leaf)
        return value
    if kind == "pow":
        return evaluate(node[1], leaf) ** node[2]
    if kind == "neg":
        return -evaluate(node[1], leaf)
    return leaf(node)


def scalar_value(node, ring: ScalarRing) -> Scalar:
    """The value over ``ring`` of a scalar tree of :func:`parse_tree`."""
    def leaf(node):
        kind = node[0]
        if kind == "num":
            return ring.from_rational(node[1], node[2])
        if kind == "name":
            return ring.zeta() if node[1] == "z" else ring.param(node[1])
        return evaluate(node[1], leaf)  # "scalar"
    try:
        return evaluate(node, leaf)
    finally:
        del leaf  # it calls itself through a cell: a cycle


def join_terms(parts) -> str:
    """The printed terms ``parts`` as a sum: a term that starts with ``-``
    is joined by `` - `` and the rest by `` + ``."""
    return parts[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}"
                              for p in parts[1:])


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
    body = join_terms(parts)
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
    return join_terms(terms)


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
