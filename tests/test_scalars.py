"""Exact scalar arithmetic: field axioms, orders, q-numbers, parse/print,
and a differential oracle against sympy over Q(zeta_N)."""

import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from gknichols import ScalarRing, parse_scalar, print_scalar
from gknichols import scalars as scalars_module
from gknichols.braidings import natural_ghost
from gknichols.scalars import (_Q, MAX_CYCLOTOMIC_ORDER, MAX_EXPONENT,
                               DivisionByZero, ParseError, Scalar,
                               ScalarError,
                               _cyc_add, _cyc_is_zero, _cyc_neg, _print_poly,
                               qnum)

RING = ScalarRing(12, params=("q",))


def _atoms():
    return st.one_of(
        st.integers(-4, 4).map(RING.from_int),
        st.integers(0, 11).map(RING.zeta),
        st.builds(Fraction, st.integers(-3, 3),
                  st.integers(1, 4)).map(RING.from_rational),
        st.just(RING.param("q")),
    )


scalars = st.recursive(
    _atoms(),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: p[0] + p[1]),
        st.tuples(kids, kids).map(lambda p: p[0] * p[1]),
        kids.map(lambda s: -s),
    ),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert ((a + b) + c) == (a + (b + c))
    assert ((a * b) * c) == (a * (b * c))
    assert (a * (b + c)) == (a * b + a * c)
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)
    assert (a + RING.zero()) == a
    assert (a * RING.one()) == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert (a * a.inverse()).is_one()


@pytest.mark.parametrize("ring, kind", [
    (ScalarRing(1), "rational"), (ScalarRing(12), "cyclotomic"),
    (ScalarRing(1, ("q",)), "rational-function"),
    (ScalarRing(12, ("q",)), "rational-function")],
    ids=["q", "c12", "f", "f12"])
def test_inverse_of_zero_names_the_ring_kind(ring, kind):
    """The inverse of zero, and a division by zero, name the kind of the
    ring: rational over Q, cyclotomic over Q(zeta_N), rational-function
    over a ring with parameters."""
    zero, one = ring.zero(), ring.one()
    message = f"^{kind} inverse of zero$"
    for fail in (zero.inverse, lambda: one / zero, lambda: 2 / zero,
                 lambda: ring.ops.inv(zero.payload)):
        with pytest.raises(DivisionByZero, match=message):
            fail()


def _axpy_atoms(ring):
    """Nonzero scalars of ``ring``: rationals, one included, roots of unity
    and, with a parameter, fractions in it."""
    q = ring.from_rational
    atoms = [q(1), q(-1), q(2), q(-3), q(1, 2), q(-2, 3), q(5, 6)]
    if ring.phi > 1:
        z = ring.zeta(1)
        atoms += [z, -z ** 5, z + 1, (z ** 2 - 3) / 4]
    if ring.params:
        r = ring.param(ring.params[0])
        atoms += [r, r / 2 + 1, 1 / (r + 1), (r - 1) / (2 * r + 3)]
    return atoms


_AXPY_CASES = {"q": (ScalarRing(1), True), "c12": (ScalarRing(12), True),
               "r": (ScalarRing(1, ("r",)), True),
               "scalar-ops": (ScalarRing(12, ("r",)), False)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_AXPY_CASES)), st.data())
def test_axpy_matches_the_add_term_loop(case, data):
    """``axpy(acc, vec, coeff)`` of a ring's ops, and of SCALAR_OPS on
    Scalars, leaves ``acc`` with the keys, values and insertion order of
    ``add_term`` applied to each entry of coeff * vec (coeff None means 1),
    zero sums dropped; an entry of vec added to a new key unscaled is
    stored as it is."""
    from gknichols.freealgebra import add_term
    ring, raw = _AXPY_CASES[case]
    ops = ring.ops if raw else scalars_module.SCALAR_OPS
    atom = st.sampled_from(_axpy_atoms(ring))
    acc = data.draw(st.dictionaries(st.integers(0, 6), atom, max_size=6))
    coeff = data.draw(st.none() | atom)
    vec = {}
    for k in data.draw(st.lists(st.integers(0, 9), unique=True,
                                max_size=7)):
        if k in acc and data.draw(st.booleans()):  # cancels acc[k]
            vec[k] = -acc[k] if coeff is None else -acc[k] / coeff
        else:
            vec[k] = data.draw(atom)
    if raw:
        acc, vec = ({k: v.payload for k, v in d.items()} for d in (acc, vec))
        coeff = None if coeff is None else coeff.payload
    expected = dict(acc)
    for k, v in vec.items():
        add_term(expected, k, v if coeff is None else ops.mul(v, coeff),
                 ops)
    fresh = [k for k in vec if k not in acc]
    ops.axpy(acc, vec, coeff)
    assert list(acc.items()) == list(expected.items())
    if coeff is None:
        assert all(acc[k] is vec[k] for k in fresh)


def test_rational_axpy_is_the_inlined_kernel():
    """Q alone, as Q(zeta_N) with phi(N) = 1, gets the kernel with the
    rational arithmetic inlined."""
    from gknichols.sparse import rational_axpy
    for ring in (ScalarRing(1), ScalarRing(2)):
        assert ring.ops.axpy is rational_axpy
    for ring in (ScalarRing(3), ScalarRing(12), ScalarRing(1, ("q",))):
        assert ring.ops.axpy is not rational_axpy


@settings(max_examples=80, deadline=None)
@given(scalars)
def test_parse_print_roundtrip(a):
    assert parse_scalar(print_scalar(a), RING) == a


@pytest.mark.parametrize("params,text,printed", [
    (("a", "b"), "(a + b)/(a*b)", "(a + b)/(a*b)"),
    (("a", "b"), "1/(a*b^2)", "1/(a*b^2)"),
    (("a", "b"), "-a*b/(a^2*b^3)", "-1/(a*b^2)"),
    (("a", "b"), "(a - b)/(a^2*b)", None),
    (("a", "b"), "a/b", "a/b"),
    (("a", "b"), "a*b/(a + 1)", "a*b/(a + 1)"),
    (("a", "b"), "(3/2)*a/b^2", "(3/2)*a/b^2"),
    (("q",), "1/q^2", "1/q^2"),
    (("q",), "-q/(q - 1)", "(-1)*q/(q - 1)"),
])
def test_rational_function_print_parse_roundtrip(params, text, printed):
    """A denominator that is a product of parameters is parenthesised."""
    ring = ScalarRing(1, params=params)
    a = parse_scalar(text, ring)
    out = print_scalar(a)
    if printed is not None:
        assert out == printed
    assert parse_scalar(out, ring) == a


def test_parse_rejects_unknown_parameter():
    with pytest.raises(ParseError):
        parse_scalar("q + r", RING)


@pytest.mark.parametrize("ring", [ScalarRing(1), ScalarRing(12),
                                  ScalarRing(1, ("q",))],
                         ids=["q", "c12", "f"])
def test_parse_division_by_zero_raises(ring):
    """A zero divisor or a zero to a negative power in a scalar text raises
    DivisionByZero, over every kind of ring."""
    for text in ("1/0", "z/(z - z)", "(1 - 1)^-2", "2/(3 - 3)^3"):
        with pytest.raises(DivisionByZero, match="division by zero"):
            parse_scalar(text, ring)


def test_parse_caps_exponents():
    ring = ScalarRing(12)
    z = ring.zeta(1)
    assert parse_scalar(f"z^{MAX_EXPONENT}", ring) == z ** MAX_EXPONENT
    assert parse_scalar(f"z^-{MAX_EXPONENT}", ring) == z ** -MAX_EXPONENT
    assert parse_scalar("2^0010", ring) == 1024
    for text, position in (("z^1025", 2), ("z^-1025", 3),
                           ("1 + 2^999999999", 6), ("z^" + "9" * 5000, 2)):
        with pytest.raises(ParseError) as info:
            parse_scalar(text, ring)
        assert str(info.value) == ("exponent above the maximum 1024 "
                                   f"(at position {position})")


def test_zeta_powers_and_orders():
    z = RING.zeta(1)
    assert (z ** 12).is_one()
    for k in range(1, 12):
        assert not (z ** k).is_one()
        assert RING.zeta(k).mult_order() == 12 // gcd(12, k)
    assert RING.one().mult_order() == 1
    assert RING.from_int(2).mult_order() is None


def test_cyclotomic_relation():
    # zeta_12 satisfies its minimal polynomial x^4 - x^2 + 1
    z = RING.zeta(1)
    assert (z ** 4 - z ** 2 + RING.one()).is_zero()


def test_qnum_at_root_of_unity():
    ring = ScalarRing(3)
    w = ring.zeta(1)
    assert qnum(3, w).is_zero()  # 1 + w + w^2 = 0
    assert qnum(2, w) == ring.one() + w
    assert qnum(4, ring.from_int(1)) == ring.from_int(4)


def test_symbolic_fraction_arithmetic():
    q = RING.param("q")
    s = (q ** 2 - RING.one()) / (q - RING.one())
    assert s == q + RING.one()
    assert s.kind == "f" or s == q + RING.one()


# ---------------------------------------------------------------------------
# differential oracle: sympy's arithmetic modulo the cyclotomic polynomial

ORACLE_ORDERS = (3, 4, 5, 7, 8, 9, 12)
ORACLE_DRAWS = 20


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _draw(rng, phi):
    """phi rational coefficients: zeros, small integers, huge denominators."""
    out = []
    for _ in range(phi):
        roll = rng.random()
        if roll < 0.25:
            out.append(Fraction(0))
        elif roll < 0.5:
            out.append(Fraction(rng.randint(-5, 5)))
        else:
            out.append(Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                rng.randint(1, 10 ** 12)))
    return out


def _scalar(ring, coeffs):
    return sum((ring.from_rational(c) * ring.zeta(i)
                for i, c in enumerate(coeffs)), ring.zero())


class _Oracle:
    """Q(zeta_N) as sympy polynomials over QQ reduced modulo Phi_N."""

    def __init__(self, sp, n):
        self.sp, self.n = sp, n
        self.z = sp.Symbol("z")
        self.mod = sp.Poly(sp.cyclotomic_poly(n, self.z), self.z,
                           domain=sp.QQ)
        self.phi = self.mod.degree()

    def poly(self, coeffs):
        sp = self.sp
        expr = sum(sp.Rational(c.numerator, c.denominator) * self.z ** i
                   for i, c in enumerate(coeffs))
        return sp.Poly(expr, self.z, domain=sp.QQ).rem(self.mod)

    def coeffs(self, poly):
        out = [Fraction(int(c.p), int(c.q))
               for c in reversed(poly.rem(self.mod).all_coeffs())]
        return out + [Fraction(0)] * (self.phi - len(out))

    def parse(self, text):
        sp = self.sp
        expr = sp.sympify(text.replace("^", "**"), locals={"z": self.z})
        return sp.Poly(expr, self.z, domain=sp.QQ).rem(self.mod)

    def mult_order(self, poly):
        """Least d | lcm(2, N) with poly^d = 1; None if there is none."""
        top = self.n if self.n % 2 == 0 else 2 * self.n
        one = self.sp.Poly(1, self.z, domain=self.sp.QQ)
        for d in range(1, top + 1):
            if top % d == 0 and (poly ** d).rem(self.mod) == one:
                return d
        return None


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_arithmetic_matches_sympy(sp, n):
    oracle, ring = _Oracle(sp, n), ScalarRing(n)
    assert ring.phi == oracle.phi
    rng = random.Random(7000 + n)
    for _ in range(ORACLE_DRAWS):
        ca, cb = _draw(rng, ring.phi), _draw(rng, ring.phi)
        a, b = _scalar(ring, ca), _scalar(ring, cb)
        pa, pb = oracle.poly(ca), oracle.poly(cb)
        total = _scalar(ring, oracle.coeffs(pa + pb))
        product = _scalar(ring, oracle.coeffs(pa * pb))
        assert a + b == total and hash(a + b) == hash(total)
        assert a * b == product and hash(a * b) == hash(product)
        assert print_scalar(a * b) == print_scalar(product)
        if any(ca):
            inverse = _scalar(ring, oracle.coeffs(pa.invert(oracle.mod)))
            assert a.inverse() == inverse
            assert hash(a.inverse()) == hash(inverse)
        else:
            with pytest.raises(DivisionByZero):
                a.inverse()


@pytest.mark.parametrize("n", (15, 16, 97))
def test_inverse_in_larger_fields(n):
    # Galois groups with longer cyclic steps than the oracle orders have
    ring = ScalarRing(n)
    rng = random.Random(n)
    for _ in range(3):
        a = _scalar(ring, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(ring.phi)])
        assert (a * a.inverse()).is_one()
    b = ring.one() + ring.zeta(1)
    assert (b * b.inverse()).is_one()


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_print_parse_matches_sympy(sp, n):
    oracle, ring = _Oracle(sp, n), ScalarRing(n)
    rng = random.Random(8000 + n)
    for _ in range(ORACLE_DRAWS):
        coeffs = _draw(rng, ring.phi)
        a = _scalar(ring, coeffs)
        text = print_scalar(a)
        assert parse_scalar(text, ring) == a
        assert oracle.coeffs(oracle.parse(text)) == coeffs


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_mult_order_matches_sympy(sp, n):
    oracle, ring = _Oracle(sp, n), ScalarRing(n)
    rng = random.Random(9000 + n)
    # sums c * z^p with p in 0..n-1 (not reduced), many of them roots of 1
    draws = [[(1, k)] for k in range(n)] + [[(-1, k)] for k in range(n)]
    draws += [[(1, 0), (1, k)] for k in range(1, n)]
    draws += [[(rng.choice([-1, 1]), rng.randrange(n)) for _ in range(2)]
              for _ in range(ORACLE_DRAWS)]
    draws += [[(rng.randint(-2, 2), p) for p in range(ring.phi)]
              for _ in range(ORACLE_DRAWS)]
    for terms in draws:
        a = sum((c * ring.zeta(p) for c, p in terms), ring.zero())
        expected = oracle.mult_order(
            sum(c * oracle.poly([Fraction(0)] * p + [Fraction(1)])
                for c, p in terms).rem(oracle.mod))
        if a.is_zero():
            assert expected is None
            continue
        assert a.mult_order() == expected, terms


def _pair(coeffs):
    """The canonical (nums, den) pair of rational coefficients, built
    without the ring's arithmetic."""
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs), den


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_root_of_unity_shortcuts_match_sympy(sp, n):
    """Products with +-z^k (by rotation or, for two roots, a table lookup)
    and inverses of +-z^k are sympy's values, and canonical."""
    oracle, ring = _Oracle(sp, n), ScalarRing(n)
    mul, inv = ring.ops.mul, ring.ops.inv
    rng = random.Random(9500 + n)
    zero = [Fraction(0)] * ring.phi

    def value(poly):
        return poly, _pair(oracle.coeffs(poly))

    # +-z^k for every k; for odd n, -z^k is not a power of z
    roots = [value(oracle.poly([Fraction(0)] * k + [Fraction(sign)]))
             for k in range(n) for sign in (1, -1)]
    assert {raw for _, raw in roots} == set(ring._unit_index)
    assert len(ring._unit_index) == lcm(2, n)
    dense = []
    while len(dense) < 6:
        coeffs = _draw(rng, ring.phi)
        if sum(c != 0 for c in coeffs) > 1 and any(c.denominator > 1
                                                   for c in coeffs):
            dense.append(value(oracle.poly(coeffs)))
    rationals = [value(oracle.poly([Fraction(p, q)] + zero[1:]))
                 for p, q in ((3, 1), (-5, 7), (1, 1), (-1, 1), (0, 1))]

    def check(raw, poly):
        assert raw == _pair(oracle.coeffs(poly))
        _assert_canonical(raw, ring.phi)

    for pu, u in roots:
        for pv, v in rng.sample(roots, 6) + dense + rationals:
            check(mul(u, v), pu * pv)
            check(mul(v, u), pv * pu)
        check(inv(u), pu.invert(oracle.mod))
    for pd, d in dense:
        check(inv(d), pd.invert(oracle.mod))


def test_equal_scalars_hash_equal():
    rng = random.Random(12)
    ring = ScalarRing(12)
    for _ in range(ORACLE_DRAWS):
        a = _scalar(ring, _draw(rng, ring.phi))
        b = _scalar(ring, _draw(rng, ring.phi)) + ring.zeta(1)
        pairs = [(a * b, b * a), ((a + b) - b, a), (a * b / b, a),
                 (a * 3 / 3, a), (parse_scalar(print_scalar(a), ring), a)]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
    # a rational scalar equals an int, so it must hash as one
    for r in (ScalarRing(1), ScalarRing(12), ScalarRing(1, ("r",))):
        x = r.from_int(3)
        assert x == 3 and hash(x) == hash(3)
        assert 3 in {x} and x in {3}
    assert ring.zeta(6) == -1 and hash(ring.zeta(6)) == hash(-1)


def test_rational_queries_through_cyclotomic_arithmetic():
    # constants that become rational only after reduction modulo Phi_12
    ring = ScalarRing(12)
    z = ring.zeta(1)
    cases = [(ring.zeta(6), Fraction(-1), "-1"),
             ((z + 1) - z, Fraction(1), "1"),
             (z ** 5 * z ** 7, Fraction(1), "1"),
             (z ** 2 + z ** 10, Fraction(1), "1"),
             ((z ** 2 + z ** 10) / 3, Fraction(1, 3), "1/3"),
             ((z ** 3 - z ** 9) * (z ** 3 - z ** 9) * 2, Fraction(-8), "-8")]
    for x, value, text in cases:
        assert x.is_rational()
        r = x.as_rational()
        assert isinstance(r, _Q) and r == value
        assert x.is_integer() == (value.denominator == 1)
        if x.is_integer() and value >= 0:
            assert type(natural_ghost(x)) is int and natural_ghost(x) == value
        else:
            assert natural_ghost(x) is None
        assert print_scalar(x) == text
    for x in (z, z + z ** 6 + 1, ring.zeta(2) / 2):
        assert not x.is_rational() and not x.is_integer()
        assert natural_ghost(x) is None
        with pytest.raises(ScalarError):
            x.as_rational()


def _raw_operands(ring, seed):
    """Seeded Scalars of ``ring``: zero, one, negatives, non-unit
    denominators, and the parameter when the ring has one."""
    rng = random.Random(seed)
    out = [ring.zero(), ring.one(), -ring.one(), ring.from_rational(-3, 4),
           ring.from_rational(6, 9)]
    out += [_scalar(ring, _draw(rng, ring.phi)) for _ in range(12)]
    for name in ring.params:
        q = ring.param(name)
        out += [q, -q / 2, (q - 1) / (q + 3), q * q + ring.zeta(1)]
    return out


def _assert_canonical(raw, phi):
    nums, den = raw
    assert len(nums) == phi and den > 0 and gcd(den, *nums) == 1
    if not any(nums):
        assert raw == ((0,) * phi, 1)


@pytest.mark.parametrize("order, params", [(1, ()), (12, ()), (1, ("q",))])
def test_raw_ops_match_scalar_arithmetic(order, params):
    """Scalar(ring, op(a.payload, b.payload)) is a op b; raw constants stay
    in canonical form."""
    ring = ScalarRing(order, params)
    ops = ring.ops
    values = _raw_operands(ring, 100 + order)
    assert Scalar(ring, ops.one) == ring.one()
    copied = pickle.loads(pickle.dumps((ring, values)))
    assert copied[0] == ring and copied[1] == values
    assert Scalar(copied[0], copied[0].ops.one) == ring.one()
    for a in values:
        ra = a.payload
        assert Scalar(ring, ra) == a
        assert ops.is_zero(ra) == a.is_zero()
        results = [(ops.neg(ra), -a)]
        if not a.is_zero():
            results.append((ops.inv(ra), a.inverse()))
        for b in values:
            rb = b.payload
            results += [(ops.add(ra, rb), a + b), (ops.mul(ra, rb), a * b)]
        for raw, expected in results:
            got = Scalar(ring, raw)
            assert got == expected
            if got.kind == "c":
                _assert_canonical(raw, ring.phi)
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                ops.inv(ra)


def test_constant_plus_fraction_makes_no_reduction(monkeypatch):
    """c + num/den is (num + c*den)/den: coprime with a monic denominator as
    it stands, so the add takes no gcd (no _make_frac call) and gives the
    pair that a full reduction gives."""
    ring = ScalarRing(12, ("q", "r"))
    q, r = ring.param("q"), ring.param("r")
    fractions = [q, (q - 1) / (q + 3), (q * r + ring.zeta(1)) / (r * r - 2)]
    constants = [ring.zero(), ring.one(), ring.from_rational(-3, 4),
                 ring.zeta(5) + 2]
    make_frac = scalars_module._make_frac
    expected = {}
    for i, f in enumerate(fractions):
        num, den = f.payload
        for j, c in enumerate(constants):
            scaled = {e: ring.cyc_mul(v, c.payload) for e, v in den.items()}
            total = dict(num)
            for e, v in scaled.items():
                total[e] = ring.cyc_add(total.get(e, ring._zero_cyc), v)
            total = {e: v for e, v in total.items() if any(v[0])}
            expected[i, j] = make_frac(ring, total, den)

    def no_reduction(*args):
        raise AssertionError("constant + fraction called _make_frac")

    monkeypatch.setattr(scalars_module, "_make_frac", no_reduction)
    for i, f in enumerate(fractions):
        for j, c in enumerate(constants):
            assert ring.ops.add(c.payload, f.payload) == expected[i, j]
            assert ring.ops.add(f.payload, c.payload) == expected[i, j]
            assert (c + f).payload == (f + c).payload == expected[i, j]


@pytest.mark.parametrize("order", [1, 2])
def test_integer_pair_ops_match_convolution(order):
    """When phi = 1 the ring's integer-pair operations give the pairs of the
    general convolution, norm-inverse and tuple operations."""
    ring = ScalarRing(order)
    assert ring.phi == 1
    ops = ring.ops
    raws = [v.payload for v in _raw_operands(ring, 200 + order)]
    for a in raws:
        assert ops.neg(a) == _cyc_neg(a)
        assert ops.is_zero(a) == _cyc_is_zero(a)
        if not _cyc_is_zero(a):
            assert ops.inv(a) == ring._norm_inv(a)
        for b in raws:
            assert ops.add(a, b) == _cyc_add(a, b)
            assert ops.mul(a, b) == ring._conv_mul(a, b)


def test_cyclotomic_order_is_capped():
    ScalarRing(1009)  # the largest order used in the inverse measurements
    assert ScalarRing(MAX_CYCLOTOMIC_ORDER).cyclotomic_order \
        == MAX_CYCLOTOMIC_ORDER
    with pytest.raises(ScalarError, match="above the maximum"):
        ScalarRing(MAX_CYCLOTOMIC_ORDER + 1)
    with pytest.raises(ScalarError, match="above the maximum"):
        ScalarRing(3000000)


@pytest.mark.parametrize("name", ["z", "a b", "", "1q"])
def test_parameter_names_are_readable_names(name):
    # z is zeta_N, and a name that no text reads is refused as well
    with pytest.raises(ScalarError, match="must be a name other than z"):
        ScalarRing(2, params=("q", name))


# ---------------------------------------------------------------------------
# rational functions in the parameters against sympy

FRACTION_RINGS = [(1, ("q", "r")), (1, ("q", "r", "s")), (4, ("q",))]
FRACTION_DRAWS = 15

_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _draw_fraction(sp, rng, ring, depth):
    """(Scalar, sympy expression): parameters, z = i and small integers
    combined by + - * /."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if roll < 0.15 and ring.cyclotomic_order == 4:
            return ring.zeta(), sp.I
        if roll < 0.2:
            k = rng.randint(-3, 3)
            return ring.from_int(k), sp.Integer(k)
        name = rng.choice(ring.params)
        return ring.param(name), sp.Symbol(name)
    (a, ea), (b, eb) = (_draw_fraction(sp, rng, ring, depth - 1)
                        for _ in range(2))
    op = rng.choice("+-*/")
    if op == "/" and b.is_zero():
        op = "*"
    return _OPS[op](a, b), _OPS[op](ea, eb)


@pytest.mark.parametrize("order, params", FRACTION_RINGS)
def test_rational_functions_match_sympy(sp, order, params):
    """Each + - * / is the sympy value, in lowest terms, with a denominator
    of grlex leading coefficient 1."""
    ring = ScalarRing(order, params)
    gens = [sp.Symbol(name) for name in params]
    names = dict(zip(params, gens), z=sp.I)

    def read(text):
        return sp.sympify(text.replace("^", "**"), locals=names)

    rng = random.Random(1000 * order + len(params))
    for _ in range(FRACTION_DRAWS):
        (a, ea), (b, eb) = (_draw_fraction(sp, rng, ring, 2)
                            for _ in range(2))
        for op, fn in _OPS.items():
            if op == "/" and b.is_zero():
                continue
            c = fn(a, b)
            assert sp.cancel(read(print_scalar(c)) - fn(ea, eb)) == 0, op
            if c.kind == "f":
                num, den = (read(_print_poly(ring, p)) for p in c.payload)
                assert sp.gcd(num, den) == 1
                assert sp.Poly(den, *gens).LC(order="grlex") == 1
