"""Tensor algebra elements: arithmetic, derivations, parsing, printing."""

import pytest
from hypothesis import given, settings, strategies as st

from gknichols import (BraidedSpaceSpec, ScalarRing, TensorElement,
                       braided_commutator, expression_degree, parse_element,
                       parse_scalar, print_element, skew_derivation)
from gknichols.freealgebra import (ElementError, NonHomogeneous, ad_letter,
                                   group_act)

RING = ScalarRing(4)


def sample_spec():
    """One Jordan block and one point with a ghost."""
    return BraidedSpaceSpec(RING, [("1", 2)], ["z"],
                            [["1", "1"], ["1", "z"]], {(2, 1): "-1/2"})


SPEC = sample_spec()


def words(max_len=3):
    return st.lists(st.integers(0, SPEC.nletters - 1), min_size=0,
                    max_size=max_len).map(tuple)


def elements(max_len=3):
    return st.dictionaries(words(max_len), st.integers(-3, 3),
                           max_size=3).map(
        lambda d: TensorElement(SPEC, {w: RING.from_int(c)
                                       for w, c in d.items()}))


def _monomial(word):
    return TensorElement(SPEC, {word: RING.one()})


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), st.integers(0, 2))
def test_twisted_leibniz_rule(x, y, i):
    # partial_i(xy) = partial_i(x)(g_i . y) + x partial_i(y)
    lt = SPEC.letters[i]
    lhs = skew_derivation(SPEC, lt.name, x * y)
    rhs = skew_derivation(SPEC, lt.name, x) * group_act(SPEC, lt.group, y) \
        + x * skew_derivation(SPEC, lt.name, y)
    assert (lhs - rhs).is_zero()


def test_derivation_on_letters():
    for lt in SPEC.letters:
        for other in SPEC.letters:
            d = skew_derivation(SPEC, lt.name,
                                TensorElement.letter(SPEC, other.name))
            if lt.idx == other.idx:
                assert d.coeff(()) == RING.one() and len(d.terms) == 1
            else:
                assert d.is_zero()


@settings(max_examples=40, deadline=None)
@given(words(3), words(3))
def test_product_concatenates_with_coefficients(u, v):
    p = _monomial(u) * _monomial(v)
    assert p.coeff(u + v) == RING.one()
    assert len(p.terms) == 1


def test_power_rejects_a_negative_exponent():
    x = TensorElement.letter(SPEC, "x1")
    assert x ** 0 == TensorElement.unit(SPEC)
    assert x ** 2 == x * x
    with pytest.raises(ElementError, match="exponent -1 is negative"):
        x ** -1


def test_commutator_of_points():
    # on two diagonal points [x, y] = xy - q_xy yx
    spec = BraidedSpaceSpec(RING, [], ["z", "-1"],
                            [["z", "z^2"], ["1", "-1"]])
    x = TensorElement.letter(spec, "x1")
    y = TensorElement.letter(spec, "x2")
    c = braided_commutator(x, y)
    assert c.coeff((0, 1)) == spec.ring.one()
    assert c.coeff((1, 0)) == -spec.q(1, 2)


def test_ad_letter_matches_commutator():
    x = TensorElement.letter(SPEC, "x1")
    y = TensorElement.letter(SPEC, "x1h")
    assert (ad_letter(SPEC, "x1", y) - braided_commutator(x, y)).is_zero()


def test_degree_and_homogeneity():
    e = parse_element("x1 x1h + {z} x2 x2", SPEC)
    assert e.degree() == 2
    mixed = parse_element("x1 + x1 x2", SPEC)
    with pytest.raises(NonHomogeneous):
        mixed.degree()
    assert mixed.degrees() == [1, 2]


EXPRESSIONS = [
    "x1",
    "x1 x1h x2",
    "[x1, x2]",
    "x1^3 - {2} x2^3",
    "ad(x1, ad(x1, x2))",
    "{z + 1} x1 [x1h, x2] + {1/2} x2^3",
]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_parse_print_roundtrip(text):
    e = parse_element(text, SPEC)
    again = parse_element(print_element(e), SPEC)
    assert (e - again).is_zero()


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_expression_degree_matches_parse(text):
    e = parse_element(text, SPEC)
    assert expression_degree(text, SPEC) == e.degree()


def test_expression_degree_without_expansion():
    # degree screening must work for powers far too large to expand
    assert expression_degree("[x1, x2]^99", SPEC) == 198
    assert expression_degree("x1^1024", SPEC) == 1024  # the largest exponent


def test_element_nesting_is_capped():
    """An element text nests brackets, ``{scalar}`` literals, commutators
    and unary minus signs at most MAX_NESTING deep, inside a scalar literal
    too; one level more is a ParseError at its opening, raised before any
    term is expanded."""
    from gknichols.scalars import MAX_NESTING as n
    x1 = parse_element("x1", SPEC)
    assert parse_element("(" * n + "x1" + ")" * n, SPEC) == x1
    assert parse_element("{" + "(" * (n - 1) + "1" + ")" * (n - 1) + "} x1",
                         SPEC) == x1
    for text in ("(" * (n + 1) + "x1" + ")" * (n + 1),
                 "{" + "(" * n + "1" + ")" * n + "} x1",
                 "[" * (n + 1) + "x1, x2]" + ", x2]" * n,
                 "ad(" * (n + 1) + "x1, x2)" + ", x2)" * n,
                 "-" * (n + 1) + "x1"):
        position = 3 * n if text.startswith("ad(") else n
        assert _parse_error(parse_element, text) == (
            f"nesting deeper than {n} (at position {position})", position)


def test_parsing_leaves_no_cyclic_garbage():
    """The nested parsers and leaf evaluators call themselves through
    closure cells; they empty those cells when they return or raise, so a
    parse, an evaluation or a parse error leaves nothing for the cyclic
    garbage collector."""
    import gc
    from gknichols.scalars import ParseError
    ring = ScalarRing(4, ("q",))
    gc.collect()
    gc.disable()
    try:
        parse_scalar("1 + z^2 * (3 - q)/2 - (-z)^-3", ring)
        parse_element("{1/2} [x1, x12]^2 - {z - 1} x1 x1h x2", SPEC,
                      {"x12": "[x1, x2]"})
        for text in ("1/(", "q^"):
            with pytest.raises(ParseError):
                parse_scalar(text, ring)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_macros_expand_recursively():
    macros = {"x12": "[x1, x2]", "w": "[x1, x12]"}
    e = parse_element("w", SPEC, macros)
    direct = parse_element("[x1, [x1, x2]]", SPEC)
    assert (e - direct).is_zero()
    assert expression_degree("w x12", SPEC, macros) == 5


def test_unary_minus_binds_weaker_than_power():
    """As in a scalar text, -a^n is -(a^n), also inside a product."""
    def same(a, b):
        return (parse_element(a, SPEC) - parse_element(b, SPEC)).is_zero()
    assert same("-x1^2", "-(x1^2)")
    assert same("x1*-x1^2", "-(x1 x1 x1)")
    assert same("-x1^2 + x1 x1", "0")
    assert same("-{2}^2", "{-4}")
    assert same("-2^2", "{-4}")


PARAM_SPEC = BraidedSpaceSpec(ScalarRing(4, params=("q",)), [], ["-1"],
                              [["-1"]])


@pytest.mark.parametrize("text", [
    "-2^2", "2/(q + 1)", "(q)^-1", "-z^2/3", "3/4", "-q^2 - 2*q/5",
    "(z + 1)^3/(q - z)", "2^-2", "-(1 - q)^2", "q/q^2*q"])
def test_scalar_literal_matches_parse_scalar(text):
    """A {...} literal has the value parse_scalar gives its text."""
    e = parse_element("{%s}" % text, PARAM_SPEC)
    assert e.coeff(()) == parse_scalar(text, PARAM_SPEC.ring)


def test_parse_errors():
    from gknichols.scalars import ParseError
    with pytest.raises((ElementError, ParseError)):
        parse_element("x9", SPEC)
    with pytest.raises((ElementError, ParseError)):
        parse_element("x1 +", SPEC)


# (text, message, position): malformed expressions and the exact error that
# both the element and the degree evaluator report for them
PARSE_ERRORS = [
    ("x1 +", "unexpected end", 4),
    ("(x1", "expected ')'", 3),
    ("[x1 x1h]", "expected ','", 7),
    ("x1^", "positive integer exponent expected", 3),
    ("{1", "unterminated scalar literal", 0),
    ("ad(x1 x1h)", "expected ','", 9),
    ("x1 )", "unexpected ')'", 3),
    ("", "unexpected end", 0),
    ("-", "unexpected end", 1),
    ("x1h^2 + + x1", "unexpected '+'", 8),
    ("x1^1025", "exponent above the maximum 1024", 3),
    ("x2 x1^999999999", "exponent above the maximum 1024", 6),
    ("x1*{z+}", "unexpected '}'", 6),
    ("{w} x1", "unknown name 'w'", 1),
    ("x1 \u00b2", "unexpected '\u00b2'", 3),  # digits are ASCII only
]

BAD_RATIONALS = [
    ("3/", "bad rational literal '3/'", 0),
    ("3/0 x1", "bad rational literal '3/0'", 0),
    ("x1 + 2/ x2", "bad rational literal '2/'", 5),
]


def _parse_error(fn, text):
    from gknichols.scalars import ParseError
    with pytest.raises(ParseError) as info:
        fn(text, SPEC)
    return str(info.value), info.value.position


@pytest.mark.parametrize("fn", [parse_element, expression_degree])
@pytest.mark.parametrize("text,message,position", PARSE_ERRORS)
def test_parse_error_table(fn, text, message, position):
    assert _parse_error(fn, text) == (
        f"{message} (at position {position})", position)


@pytest.mark.parametrize("fn", [parse_element, expression_degree])
@pytest.mark.parametrize("text,message,position", BAD_RATIONALS)
def test_bad_rational_literal_is_parse_error(fn, text, message, position):
    assert _parse_error(fn, text) == (
        f"{message} (at position {position})", position)


def test_parse_element_writes_expanded_macros_back():
    macros = {"x12": "[x1, x2]", "w": "[x1, x12]"}
    first = parse_element("w + x12", SPEC, macros)
    assert isinstance(macros["x12"], TensorElement)
    assert isinstance(macros["w"], TensorElement)
    assert (macros["w"] - parse_element("[x1, [x1, x2]]", SPEC)).is_zero()
    # a second relation reuses the expanded elements from the shared table
    expanded = macros["w"]
    again = parse_element("w + x12", SPEC, macros)
    assert macros["w"] is expanded
    assert (first - again).is_zero()
    assert expression_degree("w x12", SPEC, macros) == 5
