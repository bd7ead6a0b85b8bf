"""Braided space specs: braiding axioms, decorations, JSON round trips."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gknichols import (BraidedSpaceSpec, DiagonalBraiding, PaleBlockPointSpec,
                       ScalarRing, braid_letters, diagonalize, ghost,
                       interaction, spec_from_json, spec_to_json)
from gknichols.braidings import (MAX_BLOCK_LENGTH, Interaction, SpecError,
                                 diagonal_from_json, natural_ghost)

RING = ScalarRing(12)


def _spec(blocks, points, qmat, avals=None):
    return BraidedSpaceSpec(RING, blocks, points, qmat, avals)


def jordan_point_spec(a="1", q22="-1", q12="1", q21="1"):
    return _spec([("1", 2)], [q22], [["1", q12], [q21, q22]], {(2, 1): a})


@st.composite
def random_specs(draw):
    nblocks = draw(st.integers(0, 1))
    npoints = draw(st.integers(2 - 2 * nblocks, 2))
    theta = nblocks + npoints
    blocks = [(draw(st.sampled_from(["1", "-1"])), 2)] * nblocks
    points = [RING.zeta(draw(st.integers(0, 11))) for _ in range(npoints)]
    qmat = [[None] * theta for _ in range(theta)]
    for i in range(theta):
        for j in range(theta):
            if i == j:
                qmat[i][j] = blocks[i][0] if i < nblocks else points[i - nblocks]
            else:
                qmat[i][j] = RING.zeta(draw(st.integers(0, 11)))
    avals = {(j, 1): draw(st.sampled_from(["0", "1", "-1", "1/2"]))
             for j in range(nblocks + 1, theta + 1) for _ in range(nblocks)}
    return _spec(blocks, points, qmat, avals)


def _braid_matrix(spec):
    """R as a map (i, j) -> {(a, b): coeff} on pairs of letter indices."""
    table = {}
    for i in range(spec.nletters):
        for j in range(spec.nletters):
            table[(i, j)] = dict(braid_letters(spec, i, j).terms)
    return table


def _apply(R, vec, pos):
    """Apply R at tensor positions (pos, pos+1) to a dict word->coeff."""
    out = {}
    for word, coeff in vec.items():
        for pair, c in R[(word[pos], word[pos + 1])].items():
            key = word[:pos] + pair + word[pos + 2:]
            acc = out.get(key)
            acc = coeff * c if acc is None else acc + coeff * c
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


@settings(max_examples=25, deadline=None)
@given(random_specs())
def test_braiding_satisfies_braid_equation(spec):
    R = _braid_matrix(spec)
    one = spec.ring.one()
    n = spec.nletters
    for i in range(n):
        for j in range(n):
            for k in range(n):
                start = {(i, j, k): one}
                lhs = _apply(R, _apply(R, _apply(R, start, 0), 1), 0)
                rhs = _apply(R, _apply(R, _apply(R, start, 1), 0), 1)
                assert lhs == rhs


def test_braiding_on_block_letters():
    spec = jordan_point_spec()
    x1, x1h = spec.letter("x1").idx, spec.letter("x1h").idx
    c = braid_letters(spec, "x1", "x1h")
    # g1 . x_{1h} = eps x_{1h} + x_1, so c(x1 (x) x1h) has two terms
    assert c.coeff((x1h, x1)) == RING.one()
    assert c.coeff((x1, x1)) == RING.one()
    c2 = braid_letters(spec, "x1h", "x1")
    assert c2.coeff((x1, x1h)) == RING.one()
    assert len(c2.terms) == 1


def test_interaction_classes():
    assert interaction(jordan_point_spec(q12="1", q21="1"), 1, 2) \
        == Interaction.WEAK
    assert interaction(jordan_point_spec(q12="-1", q21="1"), 1, 2) \
        == Interaction.MILD
    spec = _spec([("1", 2)], ["-1"], [["1", "z"], ["1", "-1"]])
    assert interaction(spec, 1, 2) == Interaction.STRONG


def test_ghost_sign_convention():
    # eps = +1: ghost = -2a; eps = -1: ghost = a
    plus = jordan_point_spec(a="-1/2")
    assert ghost(plus, 2, 1) == RING.one()
    minus = _spec([("-1", 2)], ["-1"], [["-1", "1"], ["1", "-1"]],
                  {(2, 1): "3"})
    assert ghost(minus, 2, 1) == RING.from_int(3)
    assert natural_ghost(ghost(minus, 2, 1)) == 3
    assert natural_ghost(RING.from_rational(1) / RING.from_int(-2)) is None


def test_diagonalize_forgets_jordan_tail():
    spec = jordan_point_spec(a="1")
    diag = diagonalize(spec)
    assert isinstance(diag, DiagonalBraiding)
    assert diag.dim == 3
    one = RING.one()
    assert diag.q(1, 1) == one and diag.q(2, 2) == one
    assert diag.q(3, 3) == -one
    assert diag.qtilde(1, 2) == one


def _rule_diagonal(spec):
    """The diagonal braiding of gr V by the rule of each spec class: a pale
    spec's epsilon, q12, q21 or q22 by the letters' groups; otherwise the
    epsilon of a block within it and q_{|u||v|} elsewhere."""
    if isinstance(spec, PaleBlockPointSpec):
        pale = {(1, 1): spec.epsilon, (1, 2): spec.q12, (2, 1): spec.q21,
                (2, 2): spec.q22}
        return [[pale[u.group, v.group] for v in spec.letters]
                for u in spec.letters]
    return [[spec.epsilon(u.group)
             if u.group == v.group and spec.is_block(u.group)
             else spec.q(u.group, v.group) for v in spec.letters]
            for u in spec.letters]


def _random_block_point_spec(rng):
    """Blocks of length 2 and 3 and points over Q(zeta_12), with a nonzero
    a between every vertex and every other block."""
    blocks = [(rng.choice(["1", "-1", "z^4"]), rng.choice([2, 3]))
              for _ in range(rng.randint(1, 2))]
    theta = len(blocks) + rng.randint(1, 2)
    qmat = [[RING.zeta(rng.randrange(12)) for _ in range(theta)]
            for _ in range(theta)]
    for k, (eps, _) in enumerate(blocks):
        qmat[k][k] = eps
    points = [qmat[i][i] for i in range(len(blocks), theta)]
    avals = {(i, k): rng.choice(["1", "-1", "1/2", "z", "3"])
             for i in range(1, theta + 1) for k in range(1, len(blocks) + 1)
             if i != k}
    return _spec(blocks, points, qmat, avals)


@pytest.mark.parametrize("seed", range(20))
def test_diagonalize_reads_the_action_table(seed):
    rng = random.Random(seed)
    spec = _random_block_point_spec(rng)
    pale = PaleBlockPointSpec(RING, *(RING.zeta(rng.randrange(12))
                                      for _ in range(4)))
    for s in (spec, pale):
        assert diagonalize(s) == DiagonalBraiding(RING, _rule_diagonal(s))


def test_letter_names_and_lookup():
    spec = jordan_point_spec()
    assert [l.name for l in spec.letters] == ["x1", "x1h", "x2"]
    assert spec.letter("x1h").group == 1
    with pytest.raises(SpecError):
        spec.letter("x9")


def test_spec_validation():
    with pytest.raises(SpecError):
        _spec([("1", 1)], [], [["1"]])
    with pytest.raises(SpecError):
        _spec([], ["0"], [["0"]])
    with pytest.raises(SpecError):
        # diagonal q entry must match the block epsilon
        _spec([("1", 2)], [], [["-1"]])


@settings(max_examples=25, deadline=None)
@given(random_specs())
def test_spec_json_roundtrip_is_byte_identical(spec):
    obj = spec_to_json(spec)
    text = json.dumps(obj, sort_keys=True)
    again = spec_to_json(spec_from_json(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text


def test_block_length_is_capped():
    def blocks(length):
        return _jordan_point_json(blocks=[{"epsilon": "1", "length": length}])
    assert spec_from_json(blocks(MAX_BLOCK_LENGTH)).nletters \
        == MAX_BLOCK_LENGTH + 1
    for length in (MAX_BLOCK_LENGTH + 1, 10 ** 8):
        with pytest.raises(SpecError, match=f"block length {length} is "
                           f"above the maximum {MAX_BLOCK_LENGTH}"):
            spec_from_json(blocks(length))


def test_diagonal_a_equal_to_epsilon_is_accepted():
    # a_kk = eps_k is the normalization; ghost -2 on eps = 1 is a = 1
    for changes in ({"a": {"1,1": "1"}}, {"ghost": {"1,1": -2}}):
        spec = spec_from_json(_jordan_point_json(**changes))
        assert spec.a(1, 1).is_one()


def test_spec_json_ghost_table():
    obj = {
        "ring": {"cyclotomic_order": 1, "params": []},
        "blocks": [{"epsilon": "1", "length": 2}],
        "points": [{"q": "-1"}],
        "q": [["1", "1"], ["1", "-1"]],
        "ghost": {"2,1": "1"},
    }
    spec = spec_from_json(obj)
    # ghost 1 with eps = +1 means a = -1/2
    half = spec.ring.from_rational(1) / spec.ring.from_int(2)
    assert spec.a(2, 1) == -half
    assert ghost(spec, 2, 1).is_one()


def test_spec_json_ghost_with_pair_blocks():
    # a block given as an [epsilon, length] pair converts ghosts with its
    # epsilon just like the dict form does
    obj = _jordan_point_json(blocks=[["1", 2]], ghost={"2,1": "1"})
    spec = spec_from_json(obj)
    assert spec.a(2, 1) == spec.ring.from_rational(-1, 2)


def test_pale_spec_letters():
    ring = ScalarRing(1)
    p = PaleBlockPointSpec(ring, "-1", "1", "1", "1")
    assert [l.name for l in p.letters] == ["x1", "x2", "x3"]
    assert p.qtilde().is_one()
    # g2 acts on x2 with a Jordan tail
    assert p.act_letter(2, "x2") == ((1, ring.one()), (0, ring.one()))


def test_pale_spec_json_roundtrip():
    ring = ScalarRing(3, params=("q",))
    p = PaleBlockPointSpec(ring, "-1", "q", "z/q", "-1")
    obj = spec_to_json(p)
    again = spec_from_json(json.loads(json.dumps(obj)))
    assert isinstance(again, PaleBlockPointSpec)
    assert spec_to_json(again) == obj


def test_diagonal_from_json_refuses_blocks_and_pale():
    """The q-matrix of a spec with blocks, or of a pale spec, is not a
    diagonal braiding; a spec of points only reads as its own diagonal."""
    spec = _spec([("1", 2)], ["1"], [["1", "1"], ["1", "1"]],
                 {(2, 1): "-1/2"})
    pale = spec_to_json(PaleBlockPointSpec(ScalarRing(1), "-1", "1", "1",
                                           "1"))
    for obj in (spec_to_json(spec), dict(pale, q=[["-1"]])):
        with pytest.raises(SpecError, match="no blocks and no pale block"):
            diagonal_from_json(obj)
    points = spec_to_json(_spec([], ["z", "-1"], [["z", "1"], ["z^2", "-1"]]))
    assert diagonal_from_json(points) == DiagonalBraiding(
        RING, [["z", "1"], ["z^2", "-1"]])


def _jordan_point_json(**changes):
    obj = {"ring": {"cyclotomic_order": 1, "params": []},
           "blocks": [{"epsilon": "1", "length": 2}],
           "points": [{"q": "-1"}],
           "q": [["1", "1"], ["1", "-1"]]}
    obj.update(changes)
    return obj


@pytest.mark.parametrize("obj", [
    [1, 2],
    _jordan_point_json(q=[["1"]]),
    _jordan_point_json(q=[["1", "1"], ["1"]]),
    _jordan_point_json(ghost={"2,5": "1"}),
    _jordan_point_json(a={"7,1": "1"}),
    _jordan_point_json(a={"2": "1"}),
    _jordan_point_json(blocks=[{"length": 2}]),
    _jordan_point_json(blocks=[{"epsilon": "1", "length": "2"}]),
    _jordan_point_json(points=[{"label": "-1"}]),
    _jordan_point_json(ring={"cyclotomic_order": "4"}),
    {"blocks": [], "points": []},
    {"pale": ["-1", "1", "1", "1"]},
    {"pale": {"epsilon": "-1", "q12": "1", "q21": "1"}},
    {"pale": {"epsilon": "-1", "q12": "1", "q21": "1", "q22": "1", "q": 1}},
    {"pale": {"epsilon": "-1", "q12": "0", "q21": "1", "q22": "1"}},
    {"pale": {"epsilon": "-1", "q12": [1], "q21": "1", "q22": "1"}},
    _jordan_point_json(points=[{"q": True}], q=[["1", "1"], ["1", "1"]]),
    _jordan_point_json(q=[["1", True], ["1", "-1"]]),
    _jordan_point_json(blocks=[{"epsilon": True, "length": 2}]),
    _jordan_point_json(a={"2,1": False}),
    _jordan_point_json(ghost={"2,1": True}),
    {"pale": {"epsilon": "-1", "q12": True, "q21": "1", "q22": "1"}},
    _jordan_point_json(ring={"cyclotomic_order": 3},
                       blocks=[{"epsilon": "z", "length": 2}],
                       q=[["z", "1"], ["1", "-1"]], ghost={"2,1": "1"}),
    _jordan_point_json(a={"1,1": "3"}),
    _jordan_point_json(ghost={"1,1": 2}),
], ids=["list", "small-q", "ragged-q", "ghost-block", "a-vertex", "a-key",
        "no-epsilon", "str-length", "no-point-q", "str-order", "no-q",
        "pale-list", "pale-missing", "pale-extra", "pale-zero",
        "pale-list-scalar", "bool-point", "bool-q",
        "bool-epsilon", "bool-a", "bool-ghost", "bool-pale", "ghost-epsilon",
        "a-diagonal", "ghost-diagonal"])
def test_malformed_spec_json_raises_spec_error(obj):
    with pytest.raises(SpecError):
        spec_from_json(obj)


_GOOD = st.sampled_from(["1", "-1", "z", "z^2", 1, -1])
_SCALARS = st.one_of(_GOOD, _GOOD, _GOOD, st.sampled_from(
    ["0", "q", "1/0", "x+", "", 0, 0.5, True, None, [], {}]))
_JUNK = st.sampled_from([None, 3, "x", [], {}, [[]], {"q": "1"}])
_PAIRS = st.sampled_from(["1,1", "2,1", "1,2", "3,1", "2,5", "7,1", "0,1",
                          "-1,1", "x", "", "1,2,3", " 2, 1"])


@st.composite
def spec_shapes(draw):
    """Spec-like JSON values: mostly well-formed, with random damage."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_JUNK, st.lists(_SCALARS, max_size=2)))
    blocks = draw(st.lists(st.one_of(
        st.fixed_dictionaries({"epsilon": _SCALARS},
                              optional={"length": st.sampled_from(
                                  [2, 3, 1, "2", 2.0, None])}),
        st.tuples(_SCALARS, st.sampled_from([2, 1])).map(list),
        _JUNK), max_size=2))
    points = draw(st.lists(st.one_of(st.fixed_dictionaries({"q": _SCALARS}),
                                     _SCALARS, _JUNK), max_size=2))
    theta = len(blocks) + len(points)
    size = draw(st.sampled_from([theta, theta, theta - 1, theta + 1]))
    obj = {
        "ring": draw(st.one_of(*[st.just({"cyclotomic_order": n})
                                 for n in (1, 3, 4)], st.fixed_dictionaries(
            {}, optional={
                "cyclotomic_order": st.sampled_from([1, 0, "4", None]),
                "params": st.sampled_from([["q"], ["q", "q"], "q", [1]])}),
            _JUNK)),
        "blocks": blocks,
        "points": points,
        "q": [draw(st.lists(_SCALARS, min_size=max(size, 0),
                            max_size=max(size, 0)))
              for _ in range(max(size, 0))],
        "a": draw(st.dictionaries(_PAIRS, _SCALARS, max_size=2)),
        "ghost": draw(st.dictionaries(_PAIRS, _SCALARS, max_size=2)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2)):
        obj[key] = draw(st.one_of(st.just(None), _JUNK))
    return obj


@settings(max_examples=300, deadline=None)
@given(spec_shapes())
def test_spec_json_fuzz_raises_only_package_errors(obj):
    from gknichols.scalars import ScalarError
    try:
        spec_from_json(obj)
    except (SpecError, ScalarError):
        pass
