"""Dynkin diagrams, Cartan coefficients, reflections, table patterns."""

from collections import Counter
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from gknichols import (DiagonalBraiding, DynkinDiagram, ScalarRing,
                       cartan_coeff, cartan_data, classify_cartan, dynkin,
                       match_table_pattern, reflect)
from gknichols.weyl import (UNDEFINED, AffineType, CartanData, FiniteType,
                            OTHER, ReflectionUndefined, WeylError,
                            detect_cartan)


def triangle():
    """Vertices (omega, omega, -1), edges qt12 = omega^2, qt13 = qt23 = q."""
    ring = ScalarRing(3, params=("q",))
    w, q, one = ring.zeta(1), ring.param("q"), ring.one()
    return DiagonalBraiding(
        ring, [[w, w ** 2, q], [one, w, q], [one, one, -one]])


def test_dynkin_diagram_of_triangle():
    d = triangle()
    dd = dynkin(d)
    ring = d.ring
    assert dd.nvertices == 3
    assert dd.labels[2] == -ring.one()
    assert dd.edge(0, 1) == ring.zeta(2)
    assert dd.components() == [(0, 1, 2)]
    assert dd.neighbors(2) == [0, 1]


def test_reflection_of_triangle():
    d = triangle()
    ring = d.ring
    w, q = ring.zeta(1), ring.param("q")
    r = reflect(d, 3)
    assert r.q(1, 1) == -w * q
    assert r.q(2, 2) == -w * q
    assert r.q(3, 3) == -ring.one()
    assert r.qtilde(1, 2) == w ** 2 * q ** 2
    assert r.qtilde(1, 3) == q.inverse()
    assert r.qtilde(2, 3) == q.inverse()


def test_reflection_undefined_names_vertex_and_failing():
    """q_11 = q is of infinite order and q_12 q_21 = 2 is no power of it,
    so c_12 is undefined: vertex 1 cannot be reflected."""
    ring = ScalarRing(1, params=("q",))
    d = DiagonalBraiding(ring, [["q", "2"], ["1", "-1"]])
    with pytest.raises(ReflectionUndefined) as info:
        reflect(d, 1)
    assert info.value.vertex == 1 and info.value.failing == [2]


def test_reflection_is_involutive():
    d = triangle()
    assert reflect(reflect(d, 3), 3) == d


@pytest.mark.parametrize("N", [4, 5, 6])
def test_cartan_coefficient_two_minus_n(N):
    # q_ii = eps of order N with qtilde = eps^2 gives c12 = 2 - N
    ring = ScalarRing(N)
    eps = ring.zeta(1)
    d = DiagonalBraiding(ring, [[eps, eps ** 2], [ring.one(), eps]])
    assert cartan_coeff(d, 1, 2) == 2 - N
    assert cartan_coeff(d, 2, 1) == 2 - N


def test_cartan_coefficient_undefined():
    ring = ScalarRing(1, params=("q",))
    q = ring.param("q")
    d = DiagonalBraiding(ring, [[q, q], [ring.one(), q]])
    assert cartan_coeff(d, 1, 2) in (UNDEFINED, -1)


def test_classify_cartan_a2():
    ring = ScalarRing(3)
    w = ring.zeta(1)
    d = DiagonalBraiding(ring, [[w, w ** 2], [ring.one(), w]])
    data = detect_cartan(d)
    assert data is not None
    verdict = classify_cartan(data)
    assert isinstance(verdict, FiniteType) and verdict.name == "A2"


def test_classify_cartan_affine_a1():
    ring = ScalarRing(4)
    i = ring.zeta(1)
    d = DiagonalBraiding(ring, [[i, i ** 2], [ring.one(), i]])
    data = cartan_data(d)
    verdict = classify_cartan(data)
    assert verdict == AffineType("A1(1)") or isinstance(verdict, AffineType)


def _simply_laced(rank, edges):
    """The Cartan data with c_ij = c_ji = -1 on ``edges`` and 0 off them."""
    matrix = {(i, j): 0 for i in range(1, rank + 1)
              for j in range(1, rank + 1) if i != j}
    for i, j in edges:
        matrix[(i, j)] = matrix[(j, i)] = -1
    return CartanData(rank, matrix)


@pytest.mark.parametrize("rank,edges,expected", [
    (4, [(1, 2), (2, 3), (2, 4)], FiniteType("D4")),
    (5, [(1, 2), (2, 3), (3, 4), (3, 5)], FiniteType("D5")),
    (3, [(1, 2), (2, 3), (3, 1)], AffineType("A2(1)")),
    (4, [(1, 2), (2, 3), (3, 4), (4, 1)], AffineType("A3(1)")),
    (5, [(1, 2), (1, 3), (1, 4), (1, 5)], AffineType("D4(1)")),
    (6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], AffineType("D5(1)")),
    (6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)], OTHER),  # E6-shaped
    (5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], OTHER),  # a 5-cycle
], ids=["D4", "D5", "A2(1)", "A3(1)", "D4(1)", "D5(1)", "E6", "5-cycle"])
def test_classify_cartan_d_and_affine(rank, edges, expected):
    assert classify_cartan(_simply_laced(rank, edges)) == expected


def test_classify_cartan_on_every_simply_laced_graph():
    """Each type names exactly its n!/|Aut| labelled diagrams among all
    33,867 symmetric simply-laced Cartan data of rank <= 6, and every other
    datum is Other."""
    f = factorial
    expected = Counter({"A1": 1, **{f"A{n}": f(n) // 2 for n in range(2, 7)},
                        "D4": f(4) // 6, "D5": f(5) // 2, "D6": f(6) // 2,
                        "A2(1)": f(3) // 6, "A3(1)": f(4) // 8,
                        "D4(1)": f(5) // 24, "D5(1)": f(6) // 8})
    expected[OTHER] = 33867 - sum(expected.values())
    got = Counter()
    for rank in range(1, 7):
        pairs = list(combinations(range(1, rank + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for b, p in enumerate(pairs) if mask >> b & 1]
            verdict = classify_cartan(_simply_laced(rank, edges))
            got[getattr(verdict, "name", verdict)] += 1
    assert got == expected


def test_cartan_coeff_rejects_equal_indices():
    d = triangle()
    with pytest.raises(WeylError):
        cartan_coeff(d, 1, 1)


@pytest.mark.parametrize("i, j", [(0, 1), (-1, 1), (3, 1), (1, 0), (1, -1),
                                  (1, 3)])
def test_cartan_coeff_rejects_vertex_out_of_range(i, j):
    # vertices are 1..dim; 0 and -1 must not wrap around to vertex 2
    ring = ScalarRing(1)
    one = ring.one()
    d = DiagonalBraiding(ring, [[-one, -one], [one, -one]])
    assert cartan_coeff(d, 2, 1) == -1
    with pytest.raises(WeylError, match=r"is not in 1\.\.2"):
        cartan_coeff(d, i, j)


def _one_point(ring, label):
    return DynkinDiagram([label], {})


def test_match_single_point_patterns():
    ring = ScalarRing(3)
    one = ring.one()
    g1 = one
    g2 = ring.from_int(2)
    entry = match_table_pattern(_one_point(ring, one),
                                {"sign": "+", "ghost": g1, "mild": False,
                                 "vertex": 0})
    assert entry.name == "lstr(1,1)" and entry.gk == 2
    assert entry.catalog == ("lstr(1,G)", {"G": 1})
    entry = match_table_pattern(_one_point(ring, -one),
                                {"sign": "-", "ghost": g2, "mild": False,
                                 "vertex": 0})
    assert entry.name == "lstr_-(-1,2)" and entry.gk == 2
    assert entry.catalog == ("lstr_-(-1,G)", {"G": 2})
    entry = match_table_pattern(_one_point(ring, ring.zeta(1)),
                                {"sign": "+", "ghost": g1, "mild": False,
                                 "vertex": 0})
    assert entry.name == "lstr(omega,1)" and entry.gk == 0
    assert entry.catalog == ("lstr(omega,1)", {})


def test_match_rejects_bad_patterns():
    ring = ScalarRing(3)
    one = ring.one()
    # omega point with ghost 2 is not in the table
    assert match_table_pattern(
        _one_point(ring, ring.zeta(1)),
        {"sign": "+", "ghost": ring.from_int(2), "mild": False,
         "vertex": 0}) is None
    # ghost zero never attaches
    assert match_table_pattern(
        _one_point(ring, one),
        {"sign": "+", "ghost": ring.zero(), "mild": False,
         "vertex": 0}) is None
    # mild needs a minus block, ghost 1 and a -1 point
    assert match_table_pattern(
        _one_point(ring, -one),
        {"sign": "+", "ghost": one, "mild": True, "vertex": 0}) is None


def test_match_mild_patterns():
    ring = ScalarRing(1)
    one = ring.one()
    entry = match_table_pattern(
        _one_point(ring, -one),
        {"sign": "-", "ghost": one, "mild": True, "vertex": 0})
    assert entry.name == "cyc1" and entry.gk == 0
    pair = DynkinDiagram([-one, -one], {(0, 1): -one})
    entry = match_table_pattern(
        pair, {"sign": "-", "ghost": one, "mild": True, "vertex": 0})
    assert entry.name == "cyc2" and entry.gk == 1


def test_match_generic_rank2():
    ring = ScalarRing(1, params=("r",))
    one = ring.one()
    r = ring.param("r")
    pair = DynkinDiagram([-one, r], {(0, 1): r.inverse()})
    entry = match_table_pattern(
        pair, {"sign": "+", "ghost": one, "mild": False, "vertex": 0})
    assert entry.name == "lstr(A(1|0)1;r)" and entry.gk == 2
    assert entry.catalog == ("lstr(A(1|0)1;r)", {"r": "generic"})


def test_subdiagram_relabels():
    d = triangle()
    dd = dynkin(d)
    sub = dd.subdiagram((0, 2))
    assert sub.nvertices == 2
    assert sub.edge(0, 1) is not None


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 11), st.integers(1, 11))
def test_reflection_involution_on_random_rank2(k, m):
    ring = ScalarRing(12)
    d = DiagonalBraiding(
        ring, [[ring.zeta(k), ring.zeta(m)], [ring.one(), ring.zeta(k)]])
    try:
        r = reflect(d, 1)
    except ReflectionUndefined:
        return
    assert reflect(r, 1) == d
