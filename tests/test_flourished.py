"""Decorated graphs, admissibility, GK verdicts, pale block classification."""

import pytest

from gknichols import (BraidedSpaceSpec, FiniteGK, FlourishedGraph,
                       InfiniteGK, PaleBlockPointSpec, ScalarRing, Unknown,
                       build_flourished, classify, classify_pale,
                       diagonalize, is_admissible)
from gknichols.flourished import (EpsilonOutOfRange, NotAdmissible, Violation,
                                  decide_component, is_domain)

R1 = ScalarRing(1)
R3 = ScalarRing(3)


def block_only(eps, length, ring=None):
    ring = ring or R3
    return BraidedSpaceSpec(ring, [(eps, length)], [], [[eps]])


def test_block_theorem_finite_cases():
    for eps in ("1", "-1"):
        v = classify(block_only(eps, 2, R1))
        assert isinstance(v, FiniteGK) and v.gk == 2
        assert v.decomposition == ()
    assert classify(block_only("1", 2, R1)).is_domain
    assert not classify(block_only("-1", 2, R1)).is_domain


def test_block_theorem_infinite_cases():
    # higher-order epsilon (orders 3 and 5) and longer blocks fail
    v3 = classify(block_only("z", 2, R3))
    assert isinstance(v3, InfiniteGK) and not v3.conjecture_dependent
    assert v3.reasons[0].code == "epsilon"
    v5 = classify(block_only("z", 2, ScalarRing(5)))
    assert isinstance(v5, InfiniteGK)
    vlen = classify(block_only("1", 3, R1))
    assert isinstance(vlen, InfiniteGK)
    assert vlen.reasons[0].code == "length"


def _spec(ring, blocks, points, qmat, avals=None):
    return BraidedSpaceSpec(ring, blocks, points, qmat, avals)


def test_graph_of_block_with_ghost_point():
    spec = _spec(R1, [("1", 2)], ["1"], [["1", "1"], ["1", "1"]],
                 {(2, 1): "-1/2"})
    g = build_flourished(spec)
    assert g.t == 1 and g.theta == 2
    assert g.signs == ["+"]
    assert (1, 2) in g.block_point
    assert str(g.block_point[(1, 2)]["ghost"]) == "1"
    assert not g.block_point[(1, 2)]["mild"]
    assert is_admissible(g) == []
    dot = g.to_dot()
    assert "box" in dot and "graph" in dot


def test_classify_attached_plus_one_point():
    # + block with a ghost-1 point of label 1: the lstr(1,1) pattern, GK 4
    spec = _spec(R1, [("1", 2)], ["1"], [["1", "1"], ["1", "1"]],
                 {(2, 1): "-1/2"})
    v = classify(spec)
    assert isinstance(v, FiniteGK) and v.gk == 4
    assert v.is_domain


def test_classify_and_lookup_decide_each_component_once(monkeypatch):
    import gknichols.flourished as fl
    from gknichols import catalog
    calls = []

    def counted(g, comp):
        calls.append(comp)
        return decide_component(g, comp)

    monkeypatch.setattr(fl, "decide_component", counted)
    # one block; an attached 1 point, an unattached -1 point and an
    # attached pair of -1 points (the two-point A chain)
    spec = _spec(R1, [("1", 2)], ["1", "-1", "-1", "-1"],
                 [["1", "1", "1", "1", "1"], ["1", "1", "1", "1", "1"],
                  ["1", "1", "-1", "1", "1"], ["1", "1", "1", "-1", "-1"],
                  ["1", "1", "1", "1", "-1"]],
                 {(2, 1): "-1/2", (4, 1): "-1/2"})
    v = classify(spec)
    assert v == FiniteGK(4, (((2,), "point(1)", 2), ((3,), "point", 0),
                             ((4, 5), "lstr(A2)", 0)), False)
    assert calls == [(2,), (3,), (4, 5)]
    calls.clear()
    found = catalog.lookup(build_flourished(spec))
    assert [n for n, _ in found] == ["jordan", "lstr(1,G)", "point",
                                     "lstr(A_theta-1)"]
    assert calls == [(2,), (3,), (4, 5)]


def test_classify_unattached_points():
    spec = _spec(R1, [("1", 2)], ["1", "-1"],
                 [["1", "1", "1"], ["1", "1", "1"], ["1", "1", "-1"]])
    v = classify(spec)
    # 2 for the block, 1 for the label-1 point, 0 for the -1 point
    assert isinstance(v, FiniteGK) and v.gk == 3
    entries = sorted(entry for _, entry, _ in v.decomposition)
    assert entries == ["point", "point"]


def test_block_block_edge_is_unconditional():
    spec = _spec(R1, [("1", 2), ("1", 2)],
                 [], [["1", "-1"], ["1", "1"]])
    v = classify(spec)
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    assert any(r.code == "a" for r in v.reasons)


def test_strong_interaction_is_unconditional():
    spec = _spec(R3, [("1", 2)], ["-1"], [["1", "z"], ["1", "-1"]])
    v = classify(spec)
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    assert any("strong" in r.detail for r in v.reasons)


def test_non_discrete_ghost_is_unconditional():
    spec = _spec(R1, [("1", 2)], ["1"], [["1", "1"], ["1", "1"]],
                 {(2, 1): "1/3"})
    v = classify(spec)
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    assert any("ghost" in r.detail for r in v.reasons)


def test_omega_point_with_ghost_two_is_conjectural():
    spec = _spec(R3, [("1", 2)], ["z"], [["1", "1"], ["1", "z"]],
                 {(2, 1): "-1"})
    v = classify(spec)
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent


def test_two_block_attached_pair_is_conjectural():
    # a connected pair of points attached to two different blocks
    spec = _spec(R1, [("-1", 2), ("-1", 2)], ["-1", "-1"],
                 [["-1", "1", "1", "1"],
                  ["1", "-1", "1", "1"],
                  ["1", "1", "-1", "-1"],
                  ["1", "1", "1", "-1"]],
                 {(3, 1): "1", (3, 2): "1"})
    v = classify(spec)
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent
    assert any(r.code == "d" for r in v.reasons)


def _g3_point_on_two_blocks(ring):
    """A point z on two + blocks, each edge a discrete ghost 1."""
    return _spec(ring, [("1", 2), ("1", 2)], ["z"],
                 [["1", "1", "1"], ["1", "1", "1"], ["1", "1", "z"]],
                 {(3, 1): "-1/2", (3, 2): "-1/2"})


@pytest.mark.parametrize("spec,code,detail", [
    (_g3_point_on_two_blocks(R3), "e", "G'3 point 3 attached to blocks"),
    (_spec(R1, [("-1", 2)], ["-1", "1"],
           [["-1", "1", "1"], ["-1", "-1", "1"], ["1", "1", "1"]],
           {(2, 1): "1", (3, 1): "1"}),
     "f", "mild edge at block 1 is not isolated"),
    (_g3_point_on_two_blocks(ScalarRing(4)), "b",
     "component (3,) attached to several blocks")],
    ids=["e-g3-point", "f-mild-not-isolated", "b-several-blocks"])
def test_conjectural_component_violations(spec, code, detail):
    """Each of these components is ruled out by one conjectural code."""
    v = classify(spec)
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent
    assert [r.code for r in v.reasons] == [code]
    assert v.reasons[0].detail.startswith(detail)


def test_symbolic_ghost_gives_unknown():
    ring = ScalarRing(1, params=("q",))
    spec = _spec(ring, [("1", 2)], ["1"], [["1", "1"], ["1", "1"]],
                 {(2, 1): "q"})
    v = classify(spec)
    assert isinstance(v, Unknown)
    assert v.reason == ("ghost between block 1 and point 2 depends on a "
                        "free parameter")


def test_symbolic_interaction_gives_unknown():
    ring = ScalarRing(1, params=("q",))
    spec = _spec(ring, [("1", 2)], ["1"], [["1", "q"], ["1", "1"]])
    assert isinstance(classify(spec), Unknown)


def test_gk_of_inadmissible_raises():
    spec = _spec(R1, [("1", 2), ("1", 2)],
                 [], [["1", "-1"], ["1", "1"]])
    g = build_flourished(spec)
    with pytest.raises(NotAdmissible):
        from gknichols.flourished import gk_of_admissible
        gk_of_admissible(g)
    with pytest.raises(NotAdmissible):
        is_domain(g)


# -- pale block + point -----------------------------------------------------


def _pale(eps, q12, q21, q22, ring=None):
    return PaleBlockPointSpec(ring or R3, eps, q12, q21, q22)


def test_pale_grid():
    # eps = 1: always infinite, unconditional
    v = classify_pale(_pale("1", "1", "1", "1"))
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    # eps of order 3: infinite, conjecture-dependent
    v = classify_pale(_pale("z", "1", "1", "1"))
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent
    # eps = -1, qtilde = 1, q22 = 1: GK 1
    v = classify_pale(_pale("-1", "1", "1", "1"))
    assert isinstance(v, FiniteGK) and v.gk == 1
    # eps = -1, qtilde = 1, q22 = -1: GK 1
    v = classify_pale(_pale("-1", "1", "1", "-1"))
    assert isinstance(v, FiniteGK) and v.gk == 1
    # eps = -1, qtilde = -1, q22 = -1: GK 2
    v = classify_pale(_pale("-1", "1", "-1", "-1"))
    assert isinstance(v, FiniteGK) and v.gk == 2
    # eps = -1, qtilde = 1, q22 of order 3: infinite
    v = classify_pale(_pale("-1", "1", "1", "z"))
    assert isinstance(v, InfiniteGK)


@pytest.mark.parametrize("ring, q12, q21, q22, detail, conjectural", [
    (R3, "z", "1", "-1", "qtilde in G'3 with point label -1", False),
    (R3, "z", "1", "z^2", "point label inverse to qtilde", True),
    (R3, "z", "1", "-z", "point label -qtilde with qtilde in G'3", False),
    (R1, "2", "1", "3", "qtilde 2, point label 3", True),
], ids=["G3-minus-one", "inverse", "minus-qtilde", "generic"])
def test_pale_infinite_verdicts_at_eps_minus_one(ring, q12, q21, q22, detail,
                                                 conjectural):
    v = classify_pale(_pale("-1", q12, q21, q22, ring))
    assert v == InfiniteGK((Violation("pale", detail, conjectural),),
                           conjectural)


def test_diagonalize_pale_spec():
    # the pale block is two letters of group 1, the point one of group 2
    d = diagonalize(_pale("-1", "z", "1", "-z"))
    assert [[str(d.q(i, j)) for j in (1, 2, 3)] for i in (1, 2, 3)] \
        == [["-1", "-1", "z"], ["-1", "-1", "z"], ["1", "1", "-z"]]


def test_pale_rejects_higher_order_epsilon():
    ring = ScalarRing(5)
    with pytest.raises(EpsilonOutOfRange):
        classify_pale(_pale("z", "1", "1", "1", ring))


def test_pale_symbolic_is_unknown():
    ring = ScalarRing(1, params=("q",))
    v = classify_pale(PaleBlockPointSpec(ring, "-1", "q", "1", "1"))
    assert isinstance(v, Unknown)


def test_point_components_and_diagrams():
    # two blocks, points 3..7; components ordered by their least point
    g = FlourishedGraph(["+", "-"], [R3.from_int(-1), R3.zeta(1),
                                     R3.from_int(-1), R3.zeta(2), R3.one()])
    g.add_point_point(6, 3, R3.zeta(2))
    g.add_point_point(4, 7, R3.from_int(-1))
    g.add_point_point(3, 5, R3.one())  # qtilde = 1: no edge
    assert g.point_components() == [(3, 6), (4, 7), (5,)]
    d = g.component_diagram((4, 7))
    assert d.labels == [R3.zeta(1), R3.one()]
    assert d.edges == {(0, 1): R3.from_int(-1)}
    d = g.component_diagram((3, 6))
    assert d.labels == [R3.from_int(-1), R3.zeta(2)]
    assert d.edges == {(0, 1): R3.zeta(2)}
    assert g.component_diagram((5,)).edges == {}
