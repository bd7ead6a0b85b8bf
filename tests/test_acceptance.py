"""End-to-end acceptance checks for the classification/verification toolkit."""

import random
import time

import pytest

from gknichols import (BraidedSpaceSpec, DiagonalBraiding, FiniteGK,
                       InfiniteGK, PaleBlockPointSpec, ScalarRing,
                       TensorElement, classify, classify_pale,
                       compute_truncation, is_zero_in_nichols, mu_sequence,
                       parse_element, print_scalar, quantum_symmetrizer_kernel,
                       reflect, z_element)
from gknichols import catalog
from tests.conftest import entry_instance, entry_report


def test_01_jordan_plane():
    t0 = time.time()
    spec, pres = entry_instance("jordan")
    trunc = compute_truncation(spec, 6)
    assert trunc.dims[:7] == [1, 2, 3, 4, 5, 6, 7]
    rel = parse_element(pres.relations[0], spec, pres.macros)
    zero, _ = is_zero_in_nichols(rel, trunc)
    assert zero
    assert time.time() - t0 < 1.0


def test_02_super_jordan_plane():
    spec, pres = entry_instance("super_jordan")
    report = entry_report("super_jordan", None, 7)
    assert report["dims"][:7] == [1, 2, 3, 4, 5, 6, 7]
    assert report["pass"]
    trunc = compute_truncation(spec, 4)
    # second block letter is named x1h; x21 is the symmetrized square
    for rel in ("x1^2", "x1h x21 - x21 x1h - x1 x21"):
        e = parse_element(rel, spec, pres.macros)
        zero, _ = is_zero_in_nichols(e, trunc)
        assert zero, rel


def test_03_order_three_block():
    t0 = time.time()
    ring = ScalarRing(3)
    spec = BraidedSpaceSpec(ring, [("z", 2)], [], [["z"]])
    trunc = compute_truncation(spec, 4)
    assert trunc.dims[1:5] == [2, 4, 7, 12]
    # the ideal starts in degree 3 with the single cube x1^3
    assert trunc.ideal_dims[3] == 1
    assert trunc.ideal_dims[4] == 4
    cube = parse_element("x1^3", spec)
    zero, _ = is_zero_in_nichols(cube, trunc)
    assert zero
    assert time.time() - t0 < 5.0


def test_04_block_theorem():
    def block(ring, eps, length):
        return BraidedSpaceSpec(ring, [(eps, length)], [], [[eps]])

    r1 = ScalarRing(1)
    for eps in ("1", "-1"):
        v = classify(block(r1, eps, 2))
        assert isinstance(v, FiniteGK) and v.gk == 2
    # epsilon of orders 3 and 5, and longer blocks, are infinite
    assert isinstance(classify(block(ScalarRing(3), "z", 2)), InfiniteGK)
    assert isinstance(classify(block(ScalarRing(5), "z", 2)), InfiniteGK)
    assert isinstance(classify(block(r1, "1", 3)), InfiniteGK)
    assert isinstance(classify(block(r1, "-1", 3)), InfiniteGK)


Z_CASES = [
    ("lstr(1,G)", 1, 1), ("lstr(1,G)", 2, 2),
    ("lstr(-1,G)", 1, 1), ("lstr(-1,G)", 2, 2),
    ("lstr_-(1,G)", 1, 2), ("lstr_-(1,G)", 2, 4),
    ("lstr_-(-1,G)", 1, 2), ("lstr_-(-1,G)", 2, 4),
]


@pytest.mark.parametrize("name,G,bound", Z_CASES,
                         ids=[f"{n}-G{g}" for n, g, _ in Z_CASES])
def test_05_z_vanishing(name, G, bound):
    spec, _ = entry_instance(name, {"G": G})
    mus = mu_sequence(spec.epsilon(1), spec.a(2, 1), bound + 1)
    trunc = compute_truncation(spec, bound + 2)
    for n in range(1, bound + 2):
        e, check_ok = z_element(spec, 1, 2, n)
        assert check_ok
        zero, _ = is_zero_in_nichols(e, trunc)
        assert zero == (n > bound)
        # mu zeros agree with z vanishing
        assert mus[n].is_zero() == (n > bound)


def test_06_cyclops():
    report1 = entry_report("cyc1", None, 7)
    assert report1["pass"]
    spec1, pres1 = entry_instance("cyc1")
    # coinvariant factor: the non-block generators, all of height 2
    block_labels = {"x1", "x1h", "x21"}
    kgens = [h for label, _, h in pres1.pbw if label not in block_labels]
    assert kgens == [2, 2, 2, 2]
    dim_k = 1
    for h in kgens:
        dim_k *= h
    assert dim_k == 16
    assert classify(spec1) == FiniteGK(2, classify(spec1).decomposition,
                                       False)
    assert classify(spec1).gk == 2

    spec2, _ = entry_instance("cyc2")
    v2 = classify(spec2)
    assert isinstance(v2, FiniteGK) and v2.gk == 3
    report2 = entry_report("cyc2", None, 6)
    assert report2["pass"]


TABLE_PATTERNS = [
    ("lstr(1,G)", {"G": 1}, 4),
    ("lstr(1,G)", {"G": 2}, 5),
    ("lstr(-1,G)", {"G": 1}, 2),
    ("lstr_-(1,G)", {"G": 1}, 4),
    ("lstr_-(-1,G)", {"G": 1}, 3),
    ("lstr(omega,1)", {}, 2),
    ("lstr(A(1|0)1;r)", {"r": "generic"}, 4),
    ("lstr(A(1|0)2;omega)", {}, 2),
    ("lstr(A(1|0)3;omega)", {}, 2),
    ("lstr(A(2|0)1;omega)", {}, 2),
    ("lstr(D(2|1);omega)", {}, 2),
    ("lstr(A2,2)", {}, 2),
]


def test_07_admissibility_suite():
    # twelve positive patterns with their GK values
    for name, params, gk in TABLE_PATTERNS:
        spec, _ = entry_instance(name, params)
        v = classify(spec)
        assert isinstance(v, FiniteGK), name
        assert v.gk == gk, (name, v.gk, gk)

    r1, r3 = ScalarRing(1), ScalarRing(3)
    # block-block edge: unconditional
    v = classify(BraidedSpaceSpec(
        r1, [("1", 2), ("1", 2)], [], [["1", "-1"], ["1", "1"]]))
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    # strong interaction: unconditional
    v = classify(BraidedSpaceSpec(
        r3, [("1", 2)], ["-1"], [["1", "z"], ["1", "-1"]]))
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    # non-discrete ghost: unconditional
    v = classify(BraidedSpaceSpec(
        r1, [("1", 2)], ["1"], [["1", "1"], ["1", "1"]], {(2, 1): "1/3"}))
    assert isinstance(v, InfiniteGK) and not v.conjecture_dependent
    # omega point with ghost 2: conjecture-dependent
    v = classify(BraidedSpaceSpec(
        r3, [("1", 2)], ["z"], [["1", "1"], ["1", "z"]], {(2, 1): "-1"}))
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent
    # connected pair of points attached to two blocks: conjecture-dependent
    v = classify(BraidedSpaceSpec(
        r1, [("-1", 2), ("-1", 2)], ["-1", "-1"],
        [["-1", "1", "1", "1"], ["1", "-1", "1", "1"],
         ["1", "1", "-1", "-1"], ["1", "1", "1", "-1"]],
        {(3, 1): "1", (3, 2): "1"}))
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent


def test_08_reflections():
    ring = ScalarRing(3, params=("q",))
    w, q, one = ring.zeta(1), ring.param("q"), ring.one()
    d = DiagonalBraiding(
        ring, [[w, w ** 2, q], [one, w, q], [one, one, -one]])
    r = reflect(d, 3)
    assert r.q(1, 1) == -w * q and r.q(2, 2) == -w * q
    assert r.q(3, 3) == -one
    assert r.qtilde(1, 2) == w ** 2 * q ** 2
    assert r.qtilde(1, 3) == q.inverse()
    assert r.qtilde(2, 3) == q.inverse()
    assert reflect(r, 3) == d

    from gknichols import cartan_coeff
    for N in (4, 5):
        rn = ScalarRing(N)
        eps = rn.zeta(1)
        dn = DiagonalBraiding(rn, [[eps, eps ** 2], [rn.one(), eps]])
        assert cartan_coeff(dn, 1, 2) == 2 - N


def test_09_poseidon():
    spec, pres = entry_instance("poseidon")
    v = classify(spec)
    assert isinstance(v, FiniteGK) and v.gk == 8 == pres.gk
    report = entry_report("poseidon", None, 5)
    assert report["pass"]
    # informational: polynomial growth trend of the exact dims
    dims = report["dims"]
    assert all(b > a for a, b in zip(dims, dims[1:]))


def test_10_pale_block_grid():
    ring = ScalarRing(3)

    def pale(eps, q12, q21, q22):
        return PaleBlockPointSpec(ring, eps, q12, q21, q22)

    assert isinstance(classify_pale(pale("1", "1", "1", "1")), InfiniteGK)
    v = classify_pale(pale("z", "1", "1", "1"))
    assert isinstance(v, InfiniteGK) and v.conjecture_dependent
    assert classify_pale(pale("-1", "1", "1", "1")) == FiniteGK(
        1, (((2,), "eny_plus", 1),), False)
    assert classify_pale(pale("-1", "1", "1", "-1")) == FiniteGK(
        1, (((2,), "eny_minus", 1),), False)
    assert classify_pale(pale("-1", "1", "-1", "-1")) == FiniteGK(
        2, (((2,), "eny_star", 2),), False)
    assert isinstance(classify_pale(pale("-1", "1", "1", "z")), InfiniteGK)

    # GK 1 entries: dims eventually constant per degree
    for name in ("eny_plus", "eny_minus"):
        report = entry_report(name, None, 6)
        assert report["pass"]
        assert report["dims"][5] == report["dims"][6]
    # GK 2 entry: first differences eventually constant
    report = entry_report("eny_star", None, 6)
    assert report["pass"]
    diffs = [b - a for a, b in zip(report["dims"], report["dims"][1:])]
    assert diffs[3] == diffs[4] == diffs[5]


def _random_spec(ring, rng):
    nblocks = rng.choice([0, 1])
    npoints = rng.randint(0, 2) if nblocks else rng.randint(2, 3)
    theta = nblocks + npoints
    blocks = [(rng.choice(["1", "-1"]), 2)] * nblocks
    points = [print_scalar(ring.zeta(rng.randrange(12)))
              for _ in range(npoints)]
    qmat = [[None] * theta for _ in range(theta)]
    for i in range(theta):
        for j in range(theta):
            if i == j:
                qmat[i][j] = blocks[i][0] if i < nblocks \
                    else points[i - nblocks]
            else:
                qmat[i][j] = print_scalar(ring.zeta(rng.randrange(12)))
    avals = {(j, k): rng.choice(["0", "0", "1", "-1"])
             for j in range(nblocks + 1, theta + 1)
             for k in range(1, nblocks + 1)}
    return BraidedSpaceSpec(ring, blocks, points, qmat, avals)


def test_11_derivation_ideal_equals_symmetrizer_kernel():
    t0 = time.time()
    ring = ScalarRing(12)
    rng = random.Random(20260823)
    for _ in range(20):
        spec = _random_spec(ring, rng)
        trunc = compute_truncation(spec, 4)
        for n in range(2, 5):
            kernel = quantum_symmetrizer_kernel(spec, n)
            assert len(kernel) == trunc.ideal_dims[n]
            for vec in kernel:
                e = vec if isinstance(vec, TensorElement) \
                    else TensorElement(spec, vec)
                zero, _ = is_zero_in_nichols(e, trunc)
                assert zero
    assert time.time() - t0 < 60.0
