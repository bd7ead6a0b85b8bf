"""Truncation engine, symmetrizer oracle, mu/z machinery, verification."""

import json
import pickle
import random
from itertools import permutations, product

import pytest

from gknichols import (BraidedSpaceSpec, Presentation, ScalarRing,
                       TensorElement, catalog, compute_truncation,
                       expression_degree, infinite_probe,
                       is_zero_in_nichols, mu_sequence, parse_element,
                       pbw_hilbert_coeffs, quantum_symmetrizer_kernel,
                       spec_from_json, verify_presentation, z_element)
from gknichols.freealgebra import SpecMismatch, add_into
from gknichols.nichols import (BudgetExceeded, NicholsTruncation, NotWeak,
                               mu_rank2, quantum_symmetrizer)
from gknichols import nichols, residues
from gknichols.residues import _is_prime, make_residue_map, residue_prime
from gknichols.scalars import RingMismatch, Scalar, print_scalar
from tests.conftest import entry_instance
from tests.test_acceptance import _random_spec
from tests.data.capture_truncation_golden import (ENTRIES, FIXTURE,
                                                  ZETA12_FIXTURE, summarise,
                                                  summarise_spec,
                                                  zeta12_specs)

RING = ScalarRing(1)


def test_jordan_plane_dims_and_ideal():
    spec, pres = entry_instance("jordan")
    trunc = compute_truncation(spec, 6)
    assert trunc.dims[:7] == [1, 2, 3, 4, 5, 6, 7]
    # the quadratic ideal starts with one relation in degree 2
    assert trunc.ideal_dims[2] == 1
    rel = parse_element(pres.relations[0], spec, pres.macros)
    zero, witness = is_zero_in_nichols(rel, trunc)
    assert zero and witness is None


def test_nonzero_element_has_witness():
    spec, _ = entry_instance("jordan")
    trunc = compute_truncation(spec, 3)
    e = parse_element("x1 x1h", spec)
    zero, witness = is_zero_in_nichols(e, trunc)
    assert not zero and witness is not None


def test_degree_zero_component_is_its_own_witness():
    # degree 0 reduces through the truncation's nf[0] like any other degree
    spec, _ = entry_instance("jordan")
    trunc = compute_truncation(spec, 2)
    one = spec.ring.one()
    for text, constant in (("{1/2}", one / 2), ("1 + x1", one)):
        zero, witness = is_zero_in_nichols(parse_element(text, spec), trunc)
        assert not zero and witness.terms == {(): constant}, text
    assert is_zero_in_nichols(parse_element("x1 - x1", spec), trunc) \
        == (True, None)


def test_extend_matches_fresh_computation():
    spec, _ = entry_instance("super_jordan")
    t1 = compute_truncation(spec, 3)
    t1.extend(5)
    t2 = compute_truncation(spec, 5)
    assert t1.dims[:6] == t2.dims[:6]
    assert t1.ideal_dims[:6] == t2.ideal_dims[:6]


def _word_of(spec, beta, rng):
    """A random word of Z^theta-degree beta."""
    letters = [[x for x in range(spec.nletters) if spec.group_of(x) == g]
               for g in range(1, spec.ngroups + 1)]
    word = [rng.choice(letters[g]) for g, c in enumerate(beta)
            for _ in range(c)]
    rng.shuffle(word)
    return tuple(word)


def _fill_on_demand(trunc, words):
    """Normal forms of ``words`` (of one degree), filling their blocks."""
    one = trunc.spec.ring.one()
    return trunc.normal_form_vector(
        TensorElement(trunc.spec, {w: one for w in words}), len(words[0]))


def test_truncation_stats_per_degree():
    spec, _ = entry_instance("lstr(A2,2)")
    trunc = compute_truncation(spec, 3)
    trunc.extend(4)
    # over Q(omega): candidates are certified modulo a prime first
    omega, _ = entry_instance("lstr(D(2|1);omega)")
    certified = compute_truncation(omega, 4)
    # degrees 3 and 4 part-filled on demand before extend reaches them
    partial = compute_truncation(omega, 2)
    rng = random.Random(4)
    _fill_on_demand(partial, [_word_of(omega, (2, 1, 1), rng),
                              _word_of(omega, (1, 1, 2), rng)])
    assert partial._work.keys() == {3, 4} and partial.max_degree == 2
    partial.extend(4)
    assert partial._work == {} and partial._filled == set()
    for t in (trunc, certified, partial):
        assert len(t.stats) == 5
        assert t.stats[0] == {"n": 0, "dim": 1, "ideal_dim": 0,
                              "candidates": 0, "pivots": 0, "certified": 0,
                              "inverses": 0, "memo": 1, "seconds": 0.0}
        for n, record in enumerate(t.stats[1:], 1):
            assert list(record) == ["n", "dim", "ideal_dim", "candidates",
                                    "pivots", "certified", "inverses",
                                    "memo", "seconds"]
            assert record["n"] == n and record["dim"] == t.dims[n]
            assert record["ideal_dim"] == t.ideal_dims[n]
            # the memo holds every candidate's normal form, and grows
            assert record["memo"] >= t.stats[n - 1]["memo"] \
                + record["candidates"]
            assert record["dim"] + record["ideal_dim"] \
                == t.spec.nletters ** n
            # a complement word is certified or an exact pivot, and the
            # exact pivots are complement words, the candidates certified in
            # a block that then went exact among them
            assert record["pivots"] <= record["dim"] \
                <= record["pivots"] + record["certified"]
            assert record["inverses"] <= record["pivots"]
            # a rational ring certifies nothing
            if t is trunc:
                assert record["certified"] == 0
                assert record["pivots"] == record["dim"]
            else:
                assert 0 < record["certified"] <= record["dim"]
            assert record["dim"] <= record["candidates"] \
                <= t.dims[n - 1] * t.spec.nletters
            assert record["seconds"] >= 0
    # the work done on demand counts in its degree's record: the blocks
    # are the same, so are the elimination counts
    counts = ("n", "dim", "ideal_dim", "candidates", "pivots", "certified",
              "inverses")
    for mine, fresh in zip(partial.stats, certified.stats):
        assert [mine[k] for k in counts] == [fresh[k] for k in counts]


# per degree: candidates, pivots, certified, inverses, memo of ``stats``
# (of ``_work`` for the blocks filled above max_degree, which has no memo),
# and the first 16 hex digits of the sha256 of the repr of
# [(word, list(nf[n][word])) for word in nf[n]], the normal forms' term
# order; captured from the engine before image keys became ints
_PINNED = {
    "poseidon": (
        [[0, 0, 0, 0, 1], [5, 5, 0, 0, 6], [25, 17, 0, 12, 31],
         [51, 46, 0, 20, 82], [110, 108, 0, 48, 249], [229, 228, 0, 94, 650],
         [445, 445, 0, 227, 1534]],
        ["466dc23a1fa1470b", "5a7f0c0f2915dd2a", "f11c2f95d3e2f464",
         "255aec01d1395d87", "e39924605c197629", "9935a5de015be01e",
         "a669c4d333c9c9d5"]),
    "lstr(A2,2)": (
        [[0, 0, 0, 0, 1], [4, 4, 0, 0, 5], [16, 10, 0, 7, 21],
         [22, 22, 0, 9, 43], [46, 43, 0, 24, 115], [77, 77, 0, 40, 252],
         [103, 101, 0, 70], [129, 129, 0, 87], [142, 140, 0, 105],
         [121, 120, 0, 111], [68, 67, 0, 65]],
        ["466dc23a1fa1470b", "83ca1bcd39ef254b", "2c02c59e15e8919f",
         "7e60bd11ed586cc1", "f9366c5391e8d7f9", "9069107de56407f4",
         "9d45eb5c22d49086", "32f642f1a552c7c6", "b089a43dc9dc43d5",
         "e65988c0237efa7f", "24d01bc803e71326"]),
    "zeta12": (
        [[0, 0, 0, 0, 1], [3, 0, 3, 0, 4], [9, 0, 9, 0, 13],
         [27, 0, 25, 0, 40], [71, 5, 70, 5, 111]],
        ["466dc23a1fa1470b", "734405e893e159b8", "d3f1365f5aa93319",
         "8fcdcd54f384481e", "215ca875ec71b386"]),
}


def _pinned_truncation(name):
    if name == "poseidon":
        return compute_truncation(entry_instance("poseidon")[0], 6)
    if name == "zeta12":
        return compute_truncation(zeta12_specs()[0], 4)
    # degree 5, then the five relations of degree 6 to 10 of the bench's
    # member-overshoot workload, which fill blocks of degrees 6 to 10
    spec, pres = entry_instance(name)
    trunc = compute_truncation(spec, 5)
    relations = [rel for rel in pres.relations
                 if 6 <= expression_degree(rel, spec, pres.macros) <= 10]
    assert len(relations) == 5
    for rel in relations:
        assert is_zero_in_nichols(parse_element(rel, spec, pres.macros),
                                  trunc)[0]
    return trunc


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_elimination_counts_and_term_order_are_pinned(name):
    """The elimination counts and the normal forms' term order per degree
    are those of the engine that keyed image coordinates by (d, word):
    the ``inverses`` follow the pivot order and the term order the order
    of the reduction, so an elimination that reorders its keys shows."""
    import hashlib
    trunc = _pinned_truncation(name)
    counts = [[record[k] for k in ("candidates", "pivots", "certified",
                                   "inverses", "memo")]
              for record in trunc.stats]
    counts += [work[:4] for _, work in sorted(trunc._work.items())]
    orders = [hashlib.sha256(repr([(w, list(vec)) for w, vec
                                   in trunc.nf[n].items()]).encode())
              .hexdigest()[:16] for n in sorted(trunc.nf)]
    assert (counts, orders) == _PINNED[name]


@pytest.mark.parametrize("name,params", [
    ("lstr(A(1|0)1;r)", {"r": "generic"}), ("lstr(A(1|0)2;omega)", {})])
def test_certified_degree_builds_no_exact_image(name, params, monkeypatch):
    """Degree 5 certifies every candidate, so no block goes exact and the
    pass builds no exact image: the residue coordinates of a prefix are
    used as they are, whatever sums vanished in them."""
    spec, _ = entry_instance(name, params)
    trunc = compute_truncation(spec, 4)
    calls = []
    image = NicholsTruncation._image

    def counted(self, *args):
        calls.append(args[:2])
        return image(self, *args)

    monkeypatch.setattr(NicholsTruncation, "_image", counted)
    trunc.extend(5)
    record = trunc.stats[5]
    assert record["pivots"] == 0
    assert record["certified"] == record["candidates"] == record["dim"]
    assert calls == []


def test_truncation_pickles_over_cyclotomic_ring():
    """The residue map lives in a per-N cache, not on the truncation, so a
    truncation over Q(omega), holding blocks above its max_degree, pickles
    and extends like the original."""
    spec, _ = entry_instance("lstr(D(2|1);omega)")
    trunc = compute_truncation(spec, 3)
    _fill_on_demand(trunc, [_word_of(spec, (2, 2, 1), random.Random(5))])
    assert trunc._filled and trunc._work
    copy = pickle.loads(pickle.dumps(trunc))
    assert copy._filled == trunc._filled
    trunc.extend(5)
    copy.extend(5)
    assert copy.stats[4]["certified"] > 0
    assert copy.dims == trunc.dims
    assert list(copy.basis[5]) == list(trunc.basis[5])
    assert list(copy.nf[5].items()) == list(trunc.nf[5].items())
    assert list(copy._dcoords.items()) == list(trunc._dcoords.items())


def _tables(spec, degree):
    """(trunc, tables, coords): a truncation to ``degree``; its dims, ideal
    dims, bases and normal forms; and the exact skew-derivation coordinates
    of its complement words; both as a repr, which shows the order of every
    dict.

    Without a residue map the coordinates are ``_dcoords``, read after each
    degree.  With one, ``_dcoords`` holds their residues without zero
    values, and the exact ones are built on demand by ``_exact_dcoords``
    once the truncation is done; the normal forms are read before that, and
    the top degree's residues are checked against the exact coordinates:
    None exactly where one of them has no residue."""
    trunc = compute_truncation(spec, 0)
    rmap = nichols._residue_map(spec.ring)
    dcoords = []
    for n in range(1, degree + 1):
        trunc.extend(n)
        if rmap is None:
            dcoords.append([(w, trunc._dcoords[n][w][1])
                            for w in trunc.basis[n]])
    tables = repr([trunc.dims, trunc.ideal_dims, trunc.basis, trunc.nf])
    if rmap is not None:
        for n in range(1, degree + 1):
            dcoords.append([(w, trunc._exact_dcoords(w))
                            for w in trunc.basis[n]])
        for w, exact in dcoords[-1]:
            vecs = [{u: rmap.residue(c) for u, c in vec.items()}
                    for vec in exact]
            if any(None in vec.values() for vec in vecs):
                assert trunc._dcoords[degree][w][1] is None, w
            else:
                assert trunc._dcoords[degree][w][1] == [
                    {u: x for u, x in vec.items() if x} for vec in vecs], w
        # building them reduced no word again
        assert repr([trunc.dims, trunc.ideal_dims, trunc.basis,
                     trunc.nf]) == tables
    return trunc, tables, repr(dcoords)


def _scaled_spec(ring, rng, p):
    """A random block+point spec over Q(zeta_N) like ``_random_spec``, with
    the q entries off the diagonal scaled by 2, 3, p or 1/p and the a
    values in {0, 1, -1, p, 1/p}: modulo p its images meet spurious
    dependencies and denominators divisible by p."""
    order = ring.cyclotomic_order
    nblocks = rng.choice([0, 1])
    npoints = rng.randint(1, 2) if nblocks else rng.randint(2, 3)
    theta = nblocks + npoints

    def root():
        return print_scalar(ring.zeta(rng.randrange(order)))

    blocks = [(rng.choice(["1", "-1"]), 2)] * nblocks
    points = [root() for _ in range(npoints)]
    scales = ["1", "1", "2", "3", str(p), f"1/{p}"]
    qmat = [[blocks[i][0] if i == j < nblocks
             else points[i - nblocks] if i == j
             else f"{rng.choice(scales)}*{root()}"
             for j in range(theta)] for i in range(theta)]
    avals = {(j, k): rng.choice(["0", "1", "-1", str(p), f"1/{p}"])
             for j in range(nblocks + 1, theta + 1)
             for k in range(1, nblocks + 1)}
    return BraidedSpaceSpec(ring, blocks, points, qmat, avals)


def _total(runs, key):
    return sum(record[key] for trunc, _, _ in runs for record in trunc.stats)


def _smallest_map(ring):
    """The residue map of ``ring`` at the smallest prime p = 1 (mod N),
    and the list its ``residue`` appends every payload to that it finds
    no residue for."""
    order = ring.cyclotomic_order
    p = next(m for m in range(order + 1, 10 ** 4, order) if _is_prime(m))
    rmap = make_residue_map(order, *residue_prime(order, p + 1),
                            len(ring.params))
    assert rmap.p == p
    undefined = []

    def residue(a):
        x = rmap.residue(a)
        if x is None:
            undefined.append(a)
        return x

    return rmap._replace(residue=residue), undefined


def _certificate_runs(specs, degree, monkeypatch):
    """The _tables of ``specs`` with the ring's residue map, with the exact
    elimination alone and with the smallest prime's map, and the payloads
    the last map found no residue for.  The first two agree in full.  The
    smallest prime meets spurious zeros, which can leave a word out of the
    ``nf`` memo, so there the memo's word set may differ; the bases, the
    dims, the normal form of every word either run memoises and the exact
    coordinates agree."""
    certified = [_tables(spec, degree) for spec in specs]
    with monkeypatch.context() as m:
        m.setattr(nichols, "_residue_map", lambda ring: None)
        exact = [_tables(spec, degree) for spec in specs]
    small_map, undefined = _smallest_map(specs[0].ring)
    with monkeypatch.context() as m:
        m.setattr(residues, "residue_map", lambda n, k: small_map)
        small = [_tables(spec, degree) for spec in specs]
    for (_, *ours), (fresh, *theirs), (tiny, _, coords) in zip(
            certified, exact, small):
        assert ours == theirs
        assert repr(tiny.basis) == repr(fresh.basis)
        assert tiny.dims == fresh.dims
        assert coords == theirs[1]
        for n in range(degree + 1):
            for w in tiny.nf[n].keys() | fresh.nf[n].keys():
                assert repr(tiny._word_nf(w)) == repr(fresh._word_nf(w)), w
    assert _total(exact, "certified") == 0
    return certified, exact, small, undefined


@pytest.mark.parametrize("order", [3, 4, 5, 8, 12])
def test_certificate_leaves_every_table_unchanged(order, monkeypatch):
    """Certifying candidates modulo a prime changes no table, dict order
    included: the truncation to degree 5 is the same with the certificate
    and with the exact elimination alone.  With the smallest prime
    p = 1 (mod N), whose spurious dependencies and denominators divisible
    by p send blocks to the exact elimination, only the word set of the
    ``nf`` memo may differ (see _certificate_runs)."""
    ring = ScalarRing(order)
    p = next(m for m in range(order + 1, 10 ** 4, order)
             if _is_prime(m))
    rng = random.Random(500 + order)
    specs = [_random_spec(ring, rng)] + \
        [_scaled_spec(ring, rng, p) for _ in range(4)]
    certified, exact, small, undefined = _certificate_runs(
        specs, 5, monkeypatch)
    assert 0 < _total(small, "certified") < _total(certified, "certified") \
        < _total(exact, "candidates")
    assert undefined and all(den % p == 0 for _, den in undefined)


@pytest.mark.parametrize("name,params", [
    ("lstr(A(1|0)1;r)", {"r": "generic"}), ("eny_plus", {}),
    ("eny_minus", {}), ("eny_star", {})])
def test_certificate_over_parameters_leaves_every_table_unchanged(
        name, params, monkeypatch):
    """The same over Q(q), q generic, where q goes to a fixed residue:
    the certificate leaves fewer rows to the exact echelon."""
    spec, _ = entry_instance(name, params)
    certified, exact, small, _ = _certificate_runs([spec], 5, monkeypatch)
    assert 0 < _total(small, "certified") < _total(certified, "certified")
    assert _total(certified, "certified") <= _total(exact, "candidates")
    assert [record["pivots"] for record in certified[0][0].stats] \
        < [record["pivots"] for record in exact[0][0].stats]


@pytest.mark.parametrize("small", [False, True],
                         ids=["ring-prime", "smallest-prime"])
@pytest.mark.parametrize("name,params", [
    ("lstr(A(1|0)1;r)", {"r": "generic"}), ("eny_star", {})])
def test_exact_fallback_over_parameters(name, params, small, monkeypatch):
    """Over Q(q), q generic: a degree-2 truncation with blocks of degrees 3
    to 6 filled on demand, and its pickled copy, extended to degree 6, have
    the tables of the exact elimination alone: bases, the normal form of
    every word either one memoises, and the exact coordinates of the
    complement words, built on demand, equal to the exact ``_dcoords``,
    dict order included.  With the smallest prime, spurious dependencies
    and undefined residues send more blocks to the exact elimination."""
    spec, _ = entry_instance(name, params)
    with monkeypatch.context() as m:
        m.setattr(nichols, "_residue_map", lambda ring: None)
        fresh = compute_truncation(spec, 6)
    if small:
        small_map, _ = _smallest_map(spec.ring)
        monkeypatch.setattr(residues, "residue_map", lambda n, k: small_map)
    ours = compute_truncation(spec, 2)
    rng = random.Random(spec.nletters)
    for n in (3, 4, 5, 6):
        _fill_on_demand(ours, [tuple(rng.randrange(spec.nletters)
                                     for _ in range(n)) for _ in range(2)])
    assert ours._filled and ours.max_degree == 2
    copy = pickle.loads(pickle.dumps(ours))
    for trunc in (ours, copy):
        trunc.extend(6)
        assert repr(trunc.basis) == repr(fresh.basis)
        assert trunc.dims == fresh.dims
        for n in range(7):
            for w in trunc.nf[n].keys() | fresh.nf[n].keys():
                assert repr(trunc._word_nf(w)) == repr(fresh._word_nf(w))
        assert repr([(w, trunc._exact_dcoords(w)) for w in fresh.basis[6]]) \
            == repr([(w, fresh._dcoords[6][w][1]) for w in fresh.basis[6]])
        assert sum(record["certified"] for record in trunc.stats) > 0
        # some blocks went exact, from their certified rows
        assert sum(record["pivots"] for record in trunc.stats) > 0


def test_braiding_coefficient_without_residue(monkeypatch):
    """Over Q(omega) modulo p = 7, the braiding coefficients 7 and 1/7 have
    no residue, so every block whose images need them is eliminated
    exactly: only the letter x1 is certified, and the tables are those of
    the exact elimination alone."""
    spec = BraidedSpaceSpec(ScalarRing(3), [], ["-1", "z"],
                            [["-1", "1/7"], ["7", "z"]])
    with monkeypatch.context() as m:
        m.setattr(nichols, "_residue_map", lambda ring: None)
        fresh = compute_truncation(spec, 5)
    rmap = make_residue_map(3, *residue_prime(3, 8))
    assert rmap.p == 7
    monkeypatch.setattr(residues, "residue_map", lambda n, k: rmap)
    trunc = compute_truncation(spec, 5)
    assert trunc.dims == fresh.dims == [1, 2, 2, 1, 0, 0]
    assert [record["certified"] for record in trunc.stats] \
        == [0, 1, 0, 0, 0, 0]
    assert repr(trunc.basis) == repr(fresh.basis)
    for n in range(6):
        for w in trunc.nf[n].keys() | fresh.nf[n].keys():
            assert repr(trunc._word_nf(w)) == repr(fresh._word_nf(w)), w


def test_budget_is_enforced():
    spec, _ = entry_instance("cyc2")
    with pytest.raises(BudgetExceeded):
        compute_truncation(spec, 6, budget=10)


def test_budget_counts_candidate_words():
    # B(jordan) has dims n + 1, so degree n has 2n candidates, not 2^n words
    spec, _ = entry_instance("jordan")
    trunc = compute_truncation(spec, 12, budget=100)
    assert trunc.dims[12] == 13
    with pytest.raises(BudgetExceeded) as info:
        compute_truncation(spec, 12, budget=20)
    exc = info.value
    assert (exc.degree, exc.count, exc.budget) == (11, 22, 20)
    assert str(exc) == "degree 11 needs 22 candidate words (budget 20)"
    # membership above max_degree fills its blocks under the same budget
    # (jordan has one group, so a block is a whole degree)
    low = compute_truncation(spec, 1, budget=20)
    word = TensorElement(spec, {(0,) * 12: spec.ring.one()})
    with pytest.raises(BudgetExceeded) as info:
        is_zero_in_nichols(word, low)
    assert (info.value.degree, info.value.count) == (11, 22)


def test_budget_below_letters_stops_at_degree_1():
    # degree 1 has L candidates, the letters after the empty word
    spec, _ = entry_instance("jordan")
    assert compute_truncation(spec, 0, budget=1).dims == [1]
    with pytest.raises(BudgetExceeded) as info:
        compute_truncation(spec, 1, budget=1)
    assert str(info.value) == "degree 1 needs 2 candidate words (budget 1)"


_GOLDEN = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", ENTRIES)
def test_truncation_matches_golden(name):
    """dims, bases and the normal form of every word up to degree 6."""
    assert summarise(name, _GOLDEN["degree"]) == _GOLDEN["entries"][name]


_GOLDEN_ZETA12 = json.loads(ZETA12_FIXTURE.read_text())


@pytest.mark.parametrize("index", range(len(_GOLDEN_ZETA12["specs"])))
def test_truncation_zeta12_matches_golden(index):
    """The same digests on random block+point specs over Q(zeta_12)."""
    spec = zeta12_specs()[index]
    assert summarise_spec(spec, _GOLDEN_ZETA12["degree"]) == \
        _GOLDEN_ZETA12["specs"][index]


def test_symmetrizer_kernel_equals_ideal():
    for name in ("jordan", "super_jordan", "cyc1"):
        spec, _ = entry_instance(name)
        trunc = compute_truncation(spec, 4)
        for n in range(5):
            kernel = quantum_symmetrizer_kernel(spec, n)
            assert len(kernel) == trunc.ideal_dims[n]
            for vec in kernel:
                e = vec if isinstance(vec, TensorElement) \
                    else TensorElement(spec, vec)
                zero, _ = is_zero_in_nichols(e, trunc)
                assert zero


def test_symmetrizer_starts_from_degree_zero():
    """S_0 is the identity of T^0 and S_1 that of T^1; a negative degree and
    one above the cap 4 are errors."""
    spec, _ = entry_instance("jordan")
    one = spec.ring.one()
    assert quantum_symmetrizer(spec, 0) == {(): {(): one}}
    assert quantum_symmetrizer(spec, 1) == {(0,): {(0,): one},
                                            (1,): {(1,): one}}
    for oracle in (quantum_symmetrizer, quantum_symmetrizer_kernel):
        for n in (-1, -2):
            with pytest.raises(nichols.NicholsError,
                               match=f"symmetrizer degree {n} is negative"):
                oracle(spec, n)
        with pytest.raises(nichols.DegreeTooLarge, match="capped at degree 4"):
            oracle(spec, 5)
    assert quantum_symmetrizer_kernel(spec, 0) == []


# (entry, degree): 3-5 letters, the symmetrizer oracle to its degree cap
ORACLE_CASES = [("cyc2", 4), ("lstr(A2,2)", 4), ("lstr(1,G)", 4),
                ("poseidon", 3)]


@pytest.mark.parametrize("name,degree", ORACLE_CASES)
def test_every_normal_form_matches_symmetrizer(name, degree):
    """S_n(w) = sum c_u S_n(u) where nf(w) = sum c_u u, for every word w.

    The complement is factor-closed.  Words with a complement prefix and a
    suffix outside the complement are never eliminated; their normal forms
    come from the suffix rule, so each entry must have some.
    """
    spec, _ = entry_instance(name)
    trunc = compute_truncation(spec, degree)
    one = spec.ring.one()
    suffix_rule = 0
    for n in range(2, degree + 1):
        prev = set(trunc.basis[n - 1])
        assert all(w[:-1] in prev and w[1:] in prev for w in trunc.basis[n])
        suffix_rule += sum(1 for u in trunc.basis[n - 1]
                           for x in range(spec.nletters)
                           if (u + (x,))[1:] not in prev)
        table = quantum_symmetrizer(spec, n)
        for w in product(range(spec.nletters), repeat=n):
            acc = dict(table[w])
            nf = trunc.normal_form_vector(TensorElement(spec, {w: one}), n)
            for u, c in nf.items():
                add_into(acc, table[u], -c)
            assert not acc, w
    assert suffix_rule


# a Cartan-type q-matrix over Q(zeta_12): A3 at zeta_3 on points 1-3 with
# q_ij != q_ji, point 4 of label -1 attached to point 3
_CARTAN_Q = [["z^4", "z", "1", "1"],
             ["z^7", "z^4", "z^3", "1"],
             ["1", "z^5", "z^4", "z^2"],
             ["1", "1", "-1", "-1"]]


def test_dims_invariant_under_relabelling():
    """Candidates are filtered through the lex order of the letters, which a
    permutation of the points changes; the Hilbert series must not."""
    def relabelled(perm):
        return spec_from_json({
            "ring": {"cyclotomic_order": 12},
            "points": [{"q": _CARTAN_Q[p][p]} for p in perm],
            "q": [[_CARTAN_Q[i][j] for j in perm] for i in perm]})

    dims = compute_truncation(relabelled((0, 1, 2, 3)), 5).dims
    assert dims == [1, 4, 12, 27, 54, 96]
    for perm in permutations(range(4)):
        assert compute_truncation(relabelled(perm), 5).dims == dims, perm


def _cartan_spec():
    return spec_from_json({"ring": {"cyclotomic_order": 12},
                           "points": [{"q": row[i]}
                                      for i, row in enumerate(_CARTAN_Q)],
                           "q": _CARTAN_Q})


@pytest.mark.parametrize("spec, dim5", [
    (entry_instance("poseidon")[0], 228), (_cartan_spec(), 96),
    (entry_instance("lstr(A(1|0)1;r)", {"r": "generic"})[0], 87)],
    ids=["poseidon", "cartan-zeta12", "generic-r"])
def test_truncation_builds_no_scalars(spec, dim5, monkeypatch):
    """On every ring, parameters or not, the truncation runs on raw
    payloads: the number of Scalars it builds is a small constant, not
    growing with the degree."""
    built = [0]
    init = Scalar.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    counts = []
    for degree in (3, 5):
        built[0] = 0
        trunc = compute_truncation(spec, degree)
        counts.append(built[0])
    assert trunc.dims[5] == dim5
    assert counts[0] == counts[1] <= 2, counts


def test_membership_rejects_another_ring():
    trunc = compute_truncation(entry_instance("jordan")[0], 2)
    other, _ = entry_instance("lstr(omega,1)")
    with pytest.raises(RingMismatch):
        is_zero_in_nichols(TensorElement(other, {(0, 1): other.ring.one()}),
                           trunc)


def test_membership_rejects_another_spec_over_the_same_ring():
    """x2 x2 of lstr(1,G) is not zero; a truncation of lstr(-1,G), over the
    same ring, must not answer for it."""
    spec, _ = entry_instance("lstr(1,G)", {"G": 1})
    other, _ = entry_instance("lstr(-1,G)", {"G": 1})
    assert other.ring == spec.ring
    e = parse_element("x2 x2", spec)
    assert not is_zero_in_nichols(e, compute_truncation(spec, 2))[0]
    trunc = compute_truncation(other, 2)
    for n in (2, 3):  # within max_degree, and filling blocks above it
        with pytest.raises(SpecMismatch):
            trunc.normal_form_vector(e, n)
    with pytest.raises(SpecMismatch):
        is_zero_in_nichols(e, trunc)


def _zdegree(spec, w):
    """Letter counts per group of the word w."""
    return tuple(sum(1 for x in w if spec.group_of(x) == g)
                 for g in range(1, spec.ngroups + 1))


def _downset(beta, low):
    """The Z^theta-degrees gamma <= beta with |gamma| >= low."""
    return {gamma for gamma in product(*(range(c + 1) for c in beta))
            if sum(gamma) >= low}


@pytest.mark.parametrize("name", ["cyc2", "lstr(A2,2)", "poseidon",
                                  "eny_plus"])
def test_blocks_filled_on_demand_are_the_full_ones(name):
    """For every beta with |beta| = 5, a word of Z^theta-degree beta on a
    degree-1 truncation fills exactly the blocks of degree >= 2 below beta,
    with the full complement words of each block, in the same order, and
    the full normal form, term order included, of every word memoised."""
    spec, _ = entry_instance(name)
    degree = 5
    full = compute_truncation(spec, degree)
    rng = random.Random(degree)
    for beta in product(range(degree + 1), repeat=spec.ngroups):
        if sum(beta) != degree:
            continue
        low = compute_truncation(spec, 1)
        _fill_on_demand(low, [_word_of(spec, beta, rng)])
        assert low.max_degree == 1
        assert low._filled == _downset(beta, 2), beta
        for gamma in low._filled:
            words = sorted(w for w, (delta, _) in
                           low._dcoords[sum(gamma)].items() if delta == gamma)
            assert words == [w for w in full.basis[sum(gamma)]
                             if _zdegree(spec, w) == gamma], (beta, gamma)
        for n in range(2, degree + 1):
            for w, vec in low.nf[n].items():
                assert repr(vec) == repr(full._word_nf(w)), (beta, w)


def _assert_same_membership(e):
    """A degree-1 truncation gives the verdict and witness, term order
    included, of a full one."""
    spec = e.spec
    low = compute_truncation(spec, 1)
    full = compute_truncation(spec, max(e.degrees()))
    zero, witness = is_zero_in_nichols(e, low)
    full_zero, full_witness = is_zero_in_nichols(e, full)
    assert zero == full_zero
    if full_witness is None:
        assert witness is None
    else:
        assert list(witness.terms.items()) == \
            list(full_witness.terms.items())
    return zero


def test_membership_above_max_degree_matches_full_truncation():
    ring = ScalarRing(12)
    rng = random.Random(20261018)
    zero = nonzero = 0
    for _ in range(4):
        spec = _random_spec(ring, rng)
        L = spec.nletters
        one = ring.one()
        for n in (3, 4):
            kernel = quantum_symmetrizer_kernel(spec, n)
            for vec in kernel[:6]:
                assert _assert_same_membership(vec)
                zero += 1
            for _ in range(4):
                w = tuple(rng.randrange(L) for _ in range(n))
                word = TensorElement(spec, {w: one})
                nonzero += not _assert_same_membership(word)
                if kernel:
                    # a zero component of degree n below a word of degree n+1
                    nonzero += not _assert_same_membership(
                        kernel[0] + TensorElement(spec, {w + w[:1]: one}))
        # products of sums of letters: several Z^theta-degrees per component
        a = TensorElement(spec, {(0,): one, (L - 1,): ring.zeta(1)})
        b = TensorElement(spec, {(1,): one, (0,): -one})
        for e in (a * a * b, a * b * b * a, b * a * a * a * b):
            nonzero += not _assert_same_membership(e)
    assert zero and nonzero


def test_catalog_relations_vanish_above_max_degree():
    """Every relation of degree <= 10 of every blocks-plus-points entry is
    zero by a degree-1 truncation, that is by blocks filled on demand."""
    checked = 0
    for name in catalog.list_entries():
        if name == "compose":
            continue
        spec, pres = entry_instance(name)
        if not isinstance(spec, BraidedSpaceSpec):
            continue
        trunc = compute_truncation(spec, 1)
        for rel in pres.relations:
            if expression_degree(rel, spec, pres.macros) > 10:
                continue
            e = parse_element(rel, spec, pres.macros)
            assert is_zero_in_nichols(e, trunc) == (True, None), (name, rel)
            checked += 1
    assert checked == 170


def _assert_same_tables(ours, fresh):
    """Two truncations have the same tables at every degree: complement
    words by repr (order included), dims, ideal dims, the top degree's
    skew-derivation coordinates and the normal form of every word either
    one memoises, each by repr, and the stats counts but memo and seconds
    (the memo depends on the words reduced before)."""
    assert ours.max_degree == fresh.max_degree
    assert repr(ours.basis) == repr(fresh.basis)
    assert ours.dims == fresh.dims and ours.ideal_dims == fresh.ideal_dims
    assert ours._dcoords.keys() == fresh._dcoords.keys()
    for n, table in fresh._dcoords.items():
        assert ours._dcoords[n].keys() == table.keys()
        for w, dvecs in table.items():
            assert repr(ours._dcoords[n][w]) == repr(dvecs), w
    for n in range(fresh.max_degree + 1):
        for w in ours.nf[n].keys() | fresh.nf[n].keys():
            assert repr(ours._word_nf(w)) == repr(fresh._word_nf(w)), w
    for mine, theirs in zip(ours.stats, fresh.stats, strict=True):
        for key in ("n", "dim", "ideal_dim", "candidates", "pivots",
                    "certified", "inverses"):
            assert mine[key] == theirs[key], (mine["n"], key)
    assert ours._filled == set() and ours._work == {}


@pytest.mark.parametrize("name,params", [
    ("lstr(A2,2)", {}), ("lstr(D(2|1);omega)", {}),
    ("lstr(A(1|0)1;r)", {"r": "generic"})],
    ids=["rational", "certificate", "generic-r"])
def test_extend_over_blocks_filled_on_demand(name, params):
    """After blocks of degrees 5 to 7 are filled on demand on a degree-4
    truncation, ``extend(7)`` gives the tables of a fresh truncation to
    degree 7."""
    spec, _ = entry_instance(name, params)
    ours = compute_truncation(spec, 4)
    rng = random.Random(spec.ngroups)
    alphas = [a for a in product(range(5), repeat=spec.ngroups)
              if sum(a) == 7]
    for alpha in rng.sample(alphas, 4):
        for n in (5, 6):
            word = tuple(rng.randrange(spec.nletters) for _ in range(n))
            _fill_on_demand(ours, [word])
        _fill_on_demand(ours, [_word_of(spec, alpha, rng)])
    assert ours.max_degree == 4 and ours._work.keys() == {5, 6, 7}
    ours.extend(7)
    _assert_same_tables(ours, compute_truncation(spec, 7))


def test_budget_error_during_a_fill_leaves_the_truncation_usable():
    """A pass that exceeds the budget in the middle of an on-demand fill
    keeps the blocks filled below it: with a larger budget the same call
    gives the verdict and witness of a full truncation, and ``extend``
    its tables."""
    spec, _ = entry_instance("jordan")
    e = parse_element("x1^12", spec)
    ours = compute_truncation(spec, 1, budget=20)
    with pytest.raises(BudgetExceeded) as info:
        is_zero_in_nichols(e, ours)
    assert (info.value.degree, info.value.count) == (11, 22)
    ours.budget = 100
    fresh = compute_truncation(spec, 12)
    assert repr(is_zero_in_nichols(e, ours)) \
        == repr(is_zero_in_nichols(e, fresh))
    ours.extend(12)
    _assert_same_tables(ours, fresh)


def _fresh_membership(e, degree):
    """(is_zero, witness terms) of e by a fresh truncation to ``degree``,
    as a list of (word, Scalar)."""
    return _membership(e, compute_truncation(e.spec, degree))


def _membership(e, trunc):
    zero, witness = is_zero_in_nichols(e, trunc)
    return zero, None if witness is None else list(witness.terms.items())


def test_shared_blocks_give_the_fresh_verdict_and_witness():
    """Membership through the blocks that earlier calls filled, nested
    Z^theta-degrees and repeats included, gives the verdict and witness,
    term order included, of a fresh truncation of the same degree."""
    spec, pres = entry_instance("lstr(A(1|0)2;omega)")
    macros = dict(pres.macros)
    trunc = compute_truncation(spec, 1)
    # degree 15, Z^theta-degree (3, 6, 6): nonzero, a 12-term witness
    e = parse_element("[ztt123, x3]^3", spec, macros)
    zero, witness = _membership(e, trunc)
    assert not zero and len(witness) == 12
    assert (zero, witness) == _fresh_membership(e, 1)
    for text in ("[ztt123, x3]^3", "[ztt123, x3]^2", "x23^3", "ztt12^3",
                 "[ztt123, x3] x3 x2 x1h", "x2 x3 x2 x3 x1 x1h"):
        e = parse_element(text, spec, macros)
        assert _membership(e, trunc) == _fresh_membership(e, 1), text
    # the member-overshoot relations of lstr(A2,2) share their blocks
    spec, pres = entry_instance("lstr(A2,2)")
    macros = dict(pres.macros)
    trunc = compute_truncation(spec, 5)
    for rel in pres.relations:
        if 6 <= expression_degree(rel, spec, macros) <= 10:
            e = parse_element(rel, spec, macros)
            assert _membership(e, trunc) == (True, None) \
                == _fresh_membership(e, 5), rel
    words = [(0, 1, 2, 3, 2, 1, 0), (3, 2, 3, 2, 1, 0, 1, 0),
             (2, 2, 3, 3, 0, 1)]
    for w in words:
        e = TensorElement(spec, {w: spec.ring.one()})
        assert _membership(e, trunc) == _fresh_membership(e, 5), w


def test_a_block_is_eliminated_once(monkeypatch):
    """Each block is eliminated once, whichever call fills it: one pass per
    degree fills the blocks a component needs, a component whose blocks
    are filled eliminates nothing, and ``extend`` skips the blocks filled
    on demand."""
    spec, _ = entry_instance("lstr(A2,2)")  # groups {x1, x1h}, {x2}, {x3}
    trunc = compute_truncation(spec, 2)
    passes = []
    eliminate = NicholsTruncation._eliminate

    def counting(self, n, *args):
        # a pass adds the normal forms of its candidates, and only those,
        # to nf[n]
        before = set(self.nf.get(n, ()))
        eliminate(self, n, *args)
        passes.append((n, self.nf[n].keys() - before))

    monkeypatch.setattr(NicholsTruncation, "_eliminate", counting)
    one = spec.ring.one()
    # one degree-6 component of Z^theta-degrees (4, 2, 0) and (2, 2, 2)
    big = TensorElement(spec, {(0, 1, 0, 1, 2, 2): one,
                               (2, 2, 3, 3, 0, 1): one})
    is_zero_in_nichols(big, trunc)
    assert [n for n, _ in passes] == [3, 4, 5, 6]
    assert trunc._filled == \
        (_downset((4, 2, 0), 3) | _downset((2, 2, 2), 3))
    count = len(passes)
    # words of those blocks and of blocks below them
    for w in ((0, 0, 1, 1, 2, 2), (3, 2, 3, 2, 0, 1), (1, 0, 3), (2, 3)):
        is_zero_in_nichols(TensorElement(spec, {w: one}), trunc)
    is_zero_in_nichols(big, trunc)
    assert len(passes) == count
    # (4, 2, 2) at degree 8 needs no new block of degree 3
    is_zero_in_nichols(TensorElement(spec, {(0, 1, 0, 1, 2, 2, 3, 3): one}),
                       trunc)
    assert [n for n, _ in passes[count:]] == [4, 5, 6, 7, 8]
    trunc.extend(8)
    words = [w for _, candidates in passes for w in candidates]
    assert len(words) == len(set(words))
    fresh = compute_truncation(spec, 8)
    assert trunc.dims == fresh.dims
    assert len(words) == sum(record["candidates"]
                             for record in fresh.stats[3:])


def test_pbw_hilbert_coeffs():
    # two height-infinity degree-1 generators: polynomial algebra growth
    p = Presentation(name="poly2", relations=[],
                     pbw=[("x", 1, None), ("y", 1, None)])
    assert pbw_hilbert_coeffs(p, 5) == [1, 2, 3, 4, 5, 6]
    # height-2 generators truncate their geometric factor
    p2 = Presentation(name="ext2", relations=[],
                      pbw=[("x", 1, 2), ("y", 2, 2)])
    assert pbw_hilbert_coeffs(p2, 4) == [1, 1, 1, 1, 0]
    # the GK dimension counts the generators of infinite height
    assert p.gk == 2 and p2.gk == 0
    # omitted macros and params are fresh dicts, not one shared default
    assert p.macros == p2.macros == {} and p.macros is not p2.macros
    assert p.params == p2.params == {} and p.params is not p2.params
    assert p.is_domain is False


@pytest.mark.parametrize("degree,height,what", [
    (0, None, "degrees"), (1, 0, "heights"), (2, -1, "heights")])
def test_pbw_hilbert_coeffs_rejects_degree_or_height_below_1(
        degree, height, what):
    # a height below 1 would drop the generator's factor, even its 1
    p = Presentation("p", [], [("a", degree, height)])
    with pytest.raises(nichols.NicholsError,
                       match=f"PBW generator {what} must be >= 1"):
        pbw_hilbert_coeffs(p, 3)


@pytest.mark.parametrize("pbw", [[], [("a", 1, None)]])
def test_pbw_hilbert_coeffs_rejects_a_negative_degree(pbw):
    # with or without generators, as for a degree or height below 1
    p = Presentation("p", [], pbw)
    assert pbw_hilbert_coeffs(p, 0) == [1]
    with pytest.raises(nichols.NicholsError,
                       match="PBW series degree -1 is negative"):
        pbw_hilbert_coeffs(p, -1)


def test_truncation_rejects_a_negative_degree():
    spec, _ = entry_instance("jordan")
    assert compute_truncation(spec, 0).dims == [1]
    with pytest.raises(nichols.NicholsError,
                       match="truncation degree -2 is negative"):
        compute_truncation(spec, -2)


def test_verify_presentation_reports_failures():
    spec, pres = entry_instance("jordan")
    bad = Presentation(name="bad", relations=["x1 x1h - x1h x1"],
                       pbw=list(pres.pbw), macros=dict(pres.macros))
    report = verify_presentation(bad, compute_truncation(spec, 4))
    assert not report["pass"]
    failed = [r for r in report["relations"] if r["zero"] is False]
    assert failed and "witness" in failed[0]


def test_verify_presentation_skips_deep_relations():
    spec, pres = entry_instance("jordan")
    deep = Presentation(name="deep", relations=list(pres.relations)
                        + ["x1^40"], pbw=list(pres.pbw),
                        macros=dict(pres.macros))
    report = verify_presentation(deep, compute_truncation(spec, 4))
    skipped = [r for r in report["relations"] if r.get("skipped_degree")]
    assert skipped and skipped[0]["skipped_degree"] == 40
    assert report["pass"]


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_verify_presentation_reads_its_degree_from_the_truncation(degree):
    """The report covers degrees 0 to the truncation's max_degree: dims and
    pbw_dims have max_degree + 1 entries, and exactly the relations above
    max_degree are skipped."""
    spec, pres = entry_instance("lstr(1,G)", {"G": 1})
    report = verify_presentation(pres, compute_truncation(spec, degree))
    assert len(report["dims"]) == len(report["pbw_dims"]) == degree + 1
    assert report["pass"]
    degrees = [expression_degree(rel, spec, pres.macros)
               for rel in pres.relations]
    assert [r.get("skipped_degree") for r in report["relations"]] == \
        [d if d > degree else None for d in degrees]
    assert [r["zero"] for r in report["relations"]] == \
        [None if d > degree else True for d in degrees]


MU_CASES = [
    # (entry, G, bound): bound = G for eps = +1 blocks, 2G for eps = -1
    ("lstr(1,G)", 1, 1), ("lstr(1,G)", 2, 2),
    ("lstr(-1,G)", 1, 1), ("lstr(-1,G)", 2, 2),
    ("lstr_-(1,G)", 1, 2), ("lstr_-(1,G)", 2, 4),
    ("lstr_-(-1,G)", 1, 2), ("lstr_-(-1,G)", 2, 4),
]


@pytest.mark.parametrize("name,G,bound", MU_CASES)
def test_mu_zeros_match_z_vanishing(name, G, bound):
    spec, _ = entry_instance(name, {"G": G})
    mus = mu_sequence(spec.epsilon(1), spec.a(2, 1), bound + 1)
    assert all(not m.is_zero() for m in mus[:bound + 1])
    assert mus[bound + 1].is_zero()
    trunc = compute_truncation(spec, bound + 2)
    for n in range(1, bound + 2):
        e, check_ok = z_element(spec, 1, 2, n)
        assert check_ok
        zero, _ = is_zero_in_nichols(e, trunc)
        assert zero == (n > bound)


def test_mu_rank2_vanishing():
    ring = ScalarRing(6)
    q11 = ring.zeta(1)  # order 6
    qt = q11 ** -2
    # factor (1 - q11^i qt) vanishes first at i = 2
    assert not mu_rank2(q11, qt, 2).is_zero()
    assert mu_rank2(q11, qt, 3).is_zero()


@pytest.mark.parametrize("k,j,n,message", [
    (1, 5, 1, "j = 5 is not a point index"),
    (1, 1, 1, "j = 1 is not a point index"),
    (2, 1, 1, "k = 2 is not a block index"),
    (0, 2, 1, "k = 0 is not a block index"),
    (1, 2, -1, "n = -1 is negative")])
def test_z_element_validates_its_arguments(k, j, n, message):
    spec, _ = entry_instance("lstr(1,G)", {"G": 1})
    with pytest.raises(nichols.NicholsError, match=message):
        z_element(spec, k, j, n)


def test_z_element_of_degree_zero_is_the_point():
    spec, _ = entry_instance("lstr(1,G)")
    assert z_element(spec, 1, 2, 0) == (TensorElement.letter(spec, "x2"),
                                        True)


def test_z_element_requires_weak_interaction():
    spec, _ = entry_instance("cyc1")
    with pytest.raises(NotWeak):
        z_element(spec, 1, 2, 1)


def test_infinite_probe_stops_at_a_zero_y():
    """y_1 = ad(x_2) x_2 is zero in T(V) for lstr(1,G): one product, y_0."""
    spec, _ = entry_instance("lstr(1,G)")
    assert infinite_probe(compute_truncation(spec, 4), 2, 2, 3) == {
        "evidence": "INCONCLUSIVE", "nonzero_y": [0], "products_tested": 1,
        "dependencies": 0}


def test_infinite_probe_report_shape():
    spec, _ = entry_instance("jordan")
    report = infinite_probe(compute_truncation(spec, 4), 0, 1, 3)
    assert report["evidence"] in ("INFINITE", "INCONCLUSIVE")
    assert set(report) >= {"evidence", "nonzero_y", "products_tested",
                           "dependencies"}


# (entry, i, j, count, nstar, report): exact probe reports that a change to
# the elimination kernel must reproduce
PROBE_REPORTS = [
    ("jordan", 0, 1, 3, 4, ("INFINITE", [0, 1], 3, 0)),
    ("jordan", 1, 0, 5, 6, ("INCONCLUSIVE", [0, 1, 2, 3, 4], 12, 6)),
    ("jordan", 1, 1, 5, 6, ("INCONCLUSIVE", [0, 1, 2, 3, 4], 12, 1)),
    ("super_jordan", 1, 1, 5, 6, ("INFINITE", [0, 1, 2, 3, 4], 12, 0)),
    ("cyc1", 1, 2, 5, 6, ("INFINITE", [0, 1, 2], 7, 0)),
]


@pytest.mark.parametrize("name,i,j,count,nstar,expected", PROBE_REPORTS)
def test_infinite_probe_report_exact(name, i, j, count, nstar, expected):
    spec, _ = entry_instance(name)
    evidence, nonzero, products, dependencies = expected
    assert infinite_probe(compute_truncation(spec, nstar), i, j, count) == {
        "evidence": evidence, "nonzero_y": nonzero,
        "products_tested": products, "dependencies": dependencies}


def test_echelon_tracks_dependencies():
    """A vector with a label coordinate (-1, label) below its keys reduces
    to its label part alone when dependent, and that part is a combination
    of labels whose vectors sum to zero."""
    from gknichols.nichols import _Echelon
    q = RING.from_int
    vectors = [{(0,): q(1), (1,): q(2)}, {(1,): q(3), (2,): q(1)},
               {(0,): q(2), (1,): q(7), (2,): q(1)}, {(2,): q(5)}]
    echelon = _Echelon()
    dependent = []
    for label, vec in enumerate(vectors):
        img = dict(vec)
        img[(-1, label)] = RING.one()
        key = echelon.reduce(img)
        if key[0] != -1:
            echelon.insert(img, key)
            continue
        assert key == (-1, label) and img[key].is_one()
        # vec is the combination -img of the inserted vectors
        combo = {}
        for (_, lab), c in img.items():
            if lab != label:
                add_into(combo, vectors[lab], -c)
        assert combo == vec
        dependent.append(label)
    assert dependent == [2]
    assert len(echelon.pivots) == 3


@pytest.mark.parametrize("raw, ring", [
    (True, ScalarRing(12)), (False, ScalarRing(12)),
    (True, ScalarRing(1, ("q",)))],
    ids=["ring-ops", "scalar-ops", "ring-ops-param"])
def test_echelon_inverts_pivot_leads_lazily(raw, ring):
    """Over Q(zeta_12), and over Q(q) with z = q, a pivot takes the inverse
    of its lead only when a reduction first uses it, and every reduction
    keeps the vector minus the label part's combination of the inserted
    vectors equal to its label's vector."""
    from gknichols.nichols import _Echelon
    from gknichols.scalars import SCALAR_OPS
    z = ring.param("q") if ring.params else ring.zeta(1)
    q = ring.from_rational
    base = ring.ops if raw else SCALAR_OPS
    wrap = (lambda v: Scalar(ring, v)) if raw else (lambda v: v)
    inverted = []

    def counting_inv(value):
        inverted.append(value)
        return base.inv(value)

    ops = base._replace(inv=counting_inv)
    vectors = [{0: z + 2, 1: q(1, 3)},
               {0: q(5), 2: z ** 2 - z / 2},
               {1: z, 3: z ** 3 + 1},  # lead 3 is never reduced against
               {1: q(-2, 7) * z, 2: z ** 5},
               # 2 * vectors[0] - z * vectors[1]
               {0: 2 * (z + 2) - z * q(5), 1: q(2, 3),
                2: -z * (z ** 2 - z / 2)},
               {0: z ** 4}]
    echelon = _Echelon(ops)
    dependent, inverse_counts = [], []
    for label, vec in enumerate(vectors):
        img = {k: v.payload if raw else v for k, v in vec.items()}
        # label coordinates below the keys 0..3, increasing with the label
        own = label - len(vectors)
        img[own] = ring.one().payload if raw else ring.one()
        key = echelon.reduce(img)
        after = {k: wrap(v) for k, v in img.items() if k >= 0}
        for k, c in img.items():
            if k < 0 and k != own:
                add_into(after, vectors[k + len(vectors)], -wrap(c))
        assert after == vec
        if key >= 0:
            echelon.insert(img, key)
        else:
            assert key == own
            dependent.append(label)
        inverse_counts.append(len(inverted))
    assert dependent == [4, 5]
    # leads 0, 1, 2, 3 belong to vectors 3, 0, 1, 2; vectors 3 and 4 reduce
    # at leads 2 and 1, vector 5 at lead 0, nothing at lead 3
    assert sorted(echelon.pivots) == [0, 1, 2, 3]
    assert inverse_counts == [0, 0, 0, 2, 2, 3]
    assert sorted(echelon.inverses) == [0, 1, 2]
