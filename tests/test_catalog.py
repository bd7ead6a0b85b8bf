"""Catalog entries: verification, GK agreement, lookup and composition."""

import json
import random
from collections import Counter

import pytest

from gknichols import (BraidedSpaceSpec, FiniteGK, PaleBlockPointSpec,
                       ScalarRing, build_flourished, classify, classify_pale,
                       compute_truncation, expression_degree,
                       is_zero_in_nichols, parse_element, print_scalar)
from gknichols import catalog
from tests.conftest import entry_instance, entry_report
from tests.test_acceptance import _random_spec
from tests.data.capture_catalog_golden import (FIXTURE, summarise_composition,
                                               summarise_entry)

# (entry, params, verification degree at desk scale)
ENTRY_CASES = [
    ("jordan", {}, 7),
    ("super_jordan", {}, 7),
    ("lstr(1,G)", {"G": 1}, 6),
    ("lstr(1,G)", {"G": 2}, 6),
    ("lstr(-1,G)", {"G": 1}, 6),
    ("lstr(-1,G)", {"G": 2}, 6),
    ("lstr_-(1,G)", {"G": 1}, 6),
    ("lstr_-(1,G)", {"G": 2}, 6),
    ("lstr_-(-1,G)", {"G": 1}, 6),
    ("lstr_-(-1,G)", {"G": 2}, 6),
    ("lstr(omega,1)", {}, 6),
    ("cyc1", {}, 7),
    ("cyc2", {}, 7),
    ("lstr(A(1|0)1;r)", {"r": 4}, 6),
    ("lstr(A(1|0)1;r)", {"r": "generic"}, 6),
    ("lstr(A(1|0)2;omega)", {}, 6),
    ("lstr(A(1|0)3;omega)", {}, 6),
    ("lstr(A2,2)", {}, 6),
    ("lstr(A(2|0)1;omega)", {}, 5),
    ("lstr(D(2|1);omega)", {}, 5),
    ("lstr(A_theta-1)", {"theta": 3}, 6),
    ("poseidon", {}, 5),
    ("eny_plus", {}, 6),
    ("eny_minus", {}, 6),
    ("eny_star", {}, 6),
]


@pytest.mark.parametrize("name,params,degree", ENTRY_CASES,
                         ids=[f"{n}-{p}" for n, p, _ in ENTRY_CASES])
def test_entry_presentation_verifies(name, params, degree):
    report = entry_report(name, params, degree)
    assert report["pass"], report
    assert report["dims"] == report["pbw_dims"]


@pytest.mark.parametrize("name,params,degree", ENTRY_CASES,
                         ids=[f"{n}-{p}" for n, p, _ in ENTRY_CASES])
def test_entry_gk_matches_classifier(name, params, degree):
    spec, pres = entry_instance(name, params)
    if isinstance(spec, PaleBlockPointSpec):
        verdict = classify_pale(spec)
    else:
        verdict = classify(spec)
    assert isinstance(verdict, FiniteGK)
    assert verdict.gk == pres.gk


@pytest.mark.parametrize("name", [n for n in catalog.list_entries()
                                  if n != "compose"])
def test_multigraded_hilbert_series_equals_pbw(name):
    """To degree 6, the complement words of each Z^theta-degree are as many
    as the PBW monomials of that degree, each generator taken at the
    Z^theta-degree of its label with its height."""
    degree = 6
    spec, pres = entry_instance(name)
    trunc = compute_truncation(spec, degree)
    got = Counter(spec.group_counts(w) for n in range(degree + 1)
                  for w in trunc.basis[n])
    series = Counter({(0,) * spec.ngroups: 1})
    for label, length, height in pres.pbw:
        beta = parse_element(label, spec, dict(pres.macros)).group_degree()
        assert sum(beta) == length, label
        powers = Counter()
        for gamma, count in series.items():
            k = 0
            while (height is None or k < height) \
                    and sum(gamma) + k * length <= degree:
                powers[tuple(a + k * b for a, b in zip(gamma, beta))] += count
                k += 1
        series = powers
    assert got == series


DOMAINS = {"jordan", "lstr(1,G)", "lstr_-(1,G)", "poseidon"}


@pytest.mark.parametrize("name,params,degree", ENTRY_CASES,
                         ids=[f"{n}-{p}" for n, p, _ in ENTRY_CASES])
def test_entry_domain_flags(name, params, degree):
    spec, pres = entry_instance(name, params)
    if isinstance(spec, PaleBlockPointSpec):
        assert not pres.is_domain
        return
    verdict = classify(spec)
    assert verdict.is_domain == pres.is_domain


def test_list_entries_is_stable():
    names = catalog.list_entries()
    assert names == sorted(set(names), key=names.index)
    assert "jordan" in names and "compose" in names


def test_unknown_entry_raises():
    with pytest.raises(catalog.CatalogError):
        catalog.instantiate("nonsense", {})
    with pytest.raises(catalog.CatalogError):
        catalog.instantiate("lstr(A_theta-1)", {"theta": 7})


# the parameter keys of each entry, as its unknown-key error lists them
_KNOWN_KEYS = {
    "jordan": "none", "super_jordan": "none",
    "lstr(1,G)": "G, q12", "lstr(-1,G)": "G, q12", "lstr_-(1,G)": "G, q12",
    "lstr_-(-1,G)": "G, q12", "lstr(omega,1)": "q12", "cyc1": "q12",
    "cyc2": "none", "lstr(A(1|0)1;r)": "r", "lstr(A(1|0)2;omega)": "none",
    "lstr(A(1|0)3;omega)": "none", "lstr(A(2|0)1;omega)": "none",
    "lstr(D(2|1);omega)": "none", "lstr(A2,2)": "none",
    "lstr(A_theta-1)": "theta", "point": "label, order",
    "poseidon": "t, signs, ghosts, label, q", "eny_plus": "q",
    "eny_minus": "q", "eny_star": "q"}
_KEY_CASES = [("lstr(1,G)", "g"), ("cyc2", "G"), ("point", "lable"),
              ("poseidon", "T"), ("eny_plus", "r")]


@pytest.mark.parametrize("name,key", _KEY_CASES + [
    (name, "nonsense") for name in catalog.list_entries()
    if name != "compose" and name not in dict(_KEY_CASES)])
def test_unknown_parameter_key_raises(name, key):
    with pytest.raises(catalog.BadParams,
                       match=f"unknown parameter '{key}'") as err:
        catalog.instantiate(name, {key: 1})
    assert str(err.value) == (f"unknown parameter '{key}' for {name} "
                              f"(known: {_KNOWN_KEYS[name]})")


@pytest.mark.parametrize("name,params,message", [
    ("lstr(1,G)", {"G": 1.5}, "parameter 'G' must be an integer, got 1.5"),
    ("lstr(1,G)", {"G": True}, "parameter 'G' must be an integer, got True"),
    ("lstr(A_theta-1)", {"theta": 3.9},
     "parameter 'theta' must be an integer, got 3.9"),
    ("poseidon", {"t": 2.5}, "parameter 't' must be an integer, got 2.5"),
    ("poseidon", {"ghosts": [1.5, 1]},
     "parameter 'ghosts' must be an integer, got 1.5"),
    ("poseidon", {"signs": [1.0, 1]},
     "parameter 'signs' must be an integer, got 1.0"),
    ("poseidon", {"ghosts": 3}, "signs and ghosts must be lists of length t"),
    ("point", {"order": 2.5}, "parameter 'order' must be an integer, got 2.5"),
    ("lstr(A(1|0)1;r)", {"r": 4.5},
     "parameter 'r' must be an integer, got 4.5"),
    ("poseidon", {"t": 8},
     r"t=8 has at least 2\^8 ladder elements; the cap is 128"),
    ("poseidon", {"ghosts": [7, 20]},
     "poseidon has 168 ladder elements; the cap is 128"),
    ("lstr(1,G)", {"q12": 1.5},
     "parameter 'q12' must be a scalar string or an integer, got 1.5"),
    ("lstr(1,G)", {"q12": True},
     "parameter 'q12' must be a scalar string or an integer, got True"),
    ("lstr(omega,1)", {"q12": [1]},
     r"parameter 'q12' must be a scalar string or an integer, got \[1\]"),
    ("cyc1", {"q12": "w"}, "parameter 'q12': cannot read 'w' over the "
     r"cyclotomic ring of order 1: unknown name 'w' \(at position 0\)"),
    ("lstr(1,G)", {"q12": "0"}, "parameter 'q12' must be nonzero, got '0'"),
    ("point", {"label": 1.5},
     "parameter 'label' must be a scalar string or an integer, got 1.5"),
    ("point", {"label": "z+"}, "parameter 'label': cannot read 'z\\+'"),
    ("point", {"order": 0}, r"parameter 'order' must be in 1\.\.1024, got 0"),
    ("point", {"order": -3}, "parameter 'order' must be in 1..1024, got -3"),
    ("point", {"order": 2000},
     "parameter 'order' must be in 1..1024, got 2000"),
    ("eny_plus", {"q": True},
     "parameter 'q' must be a scalar string or an integer, got True"),
    ("poseidon", {"q": {"1,2": [1]}},
     r"parameter 'q' must be a scalar string or an integer, got \[1\]"),
], ids=["G-float", "G-bool", "theta", "t", "ghosts", "signs", "ghosts-int",
        "order", "r", "t-over-cap", "ghosts-over-cap", "q12-float",
        "q12-bool", "q12-list", "q12-name", "q12-zero", "label-float",
        "label-syntax", "order-0", "order-negative", "order-over-cap",
        "eny-q-bool", "poseidon-q-list"])
def test_bad_parameter_value_raises(name, params, message):
    """A non-integer where an integer is read, a scalar parameter that is
    not a nonzero scalar string or integer, and a poseidon ladder above its
    cap, are refused rather than truncated or built; the error names the
    key."""
    with pytest.raises(catalog.BadParams, match=message):
        catalog.instantiate(name, params)


@pytest.mark.parametrize("items, message", [
    ([], "nothing to compose"),
    ([("poseidon", {}), ("lstr(1,G)", {})],
     "'poseidon' is not a single-block component entry"),
    ([("lstr(1,G)", {}), ("lstr_-(1,G)", {})], "component block signs differ"),
], ids=["empty", "not-a-component", "signs-differ"])
def test_compose_rejects_bad_items(items, message):
    with pytest.raises(catalog.IncompatibleComponents) as err:
        catalog.compose(items)
    assert str(err.value) == message


def test_instantiate_refers_compositions_to_compose():
    with pytest.raises(catalog.BadParams,
                       match="use catalog.compose for compositions"):
        catalog.instantiate("compose")


def test_compose_rejects_unknown_parameter_key():
    with pytest.raises(catalog.BadParams,
                       match=r"'H' for lstr\(-1,G\) \(known: G, q12\)"):
        catalog.compose([("lstr(1,G)", {"G": 1}), ("lstr(-1,G)", {"H": 1})])


def test_lookup_roundtrip():
    for name, params in [("lstr(1,G)", {"G": 1}), ("cyc1", {}),
                         ("lstr(A(1|0)2;omega)", {})]:
        spec, pres = entry_instance(name, params)
        from gknichols.flourished import build_flourished
        found = catalog.lookup(build_flourished(spec))
        assert any(n == name for n, _ in found), (name, found)


def _agreement_specs():
    """The blocks-plus-points catalog entries, random specs over Q(zeta_12),
    +-1 points on one and on several blocks, unattached points of orders 6,
    4 and 3, and a diagonal braiding."""
    for name, params, _ in ENTRY_CASES:
        spec, _ = entry_instance(name, params)
        if isinstance(spec, BraidedSpaceSpec):
            yield spec
    ring = ScalarRing(12)
    for seed in range(1, 7):
        rng = random.Random(seed)
        for _ in range(40):
            yield _random_spec(ring, rng)
    for signs, label, avals in [
            (["1"], "1", ["-1"]), (["1"], "-1", ["-1/2"]),
            (["-1"], "1", ["2"]), (["-1"], "-1", ["1"]),
            (["1", "1"], "1", ["-1/2", "-1/2"]),
            (["1", "-1"], "-1", ["-1/2", "1"]),
            (["-1", "-1"], "1", ["1", "2"]),
            (["-1", "1", "-1"], "-1", ["1", "-1", "1"])]:
        t = len(signs)
        diag = signs + [label]
        q = [[diag[i] if i == j else "1" for j in range(t + 1)]
             for i in range(t + 1)]
        yield BraidedSpaceSpec(ring, [(s, 2) for s in signs], [label], q,
                               {(t + 1, k + 1): a for k, a in enumerate(avals)})
    for power in (2, 3, 4):
        label = print_scalar(ring.zeta(power))
        yield BraidedSpaceSpec(ring, [("1", 2)], [label],
                               [["1", "1"], ["1", label]])
    # a diagonal braiding: no block, two unattached points
    yield BraidedSpaceSpec(ScalarRing(3), [], ["z", "1"],
                           [["z", "1"], ["1", "1"]])


def test_lookup_agrees_with_classify():
    """Each looked-up entry, instantiated, has the component's GK (less 2 per
    block it carries) and the component's point labels."""
    checked = set()
    for spec in _agreement_specs():
        verdict = classify(spec)
        if not isinstance(verdict, FiniteGK):
            continue
        found = catalog.lookup(build_flourished(spec))
        assert len(found) == spec.t + len(verdict.decomposition)
        for (comp, _, gk), (name, params) in zip(verdict.decomposition,
                                                 found[spec.t:]):
            entry_spec, pres = catalog.instantiate(name, params)
            assert pres.gk - 2 * entry_spec.t == gk, (name, params)
            labels = [print_scalar(entry_spec.point_label(j))
                      for j in range(entry_spec.t + 1, entry_spec.theta + 1)]
            assert labels == [print_scalar(spec.point_label(j))
                              for j in comp], (name, params)
            checked.add(name)
    # every one-block component entry, the poseidon entry and the point
    assert checked == {name for name, _, _ in ENTRY_CASES} - {
        "jordan", "super_jordan", "eny_plus", "eny_minus", "eny_star"} | {
        "point"}


@pytest.mark.parametrize("items, theta, gk", [
    ([("lstr(1,G)", {"G": 1}), ("lstr(-1,G)", {"G": 1})], 3, 4),
    ([("lstr(1,G)", {"G": 1}), ("lstr(1,G)", {"G": 1, "q12": 2})], 3, 6),
    ([("lstr(1,G)", {"G": 1}), ("lstr(omega,1)", {})], 3, 4),
    ([("lstr(1,G)", {"G": 1}), ("lstr(A(1|0)3;omega)", {})], 4, 4),
    ([("lstr(A(1|0)1;r)", {"r": 3}), ("lstr(A(1|0)1;r)", {"r": 4})], 5, 2),
    ([("lstr(omega,1)", {}), ("point", {"label": "z", "order": 4})], 3, 2),
], ids=["plus-minus", "second-q12", "second-omega", "second-a10-3",
        "orders-3-4", "omega-and-i"])
def test_compose_two_components(items, theta, gk):
    """Each component reads the q-data of its own first point, and its
    roots of unity keep their orders in the composed ring."""
    spec, pres = catalog.compose(items)
    assert isinstance(spec, BraidedSpaceSpec)
    # one shared block, the components' points after it
    assert spec.t == 1 and spec.theta == theta
    verdict = classify(spec)
    assert isinstance(verdict, FiniteGK)
    assert verdict.gk == pres.gk == gk
    from gknichols import verify_presentation
    report = verify_presentation(pres, compute_truncation(spec, 4))
    assert report["pass"], report
    # above degree 1 membership is decided on Z^theta-bounded truncations;
    # the degree-24 ztt123^6 of lstr(A(1|0)3;omega) reads no q-data and
    # takes over a minute there, so relations above degree 9 are left out
    trunc = compute_truncation(spec, 1)
    for rel in pres.relations:
        if expression_degree(rel, spec, pres.macros) > 9:
            continue
        zero, _ = is_zero_in_nichols(parse_element(rel, spec, pres.macros),
                                     trunc)
        assert zero, rel


def test_compose_keeps_each_component_params():
    """A composition's params name each component with its own params, so
    compositions that differ only in a component's parameter tell apart."""
    from gknichols.cli import _presentation_json
    a10 = "lstr(A(1|0)1;r)"
    pairs = [(3, 4), (4, 3), (3, 3), (4, 4)]
    shown = []
    for r1, r2 in pairs:
        _, pres = catalog.compose([(a10, {"r": r1}), (a10, {"r": r2})])
        assert pres.params == {"entries": [
            {"name": a10, "params": {"r": r1}},
            {"name": a10, "params": {"r": r2}}]}
        shown.append(json.dumps(_presentation_json(pres)))
    assert len(set(shown)) == len(pairs)


def test_compose_single_item_passthrough():
    spec, pres = catalog.compose([("jordan", {})])
    direct_spec, direct_pres = entry_instance("jordan")
    assert pres.relations == direct_pres.relations
    assert spec.t == direct_spec.t


def test_compose_rejects_mild_components():
    with pytest.raises(catalog.CatalogError):
        catalog.compose([("cyc1", {}), ("lstr(1,G)", {"G": 1})])


_GOLDEN = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "record", _GOLDEN["entries"] + _GOLDEN["compositions"],
    ids=lambda r: r["name"] + json.dumps(r["params"]) if "name" in r
    else "compose" + json.dumps(r["items"]))
def test_catalog_matches_golden(record):
    """Presentation and spec digests and the lookup of every catalog build."""
    if "name" in record:
        assert summarise_entry(record["name"], record["params"]) == record
    else:
        assert summarise_composition(record["items"]) == record
