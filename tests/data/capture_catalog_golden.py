"""Capture the catalog golden: digests of every built entry and composition.

Each record of ``catalog_golden.json`` pins one catalog build:
  - the sha256 of the presentation JSON that ``gknichols catalog show``
    prints (``cli._presentation_json``, serialised as on stdout, so key
    order counts);
  - the sha256 of ``spec_to_json(spec)`` for a ``BraidedSpaceSpec`` (null
    for the pale ``eny_*`` entries);
  - ``catalog.lookup`` of the spec's flourished graph as a list of
    ``[entry name, params]`` pairs (null for pale specs).

The entries are ``test_catalog.ENTRY_CASES`` plus ``EXTRA_CASES`` (points,
longer chains, an omega far point, a nontrivial ``q12``); the compositions
are listed in ``COMPOSITIONS``.

Run from the repository root to re-pin the fixture:

    PYTHONPATH=src:. python tests/data/capture_catalog_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from gknichols import BraidedSpaceSpec, catalog, spec_to_json
from gknichols.cli import _presentation_json
from gknichols.flourished import build_flourished

FIXTURE = Path(__file__).with_name("catalog_golden.json")

EXTRA_CASES = [
    ("point", {"label": -1}), ("point", {"label": "z", "order": 5}),
    ("lstr(A_theta-1)", {"theta": 4}), ("lstr(A_theta-1)", {"theta": 5}),
    ("lstr(A_theta-1)", {"theta": 6}), ("lstr(A(1|0)1;r)", {"r": 3}),
    ("lstr(1,G)", {"G": 1, "q12": 2}), ("cyc1", {"q12": 3}),
]

COMPOSITIONS = [
    [["lstr(1,G)", {"G": 1}], ["lstr(-1,G)", {"G": 1}]],
    [["lstr(A_theta-1)", {"theta": 4}], ["lstr(1,G)", {"G": 1}],
     ["point", {"label": -1}]],
    [["lstr(A(1|0)1;r)", {"r": "generic"}], ["lstr(A(1|0)1;r)", {"r": 4}]],
]


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def _lookup(spec):
    if not isinstance(spec, BraidedSpaceSpec):
        return None
    found = catalog.lookup(build_flourished(spec))
    return json.loads(json.dumps([[name, params] for name, params in found]))


def _digests(spec, pres):
    braided = isinstance(spec, BraidedSpaceSpec)
    return {"presentation_sha256": _sha(_presentation_json(pres)),
            "spec_sha256": _sha(spec_to_json(spec)) if braided else None,
            "lookup": _lookup(spec)}


def summarise_entry(name, params):
    return {"name": name, "params": params,
            **_digests(*catalog.instantiate(name, params))}


def summarise_composition(items):
    return {"items": items, **_digests(*catalog.compose(items))}


def main():
    from tests.test_catalog import ENTRY_CASES
    cases = [(name, params) for name, params, _ in ENTRY_CASES] + EXTRA_CASES
    golden = {"entries": [summarise_entry(name, params)
                          for name, params in cases],
              "compositions": [summarise_composition(items)
                               for items in COMPOSITIONS]}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
