"""Capture the truncation goldens: dims, bases and normal forms per spec.

Two fixtures are written, each summarising a truncation per degree n by
  - ``dims[n]``;
  - the sha256 of ``basis[n]`` (one word per line, in engine order);
  - the sha256 of the normal form of *every* word of degree n, taken in lex
    order through ``normal_form_vector``, each printed as its sorted
    ``word:coefficient`` terms.

``truncation_golden.json`` covers every entry of ``catalog.list_entries``
(default parameters) to degree ``DEGREE``.  ``truncation_golden_zeta12.json`` covers ``ZETA12_COUNT``
random block+point specs over Q(zeta_12) (``test_acceptance._random_spec``
drawn from one rng seeded with ``ZETA12_SEED``) to degree ``ZETA12_DEGREE``,
so that cyclotomic coefficients with phi = 4 are pinned too.
Normal forms are unique, so any exact engine must reproduce these digests.

Run from the repository root to re-pin both fixtures:

    PYTHONPATH=src:. python tests/data/capture_truncation_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

from gknichols import ScalarRing, TensorElement, catalog, compute_truncation
from gknichols.scalars import print_scalar
from tests.test_acceptance import _random_spec

DEGREE = 6
ENTRIES = catalog.list_entries()
FIXTURE = Path(__file__).with_name("truncation_golden.json")

ZETA12_DEGREE = 4
ZETA12_SEED = 20261018
ZETA12_COUNT = 10
ZETA12_FIXTURE = Path(__file__).with_name("truncation_golden_zeta12.json")


def _word(w):
    return ".".join(map(str, w))


def summarise_spec(spec, degree):
    trunc = compute_truncation(spec, degree)
    one = spec.ring.one()
    basis_sha, nf_sha = [], []
    for n in range(degree + 1):
        basis_sha.append(hashlib.sha256(
            "\n".join(_word(w) for w in trunc.basis[n]).encode()).hexdigest())
        h = hashlib.sha256()
        for w in product(range(spec.nletters), repeat=n):
            vec = trunc.normal_form_vector(TensorElement(spec, {w: one}), n)
            terms = sorted((u, print_scalar(c)) for u, c in vec.items())
            h.update((_word(w) + "=" + " ".join(
                f"{_word(u)}:{c}" for u, c in terms) + "\n").encode())
        nf_sha.append(h.hexdigest())
    return {"dims": trunc.dims[: degree + 1], "basis_sha256": basis_sha,
            "nf_sha256": nf_sha}


def summarise(name, degree=DEGREE):
    spec, _ = catalog.instantiate(name, {})
    return summarise_spec(spec, degree)


def zeta12_specs():
    """The ``ZETA12_COUNT`` random specs over Q(zeta_12), in capture order."""
    ring = ScalarRing(12)
    rng = random.Random(ZETA12_SEED)
    return [_random_spec(ring, rng) for _ in range(ZETA12_COUNT)]


def main():
    golden = {"degree": DEGREE,
              "entries": {name: summarise(name)
                          for name in ENTRIES}}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    zeta12 = {"degree": ZETA12_DEGREE, "seed": ZETA12_SEED,
              "specs": [summarise_spec(spec, ZETA12_DEGREE)
                        for spec in zeta12_specs()]}
    ZETA12_FIXTURE.write_text(json.dumps(zeta12, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {ZETA12_FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
