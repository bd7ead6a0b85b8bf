"""Capture the truncation golden: dims, bases and normal forms per catalog entry.

For every named catalog entry (default parameters; ``compose`` builds
composites and is skipped) the truncation to degree
``DEGREE`` is summarised per degree n by
  - ``dims[n]``;
  - the sha256 of ``basis[n]`` (one word per line, in engine order);
  - the sha256 of the normal form of *every* word of degree n, taken in lex
    order through ``normal_form_vector``, each printed as its sorted
    ``word:coefficient`` terms.
Normal forms are unique, so any exact engine must reproduce these digests.

Run from the repository root to re-pin the fixture:

    PYTHONPATH=src python tests/data/capture_truncation_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

from gknichols import TensorElement, catalog, compute_truncation
from gknichols.scalars import print_scalar

DEGREE = 6
ENTRIES = [n for n in catalog.list_entries() if n != "compose"]
FIXTURE = Path(__file__).with_name("truncation_golden.json")


def _word(w):
    return ".".join(map(str, w))


def summarise(name, degree=DEGREE):
    spec, _ = catalog.instantiate(name, {})
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


def main():
    golden = {"degree": DEGREE,
              "entries": {name: summarise(name)
                          for name in ENTRIES}}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
