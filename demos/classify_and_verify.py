"""Walkthrough: build a braided vector space, classify it, and verify the
catalogued presentation of its Nichols algebra degree by degree."""

from gknichols import (BraidedSpaceSpec, ScalarRing, classify,
                       compute_truncation, verify_presentation)
from gknichols import catalog


def main():
    # A Jordan block (epsilon = 1, length 2) together with one point of
    # label 1, attached with ghost 1 (a = -1/2).
    ring = ScalarRing(1)
    spec = BraidedSpaceSpec(ring, [("1", 2)], ["1"],
                            [["1", "1"], ["1", "1"]], {(2, 1): "-1/2"})
    print("spec:", spec)

    verdict = classify(spec)
    print("verdict:", verdict)
    print("GK dimension:", verdict.gk)
    for comp, entry, gk in verdict.decomposition:
        print(f"  component {comp}: {entry} (contributes {gk})")

    # The same braided space is the smallest member of the lstr(1,G) family.
    name, params = "lstr(1,G)", {"G": 1}
    cat_spec, pres = catalog.instantiate(name, params)
    print(f"\ncatalog entry {name} {params}: {len(pres.relations)} relations,"
          f" {len(pres.pbw)} PBW generators, GK {pres.gk}")

    trunc = compute_truncation(cat_spec, 6)
    report = verify_presentation(pres, trunc)
    print("verification pass:", report["pass"])
    print("graded dims  :", report["dims"])
    print("PBW expansion:", report["pbw_dims"])

    # The truncation exposes the graded ideal as well.
    print("ideal dims   :", trunc.ideal_dims[:6])


if __name__ == "__main__":
    main()
