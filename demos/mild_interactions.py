"""Walkthrough: the two mild-interaction families and their finite quotients.

A - block with a mild -1 point (cyc1) has a Nichols algebra that factors as
the super Jordan plane times a 16-dimensional coinvariant algebra.  Adding a
second -1 point connected by a -1 edge (cyc2) raises the GK dimension to 3;
its degree-6 identity produces one extra PBW generator, the bracket
[x1123, x1h2].
"""

from gknichols import (classify, is_zero_in_nichols, parse_element,
                       compute_truncation, verify_presentation)
from gknichols import catalog


def main():
    spec1, pres1 = catalog.instantiate("cyc1", {})
    print("cyc1 verdict:", classify(spec1))
    report = verify_presentation(pres1, compute_truncation(spec1, 7))
    print("cyc1 verification pass:", report["pass"])
    print("cyc1 dims:", report["dims"])
    kgens = [(l, h) for l, _, h in pres1.pbw if l not in ("x1", "x1h", "x21")]
    dim_k = 1
    for _, h in kgens:
        dim_k *= h
    print("coinvariant generators:", kgens, "-> dim K =", dim_k)

    spec2, pres2 = catalog.instantiate("cyc2", {})
    print("\ncyc2 verdict:", classify(spec2))
    trunc = compute_truncation(spec2, 6)
    report = verify_presentation(pres2, trunc)
    print("cyc2 verification pass:", report["pass"])
    print("cyc2 dims:", report["dims"])

    # the degree-6 identity behind the extra PBW generator
    lhs = "[x1h, [x1h2, x123]] - x1h2 x1123 - x1123 x1h2"
    e = parse_element(lhs, spec2, pres2.macros)
    zero, _ = is_zero_in_nichols(e, trunc)
    print("degree-6 identity holds:", zero)
    extra = parse_element("[x1123, x1h2]", spec2, pres2.macros)
    zero, _ = is_zero_in_nichols(extra, trunc)
    print("extra generator [x1123, x1h2] nonzero:", not zero)


if __name__ == "__main__":
    main()
