"""Sparse-vector kernels: acc += coeff * vec on dicts key -> nonzero value.

``ScalarRing`` picks its ``RingOps.axpy`` here once, when it is built:
:func:`rational_axpy` over Q (phi(N) = 1, no parameters), with the
rational arithmetic of ``scalars`` inlined, and :func:`axpy` bound to the
ring's ``add``, ``mul`` and ``is_zero`` on every other ring and on
``Scalar`` values.  Both leave ``acc`` with the keys, values and insertion
order of ``freealgebra.add_term`` applied entry by entry, zero sums
dropped.  They live apart from ``scalars`` so that the largest module
compiles no larger.
"""

from math import gcd as _igcd


def rational_axpy(acc, vec, coeff):
    """``axpy`` over Q, on the payloads ((n,), d) of ``scalars``: acc +=
    coeff * vec (coeff None means 1), with the products, sums and zero
    tests of ``scalars._rat_mul``, ``_rat_add`` and ``_rat_is_zero``
    inlined; a value that nothing changes is stored as it is."""
    get = acc.get
    if coeff == ((1,), 1):
        coeff = None
    elif coeff is not None:
        (c,), f = coeff
    for k, v in vec.items():
        (y,), e = v
        if coeff is not None:
            y, e = y * c, e * f
            if e != 1:
                g = _igcd(y, e)
                if g != 1:
                    y, e = y // g, e // g
        cur = get(k)
        if cur is None:
            acc[k] = v if coeff is None else ((y,), e)
            continue
        (x,), d = cur
        if d == e:
            n = x + y
            if d == 1:
                if n:
                    acc[k] = (n,), 1
                else:
                    del acc[k]
                continue
        else:
            n, d = x * e + y * d, d * e
        if n:
            g = _igcd(n, d)
            acc[k] = ((n // g,), d // g) if g != 1 else ((n,), d)
        else:
            del acc[k]


def axpy(add, mul, is_zero, acc, vec, coeff):
    """acc += coeff * vec (coeff None means 1), dropping a zero sum, by a
    ring's ``add``, ``mul`` and ``is_zero``: a ring's ``axpy`` binds them
    with ``partial``, which pickles."""
    get = acc.get
    for k, v in vec.items():
        if coeff is not None:
            v = mul(v, coeff)
        cur = get(k)
        if cur is None:
            acc[k] = v
        else:
            s = add(cur, v)
            if is_zero(s):
                del acc[k]
            else:
                acc[k] = s
