"""Sparse-vector kernels: acc += coeff * vec on dicts key -> nonzero value.

``ScalarRing`` picks its ``RingOps.axpy`` here once, when it is built:
:func:`rational_axpy` over Q (phi(N) = 1, no parameters), with the
rational arithmetic of ``scalars`` inlined, and :func:`axpy` bound to the
ring's ``add``, ``mul`` and ``is_zero`` on every other ring and on
``Scalar`` values.  Both leave ``acc`` with the keys, values and insertion
order of ``freealgebra.add_term`` applied entry by entry, zero sums
dropped.  They live apart from ``scalars`` so that the largest module
compiles no larger.

A rational's payload ``((n,), d)`` is immutable, so one object serves every
occurrence of a small value (hash-consing): the rational kernels here and in
``scalars`` return the payload of n/d from ``SMALL`` when |n| <= 64 and
d <= 16, and build a new one only outside that range.  The normal forms of a
truncation over Q hold a few dozen values in thousands of entries, so this
keeps them from holding a pair of tuples per entry.  Values are unchanged;
no code reads the identity of a payload.
"""

from math import gcd as _igcd

# SMALL[129 * (d - 1) + n + 64] is the payload of n/d in lowest terms for
# |n| <= 64 and d <= 16: the integers from the start, a fraction once made
SMALL = [((n,), 1) for n in range(-64, 65)] + [None] * (129 * 15)


def canon(n, d):
    """The payload of n/d in lowest terms (d > 0), from ``SMALL`` when it
    is in range."""
    g = _igcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    if d > 16 or not -64 <= n <= 64:
        return (n,), d
    i = 129 * d + n - 65
    p = SMALL[i]
    if p is None:
        p = SMALL[i] = (n,), d
    return p


def rational_axpy(acc, vec, coeff):
    """``axpy`` over Q, on the payloads ((n,), d) of ``scalars``: acc +=
    coeff * vec (coeff None means 1), with the products, sums and zero
    tests of ``scalars._rat_mul``, ``_rat_add`` and ``_rat_is_zero``
    inlined; a value that nothing changes is stored as it is, and every
    other one comes from ``SMALL`` when it is in range."""
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
                v = canon(y, e)
                (y,), e = v
            elif -64 <= y <= 64:
                v = SMALL[y + 64]
            else:
                v = (y,), 1
        cur = get(k)
        if cur is None:
            acc[k] = v
            continue
        (x,), d = cur
        if d == e:
            n = x + y
            if d == 1:
                if not n:
                    del acc[k]
                elif -64 <= n <= 64:
                    acc[k] = SMALL[n + 64]
                else:
                    acc[k] = (n,), 1
                continue
        else:
            n, d = x * e + y * d, d * e
        if n:
            acc[k] = canon(n, d)
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
