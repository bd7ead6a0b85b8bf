"""Named presentations of the finite-GK Nichols algebras.

Every entry carries a spec builder (producing concrete scalars in a suitable
cyclotomic ring), the defining relations as parseable strings with a macro
table, PBW generators with degrees and heights, and a domain flag.  The GK
dimension is not stated: it is the number of PBW generators of infinite
height (``Presentation.gk``).  An entry over one block is a list of
components.  A component states its point labels, its q-data, the ghost of
its first point (0 when unattached) and a ``build`` that returns the
component's relations, macros and PBW generators as ``(label, height)``
pairs; the a-value and the z-ladder bound follow from the block sign and the
ghost (``_attachment``).  One assembler, ``_assemble``, turns a block sign
and its components into the spec and the presentation: the Jordan and super
Jordan planes have no component, the single-component entries have one, and
a composition has several, for which it adds the cross q-commutation family.

Each entry is one declaration in the registry at the end of the module.  A
single-component entry is ``_single(name, make, **defaults)``: the keys of
``defaults`` are the entry's parameter keys, and ``make`` gets the
parameters merged over them as keywords, for ``instantiate`` and
``compose`` alike.
"""

import re
from functools import partial
from math import lcm, prod

from .scalars import MAX_CYCLOTOMIC_ORDER, GKNicholsError, ScalarRing, \
    parse_scalar
from .braidings import (BraidedSpaceSpec, PaleBlockPointSpec, SpecError,
                        _index_pair)
from .freealgebra import expression_degree
from .nichols import Presentation


class CatalogError(GKNicholsError):
    pass


class BadParams(CatalogError):
    pass


class IncompatibleComponents(CatalogError):
    pass


INF = None  # height sentinel: no power of the generator vanishes


def _block(k, eps, w):
    """Relations, macros and PBW generators of the block ``xk``, ``xkh`` of
    sign ``eps``; ``w`` names the degree-2 generator of a super Jordan
    block."""
    x, xh = f"x{k}", f"x{k}h"
    if eps == 1:
        return ([f"{xh} {x} - {x} {xh} + {{1/2}} {x} {x}"], {},
                [(x, 1, INF), (xh, 1, INF)])
    return ([f"{x} {x}", f"{xh} {w} - {w} {xh} - {x} {w}"],
            {w: f"{xh} {x} + {x} {xh}"},
            [(x, 1, 2), (w, 2, INF), (xh, 1, INF)])


def _attachment(eps, ghost):
    """(a-value, z-ladder bound) of a point of ghost ``ghost`` on a block of
    sign ``eps``: a = -G/2 and bound G on a Jordan block, a = G and bound 2G
    on a super Jordan block; ghost 0 is unattached."""
    if not ghost:
        return None, 0
    if eps == 1:
        return f"-{ghost}/2", ghost
    return str(ghost), 2 * ghost


def _integer(key, value):
    """``value`` if it is an int (a bool is not), else BadParams."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParams(f"parameter {key!r} must be an integer, "
                        f"got {value!r}")
    return value


def _scalar(key, value, ring):
    """``value``, a str or an int (a bool is not), read as a nonzero scalar
    of ``ring``; BadParams naming the key and the value otherwise."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise BadParams(f"parameter {key!r} must be a scalar string or an "
                        f"integer, got {value!r}")
    try:
        s = parse_scalar(str(value), ring)
    except GKNicholsError as exc:
        raise BadParams(f"parameter {key!r}: cannot read {value!r} over the "
                        f"cyclotomic ring of order {ring.cyclotomic_order}: "
                        f"{exc}") from exc
    if s.is_zero():
        raise BadParams(f"parameter {key!r} must be nonzero, got {value!r}")
    return s


def _pbw_degrees(spec, macros, entries):
    """Resolve (expr, height) pairs into (label, degree, height) triples."""
    return [(expr, expression_degree(expr, spec, macros), height)
            for expr, height in entries]


def _q(s):
    """Scalar literal for embedding into a relation string."""
    return "{%s}" % s


# ---------------------------------------------------------------------------
# component descriptions (single block + one connected diagonal component)
#
# A component fixes the point labels, the q-tilde edges, the ghost of its
# first point (the others are unattached) and, given the instantiated spec
# plus the global names of its point letters, produces relations, macros and
# the PBW generators of the coinvariant factor K as (label, height) pairs;
# ``_assemble`` resolves their degrees.


class _Component:
    """One component's data; ``build(spec, pts)`` gives its (relations,
    macros, kpbw)."""

    def __init__(self, labels, build, ghost=0, eps=1, ring_order=1,
                 ring_params=(), qmat_pp=None, qmat_bp=None, domain_k=False,
                 mild=False):
        self.labels = labels  # point labels as scalar strings
        self.build = build
        self.ghost = ghost  # ghost of the first point (0: unattached)
        self.eps = eps  # block sign (+1 or -1)
        self.ring_order = ring_order  # cyclotomic order (1 = rational)
        self.ring_params = ring_params  # transcendental parameters
        # (i, j) local -> q_{ij}
        self.qmat_pp = {} if qmat_pp is None else qmat_pp
        self.qmat_bp = qmat_bp  # per point (q_bp, q_pb); None: all 1
        self.domain_k = domain_k
        self.mild = mild


def _assemble(name, eps, comps, params):
    """(spec, Presentation) of one block of sign ``eps`` and its components.

    The components' points follow the block in order.  Components reuse
    macro names (z0, z1, ...), so with more than one each component's are
    qualified ``c{i}_``.  The ring's order M is the lcm of the components'
    orders; a component's scalar texts write ``z`` for its own zeta_N,
    which is zeta_M^(M/N) there.
    """
    order = lcm(*(c.ring_order for c in comps))
    ring = ScalarRing(order, params=tuple(sorted({p for c in comps
                                                  for p in c.ring_params})))
    offsets, labels, qbp, qpp, avals, bounds = [], [], [], [], {}, []
    for c in comps:
        ren = {"z": f"(z^{order // c.ring_order})"} \
            if order > c.ring_order else {}
        a, bound = _attachment(eps, c.ghost)
        if a is not None:
            avals[(2 + len(labels), 1)] = a
        offsets.append(len(labels))
        bounds += [bound] + [0] * (len(c.labels) - 1)
        labels += [_rename(lbl, ren) for lbl in c.labels]
        qbp += [(_rename(qb, ren), _rename(pb, ren))
                for qb, pb in c.qmat_bp or [("1", "1")] * len(c.labels)]
        qpp.append({ij: _rename(val, ren) for ij, val in c.qmat_pp.items()})
    theta = 1 + len(labels)
    qm = [["1"] * theta for _ in range(theta)]
    qm[0][0] = str(eps)
    for j, (qb, pb) in enumerate(qbp, start=1):
        qm[0][j], qm[j][0], qm[j][j] = qb, pb, labels[j - 1]
    for off, edges in zip(offsets, qpp):
        for (i, j), val in edges.items():
            qm[off + i][off + j] = val
    spec = BraidedSpaceSpec(ring, [(eps, 2)], labels, qm, avals)

    rels, macros, pbw = _block(1, eps, "x21")
    for ci, (off, c) in enumerate(zip(offsets, comps)):
        pts = [f"x{2 + off + j}" for j in range(len(c.labels))]
        crels, cmacros, kpbw = c.build(spec, pts)
        ren = {key: f"c{ci}_{key}" for key in cmacros} if len(comps) > 1 \
            else {}
        rels += [_rename(r, ren) for r in crels]
        for key, val in cmacros.items():
            macros[ren.get(key, key)] = _rename(val, ren)
        pbw += _pbw_degrees(
            spec, macros, [(_rename(lbl, ren), h) for lbl, h in kpbw])

    # cross q-commutations: z_{i,m} x_j = q_{1j}^m q_{ij} x_j z_{i,m}
    for ci, (oi, a) in enumerate(zip(offsets, comps)):
        for cj, (oj, b) in enumerate(zip(offsets, comps)):
            if ci == cj:
                continue
            for i in range(2 + oi, 2 + oi + len(a.labels)):
                for j in range(2 + oj, 2 + oj + len(b.labels)):
                    if (bounds[i - 2], ci) > (bounds[j - 2], cj):
                        continue
                    expr = f"x{i}"
                    for m in range(bounds[i - 2] + 1):
                        coeff = spec.q(1, j) ** m * spec.q(i, j)
                        rels.append(
                            f"({expr}) x{j} - {_q(coeff)} x{j} ({expr})")
                        expr = f"[x1h, {expr}]"
    pres = Presentation(
        name, rels, pbw, macros,
        is_domain=(eps == 1 and all(c.domain_k for c in comps)),
        params=dict(params))
    return spec, pres


# -- rank-2 Laistrygonian families ------------------------------------------


def _z_macros(n, target="x2"):
    """z_t = (ad_c x1h)^t target, t = 0..n."""
    macros = {"z0": target}
    for t in range(1, n + 1):
        macros[f"z{t}"] = f"[x1h, z{t - 1}]"
    return macros


def _ghost_one(pts):
    """Relations and macros shared by the components whose first point is a
    -1 point of ghost 1 on a Jordan block: its z-ladder stops at z2, and the
    block commutes with the other points.  ``x1h2`` is the component's macro
    for z1."""
    p = pts[0]
    rels = [f"[{p}, x1]", "z2", f"{p}^2", "x1h2^2"]
    for q in pts[1:]:
        rels += [f"[x1, {q}]", f"[x1h, {q}]"]
    return rels, _z_macros(2, p)


def _lstr_component(eps, point, G, q12):
    G = _integer("G", G)
    if G < 1:
        raise BadParams("ghost must be a positive integer")
    _, bound = _attachment(eps, G)
    order = 3 if point == "omega" else 1
    _scalar("q12", q12, ScalarRing(order))
    label = "z" if point == "omega" else str(point)

    def build(spec, pts):
        j = spec.letter(pts[0]).group
        q = spec.q(1, j)
        qi = q.inverse()
        rels = [f"[{pts[0]}, x1]", f"z{bound + 1}"]
        macros = _z_macros(bound + 1, pts[0])
        kpbw = []
        if eps == 1 and point == 1:
            for t in range(bound):
                rels.append(f"z{t} z{t + 1} - {_q(qi)} z{t + 1} z{t}")
            kpbw = [(f"z{t}", INF) for t in range(bound, -1, -1)]
        elif eps == 1 and point == -1:
            for t in range(bound + 1):
                rels.append(f"z{t}^2")
            kpbw = [(f"z{t}", 2) for t in range(bound, -1, -1)]
        elif eps == 1 and point == "omega":
            macros["z10"] = f"z1 z0 - {_q(q * spec.point_label(j))} z0 z1"
            rels += ["z0^3", "z1^3", "z10^3"]
            kpbw = [("z1", 3), ("z10", 3), ("z0", 3)]
        elif eps == -1 and point == 1:
            rels.append(f"x21 z0 - {_q(q ** 2)} z0 x21")
            for k in range(G):
                rels.append(f"z{2 * k + 1}^2")
                rels.append(f"z{2 * k} z{2 * k + 1} - {_q(qi)} "
                            f"z{2 * k + 1} z{2 * k}")
            kpbw = [(f"z{t}", 2 if t % 2 else INF)
                    for t in range(bound, -1, -1)]
        elif eps == -1 and point == -1:
            rels.append(f"x21 z0 - {_q(q ** 2)} z0 x21")
            for k in range(G + 1):
                rels.append(f"z{2 * k}^2")
            for k in range(1, G + 1):
                rels.append(f"z{2 * k - 1} z{2 * k} + {_q(qi)} "
                            f"z{2 * k} z{2 * k - 1}")
            kpbw = [(f"z{t}", INF if t % 2 else 2)
                    for t in range(bound, -1, -1)]
        else:
            raise BadParams(f"unsupported lstr point label {point!r}")
        return rels, macros, kpbw

    return _Component(
        [label], build, ghost=G, eps=eps, ring_order=order,
        qmat_bp=[(str(q12), _inv_str(q12))],
        domain_k=(eps == 1 and point == 1))


def _inv_str(q12):
    if q12 == 1:
        return "1"
    return f"({q12})^-1"


# -- Cyclops ----------------------------------------------------------------


def _cyc1_component(q12):
    _scalar("q12", q12, ScalarRing(1))

    def build(spec, pts):
        p = pts[0]
        q = spec.q(1, 2)
        macros = {"z0": p, "z1": f"[x1h, {p}]",
                  "f0": f"[x1, {p}]", "f1": "[x1, z1]"}
        rels = [
            f"x1h f0 + {_q(q)} f0 x1h + f1",
            f"x1h z1 + {_q(q)} z1 x1h - {{1/2}} f1 - {_q(q)} f0 x1h",
            f"x1h f1 - {_q(q)} f1 x1h",
            "z0^2", "f0^2", "z1^2", "f1^2",
        ]
        kpbw = [("f1", 2), ("f0", 2), ("z1", 2), ("z0", 2)]
        return rels, macros, kpbw

    return _Component(
        ["-1"], build, ghost=1, eps=-1,
        qmat_bp=[(str(q12), f"-({_inv_str(q12)})")], mild=True)


def _cyc2_component():
    def build(spec, pts):
        p2, p3 = pts
        q12 = spec.q(1, 2)
        q13 = spec.q(1, 3)
        macros = {
            "x12": f"[x1, {p2}]",
            "x1h2": f"[x1h, {p2}]",
            "x112": "[x1, x1h2]",
            "x23": f"[{p2}, {p3}]",
            "x123": "[x1, x23]",
            "x1h23": "[x1h, x23]",
            "x1123": "[x1, x1h23]",
        }
        rels = [
            f"x1h x12 + {_q(q12)} x12 x1h + x112",
            f"x1h x1h2 + {_q(q12)} x1h2 x1h - {{1/2}} x112 "
            f"- {_q(q12)} x12 x1h",
            f"x1h x112 - {_q(q12)} x112 x1h",
            f"{p2}^2", "x12^2", "x1h2^2", "x112^2",
            f"[x123, {p2}]",
            "[x1h2, x123]^2",
            f"[x1, [x1h23, {p2}]] - {_q(q12 * q13)} x123 x12",
            "x123 x1h23 + x1h23 x123",
            f"{p3}^2", "x123^2", "x23^2", "x1h23^2", "x1123^2",
            f"[x1, {p3}]", f"[x1h, {p3}]",
            f"[x1, [x1h2, x123]] - {_q(2 * q12)} x12 x1123",
            "[x1h, [x1h2, x123]] - x1h2 x1123 - x1123 x1h2",
        ]
        kpbw = [("x12", 2), ("x112", 2), ("x1123", 2),
                ("[x123, x1h2]", 2), ("x123", 2), ("x1h2", 2),
                ("[x1123, x1h2]", 2), ("x1h23", 2),
                (f"[x1h23, {p2}]", INF),
                (p2, 2), ("x23", 2), (p3, 2)]
        return rels, macros, kpbw

    return _Component(
        ["-1", "-1"], build, ghost=1, eps=-1,
        qmat_pp={(1, 2): "-1", (2, 1): "1"},
        qmat_bp=[("1", "-1"), ("1", "1")], mild=True)


# -- one block and several points: the A/D families -------------------------


def _a10_1_component(r):
    """-1 point with ghost 1 plus an r-labelled point, edge r^{-1}."""
    generic = (r == "generic")
    if generic:
        order, params, rlabel, N = 1, ("q",), "q", None
    else:
        N = _integer("r", r)
        if N < 3:
            raise BadParams("root-of-unity order must be >= 3")
        order, params, rlabel = N, (), "z"

    def build(spec, pts):
        p2, p3 = pts
        rels, macros = _ghost_one(pts)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "ztt12": "[x1h, x23]",
            "ztt123": "[x1h2, x23]",
        })
        rels.append(f"[{p3}, [{p3}, {p2}]]")
        if not generic:
            rels += [f"{p3}^{N}", f"ztt123^{N}"]
        kpbw = [("x1h2", 2), ("ztt12", 2), ("ztt123", N),
                (p3, N), ("x23", 2), (p2, 2)]
        return rels, macros, kpbw

    return _Component(
        ["-1", rlabel], build, ghost=1, ring_order=order, ring_params=params,
        qmat_pp={(1, 2): f"({rlabel})^-1", (2, 1): "1"})


def _a10_2_component():
    def build(spec, pts):
        p2, p3 = pts
        rels, macros = _ghost_one(pts)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "x32": f"[{p3}, {p2}]",
            "ztt12": "[x1h, x23]",
            "ztt123": "[x1h2, x23]",
        })
        rels += [f"{p3}^2", "x23^3",
                 "ztt12^3", "ztt123^6", f"[ztt123, {p3}]^3"]
        kpbw = [("x1h2", 2), ("ztt12", 3),
                ("[ztt12, [ztt12, ztt123]]", 2),
                ("[ztt12, ztt123]", 2), ("ztt123", 6),
                (f"[ztt123, {p3}]", 3), ("[ztt123, x32]", 2),
                (p3, 2), ("x32", 3), (p2, 2)]
        return rels, macros, kpbw

    return _Component(["-1", "-1"], build, ghost=1, ring_order=3,
                      qmat_pp={(1, 2): "z", (2, 1): "1"})


def _a10_3_component():
    def build(spec, pts):
        p2, p3 = pts
        j = spec.letter(p2).group
        macros = _z_macros(2, p2)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "x32": f"[{p3}, {p2}]",
            "x1h23": "[x1h, x23]",
            "ztt12": "x1h23",
            "ztt123": "[x1h2, x23]",
            "ztt13": f"[x1h2, {p2}]",
            "z10": f"z1 z0 - {_q(spec.q(1, j) * spec.point_label(j))} z0 z1",
        })
        rels = [f"[{p2}, x1]", "z2", f"{p2}^3",
                "z1^3", "z10^3",
                f"[x1, {p3}]", f"[x1h, {p3}]",
                f"{p3}^2", f"[{p2}, [{p2}, {p3}]]",
                "x1h2 x1h23 - x1h23 x1h2",
                "ztt123^6"]
        kpbw = [("x1h2", 3), ("ztt12", 2), ("[ztt12, ztt13]", 2),
                ("ztt123", 6), ("[ztt123, ztt13]", 2),
                ("[ztt13, x32]", 2), ("ztt13", 3),
                (p3, 2), ("x32", 2), (p2, 3)]
        return rels, macros, kpbw

    return _Component(["z", "-1"], build, ghost=1, ring_order=3,
                      qmat_pp={(1, 2): "z^2", (2, 1): "1"})


def _a20_1_component():
    def build(spec, pts):
        p2, p3, p4 = pts
        rels, macros = _ghost_one(pts)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "x32": f"[{p3}, {p2}]",
            "x24": f"[{p2}, {p4}]",
            "x34": f"[{p3}, {p4}]",
            "x234": f"[{p2}, x34]",
            "x324": f"[{p3}, x24]",
            "x1h23": "[x1h, x23]",
            "x1h234": "[x1h, x234]",
            "ztt12": "x1h23",
            "ztt123": "[x1h2, x23]",
            "ztt1234": "[x1h23, x24]",
        })
        rels += ["x24",
                 f"[{p3}, [{p3}, {p2}]]", f"[{p3}, [{p3}, {p4}]]",
                 f"[{p4}, [{p4}, {p3}]]",
                 f"{p3}^3", "x34^3", f"{p4}^3",
                 f"[x1h23, {p2}]^3",
                 f"[[x1h23, {p2}], ztt1234]^3",
                 "ztt1234^3",
                 f"[[x1h23, {p2}], [ztt1234, {p2}]]^3",
                 f"[ztt1234, {p2}]^3",
                 f"[ztt1234, [ztt1234, {p2}]]^3"]
        kpbw = [("x1h2", 2), ("ztt12", 2), ("[ztt12, ztt1234]", 2),
                ("ztt123", 3), ("[ztt123, ztt1234]", 3),
                (f"[ztt123, [ztt1234, {p3}]]", 3), ("ztt1234", 3),
                (f"[ztt1234, [ztt1234, {p3}]]", 3),
                (f"[ztt1234, {p3}]", 3), ("[ztt1234, x32]", 2),
                ("x1h234", 2), (p3, 3), ("x32", 2), ("x324", 2),
                ("x34", 3), (p2, 2), (p4, 3)]
        return rels, macros, kpbw

    return _Component(
        ["-1", "z", "z"], build, ghost=1, ring_order=3,
        qmat_pp={(1, 2): "z^2", (2, 1): "1",
                 (2, 3): "z^2", (3, 2): "1",
                 (1, 3): "1", (3, 1): "1"})


def _d21_component():
    def build(spec, pts):
        p2, p3, p4 = pts
        rels, macros = _ghost_one(pts)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "x32": f"[{p3}, {p2}]",
            "x24": f"[{p2}, {p4}]",
            "x34": f"[{p3}, {p4}]",
            "x234": f"[{p2}, x34]",
            "x324": f"[{p3}, x24]",
            "x334": f"[{p3}, x34]",
            "x1h23": "[x1h, x23]",
            "x1h234": "[x1h, x234]",
            "ztt12": "x1h23",
            "ztt123": "[x1h2, x23]",
            "ztt1234": "[x1h23, x24]",
        })
        rels += ["x24",
                 f"[{p3}, [{p3}, {p2}]]", f"[{p4}, [{p4}, {p3}]]",
                 f"[[x234, {p3}], {p3}]",
                 f"{p3}^3", "x34^3", "x334^3", f"{p4}^3",
                 f"[x1h23, {p2}]^3",
                 f"[[ztt1234, {p3}], {p3}]^3",
                 "ztt1234^3",
                 "[ztt1234, x334]^3"]
        kpbw = [("x1h2", 2), ("ztt12", 2), ("ztt123", 3),
                ("ztt1234", 3), (f"[ztt1234, {p3}]", 3),
                (f"[[ztt1234, {p3}], {p3}]", 3),
                ("[ztt1234, x334]", 3),
                ("x1h234", 2), (f"[x1h234, {p3}]", 2),
                (p3, 3), ("x32", 2), ("x324", 2),
                (f"[x324, {p3}]", 2), ("x334", 3), ("x34", 3),
                (p2, 2), (p4, 3)]
        return rels, macros, kpbw

    return _Component(
        ["-1", "z", "z^2"], build, ghost=1, ring_order=3,
        qmat_pp={(1, 2): "z^2", (2, 1): "1",
                 (2, 3): "z", (3, 2): "1",
                 (1, 3): "1", (3, 1): "1"})


def _a2_2_component():
    """Two -1 points in an A_2 chain, ghost 2 on the attached one."""
    def build(spec, pts):
        p2, p3 = pts
        macros = _z_macros(3, p2)
        macros.update({
            "x1h2": "z1",
            "x1h1h2": "z2",
            "x32": f"[{p3}, {p2}]",
            "x1h1h23": f"[x1h1h2, {p3}]",
            "x31h2": f"[{p3}, x1h2]",
        })
        rels = [f"[{p2}, x1]", "z3", f"{p2}^2", "z1^2", "z2^2",
                f"[x1, {p3}]", f"[x1h, {p3}]",
                f"{p3}^2", "x32^2",
                "x1h1h23^2",
                "[x1h1h23, x1h2]^2",
                f"[[x1h1h23, {p2}], x1h2]^2",
                f"[x1h1h23, {p2}]^2",
                "x31h2^2",
                "[x32, x1h2]^2",
                f"[[[x1h1h23, {p2}], x1h2], {p3}]^2"]
        kpbw = [("x1h1h2", 2), ("x1h1h23", 2),
                ("[x1h1h23, x1h2]", 2),
                (f"[[x1h1h23, {p2}], x1h2]", 2),
                (f"[[[x1h1h23, {p2}], x1h2], {p3}]", 2),
                (f"[x1h1h23, {p2}]", 2),
                (p3, 2), ("x31h2", 2), ("[x32, x1h2]", 2),
                ("x32", 2), ("x1h2", 2), (p2, 2)]
        return rels, macros, kpbw

    return _Component(["-1", "-1"], build, ghost=2,
                      qmat_pp={(1, 2): "-1", (2, 1): "1"})


def _simply_laced_positive_roots(adj, n):
    """Positive roots of a simply laced diagram via reflection closure."""
    simples = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for r in frontier:
            for i in range(n):
                pairing = 2 * r[i] - sum(r[j] for j in adj[i])
                s = list(r)
                s[i] -= pairing
                s = tuple(s)
                if s not in seen:
                    seen.add(s)
                    new.append(s)
        frontier = new
        if len(seen) > 4 ** n:
            raise CatalogError("root closure did not terminate")
    return sorted(r for r in seen if all(c >= 0 for c in r) and any(r))


def _a_chain_component(theta):
    """A chain of theta-1 points, all labels -1, ghost 1 on the first."""
    theta = _integer("theta", theta)
    if theta < 3:
        raise BadParams("theta must be >= 3")
    if theta > 6:
        raise BadParams("theta is capped at 6")
    npts = theta - 1

    def seg(pts, i, j):
        # iterated commutator over the point segment i..j (2-based global)
        if i == j:
            return pts[i - 2]
        return f"[{pts[i - 2]}, {seg(pts, i + 1, j)}]"

    def build(spec, pts):
        rels, macros = _ghost_one(pts)
        macros["x1h2"] = "z1"
        for i in range(2, theta + 1):
            for j in range(i, theta + 1):
                if (i, j) != (2, 2):
                    rels.append(f"({seg(pts, i, j)})^2")
        for k in range(3, theta):
            rels.append(f"[{seg(pts, k - 1, k + 1)}, {pts[k - 2]}]")
        for j in range(2, theta + 1):
            rels.append(f"[x1h2, {seg(pts, 2, j)}]^2")
        for ell in range(3, theta + 1):
            macros[f"ya1_{ell}"] = f"[x1h2, {seg(pts, 3, ell)}]"
            rels.append(f"ya1_{ell}^2")
            for k in range(2, ell):
                rels.append(f"[ya1_{ell}, {seg(pts, 2, k)}]^2")
        # PBW generators: one per positive root of the diagram of K^1
        # (x1h2 and x2 both attached to x3, then the chain to x_theta)
        verts = ["x1h2"] + list(pts)       # x1h2, x2, x3, ..., xtheta
        adj = [set() for _ in verts]
        if npts >= 2:
            adj[0].add(2)
            adj[2].add(0)
            adj[1].add(2)
            adj[2].add(1)
            for k in range(2, npts):
                adj[k].add(k + 1)
                adj[k + 1].add(k)
        kpbw = [("*".join(f"{verts[i]}^{c}" if c > 1 else verts[i]
                          for i, c in enumerate(root) if c), 2)
                for root in _simply_laced_positive_roots(adj, len(verts))]
        return rels, macros, kpbw

    return _Component(
        ["-1"] * npts, build, ghost=1,
        qmat_pp={(i, i + 1): "-1" for i in range(1, npts)}
        | {(i + 1, i): "1" for i in range(1, npts)})


def _point_component(label, order):
    """A ghost-0 point disconnected from everything else."""
    order = _integer("order", order)
    if not 1 <= order <= MAX_CYCLOTOMIC_ORDER:
        raise BadParams(f"parameter 'order' must be in "
                        f"1..{MAX_CYCLOTOMIC_ORDER}, got {order}")
    lab = _scalar("label", label, ScalarRing(order))
    height = lab.mult_order()

    def build(spec, pts):
        p = pts[0]
        rels = [f"[{p}, x1]", f"[{p}, x1h]"]
        if height is not None and height > 1:
            rels.append(f"{p}^{height}")
            kpbw = [(p, height)]
        else:
            kpbw = [(p, INF)]
        return rels, {}, kpbw

    return _Component([str(label)], build, ring_order=order,
                      domain_k=lab.is_one())


# ---------------------------------------------------------------------------
# Poseidon and Endymion entries


_MAX_LADDER = 128  # ladder elements s_n of a poseidon presentation


def _poseidon(params):
    t = _integer("t", params.get("t", 2))
    if t < 2:
        raise BadParams("poseidon needs at least two blocks")
    if t >= _MAX_LADDER.bit_length():  # each block at least doubles it
        raise BadParams(f"poseidon with t={t} has at least 2^{t} ladder "
                        f"elements; the cap is {_MAX_LADDER}")
    signs, ghosts = params.get("signs", [1] * t), params.get("ghosts", [1] * t)
    if not all(isinstance(v, (list, tuple)) and len(v) == t
               for v in (signs, ghosts)):
        raise BadParams("signs and ghosts must be lists of length t")
    signs = [_integer("signs", s) for s in signs]
    ghosts = [_integer("ghosts", g) for g in ghosts]
    label = _integer("label", params.get("label", 1))
    if any(s not in (1, -1) for s in signs):
        raise BadParams("block signs must be +-1")
    if label not in (1, -1):
        raise BadParams("poseidon point label must be +-1")
    if any(g < 1 for g in ghosts):
        raise BadParams("ghosts must be positive integers")
    attached = [_attachment(s, g) for s, g in zip(signs, ghosts)]
    bounds = [bound for _, bound in attached]
    count = prod(bound + 1 for bound in bounds)
    if count > _MAX_LADDER:
        raise BadParams(f"poseidon has {count} ladder elements; the cap is "
                        f"{_MAX_LADDER}")
    theta = t + 1
    qoff = _offdiagonal(params.get("q", {}), theta)
    ring = ScalarRing(1)
    one = ring.one()

    def qval(i, j):
        if i == j:
            return ring.from_int(signs[i - 1] if i <= t else label)
        if (i, j) in qoff:
            return _scalar("q", qoff[(i, j)], ring)
        if (j, i) in qoff:
            return _scalar("q", qoff[(j, i)], ring).inverse()
        return one

    qm = [[str(qval(i, j)) for j in range(1, theta + 1)]
          for i in range(1, theta + 1)]
    avals = {(theta, k): a for k, (a, _) in enumerate(attached, start=1)}
    spec = BraidedSpaceSpec(ring, [(s, 2) for s in signs], [str(label)],
                            qm, avals)

    rels, macros, pbw = [], {}, []
    for k, s in enumerate(signs, start=1):
        brels, bmacros, bpbw = _block(k, s, f"w{k}")
        rels += brels
        macros.update(bmacros)
        pbw += bpbw
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            qij = spec.q(i, j)
            for u in (f"x{i}", f"x{i}h"):
                for v in (f"x{j}", f"x{j}h"):
                    rels.append(f"{u} {v} - {_q(qij)} {v} {u}")
    for i in range(1, t + 1):
        rels.append(f"x{i} x{theta} - {_q(spec.q(i, theta))} x{theta} x{i}")

    # the ladder elements s_n = (ad x1h)^{n_1} ... (ad xth)^{n_t} x_theta
    names = {n: "s_" + "_".join(map(str, n)) for n in _boxes(bounds)}
    for n, name in names.items():
        expr = f"x{theta}"
        for k in range(t, 0, -1):
            for _ in range(n[k - 1]):
                expr = f"[x{k}h, {expr}]"
        macros[name] = expr
    for k in range(1, t + 1):
        expr = f"x{theta}"
        for _ in range(bounds[k - 1] + 1):
            expr = f"[x{k}h, {expr}]"
        rels.append(expr)

    def pmn(m, n):
        val = ring.from_int(label)
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                val = val * spec.q(i, j) ** (m[i - 1] * n[j - 1])
            val = val * spec.q(i, theta) ** m[i - 1]
            val = val * spec.q(theta, i) ** n[i - 1]
        return val

    amb = list(names)
    for a, m in enumerate(amb):
        for n in amb[a + 1:]:
            rels.append(f"{names[m]} {names[n]} - {_q(pmn(m, n))} "
                        f"{names[n]} {names[m]}")
    for n, name in names.items():
        # s_n squares to zero when its diagonal braiding is -1
        if label * prod(s ** c for s, c in zip(signs, n)) == -1:
            rels.append(f"{name}^2")
            pbw.append((name, 1 + sum(n), 2))
        else:
            pbw.append((name, 1 + sum(n), INF))
    pres = Presentation(
        "poseidon", rels, pbw, macros,
        is_domain=(all(s == 1 for s in signs) and label == 1),
        params={"t": t, "signs": signs, "ghosts": ghosts, "label": label})
    if qoff:
        pres.params["q"] = {f"{i},{j}": str(v) for (i, j), v in qoff.items()}
    return spec, pres


def _offdiagonal(q, theta):
    """Off-diagonal q entries given as {"i,j": value}, keyed (i, j)."""
    if not isinstance(q, dict):
        raise BadParams("poseidon q must map 'i,j' keys to scalars")
    out = {}
    for key, value in q.items():
        try:
            i, j = _index_pair(key)
        except SpecError:
            raise BadParams(f"poseidon q: bad key {key!r}: expected 'i,j'") \
                from None
        if i == j:
            raise BadParams(f"poseidon q: {key!r} is a diagonal entry "
                            f"(set by signs and label)")
        if not (1 <= i <= theta and 1 <= j <= theta):
            raise BadParams(f"poseidon q: {key!r} is out of range "
                            f"(indices 1..{theta})")
        out[(i, j)] = value
    return out


def _boxes(bounds):
    out = [()]
    for b in bounds:
        out = [n + (c,) for n in out for c in range(b + 1)]
    return sorted(out)


def _eny(kind, params):
    value = params.get("q", "q")
    ring = ScalarRing(1, params=("q",) if value == "q" else ())
    q = _scalar("q", value, ring)
    qi = q.inverse()
    if kind == "eny_star":
        spec = PaleBlockPointSpec(ring, -1, str(q), str(-qi), "-1")
    else:
        q22 = "1" if kind == "eny_plus" else "-1"
        spec = PaleBlockPointSpec(ring, -1, str(q), str(qi), q22)
    base = ["x1 x1", "x2 x2", "x1 x2 + x2 x1"]
    if kind == "eny_plus":
        macros = {"z1": "[x2, x3]"}
        rels = base + ["z1^2",
                       f"x3 z1 - {_q(qi)} z1 x3",
                       f"x1 x3 - {_q(q)} x3 x1"]
        pbw = [("x1", 1, 2), ("x2", 1, 2), ("x3", 1, INF), ("z1", 2, 2)]
    elif kind == "eny_minus":
        macros = {"z1": "[x2, x3]"}
        rels = base + [f"x1 x3 - {_q(q)} x3 x1",
                       "x3 x3",
                       f"x3 z1 + {_q(qi)} z1 x3"]
        pbw = [("x1", 1, 2), ("x2", 1, 2), ("x3", 1, 2), ("z1", 2, INF)]
    else:
        macros = {"x13": "[x1, x3]", "x23": "[x2, x3]",
                  "x213": "[x2, x13]", "w": "[x23, x13]"}
        rels = base + ["x3 x3", "x13^2",
                       f"x2 w - {_q(q ** 2)} w x2 - {_q(q)} x13 x213",
                       "x213^2"]
        pbw = [("x2", 1, 2), ("x23", 2, INF), ("x213", 3, 2),
               ("w", 4, INF), ("x1", 1, 2), ("x13", 2, 2), ("x3", 1, 2)]
    return spec, Presentation(kind, rels, pbw, macros,
                              params={"q": str(value)})


# ---------------------------------------------------------------------------
# the registry


class CatalogEntry:
    def __init__(self, name, builder, keys=(), component=None):
        self.name = name
        self.builder = builder
        self.keys = keys            # the parameter keys the builder reads
        self.component = component  # fn(params) -> _Component, when composable

    def check_keys(self, params):
        unknown = [k for k in params if k not in self.keys]
        if unknown:
            known = ", ".join(self.keys) or "none"
            raise BadParams(
                f"unknown parameter {', '.join(map(repr, unknown))} for "
                f"{self.name} (known: {known})")


_REGISTRY = {}


def _register(name, builder, keys=(), component=None):
    _REGISTRY[name] = CatalogEntry(name, builder, keys, component)


def _single(name, make, **defaults):
    """Register the one-component entry ``name``: its component is
    ``make(**params)``, the parameters merged over ``defaults``, whose keys
    are the entry's keys."""
    def component(params):
        return make(**{**defaults, **params})

    def builder(params):
        comp = component(params)
        return _assemble(name, comp.eps, [comp], params)
    _register(name, builder, tuple(defaults), component)


_register("jordan", partial(_assemble, "jordan", 1, []))
_register("super_jordan", partial(_assemble, "super_jordan", -1, []))
_single("lstr(1,G)", partial(_lstr_component, 1, 1), G=1, q12=1)
_single("lstr(-1,G)", partial(_lstr_component, 1, -1), G=1, q12=1)
_single("lstr_-(1,G)", partial(_lstr_component, -1, 1), G=1, q12=1)
_single("lstr_-(-1,G)", partial(_lstr_component, -1, -1), G=1, q12=1)
_single("lstr(omega,1)", partial(_lstr_component, 1, "omega", 1), q12=1)
_single("cyc1", _cyc1_component, q12=1)
_single("cyc2", _cyc2_component)
_single("lstr(A(1|0)1;r)", _a10_1_component, r=4)
_single("lstr(A(1|0)2;omega)", _a10_2_component)
_single("lstr(A(1|0)3;omega)", _a10_3_component)
_single("lstr(A(2|0)1;omega)", _a20_1_component)
_single("lstr(D(2|1);omega)", _d21_component)
_single("lstr(A2,2)", _a2_2_component)
_single("lstr(A_theta-1)", _a_chain_component, theta=3)
_single("point", _point_component, label=1, order=1)
_register("poseidon", _poseidon, ("t", "signs", "ghosts", "label", "q"))
for _kind in ("eny_plus", "eny_minus", "eny_star"):
    _register(_kind, partial(_eny, _kind), ("q",))


def list_entries():
    names = [n for n in _REGISTRY if n != "point"]
    return names + ["compose"]


def get_entry(name) -> CatalogEntry:
    if name not in _REGISTRY:
        raise BadParams(f"unknown catalog entry {name!r}")
    return _REGISTRY[name]


def instantiate(name, params=None):
    """Build (spec, Presentation) for a named entry."""
    params = dict(params or {})
    if name == "compose":
        raise BadParams("use catalog.compose for compositions")
    entry = get_entry(name)
    entry.check_keys(params)
    try:
        return entry.builder(params)
    except (ValueError, KeyError) as exc:
        raise BadParams(str(exc)) from exc


# ---------------------------------------------------------------------------
# composition of several components over a shared block


def compose(items):
    """Compose single-block entries into one spec and presentation.

    ``items`` is a list of (name, params) pairs.  All components must share
    the same block sign and must not be mild (the cross commutation family
    that ``_assemble`` adds needs weak interactions).  Returns (spec,
    Presentation); the presentation's ``params`` are
    ``{"entries": [{"name": name, "params": params}, ...]}``, one per item.
    """
    if not items:
        raise IncompatibleComponents("nothing to compose")
    if len(items) == 1:
        return instantiate(*items[0])
    comps = []
    entries = []
    for name, params in items:
        entry = get_entry(name)
        if entry.component is None:
            raise IncompatibleComponents(
                f"{name!r} is not a single-block component entry")
        params = dict(params or {})
        entry.check_keys(params)
        comp = entry.component(params)
        if comp.mild:
            raise IncompatibleComponents(
                f"{name!r} has mild interaction; it cannot be composed")
        comps.append(comp)
        entries.append({"name": name, "params": params})
    eps = comps[0].eps
    if any(c.eps != eps for c in comps):
        raise IncompatibleComponents("component block signs differ")
    name = "compose(" + ", ".join(e["name"] for e in entries) + ")"
    return _assemble(name, eps, comps, {"entries": entries})


def _rename(text, ren):
    """``text`` with each identifier that is a key of ``ren`` replaced."""
    return re.sub(r"[^\W\d]\w*", lambda m: ren.get(m[0], m[0]), text)


# ---------------------------------------------------------------------------
# lookup: admissible flourished graph -> catalog decomposition


def lookup(g):
    """Decompose an admissible flourished graph into catalog entries.

    Returns a list of (entry name, params) pairs: one per block and one per
    connected component of the point subgraph, the catalog pair of the
    component's decision (:func:`flourished.decide_component`).  Raises
    NotAdmissible when the graph fails the admissibility criteria.
    """
    from .flourished import NotAdmissible, decide, served_entries
    viols, decisions = decide(g)
    if viols:
        raise NotAdmissible("; ".join(v.code for v in viols))
    return [("jordan" if sign == "+" else "super_jordan", {})
            for sign in g.signs] + [
        entry.catalog for _, entry in served_entries(g, decisions)]
