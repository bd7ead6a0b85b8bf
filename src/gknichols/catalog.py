"""Named presentations of the finite-GK Nichols algebras.

Every entry carries a spec builder (producing concrete scalars in a suitable
cyclotomic ring), the defining relations as parseable strings with a macro
table, PBW generators with degrees and heights, the GK dimension and a domain
flag.  An entry over one block is a list of components: point labels, q-data,
attachment data and a ``build`` that returns the component's relations,
macros and PBW generators as ``(label, height)`` pairs.  One assembler,
``_assemble``, turns a block sign and its components into the spec and the
presentation: the Jordan and super Jordan planes have no component, the
single-component entries have one, and a composition has several, for which
it adds the cross q-commutation family.
"""

from dataclasses import dataclass
from functools import partial
from math import lcm

from .scalars import GKNicholsError, ScalarRing, parse_scalar
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


def _block_pbw(eps_is_one):
    """PBW generators and macros contributed by a rank-2 block."""
    if eps_is_one:
        return [("x1", 1, INF), ("x1h", 1, INF)], {}
    return ([("x1", 1, 2), ("x21", 2, INF), ("x1h", 1, INF)],
            {"x21": "x1h x1 + x1 x1h"})


def _block_relations(eps_is_one):
    if eps_is_one:
        return ["x1h x1 - x1 x1h + {1/2} x1 x1"]
    return ["x1 x1", "x1h x21 - x21 x1h - x1 x21"]


def _pbw_degrees(spec, macros, entries):
    """Resolve (expr, height) pairs into (label, degree, height) triples."""
    return [(expr, expression_degree(expr, spec, macros), height)
            for expr, height in entries]


def _scal(ring, text):
    return parse_scalar(str(text), ring)


def _q(s):
    """Scalar literal for embedding into a relation string."""
    return "{%s}" % s


# ---------------------------------------------------------------------------
# component descriptions (single block + one connected diagonal component)
#
# A component fixes the point labels, the q-tilde edges, the attachment data
# (ghost / mild) and, given the instantiated spec plus the global names of its
# point letters, produces relations, macros and the PBW generators of the
# coinvariant factor K as (label, height) pairs; ``_assemble`` resolves their
# degrees.


@dataclass
class _Component:
    eps: int                     # block sign (+1 or -1)
    ring_order: int              # cyclotomic order needed (1 = rational)
    ring_params: tuple           # transcendental parameters
    labels: list                 # point labels as scalar strings
    qmat_pp: dict                # (i, j) local 1-based -> q_{ij} string
    qmat_bp: list                # per point: (q_block_point, q_point_block)
    avals: list                  # per point: a-value string or None
    ghost_bounds: list           # per point: z-ladder bound 2|a| (0 if free)
    build: object                # fn(spec, pts) -> (relations, macros, kpbw)
    gk_k: int
    domain_k: bool = False
    mild: bool = False


def _assemble(name, eps, comps, params):
    """(spec, Presentation) of one block of sign ``eps`` and its components.

    The components' points follow the block in order.  Components reuse
    macro names (z0, z1, ...), so with more than one each component's are
    qualified ``c{i}_``.
    """
    ring = ScalarRing(lcm(*(c.ring_order for c in comps)),
                      params=tuple(sorted({p for c in comps
                                           for p in c.ring_params})))
    offsets, labels, qbp, avals_list = [], [], [], []
    for c in comps:
        offsets.append(len(labels))
        labels += c.labels
        qbp += c.qmat_bp
        avals_list += c.avals
    theta = 1 + len(labels)
    qm = [["1"] * theta for _ in range(theta)]
    qm[0][0] = str(eps)
    for j, (qb, pb) in enumerate(qbp, start=1):
        qm[0][j], qm[j][0], qm[j][j] = qb, pb, labels[j - 1]
    for off, c in zip(offsets, comps):
        for (i, j), val in c.qmat_pp.items():
            qm[off + i][off + j] = val
    avals = {(2 + j, 1): a for j, a in enumerate(avals_list) if a is not None}
    spec = BraidedSpaceSpec(ring, [(eps, 2)], labels, qm, avals)

    rels = _block_relations(eps == 1)
    pbw, macros = _block_pbw(eps == 1)
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
            for li, gi in enumerate(a.ghost_bounds):
                for lj, gj in enumerate(b.ghost_bounds):
                    if (gi, ci) > (gj, cj):
                        continue
                    i, j = 2 + oi + li, 2 + oj + lj
                    expr = f"x{i}"
                    for m in range(gi + 1):
                        coeff = spec.q(1, j) ** m * spec.q(i, j)
                        rels.append(
                            f"({expr}) x{j} - {_q(coeff)} x{j} ({expr})")
                        expr = f"[x1h, {expr}]"
    pres = Presentation(
        name, rels, pbw, 2 + sum(c.gk_k for c in comps), macros,
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


def _lstr_component(eps, point, G, q12):
    if G < 1:
        raise BadParams("ghost must be a positive integer")
    bound = G if eps == 1 else 2 * G
    a2 = f"-{G}/2" if eps == 1 else str(G)
    order = 3 if point == "omega" else 1
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

    gk_k = {(1, 1): G + 1, (1, -1): 0, (-1, 1): G + 1, (-1, -1): G,
            (1, "omega"): 0}[(eps, point)]
    return _Component(
        eps=eps, ring_order=order, ring_params=(),
        labels=[label], qmat_pp={},
        qmat_bp=[(str(q12), _inv_str(q12))],
        avals=[a2], ghost_bounds=[bound],
        build=build, gk_k=gk_k,
        domain_k=(eps == 1 and point == 1))


def _inv_str(q12):
    if q12 == 1:
        return "1"
    return f"({q12})^-1"


# -- Cyclops ----------------------------------------------------------------


def _cyc1_component(q12):
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
        eps=-1, ring_order=1, ring_params=(),
        labels=["-1"], qmat_pp={},
        qmat_bp=[(str(q12), f"-({_inv_str(q12)})")],
        avals=["1"], ghost_bounds=[0],
        build=build, gk_k=0, mild=True)


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
        eps=-1, ring_order=1, ring_params=(),
        labels=["-1", "-1"], qmat_pp={(1, 2): "-1", (2, 1): "1"},
        qmat_bp=[("1", "-1"), ("1", "1")],
        avals=["1", None], ghost_bounds=[0, 0],
        build=build, gk_k=1, mild=True)


# -- one block and several points: the A/D families -------------------------


def _a10_1_component(r):
    """-1 point with ghost 1 plus an r-labelled point, edge r^{-1}."""
    generic = (r == "generic")
    if generic:
        order, params, rlabel, N = 1, ("q",), "q", None
    else:
        N = int(r)
        if N < 3:
            raise BadParams("root-of-unity order must be >= 3")
        order, params, rlabel = N, (), "z"

    def build(spec, pts):
        p2, p3 = pts
        macros = _z_macros(2, p2)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "ztt12": "[x1h, x23]",
            "ztt123": "[x1h2, x23]",
        })
        rels = [f"[{p2}, x1]", "z2", f"{p2}^2", "x1h2^2",
                f"[x1, {p3}]", f"[x1h, {p3}]",
                f"[{p3}, [{p3}, {p2}]]"]
        if not generic:
            rels += [f"{p3}^{N}", f"ztt123^{N}"]
        kpbw = [("x1h2", 2), ("ztt12", 2), ("ztt123", N),
                (p3, N), ("x23", 2), (p2, 2)]
        return rels, macros, kpbw

    return _Component(
        eps=1, ring_order=order, ring_params=params,
        labels=["-1", rlabel],
        qmat_pp={(1, 2): f"({rlabel})^-1", (2, 1): "1"},
        qmat_bp=[("1", "1"), ("1", "1")],
        avals=["-1/2", None], ghost_bounds=[1, 0],
        build=build, gk_k=0 if not generic else 2)


def _a10_2_component():
    def build(spec, pts):
        p2, p3 = pts
        macros = _z_macros(2, p2)
        macros.update({
            "x1h2": f"[x1h, {p2}]",
            "x23": f"[{p2}, {p3}]",
            "x32": f"[{p3}, {p2}]",
            "ztt12": "[x1h, x23]",
            "ztt123": "[x1h2, x23]",
        })
        rels = [f"[{p2}, x1]", "z2", f"{p2}^2", "x1h2^2",
                f"[x1, {p3}]", f"[x1h, {p3}]",
                f"{p3}^2", "x23^3",
                "ztt12^3", "ztt123^6", f"[ztt123, {p3}]^3"]
        kpbw = [("x1h2", 2), ("ztt12", 3),
                ("[ztt12, [ztt12, ztt123]]", 2),
                ("[ztt12, ztt123]", 2), ("ztt123", 6),
                (f"[ztt123, {p3}]", 3), ("[ztt123, x32]", 2),
                (p3, 2), ("x32", 3), (p2, 2)]
        return rels, macros, kpbw

    return _Component(
        eps=1, ring_order=3, ring_params=(),
        labels=["-1", "-1"], qmat_pp={(1, 2): "z", (2, 1): "1"},
        qmat_bp=[("1", "1"), ("1", "1")],
        avals=["-1/2", None], ghost_bounds=[1, 0],
        build=build, gk_k=0)


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

    return _Component(
        eps=1, ring_order=3, ring_params=(),
        labels=["z", "-1"], qmat_pp={(1, 2): "z^2", (2, 1): "1"},
        qmat_bp=[("1", "1"), ("1", "1")],
        avals=["-1/2", None], ghost_bounds=[1, 0],
        build=build, gk_k=0)


def _a20_1_component():
    def build(spec, pts):
        p2, p3, p4 = pts
        macros = _z_macros(2, p2)
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
        rels = [f"[{p2}, x1]", "z2", f"{p2}^2", "x1h2^2",
                f"[x1, {p3}]", f"[x1h, {p3}]",
                f"[x1, {p4}]", f"[x1h, {p4}]",
                "x24",
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
        eps=1, ring_order=3, ring_params=(),
        labels=["-1", "z", "z"],
        qmat_pp={(1, 2): "z^2", (2, 1): "1",
                 (2, 3): "z^2", (3, 2): "1",
                 (1, 3): "1", (3, 1): "1"},
        qmat_bp=[("1", "1"), ("1", "1"), ("1", "1")],
        avals=["-1/2", None, None], ghost_bounds=[1, 0, 0],
        build=build, gk_k=0)


def _d21_component():
    def build(spec, pts):
        p2, p3, p4 = pts
        macros = _z_macros(2, p2)
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
        rels = [f"[{p2}, x1]", "z2", f"{p2}^2", "x1h2^2",
                f"[x1, {p3}]", f"[x1h, {p3}]",
                f"[x1, {p4}]", f"[x1h, {p4}]",
                "x24",
                f"[{p3}, [{p3}, {p2}]]", f"[{p4}, [{p4}, {p3}]]",
                f"[[x234, {p3}], {p3}]",
                f"{p3}^3", "x34^3", "x334^3", f"{p4}^3",
                f"[x1h23, {p2}]^3",
                f"[[ztt1234, {p3}], {p3}]^3",
                f"[[[x1h23, x24], {p3}], {p3}]^3",
                "ztt1234^3",
                "[ztt1234, x334]^3"]
        # the second and third entries above coincide once the macros are
        # expanded; keep the proposition's list but drop the duplicate
        del rels[18]
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
        eps=1, ring_order=3, ring_params=(),
        labels=["-1", "z", "z^2"],
        qmat_pp={(1, 2): "z^2", (2, 1): "1",
                 (2, 3): "z", (3, 2): "1",
                 (1, 3): "1", (3, 1): "1"},
        qmat_bp=[("1", "1"), ("1", "1"), ("1", "1")],
        avals=["-1/2", None, None], ghost_bounds=[1, 0, 0],
        build=build, gk_k=0)


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

    return _Component(
        eps=1, ring_order=1, ring_params=(),
        labels=["-1", "-1"], qmat_pp={(1, 2): "-1", (2, 1): "1"},
        qmat_bp=[("1", "1"), ("1", "1")],
        avals=["-1", None], ghost_bounds=[2, 0],
        build=build, gk_k=0)


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
        p2 = pts[0]
        macros = _z_macros(2, p2)
        macros["x1h2"] = "z1"
        rels = [f"[{p2}, x1]", "z2", f"{p2}^2", "x1h2^2"]
        for j in range(3, theta + 1):
            rels += [f"[x1, {pts[j - 2]}]", f"[x1h, {pts[j - 2]}]"]
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
        eps=1, ring_order=1, ring_params=(),
        labels=["-1"] * npts,
        qmat_pp={(i, i + 1): "-1" for i in range(1, npts)}
        | {(i + 1, i): "1" for i in range(1, npts)},
        qmat_bp=[("1", "1")] * npts,
        avals=["-1/2"] + [None] * (npts - 1),
        ghost_bounds=[1] + [0] * (npts - 1),
        build=build, gk_k=0)


def _point_component(label, ring_order=1):
    """A ghost-0 point disconnected from everything else."""
    text = str(label)
    ring_order = int(ring_order)
    try:
        lab = _scal(ScalarRing(ring_order), text)
    except Exception as exc:
        raise BadParams(
            f"cannot parse point label {text!r} over the cyclotomic ring "
            f"of order {ring_order}") from exc
    if lab.is_zero():
        raise BadParams("point label must be nonzero")
    order = lab.mult_order()

    def build(spec, pts):
        p = pts[0]
        rels = [f"[{p}, x1]", f"[{p}, x1h]"]
        if order is not None and order > 1:
            rels.append(f"{p}^{order}")
            kpbw = [(p, order)]
        else:
            kpbw = [(p, INF)]
        return rels, {}, kpbw

    return _Component(
        eps=1, ring_order=ring_order, ring_params=(),
        labels=[text], qmat_pp={},
        qmat_bp=[("1", "1")],
        avals=[None], ghost_bounds=[0],
        build=build, gk_k=1 if order in (None, 1) else 0,
        domain_k=lab.is_one())


# ---------------------------------------------------------------------------
# Poseidon and Endymion entries


def _poseidon(params):
    t = int(params.get("t", 2))
    if t < 2:
        raise BadParams("poseidon needs at least two blocks")
    signs = list(params.get("signs", [1] * t))
    ghosts = list(params.get("ghosts", [1] * t))
    label = params.get("label", 1)
    if len(signs) != t or len(ghosts) != t:
        raise BadParams("signs and ghosts must have length t")
    if any(s not in (1, -1) for s in signs):
        raise BadParams("block signs must be +-1")
    if label not in (1, -1):
        raise BadParams("poseidon point label must be +-1")
    if any(int(g) < 1 for g in ghosts):
        raise BadParams("ghosts must be positive integers")
    theta = t + 1
    qoff = _offdiagonal(params.get("q", {}), theta)
    ring = ScalarRing(1)
    one = ring.one()

    def qval(i, j):
        if i == j:
            return _scal(ring, str(signs[i - 1]) if i <= t else str(label))
        if (i, j) in qoff:
            return _scal(ring, str(qoff[(i, j)]))
        if (j, i) in qoff:
            return _scal(ring, str(qoff[(j, i)])).inverse()
        return one

    qm = [[str(qval(i, j)) for j in range(1, theta + 1)]
          for i in range(1, theta + 1)]
    avals = {}
    bounds = []
    for k in range(1, t + 1):
        g = int(ghosts[k - 1])
        if signs[k - 1] == 1:
            avals[(theta, k)] = f"-{g}/2"
            bounds.append(g)
        else:
            avals[(theta, k)] = str(g)
            bounds.append(2 * g)
    spec = BraidedSpaceSpec(ring, [(s, 2) for s in signs], [str(label)],
                            qm, avals)

    macros = {}
    rels = []
    pbw = []
    for k in range(1, t + 1):
        xk, xkh = f"x{k}", f"x{k}h"
        if signs[k - 1] == 1:
            rels.append(f"{xkh} {xk} - {xk} {xkh} + {{1/2}} {xk} {xk}")
            pbw += [(xk, 1, INF), (xkh, 1, INF)]
        else:
            macros[f"w{k}"] = f"{xkh} {xk} + {xk} {xkh}"
            rels += [f"{xk} {xk}",
                     f"{xkh} w{k} - w{k} {xkh} - {xk} w{k}"]
            pbw += [(xk, 1, 2), (f"w{k}", 2, INF), (xkh, 1, INF)]
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            qij = spec.q(i, j)
            for u in (f"x{i}", f"x{i}h"):
                for v in (f"x{j}", f"x{j}h"):
                    rels.append(f"{u} {v} - {_q(qij)} {v} {u}")
    for i in range(1, t + 1):
        rels.append(f"x{i} x{theta} - {_q(spec.q(i, theta))} x{theta} x{i}")

    # the ladder elements s_n = (ad x1h)^{n_1} ... (ad xth)^{n_t} x_theta
    amb = []
    for n in _boxes(bounds):
        amb.append(n)
        name = "s_" + "_".join(str(c) for c in n)
        expr = f"x{theta}"
        for k in range(t, 0, -1):
            for _ in range(n[k - 1]):
                expr = f"[x{k}h, {expr}]"
        macros[name] = expr
    for k in range(1, t + 1):
        over = [0] * t
        over[k - 1] = bounds[k - 1] + 1
        expr = f"x{theta}"
        for _ in range(over[k - 1]):
            expr = f"[x{k}h, {expr}]"
        rels.append(expr)

    def pmn(m, n):
        val = _scal(ring, str(label))
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                val = val * spec.q(i, j) ** (m[i - 1] * n[j - 1])
            val = val * spec.q(i, theta) ** m[i - 1]
            val = val * spec.q(theta, i) ** n[i - 1]
        return val

    def eps_n(n):
        val = label
        for i in range(t):
            val *= signs[i] ** n[i]
        return val

    for a in range(len(amb)):
        for b in range(a + 1, len(amb)):
            m, n = amb[a], amb[b]
            nm = "s_" + "_".join(map(str, m))
            nn = "s_" + "_".join(map(str, n))
            rels.append(f"{nm} {nn} - {_q(pmn(m, n))} {nn} {nm}")
    gk = 2 * t
    for n in amb:
        name = "s_" + "_".join(map(str, n))
        if eps_n(n) == -1:
            rels.append(f"{name}^2")
            pbw.append((name, 1 + sum(n), 2))
        else:
            pbw.append((name, 1 + sum(n), INF))
            gk += 1
    pres = Presentation(
        "poseidon", rels, pbw, gk, macros,
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
    qtext = str(params.get("q", "q"))
    ring = ScalarRing(1, params=("q",) if qtext == "q" else ())
    q = _scal(ring, qtext)
    if q.is_zero():
        raise BadParams("q must be nonzero")
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
        gk = 1
    elif kind == "eny_minus":
        macros = {"z1": "[x2, x3]"}
        rels = base + [f"x1 x3 - {_q(q)} x3 x1",
                       "x3 x3",
                       f"x3 z1 + {_q(qi)} z1 x3"]
        pbw = [("x1", 1, 2), ("x2", 1, 2), ("x3", 1, 2), ("z1", 2, INF)]
        gk = 1
    else:
        macros = {"x13": "[x1, x3]", "x23": "[x2, x3]",
                  "x213": "[x2, x13]", "w": "[x23, x13]"}
        rels = base + ["x3 x3", "x13^2",
                       f"x2 w - {_q(q ** 2)} w x2 - {_q(q)} x13 x213",
                       "x213^2"]
        pbw = [("x2", 1, 2), ("x23", 2, INF), ("x213", 3, 2),
               ("w", 4, INF), ("x1", 1, 2), ("x13", 2, 2), ("x3", 1, 2)]
        gk = 2
    pres = Presentation(kind, rels, pbw, gk, macros,
                        params={"q": qtext})
    return spec, pres


# ---------------------------------------------------------------------------
# the registry


@dataclass
class CatalogEntry:
    name: str
    signature: str
    builder: object
    keys: tuple = ()           # the parameter keys the builder reads
    component: object = None   # fn(params) -> _Component, when composable

    def check_keys(self, params):
        unknown = [k for k in params if k not in self.keys]
        if unknown:
            known = ", ".join(self.keys) or "none"
            raise BadParams(
                f"unknown parameter {', '.join(map(repr, unknown))} for "
                f"{self.name} (known: {known})")


def _single(name, signature, keys, comp_fn):
    def builder(params):
        comp = comp_fn(params)
        return _assemble(name, comp.eps, [comp], params)
    return CatalogEntry(name, signature, builder, keys, comp_fn)


_REGISTRY = {}


def _register(entry):
    _REGISTRY[entry.name] = entry


_register(CatalogEntry("jordan", "no parameters",
                       partial(_assemble, "jordan", 1, [])))
_register(CatalogEntry("super_jordan", "no parameters",
                       partial(_assemble, "super_jordan", -1, [])))


def _mk_lstr(name, eps, point):
    def comp(params):
        G = int(params.get("G", 1))
        q12 = params.get("q12", 1)
        return _lstr_component(eps, point, G, q12)
    _register(_single(name, "G in N; optional q12", ("G", "q12"), comp))


_mk_lstr("lstr(1,G)", 1, 1)
_mk_lstr("lstr(-1,G)", 1, -1)
_mk_lstr("lstr_-(1,G)", -1, 1)
_mk_lstr("lstr_-(-1,G)", -1, -1)
_register(_single("lstr(omega,1)", "optional q12", ("q12",),
                  lambda params: _lstr_component(
                      1, "omega", 1, params.get("q12", 1))))
_register(_single("cyc1", "optional q12", ("q12",),
                  lambda params: _cyc1_component(params.get("q12", 1))))
_register(_single("cyc2", "no parameters", (),
                  lambda params: _cyc2_component()))
_register(_single("lstr(A(1|0)1;r)", "r: root order N >= 3 or 'generic'",
                  ("r",),
                  lambda params: _a10_1_component(params.get("r", 4))))
_register(_single("lstr(A(1|0)2;omega)", "no parameters", (),
                  lambda params: _a10_2_component()))
_register(_single("lstr(A(1|0)3;omega)", "no parameters", (),
                  lambda params: _a10_3_component()))
_register(_single("lstr(A(2|0)1;omega)", "no parameters", (),
                  lambda params: _a20_1_component()))
_register(_single("lstr(D(2|1);omega)", "no parameters", (),
                  lambda params: _d21_component()))
_register(_single("lstr(A2,2)", "no parameters", (),
                  lambda params: _a2_2_component()))
_register(_single("lstr(A_theta-1)", "theta in 3..6", ("theta",),
                  lambda params: _a_chain_component(
                      int(params.get("theta", 3)))))
_register(_single("point", "label: scalar (ghost-0 disconnected point)",
                  ("label", "order"),
                  lambda params: _point_component(
                      params.get("label", 1), params.get("order", 1))))
_register(CatalogEntry("poseidon",
                       "t, signs, ghosts, label, optional q", _poseidon,
                       ("t", "signs", "ghosts", "label", "q")))
for _kind in ("eny_plus", "eny_minus", "eny_star"):
    _register(CatalogEntry(
        _kind, "q: nonzero scalar (default transcendental)",
        (lambda k: lambda params: _eny(k, params))(_kind), ("q",)))


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
    that ``_assemble`` adds needs weak interactions).  Returns (spec, Presentation).
    """
    if not items:
        raise IncompatibleComponents("nothing to compose")
    if len(items) == 1:
        return instantiate(*items[0])
    comps = []
    names = []
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
        names.append(name)
    eps = comps[0].eps
    if any(c.eps != eps for c in comps):
        raise IncompatibleComponents("component block signs differ")
    return _assemble("compose(" + ", ".join(names) + ")", eps, comps,
                     {"entries": names})


def _rename(text, ren):
    if not ren:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            out.append(ren.get(name, name))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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
