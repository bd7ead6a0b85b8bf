"""Decorated block/point graphs and finite-GK classification verdicts.

A braided space made of Jordan or super Jordan blocks and diagonal points is
summarized by its decorated graph: box vertices (+/- blocks), labelled point
vertices, block-point edges carrying the ghost (with a mild marker), and
point-point edges carrying qtilde.  Finiteness of the GK dimension of the
Nichols algebra is equivalent to the graph satisfying a short list of local
conditions; this module builds the graph, checks the conditions, computes the
GK value and domain flag of the admissible ones, and classifies the pale
block + point family separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braidings import (BraidedSpaceSpec, DiagonalBraiding, Interaction,
                        PaleBlockPointSpec, ghost, ghost_is_discrete,
                        interaction)
from .scalars import Scalar
from .weyl import DynkinDiagram, match_table_pattern


class FlourishedError(Exception):
    pass


class BlockNotPlusMinusOne(FlourishedError):
    pass


class BlockTooLong(FlourishedError):
    pass


class NotAdmissible(FlourishedError):
    pass


class EpsilonOutOfRange(FlourishedError):
    pass


class UnsupportedSpec(FlourishedError):
    pass


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str
    conjecture_dependent: bool


@dataclass(frozen=True)
class FiniteGK:
    gk: int
    decomposition: tuple
    is_domain: bool


@dataclass(frozen=True)
class InfiniteGK:
    reasons: tuple
    conjecture_dependent: bool


@dataclass(frozen=True)
class Unknown:
    reason: str


def _is_symbolic(s: Scalar) -> bool:
    return s.kind == "f"


class FlourishedGraph:
    """Blocks 1..t with signs, points t+1..theta with labels, and edges."""

    def __init__(self, signs, point_labels):
        self.signs = list(signs)  # '+' or '-'
        self.t = len(self.signs)
        self.point_labels = list(point_labels)  # global index t+1..theta
        self.theta = self.t + len(self.point_labels)
        self.block_point = {}   # (k, j) -> {"ghost", "mild", "strong"}
        self.point_point = {}   # (j1, j2), j1 < j2 -> qtilde
        self.block_block_pairs = []

    def label(self, j):
        return self.point_labels[j - self.t - 1]

    def add_block_point(self, k, j, g, mild=False, strong=False):
        self.block_point[(k, j)] = {"ghost": g, "mild": mild, "strong": strong}

    def add_point_point(self, i, j, qt):
        a, b = (i, j) if i < j else (j, i)
        if not qt.is_one():
            self.point_point[(a, b)] = qt

    def _point_diagram(self) -> DynkinDiagram:
        """The point subgraph; global index j is local vertex j - t - 1."""
        off = self.t + 1
        return DynkinDiagram(self.point_labels,
                             {(a - off, b - off): qt
                              for (a, b), qt in self.point_point.items()})

    def point_components(self):
        """Connected components of the point subgraph, sorted tuples."""
        off = self.t + 1
        return [tuple(v + off for v in c)
                for c in self._point_diagram().components()]

    def attachments(self, comp):
        """[(block k, point j, edge data)] for edges touching the component."""
        out = []
        for (k, j), data in sorted(self.block_point.items()):
            if j in comp:
                out.append((k, j, data))
        return out

    def component_diagram(self, comp) -> DynkinDiagram:
        return self._point_diagram().subdiagram([j - self.t - 1 for j in comp])

    def to_dot(self, name="flourished"):
        lines = [f"graph {name} {{"]
        for k in range(1, self.t + 1):
            shape = "box" if self.signs[k - 1] == "+" else "diamond"
            sign = "+" if self.signs[k - 1] == "+" else "-"
            lines.append(f'  b{k} [shape={shape}, label="{sign}"];')
        for j in range(self.t + 1, self.theta + 1):
            lines.append(f'  p{j} [shape=circle, label="{self.label(j)}"];')
        for (k, j), data in sorted(self.block_point.items()):
            if data["strong"]:
                lab = ""
            elif data["mild"]:
                lab = f'(-,{data["ghost"]})'
            else:
                lab = str(data["ghost"])
            lines.append(f'  b{k} -- p{j} [label="{lab}"];')
        for (a, b), qt in sorted(self.point_point.items()):
            lines.append(f'  p{a} -- p{b} [label="{qt}"];')
        lines.append("}")
        return "\n".join(lines)


def build_flourished(spec: BraidedSpaceSpec) -> FlourishedGraph:
    """Decorated graph of a blocks-plus-points spec.

    Vertices i, j are adjacent iff c_ij c_ji is not the identity; for a
    block-point pair that means qtilde != 1 or a != 0.
    """
    if not isinstance(spec, BraidedSpaceSpec):
        raise UnsupportedSpec("build_flourished expects a BraidedSpaceSpec")
    ring = spec.ring
    one = ring.one()
    signs = []
    for k in range(1, spec.t + 1):
        eps = spec.epsilon(k)
        if eps == one:
            signs.append("+")
        elif eps == -one:
            signs.append("-")
        else:
            raise BlockNotPlusMinusOne(f"block {k} has epsilon {eps}")
        if spec.block_length(k) != 2:
            raise BlockTooLong(
                f"block {k} has length {spec.block_length(k)}")
    labels = [spec.point_label(j)
              for j in range(spec.t + 1, spec.theta + 1)]
    g = FlourishedGraph(signs, labels)
    for k in range(1, spec.t + 1):
        for kk in range(k + 1, spec.t + 1):
            qt = spec.q(k, kk) * spec.q(kk, k)
            if not qt.is_one() or not spec.a(kk, k).is_zero() \
                    or not spec.a(k, kk).is_zero():
                g.block_block_pairs.append((k, kk))
        for j in range(spec.t + 1, spec.theta + 1):
            inter = interaction(spec, k, j)
            gh = ghost(spec, j, k)
            if inter is Interaction.WEAK and gh.is_zero():
                continue
            g.add_block_point(k, j, gh,
                              mild=(inter is Interaction.MILD),
                              strong=(inter is Interaction.STRONG))
    for i in range(spec.t + 1, spec.theta + 1):
        for j in range(i + 1, spec.theta + 1):
            g.add_point_point(i, j, spec.q(i, j) * spec.q(j, i))
    return g


def _sign_eps(sign):
    return 1 if sign == "+" else -1


def is_admissible(g: FlourishedGraph):
    """Empty list when admissible, else the list of violations."""
    out = []
    if g.t == 0:
        out.append(Violation("t", "no blocks present", False))
    for (k, kk) in g.block_block_pairs:
        out.append(Violation(
            "a", f"blocks {k} and {kk} are adjacent", False))
    for (k, j), data in sorted(g.block_point.items()):
        if data["strong"]:
            out.append(Violation(
                "b", f"strong interaction between block {k} and point {j}",
                False))
    for comp in g.point_components():
        att = g.attachments(comp)
        att = [a for a in att if not a[2]["strong"]]
        if not att:
            continue
        attached_points = sorted({j for _, j, _ in att})
        attached_blocks = sorted({k for k, _, _ in att})
        if len(attached_points) > 1:
            out.append(Violation(
                "c", f"component {comp} attached at points {attached_points}",
                True))
            continue
        j0 = attached_points[0]
        label = g.label(j0)
        if len(comp) > 1 and len(attached_blocks) > 1:
            out.append(Violation(
                "d", f"component {comp} attached to blocks {attached_blocks}",
                True))
            continue
        if len(comp) == 1 and label.mult_order().order == 3 \
                and len(attached_blocks) > 1:
            out.append(Violation(
                "e", f"G'3 point {j0} attached to blocks {attached_blocks}",
                True))
            continue
        milds = [(k, j) for k, j, d in att if d["mild"]]
        if milds:
            k0 = milds[0][0]
            other_block_edges = [kj for kj in g.block_point
                                 if kj[0] == k0 and kj[1] != milds[0][1]]
            other_point_edges = [kj for kj in g.block_point
                                 if kj[1] == milds[0][1] and kj[0] != k0]
            if len(milds) > 1 or other_block_edges or other_point_edges:
                out.append(Violation(
                    "f", f"mild edge at block {k0} is not isolated", True))
                continue
        # non-discrete ghosts are ruled out unconditionally
        bad = [k for k, _, d in att if not ghost_is_discrete(d["ghost"])]
        if bad:
            out.append(Violation(
                "b", f"non-discrete ghost at component {comp}", False))
            continue
        one = label.ring.one()
        if len(comp) == 1 and not milds and len(attached_blocks) >= 1 \
                and (label == one or label == -one):
            continue  # plus/minus-one point, any discrete multi-block ghosts
        if len(attached_blocks) == 1:
            k0, j0, data = att[0]
            entry = match_table_pattern(
                g.component_diagram(comp),
                {"sign": g.signs[k0 - 1], "ghost": data["ghost"],
                 "mild": data["mild"], "vertex": comp.index(j0)})
            if entry is None:
                out.append(Violation(
                    "b", f"component {comp} matches no admissible pattern",
                    True))
        else:
            out.append(Violation(
                "b", f"component {comp} attached to several blocks",
                True))
    return out


def _unattached_gk(label: Scalar):
    """GK of a single diagonal point: 1 unless the label is a nontrivial
    root of unity."""
    order = label.mult_order().order
    if order is None or order == 1:
        return 1
    return 0


def gk_of_admissible(g: FlourishedGraph):
    viols = is_admissible(g)
    if viols:
        raise NotAdmissible(f"{len(viols)} violations, first: {viols[0]}")
    return _gk_of_admissible(g)


def _gk_of_admissible(g: FlourishedGraph):
    """:func:`gk_of_admissible` for a graph known to be admissible."""
    total = 2 * g.t
    decomposition = []
    for comp in g.point_components():
        att = g.attachments(comp)
        if not att:
            if len(comp) > 1:
                raise NotAdmissible(
                    f"unattached multi-point component {comp}")
            gk = _unattached_gk(g.label(comp[0]))
            decomposition.append(
                {"component": comp, "entry": "point", "gk": gk})
            total += gk
            continue
        j0 = att[0][1]
        label = g.label(j0)
        one = label.ring.one()
        milds = [d for _, _, d in att if d["mild"]]
        if len(comp) == 1 and not milds and (label == one or label == -one):
            sgn = one if label == one else -one
            ms = []
            for k, _, d in att:
                gh = int(d["ghost"].as_rational())
                ms.append((gh if g.signs[k - 1] == "+" else 2 * gh,
                           _sign_eps(g.signs[k - 1])))
            count = 0
            stack = [(0, 1)]
            while stack:
                pos, par = stack.pop()
                if pos == len(ms):
                    if (label if par == 1 else -label) == one:
                        count += 1
                    continue
                m_max, eps = ms[pos]
                for m in range(m_max + 1):
                    stack.append((pos + 1, par * (eps ** m)))
            name = "point(1)" if label == one else "point(-1)"
            decomposition.append(
                {"component": comp, "entry": name, "gk": count})
            total += count
            continue
        k0, j0, data = att[0]
        entry = match_table_pattern(
            g.component_diagram(comp),
            {"sign": g.signs[k0 - 1], "ghost": data["ghost"],
             "mild": data["mild"], "vertex": comp.index(j0)})
        decomposition.append(
            {"component": comp, "entry": entry.name, "gk": entry.gk})
        total += entry.gk
    return total, tuple(
        (tuple(d["component"]), d["entry"], d["gk"]) for d in decomposition)


def is_domain(g: FlourishedGraph) -> bool:
    viols = is_admissible(g)
    if viols:
        raise NotAdmissible(str(viols[0]))
    return _is_domain(g)


def _is_domain(g: FlourishedGraph) -> bool:
    """:func:`is_domain` for a graph known to be admissible."""
    if any(s != "+" for s in g.signs):
        return False
    for comp in g.point_components():
        if len(comp) > 1:
            return False
        label = g.label(comp[0])
        if not label.is_one():
            return False
    return True


def classify(spec: BraidedSpaceSpec):
    """Full verdict for a blocks-plus-points spec."""
    if not isinstance(spec, BraidedSpaceSpec):
        raise UnsupportedSpec("classify expects a BraidedSpaceSpec")
    ring = spec.ring
    one = ring.one()
    reasons = []
    for k in range(1, spec.t + 1):
        eps = spec.epsilon(k)
        if not (eps == one or eps == -one):
            reasons.append(Violation(
                "epsilon", f"block {k} has epsilon {eps} not +-1", False))
        elif spec.block_length(k) != 2:
            reasons.append(Violation(
                "length", f"block {k} has length {spec.block_length(k)}",
                False))
    if reasons:
        return InfiniteGK(tuple(reasons), False)

    if spec.t == 0:
        return _classify_diagonal(spec)

    # undecidable symbolic decorations give no verdict
    for k in range(1, spec.t + 1):
        for j in range(spec.t + 1, spec.theta + 1):
            qt = spec.q(k, j) * spec.q(j, k)
            if _is_symbolic(qt):
                return Unknown(
                    f"interaction between block {k} and point {j} depends "
                    f"on a free parameter")
            if _is_symbolic(ghost(spec, j, k)):
                return Unknown(
                    f"ghost between block {k} and point {j} depends on a "
                    f"free parameter")

    g = build_flourished(spec)
    viols = is_admissible(g)
    if viols:
        return InfiniteGK(tuple(viols),
                          all(v.conjecture_dependent for v in viols))
    for comp in g.point_components():
        if not g.attachments(comp) and len(comp) > 1:
            return Unknown(
                f"diagonal component {comp} not attached to any block")
    gk, decomposition = _gk_of_admissible(g)
    return FiniteGK(gk, decomposition, _is_domain(g))


def _classify_diagonal(spec: BraidedSpaceSpec):
    from .weyl import dynkin
    from .braidings import diagonalize
    diag = diagonalize(spec)
    dd = dynkin(diag)
    total = 0
    decomposition = []
    for comp in dd.components():
        if len(comp) > 1:
            return Unknown(
                f"diagonal component {comp} outside the supported families")
        label = dd.labels[comp[0]]
        if _is_symbolic(label):
            return Unknown("point label depends on a free parameter")
        gk = _unattached_gk(label)
        decomposition.append((comp, "point", gk))
        total += gk
    domain = all(dd.labels[c[0]].is_one() for c in dd.components())
    return FiniteGK(total, tuple(decomposition), domain)


def classify_pale(p: PaleBlockPointSpec):
    """Verdict for a 2-dimensional pale block plus one point."""
    ring = p.ring
    one = ring.one()
    eps = p.epsilon
    if not (eps ** 2 == one or eps ** 3 == one):
        raise EpsilonOutOfRange(
            f"epsilon {eps} not in G_2 or G_3; reduce by the Cartan-type "
            f"argument first")
    qt = p.qtilde()
    q22 = p.q22
    if _is_symbolic(qt) or _is_symbolic(q22):
        return Unknown("pale-block parameters are not concrete")
    if eps == one:
        return InfiniteGK(
            (Violation("pale", "pale block with epsilon 1", False),), False)
    if eps.mult_order().order == 3:
        return InfiniteGK(
            (Violation("pale", "pale block with epsilon in G'3", True),),
            True)
    # epsilon = -1
    if qt.is_one():
        if q22 == one:
            return FiniteGK(1, (("eny_plus",),), False)
        if q22 == -one:
            return FiniteGK(1, (("eny_minus",),), False)
        return InfiniteGK(
            (Violation("pale", f"qtilde 1 with point label {q22}", True),),
            True)
    if q22 == -one and qt == -one:
        return FiniteGK(2, (("eny_star",),), False)
    if q22 == -one and qt.mult_order().order == 3:
        # the coinvariant algebra contains a block with epsilon in G'3
        return InfiniteGK(
            (Violation("pale", "qtilde in G'3 with point label -1", False),),
            False)
    if (q22 * qt).is_one():
        return InfiniteGK(
            (Violation("pale", "point label inverse to qtilde", True),), True)
    if qt.mult_order().order == 3 and q22 == -qt:
        return InfiniteGK(
            (Violation("pale", "point label -qtilde with qtilde in G'3",
                       False),), False)
    return InfiniteGK(
        (Violation("pale", f"qtilde {qt}, point label {q22}", True),), True)
