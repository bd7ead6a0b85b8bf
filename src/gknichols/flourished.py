"""Decorated block/point graphs and finite-GK classification verdicts.

A braided space made of Jordan or super Jordan blocks and diagonal points is
summarized by its decorated graph: box vertices (+/- blocks), labelled point
vertices, block-point edges carrying the ghost (with a mild marker), and
point-point edges carrying qtilde.  Finiteness of the GK dimension of the
Nichols algebra is equivalent to the graph satisfying a short list of local
conditions; this module builds the graph, checks the conditions, computes the
GK value and domain flag of the admissible ones, and classifies the pale
block + point family separately.

Each connected component of the point subgraph is decided once, by
:func:`decide_component`: it is served by a ``weyl.TableEntry`` (display
name, GK contribution, catalog pair), ruled out by a :class:`Violation`, or
unattached.  :func:`decide` adds the graph-wide violations (no block,
adjacent blocks, strong edges); :func:`is_admissible`,
:func:`gk_of_admissible`, :func:`is_domain`, :func:`classify` and
``catalog.lookup`` all read its result.  An unattached point is served by
the ``point`` entry, whose GK (1 unless the label is a nontrivial root of
unity) is computed only once the graph is admissible.  A diagonal braiding
(no blocks) takes the same path: only :func:`is_admissible` reports its
``"t"`` violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .braidings import (BraidedSpaceSpec, Interaction, PaleBlockPointSpec,
                        ghost, interaction, natural_ghost)
from .scalars import Scalar
from .weyl import DynkinDiagram, TableEntry, match_table_pattern


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


UNATTACHED = "unattached"


def decide_component(g: FlourishedGraph, comp):
    """The one decision on a point component of ``g``.

    Returns the :class:`weyl.TableEntry` that serves the component (display
    name, GK contribution, catalog pair), the :class:`Violation` that rules
    it out, or :data:`UNATTACHED` when no block reaches it.  Strong edges are
    graph-wide violations (see :func:`decide`) and are skipped here.
    """
    att = [a for a in g.attachments(comp) if not a[2]["strong"]]
    if not att:
        return UNATTACHED
    attached_points = sorted({j for _, j, _ in att})
    attached_blocks = sorted({k for k, _, _ in att})
    if len(attached_points) > 1:
        return Violation(
            "c", f"component {comp} attached at points {attached_points}",
            True)
    j0 = attached_points[0]
    label = g.label(j0)
    if len(comp) > 1 and len(attached_blocks) > 1:
        return Violation(
            "d", f"component {comp} attached to blocks {attached_blocks}",
            True)
    if len(comp) == 1 and len(attached_blocks) > 1 \
            and label.mult_order() == 3:
        return Violation(
            "e", f"G'3 point {j0} attached to blocks {attached_blocks}", True)
    milds = [(k, j) for k, j, d in att if d["mild"]]
    if milds:
        k0 = milds[0][0]
        other_block_edges = [kj for kj in g.block_point
                             if kj[0] == k0 and kj[1] != milds[0][1]]
        other_point_edges = [kj for kj in g.block_point
                             if kj[1] == milds[0][1] and kj[0] != k0]
        if len(milds) > 1 or other_block_edges or other_point_edges:
            return Violation(
                "f", f"mild edge at block {k0} is not isolated", True)
    # non-discrete ghosts are ruled out unconditionally
    if any(natural_ghost(d["ghost"]) is None for _, _, d in att):
        return Violation("b", f"non-discrete ghost at component {comp}",
                         False)
    one = label.ring.one()
    plus_minus_one = len(comp) == 1 and not milds \
        and (label == one or label == -one)
    if plus_minus_one and len(attached_blocks) > 1:
        return _poseidon_point(g, att, label)
    if len(attached_blocks) > 1:
        return Violation(
            "b", f"component {comp} attached to several blocks", True)
    k0, j0, data = att[0]
    entry = match_table_pattern(
        g.component_diagram(comp),
        {"sign": g.signs[k0 - 1], "ghost": data["ghost"],
         "mild": data["mild"], "vertex": comp.index(j0)})
    if entry is None:
        return Violation(
            "b", f"component {comp} matches no admissible pattern", True)
    # a +-1 point on one block keeps its point name; its table GK is the
    # count of _poseidon_point for a single block
    return replace(entry, name=f"point({label})") if plus_minus_one else entry


def _poseidon_point(g, att, label):
    """A +-1 point on several blocks with discrete ghosts: its GK counts the
    exponents 0 <= m_k <= bound_k with label * prod_k eps_k^m_k = 1."""
    ghosts = [natural_ghost(d["ghost"]) for _, _, d in att]
    signs = [g.signs[k - 1] for k, _, _ in att]
    bounds = [gh if s == "+" else 2 * gh for gh, s in zip(ghosts, signs)]
    want_odd = not label.is_one()
    count = 0
    for ms in product(*(range(b + 1) for b in bounds)):
        odd = sum(m for m, s in zip(ms, signs) if s == "-") % 2 == 1
        count += odd == want_odd
    return TableEntry(f"point({label})", count, ("poseidon", {
        "t": len(att), "signs": [_sign_eps(s) for s in signs],
        "ghosts": ghosts, "label": -1 if want_odd else 1}))


def _point_entry(label: Scalar) -> TableEntry:
    """An unattached point: GK 1 unless its label is a nontrivial root of
    unity; the catalog reads the label back in its own ring."""
    order = label.mult_order()
    return TableEntry(
        "point", 1 if order in (None, 1) else 0,
        ("point", {"label": str(label), "order": label.ring.cyclotomic_order}))


def decide(g: FlourishedGraph):
    """(violations, [(component, decision)]): the graph-wide violations, then
    those of the components, each component decided once.  A diagonal
    braiding (no blocks) needs no block: only :func:`is_admissible` reports
    the ``"t"`` violation of the flourished-graph definition."""
    out = []
    for (k, kk) in g.block_block_pairs:
        out.append(Violation(
            "a", f"blocks {k} and {kk} are adjacent", False))
    for (k, j), data in sorted(g.block_point.items()):
        if data["strong"]:
            out.append(Violation(
                "b", f"strong interaction between block {k} and point {j}",
                False))
    decisions = [(comp, decide_component(g, comp))
                 for comp in g.point_components()]
    out += [d for _, d in decisions if isinstance(d, Violation)]
    return out, decisions


def served_entries(g: FlourishedGraph, decisions):
    """[(component, TableEntry)] for the decisions of an admissible graph,
    each unattached point served by the ``point`` entry."""
    out = []
    for comp, d in decisions:
        if d is UNATTACHED:
            if len(comp) > 1:
                raise NotAdmissible(
                    f"unattached multi-point component {comp}")
            d = _point_entry(g.label(comp[0]))
        out.append((comp, d))
    return out


def is_admissible(g: FlourishedGraph):
    """Empty list when admissible, else the list of violations."""
    viols = decide(g)[0]
    if g.t == 0:
        viols.insert(0, Violation("t", "no blocks present", False))
    return viols


def gk_of_admissible(g: FlourishedGraph):
    viols, decisions = decide(g)
    if viols:
        raise NotAdmissible(f"{len(viols)} violations, first: {viols[0]}")
    return _gk_of_admissible(g, served_entries(g, decisions))


def _gk_of_admissible(g: FlourishedGraph, entries):
    """(GK, decomposition) of an admissible graph from its served entries."""
    return (2 * g.t + sum(e.gk for _, e in entries),
            tuple((comp, e.name, e.gk) for comp, e in entries))


def is_domain(g: FlourishedGraph) -> bool:
    viols, _ = decide(g)
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


def classify(spec):
    """Full verdict for a blocks-plus-points or a pale block + point spec."""
    if isinstance(spec, PaleBlockPointSpec):
        return classify_pale(spec)
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
    viols, decisions = decide(g)
    if viols:
        return InfiniteGK(tuple(viols),
                          all(v.conjecture_dependent for v in viols))
    for comp, d in decisions:
        if d is UNATTACHED and len(comp) > 1:
            return Unknown(
                f"diagonal component {comp} not attached to any block")
    gk, decomposition = _gk_of_admissible(g, served_entries(g, decisions))
    return FiniteGK(gk, decomposition, _is_domain(g))


def classify_pale(p: PaleBlockPointSpec):
    """Verdict for a 2-dimensional pale block plus one point.

    A finite verdict decomposes as ``((2,), entry, gk)``: the point (letter
    group 2) is served by the named ``eny_*`` entry.
    """
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
    if eps.mult_order() == 3:
        return InfiniteGK(
            (Violation("pale", "pale block with epsilon in G'3", True),),
            True)
    # epsilon = -1
    if qt.is_one():
        if q22 == one:
            return FiniteGK(1, (((2,), "eny_plus", 1),), False)
        if q22 == -one:
            return FiniteGK(1, (((2,), "eny_minus", 1),), False)
        return InfiniteGK(
            (Violation("pale", f"qtilde 1 with point label {q22}", True),),
            True)
    if q22 == -one and qt == -one:
        return FiniteGK(2, (((2,), "eny_star", 2),), False)
    if q22 == -one and qt.mult_order() == 3:
        # the coinvariant algebra contains a block with epsilon in G'3
        return InfiniteGK(
            (Violation("pale", "qtilde in G'3 with point label -1", False),),
            False)
    if (q22 * qt).is_one():
        return InfiniteGK(
            (Violation("pale", "point label inverse to qtilde", True),), True)
    if qt.mult_order() == 3 and q22 == -qt:
        return InfiniteGK(
            (Violation("pale", "point label -qtilde with qtilde in G'3",
                       False),), False)
    return InfiniteGK(
        (Violation("pale", f"qtilde {qt}, point label {q22}", True),), True)
