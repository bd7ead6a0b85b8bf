"""Generalized Dynkin diagrams, Cartan coefficients, and reflections.

Covers the diagonal-type tooling: diagram extraction from a diagonal braiding,
the integers c_ij defined by (n+1)_{q_ii} (1 - q_ii^n q_ij q_ji) = 0, vertex
reflections of the braiding matrix, Cartan-type detection for the handful of
finite and affine types that actually occur, and recognition of the admissible
block-attached component patterns with their GK contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braidings import natural_ghost
from .scalars import GKNicholsError, Scalar, qnum

_CARTAN_SEARCH_CAP = 48


class WeylError(GKNicholsError):
    pass


class ReflectionUndefined(WeylError):
    def __init__(self, i, failing):
        super().__init__(
            f"Cartan coefficients at vertex {i} undefined for {failing}")
        self.vertex = i
        self.failing = failing


class _Undefined:
    __slots__ = ()

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


class DynkinDiagram:
    """Vertex labels q_ii and symmetric edge labels qtilde_ij != 1."""

    def __init__(self, labels, edges):
        self.labels = list(labels)
        self.edges = {}
        for (i, j), q in edges.items():
            if i == j:
                raise WeylError("no self-edges in a Dynkin diagram")
            a, b = (i, j) if i < j else (j, i)
            if q.is_one():
                continue
            self.edges[(a, b)] = q

    @property
    def nvertices(self):
        return len(self.labels)

    def edge(self, i, j):
        a, b = (i, j) if i < j else (j, i)
        return self.edges.get((a, b))

    def neighbors(self, i):
        out = []
        for (a, b) in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def components(self):
        """Connected components as sorted vertex tuples, sorted by minimum."""
        parent = list(range(self.nvertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b) in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        comps = {}
        for v in range(self.nvertices):
            comps.setdefault(find(v), []).append(v)
        return [tuple(sorted(c)) for _, c in sorted(comps.items())]

    def subdiagram(self, vertices):
        """Induced diagram on the given vertices (relabelled 0..k-1)."""
        idx = {v: n for n, v in enumerate(vertices)}
        labels = [self.labels[v] for v in vertices]
        edges = {}
        for (a, b), q in self.edges.items():
            if a in idx and b in idx:
                edges[(idx[a], idx[b])] = q
        return DynkinDiagram(labels, edges)


def dynkin(d) -> DynkinDiagram:
    """Diagram of a diagonal braiding: edges exactly where q_ij q_ji != 1."""
    n = d.dim
    labels = [d.q(i, i) for i in range(1, n + 1)]
    edges = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            qt = d.q(i, j) * d.q(j, i)
            if not qt.is_one():
                edges[(i - 1, j - 1)] = qt
    return DynkinDiagram(labels, edges)


def _check_vertex(d, i):
    if not 1 <= i <= d.dim:
        raise WeylError(f"vertex {i} is not in 1..{d.dim}")


def cartan_coeff(d, i, j):
    """c_ij = -min{ n >= 0 : (n+1)_{q_ii} (1 - q_ii^n q_ij q_ji) = 0 },
    or UNDEFINED when no such n exists within the decidable range."""
    _check_vertex(d, i)
    _check_vertex(d, j)
    if i == j:
        raise WeylError("cartan_coeff requires i != j")
    qii = d.q(i, i)
    qt = d.q(i, j) * d.q(j, i)
    ring = qii.ring
    order = qii.mult_order()
    bound = order if order is not None else _CARTAN_SEARCH_CAP
    power = ring.one()
    for n in range(bound):
        if qnum(n + 1, qii).is_zero() or (power * qt).is_one():
            return -n
        power = power * qii
    return UNDEFINED


@dataclass
class CartanData:
    """Integer matrix c_ij (c_ii = 2) with a definedness mask."""

    rank: int
    matrix: dict = field(default_factory=dict)

    def c(self, i, j):
        if i == j:
            return 2
        return self.matrix.get((i, j), UNDEFINED)

    def all_defined(self):
        return all(self.matrix.get((i, j)) is not UNDEFINED
                   for i in range(1, self.rank + 1)
                   for j in range(1, self.rank + 1) if i != j)


def cartan_data(d) -> CartanData:
    n = d.dim
    out = CartanData(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out.matrix[(i, j)] = cartan_coeff(d, i, j)
    return out


def reflect(d, i):
    """Reflection at vertex i of a diagonal braiding matrix:
    t_jk = q_jk q_ik^{-c_ij} q_ji^{-c_ik} q_ii^{c_ij c_ik}."""
    from .braidings import DiagonalBraiding
    _check_vertex(d, i)
    n = d.dim
    cs = {}
    failing = []
    for j in range(1, n + 1):
        c = 2 if j == i else cartan_coeff(d, i, j)
        if c is UNDEFINED:
            failing.append(j)
        cs[j] = c
    if failing:
        raise ReflectionUndefined(i, failing)
    qii = d.q(i, i)
    mat = []
    for j in range(1, n + 1):
        row = []
        for k in range(1, n + 1):
            t = (d.q(j, k)
                 * d.q(i, k) ** (-cs[j])
                 * d.q(j, i) ** (-cs[k])
                 * qii ** (cs[j] * cs[k]))
            row.append(t)
        mat.append(row)
    return DiagonalBraiding(d.ring, mat)


# ---------------------------------------------------------------------------
# Cartan-type detection and classification


@dataclass(frozen=True)
class FiniteType:
    name: str


@dataclass(frozen=True)
class AffineType:
    name: str


@dataclass(frozen=True)
class OtherType:
    pass


OTHER = OtherType()


def detect_cartan(d):
    """CartanData when qtilde_ij = q_ii^{c_ij} for all i != j, else None."""
    n = d.dim
    data = cartan_data(d)
    if not data.all_defined():
        return None
    for i in range(1, n + 1):
        qii = d.q(i, i)
        for j in range(1, n + 1):
            if i == j:
                continue
            qt = d.q(i, j) * d.q(j, i)
            if not (qii ** data.c(i, j) == qt):
                return None
    return data


def _shape(rank, edges):
    """The shape of a simple graph on vertices 1..rank: each vertex's degree
    with the sorted degrees of its neighbours, sorted.  On at most 6
    vertices it tells each diagram of ``_CARTAN_TYPES`` from every other
    graph."""
    adj = {v: [] for v in range(1, rank + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return tuple(sorted((len(nbrs), tuple(sorted(len(adj[u]) for u in nbrs)))
                        for nbrs in adj.values()))


def _path(rank):
    return [(i, i + 1) for i in range(1, rank)]


# the simply-laced types of rank <= 6, by the shape of one diagram each
_CARTAN_TYPES = {_shape(rank, edges): kind for rank, edges, kind in [
    *((n, _path(n), FiniteType(f"A{n}")) for n in range(1, 7)),
    *((n, _path(n - 1) + [(n - 2, n)], FiniteType(f"D{n}"))
      for n in range(4, 7)),
    (3, _path(3) + [(3, 1)], AffineType("A2(1)")),
    (4, _path(4) + [(4, 1)], AffineType("A3(1)")),
    (5, [(1, 2), (1, 3), (1, 4), (1, 5)], AffineType("D4(1)")),
    (6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], AffineType("D5(1)")),
]}


def classify_cartan(data: CartanData):
    """A_n / D_n finite, A_1..3^(1) and D_4..5^(1) affine, named by the
    shape of their diagram; everything else reported as Other."""
    n = data.rank
    if n > 6 or not data.all_defined():
        return OTHER
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cij, cji = data.c(i, j), data.c(j, i)
            if (cij < 0) != (cji < 0):
                return OTHER
            if cij < -1 or cji < -1:  # only the double edge of A1(1)
                double = n == 2 and cij == cji == -2
                return AffineType("A1(1)") if double else OTHER
            if cij < 0:
                edges.append((i, j))
    return _CARTAN_TYPES.get(_shape(n, edges), OTHER)


# ---------------------------------------------------------------------------
# admissible component patterns


@dataclass(frozen=True)
class TableEntry:
    """A recognized block-attached component with its GK contribution.

    ``name`` is the display name of the pattern (``lstr(1,2)``, ``lstr(A3)``)
    and ``catalog`` the ``(entry name, params)`` pair that ``catalog``
    instantiates for it (``("lstr(1,G)", {"G": 2})``,
    ``("lstr(A_theta-1)", {"theta": 4})``).
    """

    name: str
    gk: int
    catalog: tuple = field(hash=False)  # params is a dict


def _entry(name, gk, catalog_name=None, **params):
    """TableEntry whose catalog entry is ``catalog_name`` (default: name)."""
    return TableEntry(name, gk, (catalog_name or name, params))


def _label_kind(q: Scalar):
    if q.is_one():
        return "1"
    if (-q.ring.one()) == q:
        return "-1"
    mo = q.mult_order()
    if mo == 3:
        return "omega"
    if mo is None:
        return "generic"
    return f"G{mo}"


def match_table_pattern(component: DynkinDiagram, attachment) -> TableEntry | None:
    """Match a connected component against the admissible connection patterns.

    ``attachment`` is a dict with keys: ``sign`` ('+' or '-'), ``ghost``
    (Scalar), ``mild`` (bool), ``vertex`` (index of the attached vertex in the
    component).  Returns the named entry with its GK contribution, or None.
    """
    sign = attachment["sign"]
    mild = attachment.get("mild", False)
    vertex = attachment["vertex"]
    k = component.nvertices
    gn = natural_ghost(attachment["ghost"])
    if not gn:
        return None
    kinds = [_label_kind(q) for q in component.labels]
    vk = kinds[vertex]

    if mild:
        if sign != "-" or gn != 1 or vk != "-1":
            return None
        if k == 1:
            return _entry("cyc1", 0)
        if k == 2:
            other = 1 - vertex
            qt = component.edge(vertex, other)
            if kinds[other] == "-1" and qt is not None \
                    and (-qt.ring.one()) == qt:
                return _entry("cyc2", 1)
        return None

    if k == 1:
        minus = "" if sign == "+" else "_-"
        if vk == "1":
            return _entry(f"lstr{minus}(1,{gn})", gn + 1,
                          f"lstr{minus}(1,G)", G=gn)
        if vk == "-1":
            return _entry(f"lstr{minus}(-1,{gn})", 0 if sign == "+" else gn,
                          f"lstr{minus}(-1,G)", G=gn)
        if vk == "omega" and sign == "+" and gn == 1:
            return _entry("lstr(omega,1)", 0)
        return None

    if sign != "+":
        return None

    if k == 2:
        other = 1 - vertex
        qt = component.edge(vertex, other)
        if qt is None:
            return None
        one = qt.ring.one()
        ok = kinds[other]
        if vk == "-1" and ok == "-1":
            if qt == -one and gn == 1:
                # two-point A chain
                return _entry("lstr(A2)", 0, "lstr(A_theta-1)", theta=3)
            if qt == -one and gn == 2:
                return _entry("lstr(A2,2)", 0)
            if qt.mult_order() == 3 and gn == 1:
                return _entry("lstr(A(1|0)2;omega)", 0)
            return None
        if vk == "-1" and gn == 1:
            # attached -1 point, far point label r, edge must be r^{-1}
            r = component.labels[other]
            if (qt * r).is_one() and ok not in ("1", "-1"):
                if ok == "omega":
                    return _entry("lstr(A(1|0)1;omega)", 0,
                                  "lstr(A(1|0)1;r)", r=3)
                if ok == "generic":
                    return _entry("lstr(A(1|0)1;r)", 2, r="generic")
                return _entry("lstr(A(1|0)1;r)", 0, r=r.mult_order())
            return None
        if vk == "omega" and ok == "-1" and gn == 1:
            if qt.mult_order() == 3 and \
                    (qt * component.labels[vertex]).is_one():
                return _entry("lstr(A(1|0)3;omega)", 0)
            return None
        return None

    # chains of length >= 3, attached at an end, ghost 1
    if gn != 1 or vk != "-1":
        return None
    order = _chain_order(component, vertex)
    if order is None:
        return None
    ck = [kinds[v] for v in order]
    edges = [component.edge(order[m], order[m + 1]) for m in range(k - 1)]
    one = component.labels[0].ring.one()
    if all(x == "-1" for x in ck) and all(e == -one for e in edges):
        return _entry(f"lstr(A{k})", 0, "lstr(A_theta-1)", theta=k + 1)
    if k == 3:
        o3 = [e.mult_order() == 3 for e in edges]
        if ck == ["-1", "omega", "omega"] and o3 == [True, True] \
                and edges[0] == edges[1] \
                and (edges[0] * component.labels[order[1]]).is_one() \
                and (edges[1] * component.labels[order[2]]).is_one():
            return _entry("lstr(A(2|0)1;omega)", 0)
        if ck == ["-1", "omega", "omega"] and o3 == [True, True] \
                and (edges[0] * component.labels[order[1]]).is_one() \
                and (edges[1] * component.labels[order[2]]).is_one() \
                and edges[0] != edges[1]:
            return _entry("lstr(D(2|1);omega)", 0)
    return None


def _chain_order(component: DynkinDiagram, start):
    """Vertex order of a path starting at ``start``, or None if not a path."""
    k = component.nvertices
    if len(component.neighbors(start)) != 1:
        return None
    order = [start]
    prev = None
    cur = start
    while len(order) < k:
        nxt = [v for v in component.neighbors(cur) if v != prev]
        if len(nxt) != 1:
            return None
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order
