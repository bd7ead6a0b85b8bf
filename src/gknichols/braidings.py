"""Braided vector spaces: blocks plus points, pale block plus point, diagonal.

A spec fixes a basis of letters, the abelian-group action of the principal
realization, and hence the braiding c(x_i (x) x_j) = (g_{|i|} . x_j) (x) x_i.
Letters are exposed as small objects but indexed internally by position in
``spec.letters``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum

from .scalars import (GKNicholsError, Scalar, ScalarRing, parse_scalar,
                      print_scalar)


class SpecError(GKNicholsError):
    pass


class EpsilonNotPlusMinusOne(SpecError):
    pass


class Letter(namedtuple("Letter", "group level name idx")):
    """A basis letter: group index (1-based block/point index), level, name
    and position in ``spec.letters``.

    Level 0 is the point letter or the first block letter x_k; level m >= 1
    are the extra block letters (x_{k+1/2} for length-2 blocks).
    """

    __slots__ = ()

    def __str__(self):
        return self.name


class Interaction(Enum):
    WEAK = "weak"
    MILD = "mild"
    STRONG = "strong"
    UNDETERMINED = "undetermined"


class _BraidedBase:
    """Shared letter/action plumbing for the concrete spec classes."""

    ring: ScalarRing
    letters: list  # of Letter
    ngroups: int

    def _finish(self, letters, act):
        self.letters = letters
        self.name_to_idx = {l.name: l.idx for l in letters}
        self.nletters = len(letters)
        # the group of each letter index, read on the truncation's hot path
        self._groups = tuple(l.group for l in letters)
        # act[g-1][idx] = tuple of (target idx, Scalar)
        self._act = act

    def letter(self, key) -> Letter:
        if isinstance(key, Letter):
            return key
        if isinstance(key, int):
            return self.letters[key]
        if key in self.name_to_idx:
            return self.letters[self.name_to_idx[key]]
        raise SpecError(f"unknown letter {key!r}")

    def act_letter(self, group: int, letter) -> tuple:
        """g_group . x_letter as ((letter index, coefficient), ...)."""
        return self._act[group - 1][self.letter(letter).idx]

    def group_of(self, idx: int) -> int:
        return self._groups[idx]

    def group_counts(self, word) -> tuple:
        """Letter counts per group of ``word``: its Z^theta-degree."""
        counts = [0] * self.ngroups
        groups = self._groups
        for x in word:
            counts[groups[x] - 1] += 1
        return tuple(counts)


def _norm_scalar(ring, value):
    if isinstance(value, Scalar):
        if value.ring != ring:
            raise SpecError("scalar from wrong ring")
        return value
    if isinstance(value, str):
        return parse_scalar(value, ring)
    if isinstance(value, bool):  # a JSON true/false is not the scalar 1/0
        raise SpecError(f"bad scalar {value!r}")
    try:
        return ring.from_rational(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"bad scalar {value!r}") from None


def _sequence(value, what):
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{what} must be a list")
    return value


def _mapping(value, what):
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be a mapping")
    return value


def _block(ring, b):
    """(epsilon, length) of a block given as a dict or a pair."""
    if isinstance(b, dict) and "epsilon" in b:
        eps, length = b["epsilon"], b.get("length", 2)
    elif isinstance(b, (list, tuple)) and len(b) == 2:
        eps, length = b
    else:
        raise SpecError(f"bad block {b!r}: expected epsilon and length")
    eps = _norm_scalar(ring, eps)
    if isinstance(length, bool) or not isinstance(length, int):
        raise SpecError(f"block length must be an integer, not {length!r}")
    if length < 2:
        raise SpecError("block length must be >= 2")
    return eps, length


def _index_pair(key):
    """(i, k) from a pair of ints or an "i,k" string."""
    if isinstance(key, str):
        try:
            key = tuple(int(s) for s in key.split(","))
        except ValueError:
            pass
    if not (isinstance(key, tuple) and len(key) == 2
            and all(type(x) is int for x in key)):
        raise SpecError(f"bad index pair {key!r}: expected 'i,k'")
    return key


class BraidedSpaceSpec(_BraidedBase):
    """Blocks (epsilon, length) and points (diagonal labels) with a q-matrix.

    ``qmat[i][j]`` (1-based access through :meth:`q`) gives q_{ij}; ``avals``
    maps (i, k) with k a block index to a_{ik}.  Within a block the group
    element acts by its Jordan block (eps on the diagonal, 1 above), which for
    eps = +-1 agrees with the q/a parametrization and stays correct for the
    eps of higher order needed by the infinite-GK block theorem.
    """

    def __init__(self, ring, blocks, points, qmat, avals=None):
        self.ring = ring
        self.blocks = [_block(ring, b) for b in _sequence(blocks, "blocks")]
        self.points = []
        for p in _sequence(points, "points"):
            if isinstance(p, dict):
                if "q" not in p:
                    raise SpecError(f"point {p!r} has no 'q'")
                p = p["q"]
            q = _norm_scalar(ring, p)
            if q.is_zero():
                raise SpecError("point label must be nonzero")
            self.points.append(q)
        self.t = len(self.blocks)
        self.theta = self.t + len(self.points)
        self.ngroups = self.theta
        if len(_sequence(qmat, "q")) != self.theta or any(
                len(_sequence(row, "q row")) != self.theta for row in qmat):
            raise SpecError(f"q must be a {self.theta}x{self.theta} matrix")
        self.qmat = [[_norm_scalar(ring, qmat[i][j]) for j in range(self.theta)]
                     for i in range(self.theta)]
        for row in self.qmat:
            for entry in row:
                if entry.is_zero():
                    raise SpecError("q-matrix entries must be nonzero")
        for k in range(self.t):
            if self.qmat[k][k] != self.blocks[k][0]:
                raise SpecError(f"q_{k+1}{k+1} must equal block epsilon")
        for j, q in enumerate(self.points):
            if self.qmat[self.t + j][self.t + j] != q:
                raise SpecError("diagonal q entries must match point labels")
        self.avals = {}
        if avals:
            for key, val in _mapping(avals, "a").items():
                i, k = _index_pair(key)
                if not 1 <= i <= self.theta:
                    raise SpecError(f"a_({i},{k}): {i} is not a vertex index")
                if not 1 <= k <= self.t:
                    raise SpecError(f"a_({i},{k}): {k} is not a block index")
                self.avals[(i, k)] = _norm_scalar(ring, val)
        for k in range(1, self.t + 1):
            self.avals[(k, k)] = self.blocks[k - 1][0]  # normalization a_kk = eps_k

        letters = []
        for k, (eps, length) in enumerate(self.blocks, start=1):
            for m in range(length):
                name = f"x{k}" if m == 0 else (f"x{k}h" if m == 1 else f"x{k}h{m}")
                letters.append(Letter(k, m, name, len(letters)))
        for j in range(self.t + 1, self.theta + 1):
            letters.append(Letter(j, 0, f"x{j}", len(letters)))

        zero = ring.zero()
        act = []
        for g in range(1, self.theta + 1):
            row = []
            for lt in letters:
                k = lt.group
                if lt.level == 0:
                    row.append(((lt.idx, self.q(g, k)),))
                elif g == k:
                    # Jordan action of the block's own group element
                    eps = self.blocks[k - 1][0]
                    row.append(((lt.idx, eps), (lt.idx - 1, ring.one())))
                else:
                    a = self.a(g, k)
                    qgk = self.q(g, k)
                    if a.is_zero():
                        row.append(((lt.idx, qgk),))
                    else:
                        row.append(((lt.idx, qgk), (lt.idx - 1, qgk * a)))
            act.append(row)
        self._finish(letters, act)

    # -- 1-based accessors --------------------------------------------------

    def q(self, i: int, j: int) -> Scalar:
        return self.qmat[i - 1][j - 1]

    def a(self, i: int, k: int) -> Scalar:
        return self.avals.get((i, k), self.ring.zero())

    def is_block(self, i: int) -> bool:
        return 1 <= i <= self.t

    def epsilon(self, k: int) -> Scalar:
        return self.blocks[k - 1][0]

    def block_length(self, k: int) -> int:
        return self.blocks[k - 1][1]

    def point_label(self, j: int) -> Scalar:
        return self.points[j - self.t - 1]

    def __repr__(self):
        return (f"BraidedSpaceSpec(t={self.t}, theta={self.theta}, "
                f"letters={[l.name for l in self.letters]})")


class PaleBlockPointSpec(_BraidedBase):
    """A pale block (two letters, diagonal action of g1, Jordan-type action of
    g2 on the second letter) and one point."""

    def __init__(self, ring, epsilon, q12, q21, q22):
        self.ring = ring
        self.epsilon = _norm_scalar(ring, epsilon)
        self.q12 = _norm_scalar(ring, q12)
        self.q21 = _norm_scalar(ring, q21)
        self.q22 = _norm_scalar(ring, q22)
        for s in (self.epsilon, self.q12, self.q21, self.q22):
            if s.is_zero():
                raise SpecError("pale braiding scalars must be nonzero")
        self.ngroups = 2
        letters = [Letter(1, 0, "x1", 0), Letter(1, 1, "x2", 1),
                   Letter(2, 0, "x3", 2)]
        one = ring.one()
        act = [
            # g1 acts diagonally on the pale block
            (((0, self.epsilon),), ((1, self.epsilon),), ((2, self.q12),)),
            # g2 acts by q21 with a Jordan tail on x2
            (((0, self.q21),), ((1, self.q21), (0, self.q21)), ((2, self.q22),)),
        ]
        self._finish(letters, act)

    def qtilde(self) -> Scalar:
        return self.q12 * self.q21

    def __repr__(self):
        return (f"PaleBlockPointSpec(eps={self.epsilon}, q12={self.q12}, "
                f"q21={self.q21}, q22={self.q22})")


class DiagonalBraiding:
    """Diagonal braiding matrix (q_ij), 0-indexed storage, 1-based access."""

    def __init__(self, ring, matrix):
        self.ring = ring
        self.matrix = [[_norm_scalar(ring, v) for v in _sequence(row, "q row")]
                       for row in _sequence(matrix, "q")]
        self.dim = len(self.matrix)
        for row in self.matrix:
            if len(row) != self.dim:
                raise SpecError("diagonal matrix must be square")
            for v in row:
                if v.is_zero():
                    raise SpecError("diagonal braiding entries must be nonzero")

    def q(self, i: int, j: int) -> Scalar:
        return self.matrix[i - 1][j - 1]

    def qtilde(self, i: int, j: int) -> Scalar:
        return self.q(i, j) * self.q(j, i)

    def __eq__(self, other):
        return (isinstance(other, DiagonalBraiding)
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"DiagonalBraiding(dim={self.dim})"


# ---------------------------------------------------------------------------
# operations


def braid_letters(spec, i, j):
    """c(x_i (x) x_j) as a degree-2 element: sum of coeff * x_a x_b words."""
    from .freealgebra import TensorElement
    li, lj = spec.letter(i), spec.letter(j)
    terms = {}
    for tgt, coeff in spec.act_letter(li.group, lj):
        terms[(tgt, li.idx)] = coeff
    return TensorElement(spec, terms)


def interaction(spec, k: int, j: int) -> Interaction:
    """Block-point interaction from q_kj * q_jk."""
    v = spec.q(k, j) * spec.q(j, k)
    if v == spec.ring.one():
        return Interaction.WEAK
    if v == -spec.ring.one():
        return Interaction.MILD
    return Interaction.STRONG


def ghost(spec: BraidedSpaceSpec, j: int, k: int) -> Scalar:
    """Ghost between vertex j and block k: -2a (eps=1) or a (eps=-1)."""
    if not spec.is_block(k):
        raise SpecError(f"{k} is not a block index")
    eps = spec.epsilon(k)
    one = spec.ring.one()
    a = spec.a(j, k)
    if eps == one:
        return spec.ring.from_int(-2) * a
    if eps == -one:
        return a
    raise EpsilonNotPlusMinusOne(f"ghost undefined for epsilon {eps}")


def natural_ghost(g: Scalar) -> int | None:
    """The ghost as a Python int when it is a nonnegative rational integer
    (a discrete ghost), else None."""
    if not g.is_integer():
        return None
    n = int(g.as_rational())
    return n if n >= 0 else None


def diagonalize(spec) -> DiagonalBraiding:
    """Diagonal braiding of gr V along the flag refining blocks in order."""
    if isinstance(spec, DiagonalBraiding):
        return spec
    ring = spec.ring
    n = spec.nletters
    matrix = []
    for u in spec.letters:
        row = []
        for v in spec.letters:
            if isinstance(spec, PaleBlockPointSpec):
                if u.group == v.group:
                    row.append(spec.epsilon if u.group == 1 else spec.q22)
                elif u.group == 1:
                    row.append(spec.q12)
                else:
                    row.append(spec.q21)
            elif u.group == v.group and spec.is_block(u.group):
                row.append(spec.epsilon(u.group))
            else:
                row.append(spec.q(u.group, v.group))
        matrix.append(row)
    return DiagonalBraiding(ring, matrix)


# ---------------------------------------------------------------------------
# JSON


def ring_from_json(obj) -> ScalarRing:
    if not isinstance(obj, dict):
        raise SpecError("ring must be a JSON object")
    order = obj.get("cyclotomic_order", 1)
    params = obj.get("params", [])
    if isinstance(order, bool) or not isinstance(order, int):
        raise SpecError(f"cyclotomic_order must be an integer, not {order!r}")
    if not all(isinstance(p, str) for p in _sequence(params, "params")):
        raise SpecError("params must be a list of names")
    return ScalarRing(order, params)


_PALE_KEYS = ("epsilon", "q12", "q21", "q22")


def spec_from_json(obj) -> BraidedSpaceSpec | PaleBlockPointSpec:
    """Spec from its JSON form (see :func:`spec_to_json`): blocks, points,
    a q-matrix and ``a`` or ``ghost`` data, or a pale block plus point given
    by its four scalars under "pale"."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except ValueError as exc:
            raise SpecError(f"bad spec JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    if "pale" in obj:
        pale = _mapping(obj["pale"], "pale")
        if set(pale) != set(_PALE_KEYS):
            raise SpecError(f"pale needs exactly the keys "
                            f"{', '.join(_PALE_KEYS)}, not "
                            f"{sorted(map(str, pale))}")
        return PaleBlockPointSpec(ring_from_json(obj.get("ring", {})),
                                  *(pale[key] for key in _PALE_KEYS))
    if "q" not in obj:
        raise SpecError("spec has no 'q' matrix")
    ring = ring_from_json(obj.get("ring", {}))
    blocks = [_block(ring, b) for b in _sequence(obj.get("blocks", []),
                                                 "blocks")]
    avals = dict(_mapping(obj.get("a", {}), "a"))
    for key, gval in _mapping(obj.get("ghost", {}), "ghost").items():
        j, k = _index_pair(key)
        if not 1 <= k <= len(blocks):
            raise SpecError(f"ghost ({j},{k}): {k} is not a block index")
        if f"{j},{k}" in avals:
            continue
        g = _norm_scalar(ring, gval)
        avals[f"{j},{k}"] = g / ring.from_int(-2) \
            if blocks[k - 1][0] == ring.one() else g
    return BraidedSpaceSpec(ring, blocks, obj.get("points", []), obj["q"],
                            avals)


def spec_to_json(spec) -> dict:
    """JSON form of a spec; a pale spec gives its four scalars under "pale"."""
    ring = {"cyclotomic_order": spec.ring.cyclotomic_order,
            "params": list(spec.ring.params)}
    if isinstance(spec, PaleBlockPointSpec):
        return {"ring": ring,
                "pale": {key: print_scalar(getattr(spec, key))
                         for key in _PALE_KEYS}}
    out = {
        "ring": ring,
        "blocks": [{"epsilon": print_scalar(eps), "length": length}
                   for eps, length in spec.blocks],
        "points": [{"q": print_scalar(q)} for q in spec.points],
        "q": [[print_scalar(v) for v in row] for row in spec.qmat],
    }
    avals = {}
    for (i, k), v in sorted(spec.avals.items()):
        if i == k:
            continue  # forced to epsilon
        if not v.is_zero():
            avals[f"{i},{k}"] = print_scalar(v)
    out["a"] = avals
    return out


def diagonal_from_json(obj) -> DiagonalBraiding:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise SpecError("diagonal braiding must be a JSON object")
    if not obj.get("q"):
        raise SpecError("diagonal braiding needs a nonempty 'q' matrix")
    ring = ring_from_json(obj.get("ring", {}))
    return DiagonalBraiding(ring, obj["q"])
