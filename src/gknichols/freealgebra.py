"""The braided tensor algebra T(V).

Elements are exact linear combinations of words in the spec's letters; a word
is stored as a tuple of letter indices.  Words are ordered by length, then
lexicographically on indices, which is the term order used for all pivoting
downstream.

Element texts are read by the one grammar of :func:`scalars.parse_tree`,
whose names here are the spec's letters and a macro table's keys;
:func:`parse_element` evaluates the tree to an element and
:func:`expression_degree` to its length degree, without expanding it.
"""

from __future__ import annotations

from .braidings import SpecError
from .scalars import SCALAR_OPS, GKNicholsError, Scalar, evaluate, \
    join_terms, parse_tree, scalar_value


class ElementError(GKNicholsError):
    pass


class SpecMismatch(ElementError):
    pass


class NonHomogeneous(ElementError):
    pass


def word_key(word):
    return (len(word), word)


def add_term(acc, key, value, ops=SCALAR_OPS):
    """acc[key] += value in a sparse dict, dropping a zero sum; the values
    are Scalars, or a ring's payloads with ``ops`` its ``RingOps``."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = value
    else:
        s = ops.add(cur, value)
        if ops.is_zero(s):
            del acc[key]
        else:
            acc[key] = s


def add_into(acc, vec, coeff=None, ops=SCALAR_OPS):
    """acc += coeff * vec for sparse dicts (coeff None means 1), values as
    in :func:`add_term`."""
    if coeff is None:
        for k, v in vec.items():
            add_term(acc, k, v, ops)
    else:
        mul = ops.mul
        for k, v in vec.items():
            add_term(acc, k, mul(v, coeff), ops)


class TensorElement:
    """Exact element of T(V): map word -> nonzero Scalar."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        self.spec = spec
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[word] = coeff

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, spec):
        return cls(spec, {(): spec.ring.one()})

    @classmethod
    def letter(cls, spec, key):
        lt = spec.letter(key)
        return cls(spec, {(lt.idx,): spec.ring.one()})

    # -- basic queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coeff(self, word):
        return self.terms.get(word, self.spec.ring.zero())

    def degrees(self):
        return sorted({len(w) for w in self.terms})

    def degree(self):
        degs = self.degrees()
        if len(degs) != 1:
            raise NonHomogeneous("element is not length-homogeneous")
        return degs[0]

    def group_degree(self):
        """The Z^theta degree (letter counts per group index), if homogeneous."""
        deg = None
        for word in self.terms:
            d = self.spec.group_counts(word)
            if deg is None:
                deg = d
            elif deg != d:
                raise NonHomogeneous("element is not Z^theta-homogeneous")
        return deg if deg is not None else (0,) * self.spec.ngroups

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TensorElement):
            raise SpecMismatch("expected a TensorElement")
        if other.spec is not self.spec:
            raise SpecMismatch("elements from different specs")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        add_into(terms, other.terms)
        out = TensorElement(self.spec)
        out.terms = terms
        return out

    def __neg__(self):
        out = TensorElement(self.spec)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if not isinstance(coeff, Scalar):
            coeff = self.spec.ring.from_rational(coeff)
        if coeff.is_zero():
            return TensorElement(self.spec)
        out = TensorElement(self.spec)
        out.terms = {w: c * coeff for w, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.spec.ring.from_int(other))
        self._check(other)
        terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                add_term(terms, wa + wb, ca * cb)
        out = TensorElement(self.spec)
        out.terms = terms
        return out

    def __rmul__(self, coeff):
        if isinstance(coeff, (Scalar, int)):
            return self.scale(coeff)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ElementError(f"exponent {n} is negative: T(V) has no "
                               f"inverses")
        out = TensorElement.unit(self.spec)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.spec is other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.spec),
                     tuple(sorted(self.terms.items(),
                                  key=lambda kv: word_key(kv[0])))))

    def __repr__(self):
        return f"TensorElement({print_element(self)})"

    def __str__(self):
        return print_element(self)


# ---------------------------------------------------------------------------
# group action, braiding, commutators, derivations


def act_on_word(spec, group: int, word, coeff=None):
    """g_group . (word) as a dict word -> Scalar."""
    ring = spec.ring
    if coeff is None:
        coeff = ring.one()
    out = {(): coeff}
    for idx in word:
        expansion = spec.act_letter(group, idx)
        new = {}
        for w, c in out.items():
            for tgt, a in expansion:
                add_term(new, w + (tgt,), c * a)
        out = new
    return out


def group_act(spec, group: int, e: TensorElement) -> TensorElement:
    terms = {}
    for word, coeff in e.terms.items():
        add_into(terms, act_on_word(spec, group, word, coeff))
    out = TensorElement(spec)
    out.terms = terms
    return out


def act_by_degree(spec, degree, e: TensorElement) -> TensorElement:
    """Apply the group element g_1^{d_1} ... g_theta^{d_theta}."""
    for g, d in enumerate(degree, start=1):
        for _ in range(d):
            e = group_act(spec, g, e)
    return e


def braid_tensors(u: TensorElement, v: TensorElement) -> TensorElement:
    """c(u (x) v) = (g_{deg u} . v) (x) u, as concatenated words."""
    deg = u.group_degree()  # raises NonHomogeneous when needed
    spec = u.spec
    acted = act_by_degree(spec, deg, v)
    out = TensorElement(spec)
    for wv, cv in acted.terms.items():
        for wu, cu in u.terms.items():
            add_term(out.terms, wv + wu, cv * cu)
    return out


def braided_commutator(u: TensorElement, v: TensorElement) -> TensorElement:
    """[u, v]_c = uv - m(c(u (x) v)); u must be Z^theta-homogeneous."""
    return u * v - braid_tensors(u, v)


def ad_letter(spec, i, v: TensorElement) -> TensorElement:
    return braided_commutator(TensorElement.letter(spec, i), v)


def skew_derivation(spec, i, e: TensorElement) -> TensorElement:
    """partial_i with partial_i(x_j) = delta_ij and the twisted Leibniz rule
    partial_i(xy) = partial_i(x)(g_i . y) + x partial_i(y)."""
    lt = spec.letter(i)
    target, group = lt.idx, lt.group
    terms = {}
    for word, coeff in e.terms.items():
        for pos, idx in enumerate(word):
            if idx != target:
                continue
            prefix = word[:pos]
            suffix = word[pos + 1:]
            for w, c in act_on_word(spec, group, suffix, coeff).items():
                add_term(terms, prefix + w, c)
    return TensorElement(spec, terms)


# ---------------------------------------------------------------------------
# parsing / printing


def _parse_tree(text: str, spec, macros) -> tuple:
    """The tree of :func:`scalars.parse_tree` for an element text, whose
    names are the letters of ``spec`` (``("letter", name)``) and the keys
    of ``macros`` (``("macro", name)``)."""
    def resolve(name):
        if name in spec.name_to_idx:
            return ("letter", name)
        return ("macro", name) if name in macros else None
    return parse_tree(text, spec.ring, resolve)


def parse_element(text: str, spec, macros=None) -> TensorElement:
    """Parse an element text (the grammar of :func:`scalars.parse_tree`).

    Letters by name (`x1`, `x1h`, ...), `*`, `+`, `-`, `^`, parentheses,
    `{scalar}` coefficients, integer and `p/r` literals, `ad(x, e)`,
    `[e1, e2]`, and names from the supplied macro table (strings expanded
    recursively, or elements).  Each expanded string macro is written back
    into ``macros``, so a table shared across calls expands it once.
    """
    macros = macros or {}
    return _element(_parse_tree(text, spec, macros), spec, macros)


def _element(node, spec, macros) -> TensorElement:
    def leaf(node):
        kind = node[0]
        if kind == "comm":
            return braided_commutator(evaluate(node[1], leaf),
                                      evaluate(node[2], leaf))
        if kind == "letter":
            return TensorElement.letter(spec, node[1])
        if kind == "macro":
            value = macros[node[1]]
            if isinstance(value, str):
                value = parse_element(value, spec, macros)
                macros[node[1]] = value
            return value
        return TensorElement.unit(spec).scale(scalar_value(node, spec.ring))
    return evaluate(node, leaf)


def expression_degree(text: str, spec, macros=None) -> int:
    """Length degree of an element expression, without building the element.

    Evaluates the tree of :func:`_parse_tree` on word lengths only; a sum
    reports the maximum degree of its terms (scalar-only terms count as 0).
    Useful for deciding whether an expression is worth expanding at a given
    truncation degree.
    """
    macros = macros or {}
    return _degree(_parse_tree(text, spec, macros), spec, macros, {})


def _degree(node, spec, macros, cache) -> int:
    kind = node[0]
    if kind == "sum":
        return max(_degree(t, spec, macros, cache) for _, t in node[1])
    if kind == "prod":
        return sum(_degree(f, spec, macros, cache) for f in node[1])
    if kind == "pow":
        return _degree(node[1], spec, macros, cache) * node[2]
    if kind == "neg":
        return _degree(node[1], spec, macros, cache)
    if kind == "comm":
        return (_degree(node[1], spec, macros, cache)
                + _degree(node[2], spec, macros, cache))
    if kind == "letter":
        return 1
    if kind == "macro":
        name = node[1]
        if name not in cache:
            value = macros[name]
            cache[name] = expression_degree(value, spec, macros) \
                if isinstance(value, str) else value.degree()
        return cache[name]
    return 0


def print_element(e: TensorElement) -> str:
    if not e.terms:
        return "0"
    parts = []
    names = [l.name for l in e.spec.letters]
    for word in sorted(e.terms, key=word_key):
        coeff = e.terms[word]
        mono = "*".join(names[i] for i in word) if word else "1"
        cs = str(coeff)
        if cs == "1" and word:
            parts.append(mono)
        elif cs == "-1" and word:
            parts.append(f"-{mono}")
        elif word:
            parts.append(f"{{{cs}}}*{mono}")
        else:
            parts.append(f"{{{cs}}}")
    return join_terms(parts)
