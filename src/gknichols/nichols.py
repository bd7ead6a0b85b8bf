"""Degree-by-degree computation of the Nichols algebra B(V).

The defining ideal is computed by the derivation recursion
I(1) = 0,  I(n) = { t in T^n : partial_i(t) in I(n-1) for every letter i },
so B^n = T^n / I(n).  Degree n is obtained by incremental sparse elimination:
candidate words are processed in increasing (length, lex) order and each
either joins the monomial complement spanning B^n or yields a reduced ideal
element whose leading (largest) monomial is that word.  The coordinates of
all skew derivations of each complement word in the previous complement are
kept, so that degree n only needs degree n-1 data.

The complement is factor-closed, so the candidates of degree n are only the
words u.x with u in the degree n-1 complement, x a letter and the suffix of
u.x of length n-1 in the complement too: close to dims[n] words instead of
L^n.  This is exact because I is a two-sided ideal, so I(n-1).V and
V.I(n-1) lie in I(n), and the (length, lex) order is compatible with
concatenation on both sides: if a factor of a word is congruent modulo
I(n-1) to a combination of smaller words, the word is congruent modulo I(n)
to the combination of the smaller words obtained by substituting it, so it
is never a complement word and skipping it adds nothing to the span the
elimination sees.  The complement and the normal forms of the candidates are
those of the full enumeration.  The normal form of any other word is built
on demand and memoised, by the suffix rule when its prefix is in the
complement and by the prefix rule otherwise:
nf(a.s) = sum_v c_v nf(a.v) where nf(s) = sum_v c_v v (a a letter),
nf(p.x) = sum_u c_u nf(u.x) where nf(p) = sum_u c_u u (x a letter).
Both rewrite a word through strictly smaller words of its length.

B(V) is Z^theta-graded by the letter counts per group (block or point), and
skew derivations and the braiding never raise that degree.  So the words of
Z^theta-degree at most alpha (componentwise) span a self-contained piece of
the computation: the elimination keys (d, cw) of different Z^theta-degrees
never meet, and every word a normal form of such a word is built from has
Z^theta-degree at most alpha too.  A truncation with ``bound=alpha`` keeps
only those words; its complement words and normal forms are exactly those of
the full truncation restricted to the down-set.  Membership above
``max_degree`` reduces each component through such a truncation.

So a bounded truncation need not start from degree 0: ``restricted(alpha)``
takes over the degrees a truncation already holds, keeping the complement
words, the normal forms and the top degree's skew-derivation coordinates
of the words of Z^theta-degree at most alpha, and only the degrees above
are eliminated.  A truncation that is itself bounded by beta takes over
only degree 0 when alpha does not lie below beta.  The truncation keeps the
last bounded truncation it built and reduces the next component through
it, extended if needed, when that component's Z^theta-degree lies below
its bound; otherwise it drops it before restricting itself again, so it
holds at most one bounded truncation, for as long as it lives.

Over Q(zeta_N) with phi(N) > 1 and no parameters, most candidates are
complement words, and the exact elimination spends most of its time
confirming that.  So each candidate's image is first sent to F_p by the
ring's ``ResidueMap`` (a ring homomorphism, p = 1 (mod N) a prime below
2^30; see :mod:`gknichols.residues`) and reduced there, by the same
``_Echelon`` with the ``RingOps`` of F_p, against the rows certified before
it in its Z^theta-block (the candidates of one Z^theta-degree, which share
no key with any other block).  A nonzero remainder certifies the candidate.
This is exact, not probabilistic: the certified rows of a block and the
candidate have independent images modulo p, so some maximal minor of their
matrix is nonzero modulo p, hence nonzero over Q(zeta_N), and the rows are
independent there too; in the exact elimination each of them is a
complement word.  When the remainder is zero modulo p, or p divides a
denominator, the block switches to the exact echelon: its certified rows are
replayed into it in their order, and the rest of the block is reduced
exactly.  The exact echelon of a block thus sees the rows it would see
without the certificate, in the same order, so the complement, the normal
forms and the skew-derivation coordinates, dict order included, are those
of the exact elimination alone.  Over Q (phi(N) = 1) the certificate costs
more than it saves, and rings with parameters are not reduced modulo p;
both eliminate exactly only.

The tables (the normal forms ``nf``, the skew-derivation coordinates and
the echelon rows) and the braiding expansion hold ``Scalar`` payloads, on
which ``ScalarRing.ops`` act, on every ring, with parameters or not, so the
hot loop builds no ``Scalar``.  ``Scalar`` values appear only at
``normal_form_vector``, which builds one per coordinate it returns, so
membership, verification and the probe see ``Scalar``s as before.

An independent oracle, the quantum symmetrizer, is provided for small degrees.
"""

from __future__ import annotations

from itertools import product
from math import factorial, prod
from time import perf_counter

from .braidings import Interaction, interaction
from .freealgebra import (TensorElement, ad_letter, add_into, add_term,
                          braided_commutator, expression_degree,
                          parse_element, print_element, skew_derivation)
from .scalars import SCALAR_OPS, GKNicholsError, RingMismatch, Scalar

DEFAULT_BUDGET = 10 ** 6


class NicholsError(GKNicholsError):
    pass


class BudgetExceeded(NicholsError):
    def __init__(self, degree, count, budget):
        super().__init__(f"degree {degree} needs {count} candidate words "
                         f"(budget {budget})")
        self.degree = degree
        self.count = count
        self.budget = budget


class DegreeTooLarge(NicholsError):
    pass


class NotWeak(NicholsError):
    pass


class _Echelon:
    """Incremental sparse echelon form, tracking expressions on request.

    Vectors are dicts key -> nonzero value, pivoting on the largest key; the
    values are Scalars, or a ring's payloads with ``ops`` its ``RingOps``,
    or residues modulo a prime with ``ops`` those of a ``ResidueMap``.
    A pivot row is stored as it was reduced, unscaled: its lead value, the
    rest of the row, and its label with the combination ``expr`` of earlier
    labels, the row being the image of ``label - expr``.  The inverse of
    the lead is taken on the first reduction step that uses the pivot and
    kept, so a pivot that never reduces anything costs no inverse.  A step
    cancelling the entry c at a pivot's lead costs one factor
    ``f = -c / lead`` and adds ``f * row`` to the vector and
    ``f * (expr - label)`` to the combination, when one is built.
    """

    def __init__(self, ops=SCALAR_OPS):
        self.ops = ops
        # lead key -> (lead value, row without its lead, label, expr)
        self.pivots = {}
        # lead key -> inverse of the lead value, for the pivots used so far
        self.inverses = {}

    def reduce(self, img, track=True):
        """Reduce ``img`` in place until its leading key is not a pivot.

        Returns ``expr`` with ``img_before == img_after + image(expr)``,
        where image(label) is the vector inserted under that label; with
        ``track`` false, no combination is built and None is returned.
        """
        pivots, inverses, ops = self.pivots, self.inverses, self.ops
        mul, neg = ops.mul, ops.neg
        expr = {} if track else None
        while img:
            key = max(img)
            hit = pivots.get(key)
            if hit is None:
                break
            lead, row, label, row_expr = hit
            inv = inverses.get(key)
            if inv is None:
                inv = inverses[key] = ops.inv(lead)
            step = mul(img.pop(key), inv)  # c / lead
            f = neg(step)
            add_into(img, row, f, ops)
            if expr is not None:
                add_term(expr, label, step, ops)
                add_into(expr, row_expr, f, ops)
        return expr

    def insert(self, img, expr, label):
        """Make the reduced, nonzero ``img`` a pivot row.

        ``img`` and ``expr`` are the outcome of :meth:`reduce` on the
        vector inserted under ``label``, so ``img`` is the image of
        ``label - expr``; both are kept, not copied.  ``expr`` is None in
        an echelon whose reductions build no combination.
        """
        key = max(img)
        self.pivots[key] = (img.pop(key), img, label, expr)


class NicholsTruncation:
    """Bases of I(n) and monomial complements of B^n for 0 <= n <= max_degree.

    With ``bound`` (one maximum per group), only the words whose letter
    counts per group are at most ``bound`` are kept: ``dims[n]`` counts the
    complement words of that down-set and ``ideal_dims[n]`` the rest of its
    words of length n.  ``None`` keeps every word.

    ``stats[n]`` records how degree n was computed: ``dim`` and
    ``ideal_dim``, the ``candidates`` eliminated (the words left by the
    suffix and bound filters), the candidates ``certified`` independent
    modulo a prime, the exact echelon's ``pivots`` (its complement words
    and the certified rows replayed into it, so ``dim <= pivots +
    certified``), the ``inverses`` of pivot leads it took, the normal
    forms held in ``nf`` over all degrees once degree n was done
    (``memo``), and the ``seconds`` spent.  A degree taken over by
    :meth:`restricted` ran no elimination: its counts are 0.
    """

    def __init__(self, spec, max_degree: int, budget: int = DEFAULT_BUDGET,
                 *, bound=None):
        self.spec = spec
        self.budget = budget
        self.bound = None if bound is None else tuple(bound)
        self._ops = ops = spec.ring.ops
        # the braiding expansions act[g-1][letter] on payloads
        self._act = [[tuple((t, c.payload) for t, c in expansion)
                      for expansion in group] for group in spec._act]
        self.max_degree = 0
        self.basis = {0: [()]}
        # normal forms and _dcoords hold payloads (see ops)
        self.nf = {0: {(): {(): ops.one}}}
        self.dims = [1]
        self.ideal_dims = [0]
        self.stats = [{"n": 0, "dim": 1, "ideal_dim": 0, "candidates": 0,
                       "pivots": 0, "certified": 0, "inverses": 0,
                       "memo": 1, "seconds": 0.0}]
        # NF coordinates of the skew derivations of each word of basis[n]
        # in basis[n-1], for the current top degree n
        self._dcoords = {(): [{}] * spec.nletters}
        # the last bounded truncation built for membership above max_degree
        self._kept = None
        self.extend(max_degree)

    def extend(self, max_degree: int):
        while self.max_degree < max_degree:
            self._advance()

    def _advance(self):
        start = perf_counter()
        spec = self.spec
        L = spec.nletters
        n = self.max_degree + 1
        prefixes = self.basis[n - 1]
        count = len(prefixes) * L  # an upper bound on the candidates
        if count > self.budget:
            raise BudgetExceeded(n, count, self.budget)
        prev_d = self._dcoords
        word_nf = self._word_nf
        act = self._act
        group_of = spec.group_of
        bound = self.bound
        ops = self._ops
        one, mul = ops.one, ops.mul

        echelon = _Echelon(ops)
        certificate = None
        residue_map = spec.ring.residue_map()
        if residue_map is not None:
            from .residues import Certificate
            certificate = Certificate(residue_map, echelon, spec.group_counts)
        basis_n = []
        nf_n = {}
        new_d = {}
        for prefix in prefixes:
            pd = prev_d[prefix]
            for last in range(L):
                w = prefix + (last,)
                if w[1:] not in prev_d:
                    continue  # the suffix is not a complement word
                if bound is not None and _exceeds(spec, w, bound):
                    continue  # w leaves the down-set of bound
                dvecs = []
                img = {}
                for d in range(L):
                    acc = {}
                    g = group_of(d)
                    expansion = act[g - 1][last]
                    for u, alpha in pd[d].items():
                        for tgt, beta in expansion:
                            vec = word_nf(u + (tgt,))
                            if vec:
                                add_into(acc, vec, mul(alpha, beta), ops)
                    if d == last:
                        add_term(acc, prefix, one, ops)
                    dvecs.append(acc)
                    for cw, cc in acc.items():
                        img[(d, cw)] = cc
                if certificate is None or not certificate.certify(w, img):
                    expr = echelon.reduce(img)
                    if not img:
                        nf_n[w] = expr  # w is congruent to expr modulo I(n)
                        continue
                    echelon.insert(img, expr, w)
                basis_n.append(w)
                nf_n[w] = {w: one}
                new_d[w] = dvecs
        self._dcoords = new_d
        # every candidate, and only a candidate, has an entry in nf_n so far
        self._add_degree(basis_n, nf_n, start, len(nf_n),
                         len(echelon.pivots),
                         0 if certificate is None else certificate.count,
                         len(echelon.inverses))

    def _add_degree(self, basis_n, nf_n, start, candidates=0, pivots=0,
                    certified=0, inverses=0):
        """Store the complement and normal forms of the next degree, with
        its stats record; ``start`` is when its computation began."""
        spec, bound = self.spec, self.bound
        n = self.max_degree = self.max_degree + 1
        self.basis[n] = basis_n
        self.nf[n] = nf_n
        dim = len(basis_n)
        words = spec.nletters ** n if bound is None \
            else _downset_words(spec, bound, n)
        self.dims.append(dim)
        self.ideal_dims.append(words - dim)
        self.stats.append({"n": n, "dim": dim, "ideal_dim": words - dim,
                           "candidates": candidates, "pivots": pivots,
                           "certified": certified, "inverses": inverses,
                           "memo": sum(map(len, self.nf.values())),
                           "seconds": perf_counter() - start})

    def restricted(self, bound):
        """This truncation bounded by ``bound``, read off its tables.

        The result is ``NicholsTruncation(spec, max_degree, budget,
        bound=bound)`` without its eliminations: its complement words, the
        normal forms held for its words and the skew-derivation
        coordinates of its top degree are these, kept for the words of
        Z^theta-degree at most ``bound`` (see the module docstring).  The
        vectors are shared, not copied: no table changes a stored vector.
        When this truncation is itself bounded by a beta that ``bound``
        does not lie below, only degree 0 is taken over, which is the fresh
        truncation to degree 0.
        """
        out = NicholsTruncation(self.spec, 0, self.budget, bound=bound)
        if not _within(out.bound, self.bound):
            return out
        spec, bound = self.spec, out.bound

        def inside(w):
            return not _exceeds(spec, w, bound)

        for n in range(1, self.max_degree + 1):
            start = perf_counter()
            out._add_degree([w for w in self.basis[n] if inside(w)],
                            {w: vec for w, vec in self.nf[n].items()
                             if inside(w)}, start)
        out._dcoords = {w: dvecs for w, dvecs in self._dcoords.items()
                        if inside(w)}
        return out

    def _bounded(self, bound, degree):
        """A truncation to ``degree`` bounded by ``bound`` or by a bound
        above it: the kept one when ``bound`` lies below its bound, else
        :meth:`restricted`, kept in its place."""
        if self._kept is None or not _within(bound, self._kept.bound):
            self._kept = None  # dropped first, so two never coexist
            self._kept = self.restricted(bound)
        self._kept.extend(degree)
        return self._kept

    # ------------------------------------------------------------------

    def _word_nf(self, w):
        """Normal form of the word w, memoised in ``nf[len(w)]``.

        A word missing from the table either has a prefix outside the
        complement (prefix rule) or a complement prefix and a suffix outside
        it (suffix rule); both rewrite w through strictly smaller words.
        """
        nf_n = self.nf[len(w)]
        vec = nf_n.get(w)
        if vec is None:
            vec = {}
            ops = self._ops
            prefix = w[:-1]
            prefix_nf = self._word_nf(prefix)
            if prefix in prefix_nf:
                first = w[:1]
                for v, c in self._word_nf(w[1:]).items():
                    add_into(vec, self._word_nf(first + v), c, ops)
            else:
                last = w[-1:]
                for u, c in prefix_nf.items():
                    add_into(vec, self._word_nf(u + last), c, ops)
            nf_n[w] = vec
        return vec

    def normal_form_vector(self, e: TensorElement, n: int) -> dict:
        """Coordinates (Scalars) of the degree-n component of e in the
        complement basis."""
        ring = self.spec.ring
        if e.spec.ring is not ring and e.spec.ring != ring:
            raise RingMismatch(f"{e.spec.ring} vs {ring}")
        acc = {}
        for w, c in e.terms.items():
            if len(w) == n:
                if self.bound is not None and \
                        _exceeds(self.spec, w, self.bound):
                    raise NicholsError(
                        f"word {w} lies outside the bound {self.bound}")
                add_into(acc, self._word_nf(w), c.payload, self._ops)
        return {w: Scalar(ring, c) for w, c in acc.items()}


def _exceeds(spec, word, bound):
    """True when some group count of ``word`` is above ``bound``."""
    return any(c > b for c, b in zip(spec.group_counts(word), bound))


def _within(alpha, beta):
    """True when ``alpha <= beta`` componentwise; None bounds nothing."""
    return beta is None or all(a <= b for a, b in zip(alpha, beta))


def _downset_words(spec, bound, n):
    """Number of words of length n whose group counts are at most ``bound``:
    the sum over beta <= bound with |beta| = n of the multinomial
    n! / prod(beta_g!) times prod(letters of group g ** beta_g)."""
    sizes = spec.group_counts(range(spec.nletters))
    total = 0
    for beta in product(*(range(b + 1) for b in bound)):
        if sum(beta) == n:
            ways = factorial(n)
            for b in beta:
                ways //= factorial(b)
            total += ways * prod(s ** b for s, b in zip(sizes, beta))
    return total


def compute_truncation(spec, max_degree: int,
                       budget: int = DEFAULT_BUDGET) -> NicholsTruncation:
    return NicholsTruncation(spec, max_degree, budget)


def is_zero_in_nichols(e: TensorElement, trunc: NicholsTruncation):
    """(is_zero, witness): witness is a nonzero reduced form when not zero.

    Each homogeneous component is reduced to its normal form; the witness is
    the normal form of the first nonzero component.  A component of degree
    at most ``trunc.max_degree`` reduces through the stored tables.  One of
    higher degree reduces through a truncation to its degree bounded by its
    Z^theta-degree alpha (the componentwise maximum of the group counts of
    its words): ``trunc.restricted(alpha)``, extended with ``trunc.budget``.
    ``trunc`` keeps it and reuses it, extended if needed, for the next
    component whose Z^theta-degree lies below its bound, until a component
    outside it replaces it.  The normal form, and so the witness, is the
    one a full truncation gives, and :class:`BudgetExceeded` can be raised
    there.
    """
    for n in e.degrees():
        comp = e.homogeneous_component(n)
        ok, witness = _component_zero(comp, n, trunc)
        if not ok:
            return False, witness
    return True, None


def _component_zero(comp, n, trunc):
    spec = trunc.spec
    if n > trunc.max_degree:
        alpha = [max(col) for col in zip(*(spec.group_counts(w)
                                           for w in comp.terms))]
        trunc = trunc._bounded(alpha, n)
    vec = trunc.normal_form_vector(comp, n)
    if vec:
        out = TensorElement(spec)
        out.terms = vec
        return False, out
    return True, None


# ---------------------------------------------------------------------------
# quantum symmetrizer oracle


def _apply_braid_at(spec, e_terms, pos):
    """Apply c at tensor positions (pos, pos+1) to a word-keyed dict."""
    from .braidings import braid_letters
    out = {}
    for word, coeff in e_terms.items():
        br = braid_letters(spec, word[pos], word[pos + 1])
        for w2, c2 in br.terms.items():
            add_term(out, word[:pos] + w2 + word[pos + 2:], coeff * c2)
    return out


def quantum_symmetrizer(spec, n: int) -> dict:
    """S_n on T^n as a table word -> dict(word -> Scalar).

    Built by the Matsumoto recursion
    S_m = (1 + c_1 + c_2 c_1 + ... + c_{m-1}...c_1) (id (x) S_{m-1}),
    where the right-to-left operator products apply c_1 first, so each
    shuffle term extends the previous one by a single braiding.
    """
    if n > 4:
        raise DegreeTooLarge("symmetrizer oracle capped at degree 4")
    L = spec.nletters
    one = spec.ring.one()
    table = {(l,): {(l,): one} for l in range(L)}
    for m in range(2, n + 1):
        new = {}
        for w in product(range(L), repeat=m):
            # apply id (x) S_{m-1}
            v = {}
            for u, cu in table[w[1:]].items():
                v[w[:1] + u] = cu
            acc = dict(v)
            cur = v
            for j in range(1, m):
                cur = _apply_braid_at(spec, cur, j - 1)
                add_into(acc, cur)
            new[w] = acc
        table = new
    return table


def quantum_symmetrizer_kernel(spec, n: int):
    """Echelon basis of ker S_n in T^n (one vector per dependent word)."""
    if n == 1:
        return []
    table = quantum_symmetrizer(spec, n)
    echelon = _Echelon()
    kernel = []
    for w in product(range(spec.nletters), repeat=n):
        img = dict(table[w])
        expr = echelon.reduce(img)
        if img:
            echelon.insert(img, expr, w)
        else:
            kernel.append(TensorElement(spec, {w: spec.ring.one()})
                          - TensorElement(spec, expr))
    return kernel


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """A named presentation: relations as parseable strings plus PBW data.

    ``pbw`` entries are (label, degree, height); height None means infinite.
    The GK dimension is not given but read off the PBW basis: ``gk`` counts
    the generators of infinite height.
    """

    def __init__(self, name: str, relations: list, pbw: list,
                 macros: dict | None = None, is_domain: bool = False,
                 params: dict | None = None):
        self.name = name
        self.relations = relations
        self.pbw = pbw
        self.macros = {} if macros is None else macros
        self.is_domain = is_domain
        self.params = {} if params is None else params

    @property
    def gk(self) -> int:
        """GK dimension: the number of PBW generators of infinite height."""
        return sum(height is None for _, _, height in self.pbw)


def pbw_hilbert_coeffs(p: Presentation, nstar: int):
    """Coefficients up to t^nstar of the PBW generating function."""
    series = [1] + [0] * nstar
    for _, degree, height in p.pbw:
        if degree < 1:
            raise NicholsError("PBW generator degrees must be >= 1")
        factor = [0] * (nstar + 1)
        k = 0
        while True:
            d = k * degree
            if d > nstar or (height is not None and k >= height):
                break
            factor[d] = 1
            k += 1
        out = [0] * (nstar + 1)
        for i, a in enumerate(series):
            if a:
                for j, b in enumerate(factor):
                    if b and i + j <= nstar:
                        out[i + j] += a * b
        series = out
    return series


def verify_presentation(p: Presentation, spec, nstar: int,
                        budget: int = DEFAULT_BUDGET,
                        progress=None) -> dict:
    """Check every relation vanishes in B(V) and graded dims match the PBW
    generating function up to degree nstar."""
    trunc = compute_truncation(spec, nstar, budget)
    macros = dict(p.macros)
    report = {"name": p.name, "relations": [], "pass": True}
    for rel in p.relations:
        deg = expression_degree(rel, spec, p.macros)
        if deg > nstar:
            report["relations"].append(
                {"relation": rel, "zero": None, "skipped_degree": deg})
            if progress:
                progress(f"relation skipped (degree {deg} > {nstar}): {rel}")
            continue
        e = parse_element(rel, spec, macros)
        zero, witness = is_zero_in_nichols(e, trunc)
        entry = {"relation": rel, "zero": zero}
        if not zero:
            entry["witness"] = print_element(witness)
            report["pass"] = False
        report["relations"].append(entry)
        if progress:
            progress(f"relation {'ok' if zero else 'FAIL'}: {rel}")
    expected = pbw_hilbert_coeffs(p, nstar)
    got = trunc.dims[: nstar + 1]
    report["dims"] = got
    report["pbw_dims"] = expected
    if got != expected:
        report["pass"] = False
    return report


# ---------------------------------------------------------------------------
# mu sequences and z elements


def mu_sequence(eps: Scalar, a: Scalar, nstar: int):
    """mu_0 = 1, mu_{2k+1} = -(a + k eps) mu_{2k},
    mu_{2k} = (a + k + eps(a + k - 1)) mu_{2k-1}."""
    ring = eps.ring
    out = [ring.one()]
    for n in range(1, nstar + 1):
        k = n // 2
        kk = ring.from_int(k)
        if n % 2 == 1:
            out.append(-(a + kk * eps) * out[-1])
        else:
            out.append((a + kk + eps * (a + kk - ring.one())) * out[-1])
    return out


def mu_rank2(q11: Scalar, qt: Scalar, k: int) -> Scalar:
    """prod_{i<k} (1 - q11^i * q12 q21), the rank-2 diagonal mu_k."""
    ring = q11.ring
    out = ring.one()
    power = ring.one()
    for _ in range(k):
        out = out * (ring.one() - power * qt)
        power = power * q11
    return out


def z_element(spec, k: int, j: int, n: int, budget: int = DEFAULT_BUDGET):
    """(ad_c x_{k+1/2})^n x_j, with the derivation/mu cross-check.

    The cross-check verifies, in B(V), that the point derivation of the
    result equals mu_n times x_k^{n mod 2} x_{(k+1/2)k}^{floor(n/2)}.
    Returns (element, check_ok).
    """
    if interaction(spec, k, j) is not Interaction.WEAK:
        raise NotWeak(f"interaction between block {k} and point {j} not weak")
    half = f"x{k}h"
    e = TensorElement.letter(spec, f"x{j}")
    for _ in range(n):
        e = ad_letter(spec, half, e)
    if n == 0:
        return e, True
    eps = spec.epsilon(k)
    a = spec.a(j, k)
    mus = mu_sequence(eps, a, n)
    xk = TensorElement.letter(spec, f"x{k}")
    xkh = TensorElement.letter(spec, half)
    x21 = braided_commutator(xkh, xk)
    m = n // 2
    expect = x21 ** m
    if n % 2 == 1:
        expect = xk * expect
    expect = expect.scale(mus[n])
    got = skew_derivation(spec, f"x{j}", e)
    trunc = compute_truncation(spec, n, budget)
    ok, _ = is_zero_in_nichols(got - expect, trunc)
    return e, ok


# ---------------------------------------------------------------------------
# infinite-GK probe


def infinite_probe(spec, i, j, count: int, nstar: int,
                   budget: int = DEFAULT_BUDGET) -> dict:
    """Build y_k = ad(x_i)^k x_j and reduce ordered products in B.

    Evidence only: INFINITE when all tested ordered products are linearly
    independent, INCONCLUSIVE otherwise.
    """
    trunc = compute_truncation(spec, nstar, budget)
    ys = []
    e = TensorElement.letter(spec, j)
    for k in range(count):
        if k:
            e = ad_letter(spec, i, e)
        if not e.terms or e.degree() > nstar:
            break  # a zero y_k has no degree, and ad(x_i) keeps it 0
        ys.append((k, e))
    nonzero = []
    for k, y in ys:
        zero, _ = is_zero_in_nichols(y, trunc)
        if not zero:
            nonzero.append((k, y))
    # ordered products y_{k1}...y_{kl}, k1 < ... < kl, within degree budget
    products = []

    def build(start, current, degree):
        for pos in range(start, len(nonzero)):
            k, y = nonzero[pos]
            d = degree + y.degree()
            if d > nstar:
                continue
            prod = current * y if current is not None else y
            products.append(prod)
            build(pos + 1, prod, d)

    build(0, None, 0)
    # independence by elimination; words are keyed (degree, word)
    echelon = _Echelon()
    dependent = 0
    for label, prod in enumerate(products):
        n = prod.degree()
        img = {(n,) + w: c
               for w, c in trunc.normal_form_vector(prod, n).items()}
        expr = echelon.reduce(img)
        if img:
            echelon.insert(img, expr, label)
        else:
            dependent += 1
    evidence = "INFINITE" if (dependent == 0 and len(nonzero) >= 2
                              and len(products) > len(nonzero)) \
        else "INCONCLUSIVE"
    return {
        "evidence": evidence,
        "nonzero_y": [k for k, _ in nonzero],
        "products_tested": len(products),
        "dependencies": dependent,
    }
