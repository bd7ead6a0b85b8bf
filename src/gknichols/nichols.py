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
skew derivations and the braiding never raise that degree.  So each degree
splits into Z^theta-blocks, the words of one Z^theta-degree beta: the
elimination keys (d, cw) of different blocks never meet, and block beta
needs only the blocks beta - e_g below it.  ``extend`` fills every block of
a degree; ``normal_form_vector`` fills, for a word above ``max_degree``,
its block and the ones below it first.  Each block is eliminated once,
with its candidates in the same lex order either way, so its complement
words and normal forms are those of the full truncation.

On every ring but Q, most candidates are complement words, and an exact
elimination spends most of its time confirming that.  So there the ring's
``ResidueMap`` (a ring homomorphism to F_p, p a prime below 2^30, each
parameter sent to a fixed residue; see :mod:`gknichols.residues`) comes
first.  ``_dcoords`` holds the residues of the skew-derivation coordinates,
and each candidate's image is built in F_p, from its prefix's residue
coordinates, the residues of the braiding coefficients and those of the
degree n-1 normal forms, then reduced by a ``Certificate`` against the rows
certified before it in its Z^theta-block.  A nonzero remainder certifies
the candidate.  This is exact, not probabilistic: the certified rows of a
block and the candidate have independent images modulo p, so some maximal
minor of their matrix is nonzero modulo p, hence nonzero over the ring, and
the rows are independent there too; in the exact elimination each of them
is a complement word.  When the remainder is zero modulo p, or a residue is
undefined, the block goes exact: its certified words are replayed into the
exact echelon in their order, and the rest of the block is reduced exactly.
The exact coordinates of a prefix are built on demand from those of its own
prefix, by the recursion that builds an image, and memoised in ``_exact``.

An image built in F_p has the residues of the exact values, so the
certificate decides as it would on the exact image sent to F_p.  Its keys
and their order can differ from the exact ones only where a sum vanishes
modulo p; then the word's residue coordinates are marked unknown, and a
candidate that extends it uses the residues of its exact coordinates
instead.  The residue coordinates in use thus have the exact keys, in the
exact order, and an image built from them reads the normal forms the
exact image reads, in the same order.  Where a residue is undefined, the
candidate's exact image is built and sent to F_p instead.  So the exact
echelon of a block sees the rows it would see without the certificate, in
the same order, and the complement, the normal forms (dict order
included) and the exact coordinates are those of the exact elimination
alone.  Over Q (phi(N) = 1 and no parameters) the certificate costs more
than it saves (see ``ScalarRing.residue_map``): the truncation eliminates
exactly only, and ``_dcoords`` holds exact coordinates.

The normal forms ``nf``, the exact coordinates, the echelon rows and the
braiding expansion hold ``Scalar`` payloads, on which ``ScalarRing.ops``
act, on every ring, with parameters or not, and the images in F_p are
dicts of ints, so the hot loop builds no ``Scalar``.  ``Scalar`` values
appear only at ``normal_form_vector``, which builds one per coordinate it
returns, so membership, verification and the probe see ``Scalar``s as
before.

An independent oracle, the quantum symmetrizer, is provided for small degrees.
"""

from __future__ import annotations

from itertools import product
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
    """Incremental sparse echelon form, tracking expressions.

    Vectors are dicts key -> nonzero value, pivoting on the largest key; the
    values are Scalars, or a ring's payloads with ``ops`` its ``RingOps``.
    A pivot row is stored as it was reduced, unscaled: its lead value, the
    rest of the row, and its label with the combination ``expr`` of earlier
    labels, the row being the image of ``label - expr``.  The inverse of
    the lead is taken on the first reduction step that uses the pivot and
    kept, so a pivot that never reduces anything costs no inverse.  A step
    cancelling the entry c at a pivot's lead costs one factor
    ``f = -c / lead`` and adds ``f * row`` to the vector and
    ``f * (expr - label)`` to the combination.
    """

    def __init__(self, ops=SCALAR_OPS):
        self.ops = ops
        # lead key -> (lead value, row without its lead, label, expr)
        self.pivots = {}
        # lead key -> inverse of the lead value, for the pivots used so far
        self.inverses = {}

    def reduce(self, img):
        """Reduce ``img`` in place until its leading key is not a pivot.

        Returns ``expr`` with ``img_before == img_after + image(expr)``,
        where image(label) is the vector inserted under that label.
        """
        pivots, inverses, ops = self.pivots, self.inverses, self.ops
        mul, neg = ops.mul, ops.neg
        expr = {}
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
            add_term(expr, label, step, ops)
            add_into(expr, row_expr, f, ops)
        return expr

    def insert(self, img, expr, label):
        """Make the reduced, nonzero ``img`` a pivot row.

        ``img`` and ``expr`` are the outcome of :meth:`reduce` on the
        vector inserted under ``label``, so ``img`` is the image of
        ``label - expr``; both are kept, not copied.
        """
        key = max(img)
        self.pivots[key] = (img.pop(key), img, label, expr)


class NicholsTruncation:
    """Bases of I(n) and monomial complements of B^n for 0 <= n <= max_degree,
    and of the Z^theta-blocks above ``max_degree`` that membership needed.

    ``stats[n]`` records how degree n was computed: ``dim`` and
    ``ideal_dim``, the ``candidates`` eliminated (the words left by the
    suffix filter), the candidates ``certified`` independent modulo a
    prime, the exact echelon's ``pivots`` (its complement words and the
    certified rows replayed into it, so ``dim <= pivots + certified``), the
    ``inverses`` of pivot leads it took, the normal forms held in ``nf[0]``
    to ``nf[n]`` once degree n was done (``memo``), and the ``seconds``
    its elimination passes took.  The blocks of degree n filled on demand
    before ``extend`` reached n count in the record written when degree n
    completes.

    ``budget`` caps the candidates of one elimination pass, counted before
    it as the upper bound ``len(prefixes) * L``: ``dims[n-1] * L`` when
    ``extend`` eliminates degree n, and at most that when a pass fills some
    blocks of degree n on demand, whose prefixes are the complement words
    of the blocks below them.
    """

    def __init__(self, spec, max_degree: int, budget: int = DEFAULT_BUDGET):
        self.spec = spec
        self.budget = budget
        self._ops = ops = spec.ring.ops
        # per letter d, the braiding expansions g_d . letter on payloads
        act = [[tuple((t, c.payload) for t, c in expansion)
                for expansion in group] for group in spec._act]
        self._expansions = [act[spec.group_of(d) - 1]
                            for d in range(spec.nletters)]
        self.max_degree = 0
        self.basis = {0: [()]}
        # normal forms and _dcoords hold payloads (see ops)
        self.nf = {0: {(): {(): ops.one}}}
        self.dims = [1]
        self.ideal_dims = [0]
        self.stats = [{"n": 0, "dim": 1, "ideal_dim": 0, "candidates": 0,
                       "pivots": 0, "certified": 0, "inverses": 0,
                       "memo": 1, "seconds": 0.0}]
        # per degree n, (Z^theta-degree, NF coordinates of the skew
        # derivations in degree n-1) of its complement words, kept while a
        # block above may still need them: the top degree and the blocks
        # filled above it; over a ring with a residue map the coordinates
        # are residues, with the keys of the exact ones, or None where
        # those keys are not known or a residue is undefined
        self._dcoords = {0: {(): ((0,) * spec.ngroups,
                                  [{}] * spec.nletters)}}
        # over a ring with a residue map: complement word -> its exact
        # coordinates, for the words of degree >= max_degree - 1 whose
        # exact coordinates were needed
        self._exact = {}
        # Z^theta-degree -> complement words in lex order, for the blocks
        # filled above max_degree
        self._blocks = {}
        # degree -> [candidates, pivots, certified, inverses, seconds] of
        # the passes run there until the degree completes
        self._work = {}
        self.extend(max_degree)

    def extend(self, max_degree: int):
        """Fill every block of each degree up to ``max_degree``."""
        while self.max_degree < max_degree:
            n = self.max_degree + 1
            blocks = self._blocks
            early = [beta for beta in blocks if sum(beta) == n]
            basis_n = self._eliminate(n, self.basis[n - 1],
                                      lambda beta: beta not in early)
            if early:
                basis_n = sorted(basis_n + [w for beta in early
                                            for w in blocks.pop(beta)])
            self.max_degree = n
            self.basis[n] = basis_n
            del self._dcoords[n - 1]
            # the exact coordinates below n-1 are rebuilt if ever needed
            self._exact = {w: dvecs for w, dvecs in self._exact.items()
                           if len(w) >= n - 1}
            dim = len(basis_n)
            ideal_dim = self.spec.nletters ** n - dim
            self.dims.append(dim)
            self.ideal_dims.append(ideal_dim)
            candidates, pivots, certified, inverses, seconds = \
                self._work.pop(n)
            self.stats.append({
                "n": n, "dim": dim, "ideal_dim": ideal_dim,
                "candidates": candidates, "pivots": pivots,
                "certified": certified, "inverses": inverses,
                "memo": sum(len(self.nf[k]) for k in range(n + 1)),
                "seconds": seconds})

    def _fill(self, betas, n):
        """Fill the blocks ``betas`` of degree n > max_degree that are not
        filled yet, after the blocks below them they need: one elimination
        pass per degree."""
        blocks = self._blocks
        levels = []
        need = set(betas) - blocks.keys()
        while need:
            levels.append(need)
            if n - len(levels) == self.max_degree:
                break  # the degree below is complete
            need = {beta for alpha in need for beta in _below(alpha)} \
                - blocks.keys()
        for k, targets in enumerate(reversed(levels), n - len(levels) + 1):
            below = {beta for alpha in targets for beta in _below(alpha)}
            if k - 1 == self.max_degree:
                top = self._dcoords[k - 1]
                prefixes = [u for u in self.basis[k - 1]
                            if top[u][0] in below]
            else:
                prefixes = sorted(u for beta in below for u in blocks[beta])
            words = self._eliminate(k, prefixes, targets.__contains__)
            for beta in targets:
                blocks[beta] = []
            new_d = self._dcoords[k]
            for w in words:
                blocks[new_d[w][0]].append(w)

    def _eliminate(self, n, prefixes, wanted):
        """One elimination pass at degree n over the candidates u.x, for u
        in ``prefixes`` (complement words of degree n-1 in lex order), whose
        suffix is a complement word and whose Z^theta-degree ``wanted``
        accepts.  Every candidate gets its normal form in ``nf[n]``, a
        complement word its coordinates in ``_dcoords[n]`` too, and the
        pass adds its counts to ``_work[n]``.  Returns the complement words
        in lex order."""
        start = perf_counter()
        spec = self.spec
        L = spec.nletters
        count = len(prefixes) * L  # an upper bound on the candidates
        if count > self.budget:
            raise BudgetExceeded(n, count, self.budget)
        prev_d = self._dcoords[n - 1]
        groups = [spec.group_of(x) - 1 for x in range(L)]
        # Z^theta-degree -> those of its words times a letter, per group
        ups = {}
        image = self._image
        one = self._ops.one
        echelon = _Echelon(self._ops)
        rmap = spec.ring.residue_map()
        if rmap is not None:
            from .residues import Certificate
            certificate = Certificate(rmap.p)
            residue_image = self._residue_image(n, rmap)
            exact_dcoords, exact = self._exact_dcoords, self._exact
            residue = rmap.residue
        words = []
        nf_n = self.nf.setdefault(n, {})
        new_d = self._dcoords.setdefault(n, {})
        before = len(nf_n)
        for prefix in prefixes:
            counts, pd = prev_d[prefix]
            up = ups.get(counts)
            if up is None:
                up = ups[counts] = [counts[:g] + (c + 1,) + counts[g + 1:]
                                    for g, c in enumerate(counts)]
            for last in range(L):
                w = prefix + (last,)
                if w[1:] not in prev_d:
                    continue  # the suffix is not a complement word
                beta = up[groups[last]]
                if not wanted(beta):
                    continue  # w lies in a block this pass does not fill
                if rmap is None:
                    img, coords = image(prefix, last, pd)
                else:
                    img = None
                    if certificate.is_open(beta):
                        got = residue_image(prefix, last, pd)
                        if got is None:  # from the exact image
                            img, dvecs = image(prefix, last,
                                               exact_dcoords(prefix))
                            got = _residues(dvecs, residue)
                        vec, coords = got
                        if certificate.certify(w, beta, vec):
                            words.append(w)
                            nf_n[w] = {w: one}
                            new_d[w] = (beta, coords)
                            if img is not None:
                                exact[w] = dvecs
                            continue
                        # the block goes exact, from its certified rows
                        for v in certificate.replay(beta):
                            row, exact[v] = image(v[:-1], v[-1],
                                                  exact_dcoords(v[:-1]))
                            echelon.insert(row, echelon.reduce(row), v)
                    if img is None:
                        img, dvecs = image(prefix, last,
                                           exact_dcoords(prefix))
                        _, coords = _residues(dvecs, residue)
                expr = echelon.reduce(img)
                if not img:
                    nf_n[w] = expr  # w is congruent to expr modulo I(n)
                    continue
                echelon.insert(img, expr, w)
                words.append(w)
                nf_n[w] = {w: one}
                new_d[w] = (beta, coords)
                if rmap is not None:
                    exact[w] = dvecs
        # every candidate, and only a candidate, got an entry in nf_n
        work = self._work.setdefault(n, [0, 0, 0, 0, 0.0])
        for i, count in enumerate((
                len(nf_n) - before, len(echelon.pivots),
                0 if rmap is None else certificate.count,
                len(echelon.inverses), perf_counter() - start)):
            work[i] += count
        return words

    def _image(self, prefix, last, pd):
        """(image, dvecs) of the word prefix.last: ``dvecs[d]`` holds the
        coordinates of its skew derivation by the letter d in the
        complement of its degree less one, computed from those of the
        prefix, ``pd``; the image maps each (d, complement word) to its
        coordinate.  Exact, on payloads."""
        ops = self._ops
        one, mul = ops.one, ops.mul
        word_nf = self._word_nf
        dvecs = []
        img = {}
        for d, expansions in enumerate(self._expansions):
            acc = {}
            expansion = expansions[last]
            for u, alpha in pd[d].items():
                for tgt, coeff in expansion:
                    vec = word_nf(u + (tgt,))
                    if vec:
                        add_into(acc, vec, mul(alpha, coeff), ops)
            if d == last:
                add_term(acc, prefix, one, ops)
            dvecs.append(acc)
            for cw, cc in acc.items():
                img[(d, cw)] = cc
        return img, dvecs

    def _exact_dcoords(self, u):
        """The exact ``dvecs`` of the complement word u over a ring with a
        residue map, built from those of its prefix by :meth:`_image` and
        memoised in ``_exact``."""
        if not u:
            return [{}] * self.spec.nletters
        dvecs = self._exact.get(u)
        if dvecs is None:
            _, dvecs = self._image(u[:-1], u[-1], self._exact_dcoords(u[:-1]))
            self._exact[u] = dvecs
        return dvecs

    def _residue_image(self, n, rmap):
        """The image of :meth:`_image` built in F_p, for the candidates of
        degree n: ``image(prefix, last, pd)``, with ``pd`` the residue
        coordinates of the prefix, gives (image, dvecs) as dicts of ints,
        the image without zero values, or None where a residue is
        undefined.  The values are the residues of the exact ones, and
        dvecs is None unless no sum vanished modulo p: then no exact sum
        vanished either, so its dicts have the keys of the exact ones, in
        the same order.  Where ``pd`` is None, the residues of the
        prefix's exact coordinates take its place."""
        p, residue = rmap.p, rmap.residue
        prev_d = self._dcoords[n - 1]
        word_nf, exact_dcoords = self._word_nf, self._exact_dcoords
        # the braiding expansions in F_p; None where a residue is undefined
        expansions = []
        for group in self._expansions:
            row = []
            for expansion in group:
                terms = tuple((tgt, residue(c)) for tgt, c in expansion)
                row.append(None if any(x is None for _, x in terms)
                           else terms)
            expansions.append(row)
        # word of degree n-1 -> its normal form in F_p, or None
        memo = {}
        # prefix -> the residues of its exact coordinates, or None
        derived = {}

        def normal_form(v):
            if v in prev_d:
                vec = {v: 1}
            else:
                vec = {}
                for cw, c in word_nf(v).items():
                    x = residue(c)
                    if x is None:
                        vec = None
                        break
                    vec[cw] = x
            memo[v] = vec
            return vec

        def image(prefix, last, pd):
            if pd is None:
                pd = derived.get(prefix, False)
                if pd is False:
                    pd = derived[prefix] = _residues(exact_dcoords(prefix),
                                                     residue)[1]
                if pd is None:
                    return None
            same_keys = True
            dvecs = []
            img = {}
            for d, row in enumerate(expansions):
                expansion = row[last]
                if expansion is None:
                    return None
                acc = {}
                for u, alpha in pd[d].items():
                    for tgt, coeff in expansion:
                        v = u + (tgt,)
                        vec = memo.get(v, False)
                        if vec is False:
                            vec = normal_form(v)
                        if vec is None:
                            return None
                        f = alpha * coeff % p
                        for cw, x in vec.items():
                            s = (acc.get(cw, 0) + f * x) % p
                            if s:
                                acc[cw] = s
                            else:
                                same_keys = False
                                acc.pop(cw, None)
                if d == last:
                    s = (acc.get(prefix, 0) + 1) % p
                    if s:
                        acc[prefix] = s
                    else:
                        same_keys = False
                        del acc[prefix]
                dvecs.append(acc)
                for cw, x in acc.items():
                    img[(d, cw)] = x
            return img, dvecs if same_keys else None

        return image

    # ------------------------------------------------------------------

    def _word_nf(self, w):
        """Normal form of the word w, memoised in ``nf[len(w)]``; its block
        is filled.

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
        complement basis; above ``max_degree``, the blocks of its words are
        filled first (see :meth:`_fill`)."""
        ring = self.spec.ring
        if e.spec.ring is not ring and e.spec.ring != ring:
            raise RingMismatch(f"{e.spec.ring} vs {ring}")
        terms = [(w, c) for w, c in e.terms.items() if len(w) == n]
        if n > self.max_degree:
            self._fill({self.spec.group_counts(w) for w, _ in terms}, n)
        acc = {}
        for w, c in terms:
            add_into(acc, self._word_nf(w), c.payload, self._ops)
        return {w: Scalar(ring, c) for w, c in acc.items()}


def _below(beta):
    """The Z^theta-degrees beta - e_g, for each group g that beta counts."""
    return [beta[:g] + (c - 1,) + beta[g + 1:]
            for g, c in enumerate(beta) if c]


def _residues(dvecs, residue):
    """(image, dvecs) in F_p of the exact ``dvecs`` of a word: the image
    without its zero values, and the dvecs with every key; (None, None)
    where a value has no residue."""
    img, out = {}, []
    for d, acc in enumerate(dvecs):
        vec = {}
        for cw, c in acc.items():
            x = residue(c)
            if x is None:
                return None, None
            if x:
                img[(d, cw)] = x
            vec[cw] = x
        out.append(vec)
    return img, out


def compute_truncation(spec, max_degree: int,
                       budget: int = DEFAULT_BUDGET) -> NicholsTruncation:
    return NicholsTruncation(spec, max_degree, budget)


def is_zero_in_nichols(e: TensorElement, trunc: NicholsTruncation):
    """(is_zero, witness): witness is a nonzero reduced form when not zero.

    Each homogeneous component is reduced to its normal form by
    ``trunc.normal_form_vector``, which fills the Z^theta-blocks of a
    component above ``trunc.max_degree`` and keeps them for later calls;
    :class:`BudgetExceeded` can be raised there.  The witness is the normal
    form of the first nonzero component, the one a full truncation gives.
    """
    for n in e.degrees():
        vec = trunc.normal_form_vector(e, n)
        if vec:
            out = TensorElement(trunc.spec)
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
                        progress=None, trunc=None) -> dict:
    """Check every relation vanishes in B(V) and graded dims match the PBW
    generating function up to degree nstar, on ``trunc`` (a truncation of
    spec to degree nstar) or on one built here."""
    if trunc is None:
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
                   budget: int = DEFAULT_BUDGET, trunc=None) -> dict:
    """Build y_k = ad(x_i)^k x_j and reduce ordered products in B, on
    ``trunc`` (a truncation of spec to degree nstar) or on one built here.

    Evidence only: INFINITE when all tested ordered products are linearly
    independent, INCONCLUSIVE otherwise.
    """
    if trunc is None:
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
