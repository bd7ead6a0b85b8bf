"""Degree-by-degree computation of the Nichols algebra B(V).

The defining ideal is computed by the derivation recursion
I(1) = 0,  I(n) = { t in T^n : partial_i(t) in I(n-1) for every letter i },
so B^n = T^n / I(n).  Degree n is obtained by incremental sparse elimination:
candidate words are processed in increasing (length, lex) order and each
either joins the monomial complement spanning B^n or yields a reduced ideal
element whose leading (largest) monomial is that word: the image of w maps
each (d, cw), a letter d and a complement word cw of degree n-1, to the
coordinate of cw in the skew derivation of w by d, gets a label coordinate
below those keys, and reduces to the label coordinates of w - nf(w).  The
keys are ints, so the elimination hashes and compares no word: (d, cw) is
d * M + the lex rank of cw among the M complement words the pass reads,
and the label of the i-th of a block's k candidates is i - k, negative and
increasing with i.  Both orders are those of the pairs (d, cw) and (-1, w),
so the pivots, the inverses and every term order are too.  The coordinates
of all skew derivations of each complement word in the previous complement
are kept, so that degree n only needs degree n-1 data.

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
first, one Z^theta-block at a time.  ``_dcoords`` holds the residues of the
skew-derivation coordinates, without zero values, and the images of a
block's candidates are built in F_p in their order, from the prefix's
residue coordinates, the residues of the braiding coefficients and those of
the degree n-1 normal forms, each reduced by ``residues.independent``
against the rows before it.  When every remainder is nonzero, the block is
certified: its candidates are its complement words.  This is exact, not
probabilistic: the rows have independent images modulo p, so some maximal
minor of their matrix is nonzero modulo p, hence nonzero over the ring, and
the rows are independent there too.  At the first remainder that is zero
modulo p, or the first image that needs an undefined residue, the whole
block is eliminated exactly instead, from its first candidate, as over Q.
The exact coordinates of a prefix are built on demand from those of its own
prefix, by the recursion that builds an image, and memoised in ``_exact``.

A block is certified or eliminated exactly as a whole, so the complement,
every normal form (term order included) and the exact coordinates are those
of the exact elimination alone.  An image built in F_p has the residues of
the exact values, so the test decides as it would on the exact images sent
to F_p; a sum that vanishes modulo p only drops its key.  The ``nf`` memo
then holds no normal form the exact elimination would not, and misses one
only where p meets such a spurious zero; the ``memo``, ``certified`` and
``pivots`` counts are the same for every prime but one that meets a
spurious zero or an undefined residue.  Over Q (phi(N) = 1 and no
parameters) the certificate costs more than it saves (see
``_residue_map``): the truncation eliminates exactly only, and
``_dcoords`` holds exact coordinates.

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
from .freealgebra import (SpecMismatch, TensorElement, ad_letter, add_into,
                          add_term, braided_commutator, expression_degree,
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
    """Incremental sparse echelon form.

    Vectors are dicts key -> nonzero value, pivoting on the largest key; the
    values are Scalars, or a ring's payloads with ``ops`` its ``RingOps``.
    A pivot row is kept as it was reduced, unscaled, and the inverse of its
    lead is taken on the first reduction step that uses it, so a pivot that
    never reduces anything costs no inverse.  A step cancelling the entry c
    at a lead adds ``-c / lead`` times the row, by one ``ops.axpy``.  To
    track combinations, a caller gives each vector a label coordinate of
    value one, keyed below every key it can pivot on: a vector is dependent
    when it reduces to its label coordinates, which then hold a combination
    of labels whose vectors sum to zero.  The truncation keys by ints, its
    labels negative (see the module docstring); any ordered keys work.
    """

    def __init__(self, ops=SCALAR_OPS):
        self.ops = ops
        # lead key -> (lead value, row without its lead)
        self.pivots = {}
        # lead key -> inverse of the lead value, for the pivots used so far
        self.inverses = {}

    def reduce(self, vec):
        """Reduce ``vec`` in place until its leading key is not a pivot;
        return that key, or None when ``vec`` reduces to zero."""
        pivots, inverses, ops = self.pivots, self.inverses, self.ops
        mul, neg, invert, axpy = ops.mul, ops.neg, ops.inv, ops.axpy
        while vec:
            key = max(vec)
            hit = pivots.get(key)
            if hit is None:
                return key
            inv = inverses.get(key)
            if inv is None:
                inv = inverses[key] = invert(hit[0])
            axpy(vec, hit[1], neg(mul(vec.pop(key), inv)))

    def insert(self, vec, key):
        """Make ``vec``, which :meth:`reduce` left at the leading key
        ``key``, a pivot row; it is kept, not copied."""
        self.pivots[key] = (vec.pop(key), vec)


class NicholsTruncation:
    """Bases of I(n) and monomial complements of B^n for 0 <= n <= max_degree,
    and of the Z^theta-blocks above ``max_degree`` that membership needed.

    ``stats[n]`` records how degree n was computed: ``dim`` and
    ``ideal_dim``, the ``candidates`` eliminated (the words left by the
    suffix filter), the candidates ``certified`` independent modulo a
    prime (those before the failure in a block that went exact included),
    the ``pivots`` of the exact eliminations (the complement words of the
    blocks eliminated exactly, so ``dim <= pivots + certified``), the
    ``inverses`` of pivot leads they took, the normal forms held in ``nf[0]``
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
        if max_degree < 0:
            raise NicholsError(f"truncation degree {max_degree} is negative")
        self.spec = spec
        self.budget = budget
        self._ops = ops = spec.ring.ops
        # per letter d, the braiding expansions g_d . letter on payloads
        act = [[tuple((t, c.payload) for t, c in expansion)
                for expansion in group] for group in spec._act]
        self._expansions = [act[spec.group_of(d) - 1]
                            for d in range(spec.nletters)]
        # over a ring with a residue map, the same in F_p, None where a
        # residue is undefined: taken once, as every pass certifies with
        # that map
        rmap = _residue_map(spec.ring)
        if rmap is not None:
            residue = rmap.residue
            self._residue_expansions = [
                [_residue_terms(expansion, residue) for expansion in row]
                for row in self._expansions]
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
        # are residues without zero values, or None where one is undefined
        self._dcoords = {0: {(): ((0,) * spec.ngroups,
                                  [{}] * spec.nletters)}}
        # over a ring with a residue map: complement word -> its exact
        # coordinates, for the words of degree >= max_degree - 1 whose
        # exact coordinates were needed
        self._exact = {}
        # the Z^theta-degrees of the blocks filled above max_degree, empty
        # ones too; their complement words are those of _dcoords
        self._filled = set()
        # degree -> [candidates, pivots, certified, inverses, seconds] of
        # the passes run there until the degree completes
        self._work = {}
        self.extend(max_degree)

    def extend(self, max_degree: int):
        """Fill every block of each degree up to ``max_degree``."""
        while self.max_degree < max_degree:
            n = self.max_degree + 1
            self._eliminate(n, self.basis[n - 1],
                            lambda beta: beta not in self._filled)
            # the words of the blocks filled early are in _dcoords[n] too
            self.basis[n] = basis_n = sorted(self._dcoords[n])
            self._filled = {beta for beta in self._filled if sum(beta) != n}
            self.max_degree = n
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
        filled yet, after the blocks below them, filled the same way: one
        elimination pass per degree, whose prefixes are the complement
        words of those blocks below.  The recursion is n - max_degree deep,
        less than that of :meth:`_word_nf` on a word of degree n."""
        need = set(betas) - self._filled
        if not need:
            return
        # the Z^theta-degrees alpha - e_g, for each group g that alpha counts
        below = {alpha[:g] + (c - 1,) + alpha[g + 1:]
                 for alpha in need for g, c in enumerate(alpha) if c}
        if n - 1 > self.max_degree:
            self._fill(below, n - 1)
        prefixes = sorted(u for u, (beta, _) in self._dcoords[n - 1].items()
                          if beta in below)
        self._eliminate(n, prefixes, need.__contains__)
        self._filled |= need

    def _eliminate(self, n, prefixes, wanted):
        """One elimination pass at degree n over the candidates u.x, for u
        in ``prefixes`` (complement words of degree n-1 in lex order), whose
        suffix is a complement word and whose Z^theta-degree ``wanted``
        accepts, grouped by Z^theta-block in lex order.  Each block is
        certified when the images of its candidates in F_p are defined and
        independent, or else, and always over Q, eliminated exactly in an
        echelon of its own.  Every candidate gets its normal form in
        ``nf[n]``, a complement word its coordinates in ``_dcoords[n]`` too,
        and the pass adds its counts to ``_work[n]``."""
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
        # Z^theta-degree -> its candidates in lex order
        blocks = {}
        for prefix in prefixes:
            counts = prev_d[prefix][0]
            up = ups.get(counts)
            if up is None:
                up = ups[counts] = [counts[:g] + (c + 1,) + counts[g + 1:]
                                    for g, c in enumerate(counts)]
            for last in range(L):
                w = prefix + (last,)
                if w[1:] not in prev_d:
                    continue  # the suffix is not a complement word
                beta = up[groups[last]]
                if wanted(beta):
                    blocks.setdefault(beta, []).append(w)
        # an image's key of (d, cw) is d * M + the rank of cw among the
        # prefixes, which hold every cw of the blocks wanted: the order of
        # (d, cw) on ints
        M = len(prefixes)
        rank = {u: i for i, u in enumerate(prefixes)}
        starts = [d * M for d in range(L)]

        def keyed(dvecs):
            return {start + rank[cw]: c for start, acc in zip(starts, dvecs)
                    for cw, c in acc.items()}

        one, neg = self._ops.one, self._ops.neg
        image = self._image
        rmap = _residue_map(spec.ring)
        if rmap is not None:
            from .residues import independent
            residue_image = self._residue_image(n, rmap)
            exact_dcoords, exact = self._exact_dcoords, self._exact
            p, residue = rmap.p, rmap.residue
        nf_n = self.nf.setdefault(n, {})
        new_d = self._dcoords.setdefault(n, {})
        work = self._work.setdefault(n, [0, 0, 0, 0, 0.0])
        for beta, words in blocks.items():
            work[0] += len(words)
            if rmap is not None:
                rows = {}  # one per candidate certified so far
                for w in words:
                    got = residue_image(w[:-1], w[-1], prev_d[w[:-1]][1])
                    if got is None or not independent(keyed(got), rows, p):
                        break
                    # a complement word: the exact elimination, if the
                    # block goes exact, writes the same entries again
                    nf_n[w] = {w: one}
                    new_d[w] = (beta, got)
                work[2] += len(rows)
                if len(rows) == len(words):
                    continue
            echelon = _Echelon(self._ops)
            for label, w in enumerate(words, -len(words)):
                prefix = w[:-1]
                coords = image(prefix, w[-1], prev_d[prefix][1]
                               if rmap is None else exact_dcoords(prefix))
                img = keyed(coords)
                # the label coordinate of w: words[label] is w
                img[label] = one
                key = echelon.reduce(img)
                if key < 0:  # img is w - nf(w), an element of I(n)
                    del img[key]
                    nf_n[w] = {words[k]: neg(c) for k, c in img.items()}
                    continue
                echelon.insert(img, key)
                nf_n[w] = {w: one}
                if rmap is not None:
                    exact[w] = coords
                    coords = [_residues(acc, residue) for acc in coords]
                    if None in coords:
                        coords = None
                new_d[w] = (beta, coords)
            work[1] += len(echelon.pivots)
            work[3] += len(echelon.inverses)
        work[4] += perf_counter() - start

    def _image(self, prefix, last, pd):
        """The ``dvecs`` of the word prefix.last: ``dvecs[d]`` holds the
        coordinates of its skew derivation by the letter d in the
        complement of its degree less one, computed from those of the
        prefix, ``pd``.  Exact, on payloads."""
        ops = self._ops
        mul, add, is_zero, axpy = ops.mul, ops.add, ops.is_zero, ops.axpy
        nf_k = self.nf[len(prefix)]
        word_nf = self._word_nf
        dvecs = []
        for d, expansions in enumerate(self._expansions):
            acc = {}
            expansion = expansions[last]
            for u, alpha in pd[d].items():
                for tgt, coeff in expansion:
                    v = u + (tgt,)
                    vec = nf_k.get(v)
                    if vec is None:
                        vec = word_nf(v)
                    if v in vec:  # a complement word: nf(v) = v
                        v, = vec  # the tables' own tuple, not a copy
                        f = mul(alpha, coeff)
                        cur = acc.get(v)
                        if cur is None:
                            acc[v] = f
                        else:
                            f = add(cur, f)
                            if is_zero(f):
                                del acc[v]
                            else:
                                acc[v] = f
                    elif vec:
                        axpy(acc, vec, mul(alpha, coeff))
            if d == last:
                add_term(acc, prefix, ops.one, ops)
            dvecs.append(acc)
        return dvecs

    def _exact_dcoords(self, u):
        """The exact ``dvecs`` of the complement word u over a ring with a
        residue map, built from those of its prefix by :meth:`_image` and
        memoised in ``_exact``."""
        if not u:
            return [{}] * self.spec.nletters
        dvecs = self._exact.get(u)
        if dvecs is None:
            dvecs = self._image(u[:-1], u[-1], self._exact_dcoords(u[:-1]))
            self._exact[u] = dvecs
        return dvecs

    def _residue_image(self, n, rmap):
        """:meth:`_image` in F_p, for the candidates of degree n:
        ``image(prefix, last, pd)``, with ``pd`` the residue coordinates of
        the prefix, gives the ``dvecs`` as dicts of ints without zero
        values, the residues of the exact ones, or None where ``pd`` is None
        or a residue is undefined."""
        p, residue = rmap.p, rmap.residue
        prev_d = self._dcoords[n - 1]
        word_nf = self._word_nf
        expansions = self._residue_expansions
        # word of degree n-1 -> its normal form in F_p without zero values,
        # or None
        memo = {}

        def image(prefix, last, pd):
            if pd is None:
                return None
            dvecs = []
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
                            vec = memo[v] = {v: 1} if v in prev_d \
                                else _residues(word_nf(v), residue)
                        if vec is None:
                            return None
                        f = alpha * coeff % p
                        for cw, x in vec.items():
                            s = (acc.get(cw, 0) + f * x) % p
                            if s:
                                acc[cw] = s
                            else:
                                acc.pop(cw, None)
                if d == last:
                    s = (acc.get(prefix, 0) + 1) % p
                    if s:
                        acc[prefix] = s
                    else:
                        del acc[prefix]
                dvecs.append(acc)
            return dvecs

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
            axpy = self._ops.axpy
            prefix = w[:-1]
            prefix_nf = self._word_nf(prefix)
            if prefix in prefix_nf:
                first = w[:1]
                for v, c in self._word_nf(w[1:]).items():
                    axpy(vec, self._word_nf(first + v), c)
            else:
                last = w[-1:]
                for u, c in prefix_nf.items():
                    axpy(vec, self._word_nf(u + last), c)
            nf_n[w] = vec
        return vec

    def normal_form_vector(self, e: TensorElement, n: int) -> dict:
        """Coordinates (Scalars) of the degree-n component of e in the
        complement basis; above ``max_degree``, the blocks of its words are
        filled first (see :meth:`_fill`)."""
        ring = self.spec.ring
        if e.spec.ring is not ring and e.spec.ring != ring:
            raise RingMismatch(f"{e.spec.ring} vs {ring}")
        if e.spec is not self.spec:
            raise SpecMismatch("element and truncation of different specs")
        terms = [(w, c) for w, c in e.terms.items() if len(w) == n]
        if n > self.max_degree:
            self._fill({self.spec.group_counts(w) for w, _ in terms}, n)
        acc = {}
        for w, c in terms:
            add_into(acc, self._word_nf(w), c.payload, self._ops)
        return {w: Scalar(ring, c) for w, c in acc.items()}


def _residue_map(ring):
    """The reduction modulo a prime with which the truncation certifies
    linear independence (see :mod:`gknichols.residues`), or None over Q:
    every ring but Q(zeta_N) with phi(N) = 1 and no parameters has one.
    Over Q the exact elimination is cheap, and the blocks that certify
    candidates and then meet a relation pay for the exact images anyway:
    with the certificate forced onto Q, a truncation to degree 6 took
    3.3 ms instead of 2.4 on cyc1, 11.4 instead of 8.3 on cyc2, 6.9
    instead of 6.0 on lstr(A2,2), 4.0 instead of 2.5 on lstr_-(-1,G) with
    G = 2, and 18.6 instead of 20.7 on poseidon (in-process, the least of
    three minima of 7 runs each, on a shared 2-core VM).  Membership loses
    more than poseidon gains: on the bench's member-overshoot workload the
    median relation took 1.27 ms instead of 0.85 (+49%)."""
    if ring.phi == 1 and not ring.params:
        return None
    from .residues import residue_map
    return residue_map(ring.cyclotomic_order, len(ring.params))


def _residue_terms(expansion, residue):
    """The braiding expansion ``expansion`` ((target letter, payload)
    pairs) with its coefficients in F_p, or None where one has no
    residue."""
    terms = tuple((tgt, residue(c)) for tgt, c in expansion)
    return None if any(x is None for _, x in terms) else terms


def _residues(vec, residue):
    """The residues of the exact coordinates ``vec`` (a dict), without zero
    values, or None where a value has no residue."""
    out = {}
    for cw, c in vec.items():
        x = residue(c)
        if x is None:
            return None
        if x:
            out[cw] = x
    return out


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
    shuffle term extends the previous one by a single braiding, from
    S_0 = id on T^0.
    """
    if n < 0:
        raise NicholsError(f"symmetrizer degree {n} is negative")
    if n > 4:
        raise DegreeTooLarge("symmetrizer oracle capped at degree 4")
    L = spec.nletters
    table = {(): {(): spec.ring.one()}}
    for m in range(1, n + 1):
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
    table = quantum_symmetrizer(spec, n)
    if n == 0:
        return []  # S_0 is the identity
    echelon = _Echelon()
    kernel = []
    for w in product(range(spec.nletters), repeat=n):
        img = dict(table[w])
        img[(-1,) + w] = spec.ring.one()  # w's label, below every word
        key = echelon.reduce(img)
        if key[0] == -1:
            kernel.append(TensorElement(spec, {u[1:]: c
                                               for u, c in img.items()}))
        else:
            echelon.insert(img, key)
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
    if nstar < 0:
        raise NicholsError(f"PBW series degree {nstar} is negative")
    series = [1] + [0] * nstar
    for _, degree, height in p.pbw:
        if degree < 1:
            raise NicholsError("PBW generator degrees must be >= 1")
        if height is not None and height < 1:
            raise NicholsError("PBW generator heights must be >= 1")
        for i in range(degree, nstar + 1):  # times 1 / (1 - t^degree)
            series[i] += series[i - degree]
        if height is not None:  # times 1 - t^(height * degree)
            top = height * degree
            for i in range(nstar, top - 1, -1):
                series[i] -= series[i - top]
    return series


def verify_presentation(p: Presentation, trunc: NicholsTruncation,
                        progress=None) -> dict:
    """Check on ``trunc``, a truncation of B(V) to degree nstar, that every
    relation of degree <= nstar vanishes in B(V) and that the graded dims
    match the PBW generating function up to degree nstar."""
    spec, nstar = trunc.spec, trunc.max_degree
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
    Returns (element, check_ok).  k is a block index, j a point index.
    """
    if not spec.is_block(k):
        raise NicholsError(f"k = {k} is not a block index (1..{spec.t})")
    if not spec.t < j <= spec.theta:
        raise NicholsError(f"j = {j} is not a point index "
                           f"({spec.t + 1}..{spec.theta})")
    if n < 0:
        raise NicholsError(f"n = {n} is negative")
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


def infinite_probe(trunc: NicholsTruncation, i, j, count: int) -> dict:
    """Build y_k = ad(x_i)^k x_j and reduce ordered products in B, on
    ``trunc``, a truncation of B(V) to degree nstar, for the y_k and
    products of degree <= nstar.

    Evidence only: INFINITE when all tested ordered products are linearly
    independent, INCONCLUSIVE otherwise.
    """
    spec, nstar = trunc.spec, trunc.max_degree
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
    for prod in products:
        n = prod.degree()
        img = {(n,) + w: c
               for w, c in trunc.normal_form_vector(prod, n).items()}
        key = echelon.reduce(img)
        if key is not None:
            echelon.insert(img, key)
    dependent = len(products) - len(echelon.pivots)
    evidence = "INFINITE" if (dependent == 0 and len(nonzero) >= 2
                              and len(products) > len(nonzero)) \
        else "INCONCLUSIVE"
    return {
        "evidence": evidence,
        "nonzero_y": [k for k, _ in nonzero],
        "products_tested": len(products),
        "dependencies": dependent,
    }
