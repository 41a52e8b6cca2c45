"""Hopf-algebraic calculus on planar decorated forests.

Primal side: the shuffle algebra on forests with the left-admissible-cut
coproduct.  Dual side: characters (linear functionals multiplicative for the
shuffle) with the planar grafting product ``star``, implemented as the graded
transpose of the coproduct, so the pairing identity

    ⟨a ★ b, ω⟩ = Σ over coproduct terms  coeff · ⟨a, left⟩ ⟨b, right⟩

holds by construction and coassociativity of the coproduct is equivalent to
associativity of ``star``.

The coproduct of a forest ω sums over (i) deconcatenations ω = ωL · ωR of the
tree word and (ii) cut configurations of ωR in which each surviving vertex
may lose a left prefix of its ordered children, the pruned branches being
removed whole (so no two cuts stack along a root-to-leaf path).  Each removed
prefix forms an internally rigid block; the left tensor factor is the shuffle
of the rigid word ωL with all blocks, the right factor is the pruned ωR.

Everything in this module is exact (int / Fraction coefficients) except
:class:`FloatAlgebra`, which compiles the structure constants into a table
of index pairs for batched numerical work.  The module ends with its own exact
self-checks (coassociativity, counit, shuffle morphism, characters, …),
run by :func:`run_selftest` and by the test suite.

Series are plain dictionaries ``{PlanarForest: coefficient}``; omitted keys
are zero.  Tensor series are ``{(left, right): coefficient}``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .forest_core import (
    EMPTY,
    MAX_WEIGHT,
    PlanarForest,
    PlanarTree,
    all_forests,
    b_plus,
    base_alphabet,
    bracket_alphabet,
    concat,
    forest,
    parse_forest,
    single,
    sort_key,
    tree,
)

# ---------------------------------------------------------------------------
# Shuffles
# ---------------------------------------------------------------------------


def _shuffles(words) -> dict:
    """All interleavings of the rigid words, with multiplicities."""
    words = tuple(w for w in words if w)
    if not words:
        return {(): 1}
    out: Counter = Counter()
    for idx, w in enumerate(words):
        rest = words[:idx] + ((w[1:],) if len(w) > 1 else ()) + words[idx + 1 :]
        for tail, mult in _shuffles(rest).items():
            out[(w[0],) + tail] += mult
    return dict(out)


def shuffle(f1: PlanarForest, f2: PlanarForest) -> dict:
    """Shuffle product of two forests: ``{forest: multiplicity}``."""
    return {forest(word): m for word, m in _shuffles((f1.trees, f2.trees)).items()}


# ---------------------------------------------------------------------------
# Coproduct
# ---------------------------------------------------------------------------

_TREE_CUTS: dict = {}


def _tree_cut_options(t: PlanarTree):
    """Cut configurations of one tree.

    Returns a list of ``(blocks, pruned)`` pairs, where ``blocks`` is a tuple
    of rigid tree words (one per cut vertex, in discovery order — the order
    is immaterial because blocks are later shuffled) and ``pruned`` is what
    remains of ``t``.  The no-cut configuration ``((), t)`` is included.
    """
    cached = _TREE_CUTS.get(t)
    if cached is not None:
        return cached
    kids = t.children
    out = []
    for ell in range(len(kids) + 1):
        prefix = kids[:ell]
        combos = itertools.product(*map(_tree_cut_options, kids[ell:]))
        for combo in combos:
            blocks = (prefix,) if prefix else ()
            new_kids = []
            for sub_blocks, pruned_child in combo:
                blocks += sub_blocks
                new_kids.append(pruned_child)
            out.append((blocks, tree(t.letter, new_kids)))
    _TREE_CUTS[t] = out
    return out


def coproduct_mkw(f: PlanarForest) -> dict:
    """Left-admissible-cut coproduct: ``{(left, right): coefficient}``.

    Grouped terms: the pair ``(f, e)`` comes from the full deconcatenation,
    ``(e, f)`` from the empty one; every other pair mixes a deconcatenation
    prefix with pruned branches shuffled into it.
    """
    out: Counter = Counter()
    word = f.trees
    for p in range(len(word) + 1):
        wl, rest = word[:p], word[p:]
        for combo in itertools.product(*map(_tree_cut_options, rest)):
            blocks = []
            pruned = []
            for sub_blocks, pruned_tree in combo:
                blocks.extend(sub_blocks)
                pruned.append(pruned_tree)
            right = forest(pruned)
            for left_word, mult in _shuffles((wl, *blocks)).items():
                out[(forest(left_word), right)] += mult
    return dict(out)


def coproduct_series(a: dict) -> dict:
    out: dict = {}
    for f, c in a.items():
        for pair, m in coproduct_mkw(f).items():
            out[pair] = out.get(pair, 0) + c * m
    return {p: c for p, c in out.items() if c != 0}


def counit(a: dict):
    """Coefficient of the empty forest."""
    return a.get(EMPTY, 0)


def reduced_coproduct(a: dict) -> dict:
    """Coproduct with the two group-like end terms removed."""
    out = coproduct_series(a)
    for f, c in a.items():
        for pair in ((f, EMPTY), (EMPTY, f)):
            new = out.get(pair, 0) - c
            if new == 0:
                out.pop(pair, None)
            else:
                out[pair] = new
    return out


# ---------------------------------------------------------------------------
# Bracket-vertex reduction and primitivity
# ---------------------------------------------------------------------------


def bracket_reduce(f: PlanarForest) -> dict:
    """Rewrite standalone bracket-letter vertices into base-letter forests.

    Every tree of ``f`` that is a single vertex decorated by a bracket letter
    ``(i, j)`` is replaced, multilinearly, by the combination
    ``•j·•i − [•j]i`` spliced into the word at the same position.  Vertices
    with children (or non-root bracket vertices) are left untouched.
    """
    word = f.trees
    for pos, t in enumerate(word):
        if not t.children and not isinstance(t.letter, int):
            i, j = t.letter
            expanded = word[:pos] + (tree(j), tree(i)) + word[pos + 1 :]
            contracted = word[:pos] + (tree(i, (tree(j),)),) + word[pos + 1 :]
            out: Counter = Counter()
            for g, c in bracket_reduce(forest(expanded)).items():
                out[g] += c
            for g, c in bracket_reduce(forest(contracted)).items():
                out[g] -= c
            return {g: c for g, c in out.items() if c != 0}
    return {f: 1}


def is_primitive(a: dict) -> bool:
    """Whether the series is primitive, modulo the bracket-vertex relation.

    Both tensor slots of the reduced coproduct are rewritten with
    :func:`bracket_reduce` before testing for zero, so a bracket vertex and
    the base-letter combination it abbreviates are treated as equal.
    """
    out: Counter = Counter()
    for (left, right), c in reduced_coproduct(a).items():
        for lf, lc in bracket_reduce(left).items():
            for rf, rc in bracket_reduce(right).items():
                out[(lf, rf)] += c * lc * rc
    return all(v == 0 for v in out.values())


# ---------------------------------------------------------------------------
# Truncated basis and the grafting product
# ---------------------------------------------------------------------------


class TruncatedBasis:
    """Ordered basis of all forests over an alphabet up to a weight bound.

    Holds the coproduct structure constants in indexed form; these drive both
    the exact ``star`` (transpose pairing) and :class:`FloatAlgebra`.
    """

    def __init__(self, letters, max_weight: int):
        if max_weight > MAX_WEIGHT:
            raise ValueError(f"truncation weight {max_weight} exceeds {MAX_WEIGHT}")
        self.letters = tuple(letters)
        self.max_weight = max_weight
        self.forests = all_forests(self.letters, max_weight)
        self.index = {f: i for i, f in enumerate(self.forests)}
        # cut_rows[k] = [(left_index, right_index, coeff), ...] for forest k
        self.cut_rows = []
        for f in self.forests:
            rows = [
                (self.index[l], self.index[r], c)
                for (l, r), c in sorted(
                    coproduct_mkw(f).items(),
                    key=lambda item: (sort_key(item[0][0]), sort_key(item[0][1])),
                )
            ]
            self.cut_rows.append(rows)

    @property
    def dim(self) -> int:
        return len(self.forests)

    def vector(self, a: dict) -> np.ndarray:
        """Dense float coefficient vector of a series (unknown keys rejected)."""
        v = np.zeros(self.dim)
        for f, c in a.items():
            v[self.index[f]] = float(c)
        return v

    def star(self, a: dict, b: dict) -> dict:
        """Grafting (planar Grossman–Larson) product of dual series, exact.

        Defined as the transpose of the coproduct: the coefficient of the
        result at ω is ``Σ coeff · a[left] · b[right]`` over the coproduct
        terms of ω.
        """
        fa = {self.index[f]: c for f, c in a.items()}
        fb = {self.index[f]: c for f, c in b.items()}
        out = {}
        for k, rows in enumerate(self.cut_rows):
            acc = 0
            for li, ri, c in rows:
                ca = fa.get(li)
                if ca:
                    cb = fb.get(ri)
                    if cb:
                        acc += c * ca * cb
            if acc != 0:
                out[self.forests[k]] = acc
        return out

    def exp_star(self, gen: dict) -> dict:
        """★-exponential of an infinitesimal series (no empty-forest term).

        Exact in the truncated algebra: the series ends at order
        ``max_weight`` because every factor has weight ≥ 1.
        """
        if counit(gen) != 0:
            raise ValueError("exp_star needs a vanishing empty-forest coefficient")
        out = {EMPTY: Fraction(1)}
        term: dict = {EMPTY: Fraction(1)}
        for k in range(1, self.max_weight + 1):
            term = self.star(term, gen)
            term = {f: Fraction(c) / k for f, c in term.items()}
            for f, c in term.items():
                out[f] = out.get(f, Fraction(0)) + c
        return {f: c for f, c in out.items() if c != 0}


def pairing(a: dict, b: dict):
    """Canonical pairing of a dual series against a primal series."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return sum(c * large.get(f, 0) for f, c in small.items() if f in large)


# ---------------------------------------------------------------------------
# Vectorised layer
# ---------------------------------------------------------------------------

# Elements (rows·dim) per matrix product, so the gathered pair products stay
# about the output's size: 256 rows at dim 157, 512 at 87, 8192 at dim 5.
_CHUNK = 45_000


def budget_rows(budget: int, dim: int) -> int:
    """The largest power of two ``rows`` with ``rows·dim ≤ budget``, at least 1."""
    return 1 << (max(1, budget // dim).bit_length() - 1)


class FloatAlgebra:
    """Batched numpy evaluation of ``star`` / ``exp_star`` over a basis.

    The coproduct terms with an empty factor, ``(ω, e)`` and ``(e, ω)``, add
    ``A·B₀ + A₀·B`` (``A₀B₀`` at ``e``).  Every other structure constant sits
    at its ``(left, right)`` index pair in a dense ``(pairs, dim)`` matrix
    ``C``, so ``star`` is the gather-multiply ``A_L·B_R`` and one matrix
    product with ``C``, ``chunk_rows`` rows at a time: the largest power of
    two whose rows hold at most ``_CHUNK`` elements, so a small algebra runs
    few calls and a large one keeps its pair products small.

    ``exp`` uses the grading: ``Ω^{★(k−1)}`` vanishes below weight ``k − 1``
    and ``Ω`` has no unit term, so the k-th power is ``Ω^{★(k−1)} ★ Ω`` over
    the pairs whose left factor weighs at least ``k − 1`` and onto the
    columns of weight at least ``k`` (one slice, as the basis is sorted by
    weight), with no unit terms.  The dropped pairs meet an exact zero and
    the kept ones stay in table order, so the bits are those of ``star``.
    ``commutator`` takes its factors on the ``support`` columns only.
    """

    def __init__(self, basis: TruncatedBasis):
        self.basis = basis
        self.dim = basis.dim
        self.chunk_rows = budget_rows(_CHUNK, self.dim)
        rows = enumerate(basis.cut_rows)
        terms = [(l, r, k, c) for k, cuts in rows for l, r, c in cuts if l and r]
        left, right, k, c = np.array(terms, dtype=np.intp).reshape(-1, 4).T
        pairs, slot = np.unique([left, right], axis=1, return_inverse=True)
        self._left, self._right = pairs
        self._coeffs = np.zeros((pairs.shape[1], self.dim))
        self._coeffs[slot, k] = c
        # per power k = 2..N: (k, left, right, coeffs, first column of weight
        # k), left as a position in the previous power's columns from lo on
        weights = np.array([f.weight for f in basis.forests])
        self._powers = []
        lo = 0  # the first power, Ω, is dim-wide
        for k in range(2, basis.max_weight + 1):
            keep = weights[self._left] >= k - 1
            hi = int(np.searchsorted(weights, k))
            C = np.ascontiguousarray(self._coeffs[keep, hi:])
            self._powers.append((k, self._left[keep] - lo, self._right[keep], C, hi))
            lo = hi

    def unit(self, shape=()) -> np.ndarray:
        g = np.zeros(tuple(shape) + (self.dim,))
        g[..., 0] = 1.0
        return g

    def _chunks(self, A: np.ndarray, B: np.ndarray):
        """A new ``dim``-wide output for the broadcast ``A``, ``B``, and their
        row chunks."""
        A, B = np.broadcast_arrays(A, B)
        out = np.empty(A.shape[:-1] + (self.dim,))
        rows = [x.reshape(-1, x.shape[-1]) for x in (A, B, out)]
        n = self.chunk_rows
        starts = range(0, len(rows[2]), n)
        return out, ([x[s : s + n] for x in rows] for s in starts)

    def star(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Product of batches of dual vectors; leading axes broadcast."""
        out, chunks = self._chunks(A, B)
        for a, b, o in chunks:
            np.matmul(a[:, self._left] * b[:, self._right], self._coeffs, out=o)
            o += a * b[:, :1]
            o += a[:, :1] * b
            o[:, 0] = a[:, 0] * b[:, 0]
        return out

    def commutator(self, A: np.ndarray, B: np.ndarray, support) -> np.ndarray:
        """``A ★ B − B ★ A`` for batches that vanish off ``support``, given on
        those columns only (shape ``(..., len(support))``); the result is
        ``dim``-wide.  The unit terms cancel, and only pairs inside
        ``support`` can meet two nonzero factors, so this is
        ``(A_L·B_R − B_L·A_R) @ C`` over those pairs."""
        at = np.full(self.dim, -1)
        at[support] = np.arange(len(support))
        keep = (at[self._left] >= 0) & (at[self._right] >= 0)
        L, R, C = at[self._left[keep]], at[self._right[keep]], self._coeffs[keep]
        out, chunks = self._chunks(A, B)
        for a, b, o in chunks:
            np.matmul(a[:, L] * b[:, R] - b[:, L] * a[:, R], C, out=o)
        return out

    def exp(self, O: np.ndarray) -> np.ndarray:
        """★-exponential of batched infinitesimal vectors, graded by power.

        A nonzero empty-forest coefficient is an error, since the powers
        leave out the unit terms; a NaN there (an overflowed Ω) passes into
        ``g[..., 0]``, as any non-finite entry of Ω passes into ``g``.
        """
        if (np.abs(O[..., 0]) > 0).any():
            raise ValueError("exp needs a vanishing empty-forest coefficient")
        g = self.unit(O.shape[:-1])
        g += O
        rows, out = O.reshape(-1, self.dim), g.reshape(-1, self.dim)
        n = self.chunk_rows
        for s in range(0, len(rows), n):
            o = term = rows[s : s + n]
            for k, L, R, C, start in self._powers:
                term = np.matmul(term[:, L] * o[:, R], C)
                term /= k
                out[s : s + n, start:] += term
        return g

    def star_reduce(self, chars: np.ndarray) -> np.ndarray:
        """★-product along axis -2 (length must be a power of two)."""
        n = chars.shape[-2]
        if n & (n - 1):
            raise ValueError(f"reduction length {n} is not a power of two")
        while n > 1:
            chars = self.star(chars[..., 0::2, :], chars[..., 1::2, :])
            n //= 2
        return chars[..., 0, :]


# ---------------------------------------------------------------------------
# Exact self-checks
# ---------------------------------------------------------------------------
#
# Each check returns its defect, which is empty (or zero) exactly when the
# identity holds; ``run_selftest`` and the tests both call them.


def coassociativity_defect(f: PlanarForest) -> dict:
    """``(Δ⊗id)Δf − (id⊗Δ)Δf`` as ``{(a1, a2, a3): coefficient}``."""
    out: Counter = Counter()
    for (a, b), c in coproduct_mkw(f).items():
        for (a1, a2), c2 in coproduct_mkw(a).items():
            out[(a1, a2, b)] += c * c2
        for (b1, b2), c2 in coproduct_mkw(b).items():
            out[(a, b1, b2)] -= c * c2
    return {k: v for k, v in out.items() if v}


def counit_defect(f: PlanarForest) -> dict:
    """``(ε⊗id)Δf − f`` and ``(id⊗ε)Δf − f``, keyed ``("left"|"right", forest)``."""
    out: Counter = Counter({("left", f): -1, ("right", f): -1})
    for (a, b), c in coproduct_mkw(f).items():
        if a is EMPTY:
            out[("left", b)] += c
        if b is EMPTY:
            out[("right", a)] += c
    return {k: v for k, v in out.items() if v}


def shuffle_morphism_defect(f1: PlanarForest, f2: PlanarForest) -> dict:
    """``Δ(f1 ⧢ f2) − Δf1 ⧢ Δf2`` as ``{(left, right): coefficient}``."""
    out: Counter = Counter(coproduct_series(shuffle(f1, f2)))
    for (a1, b1), c1 in coproduct_mkw(f1).items():
        for (a2, b2), c2 in coproduct_mkw(f2).items():
            for fa, ca in shuffle(a1, a2).items():
                for fb, cb in shuffle(b1, b2).items():
                    out[(fa, fb)] -= c1 * c2 * ca * cb
    return {k: v for k, v in out.items() if v}


def character_defect(g: dict, f1: PlanarForest, f2: PlanarForest):
    """``⟨g, f1 ⧢ f2⟩ − ⟨g, f1⟩⟨g, f2⟩``: zero on every pair for a character."""
    return pairing(g, shuffle(f1, f2)) - g.get(f1, 0) * g.get(f2, 0)


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


_PINNED_COPRODUCTS = {
    # forest key -> {(left key, right key): coefficient}
    "•1": {("e", "•1"): 1, ("•1", "e"): 1},
    "•2•1": {("e", "•2•1"): 1, ("•2•1", "e"): 1, ("•2", "•1"): 1},
    "[•2]1": {("e", "[•2]1"): 1, ("[•2]1", "e"): 1, ("•2", "•1"): 1},
    "[•3•2]1": {
        ("e", "[•3•2]1"): 1,
        ("[•3•2]1", "e"): 1,
        ("•3", "[•2]1"): 1,
        ("•3•2", "•1"): 1,
    },
    "[•3](12)": {("e", "[•3](12)"): 1, ("[•3](12)", "e"): 1, ("•3", "•(12)"): 1},
}


def run_selftest(d: int = 2, max_weight: int = 3) -> dict:
    """Exact structural checks of the combinatorial algebra; no tolerances.

    The coproduct checks run exhaustively over all forests (and all pairs of
    forests) up to ``max_weight`` on the ``d``-letter alphabets.
    """
    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(ok), "detail": detail})

    base = all_forests(base_alphabet(d), max_weight)
    ext = all_forests(bracket_alphabet(d), max_weight)
    letters = range(1, d + 1)

    by_weight = {}
    for f in base:
        by_weight[f.weight] = by_weight.get(f.weight, 0) + 1
    expected = {k: _catalan(k) * d**k for k in range(max_weight + 1)}
    check(
        "forest census matches the planar count",
        by_weight == expected,
        f"{by_weight} vs {expected}",
    )

    wrong = []
    for src, want in _PINNED_COPRODUCTS.items():
        got = {
            (l.key, r.key): c for (l, r), c in coproduct_mkw(parse_forest(src)).items()
        }
        if got != want:
            wrong.append(f"{src}: {got}")
    check("pinned coproduct expansions", not wrong, wrong[0] if wrong else "")

    for label, forests in (("base", base), ("bracket", ext)):
        check(
            f"coproduct is coassociative ({label} alphabet)",
            not any(coassociativity_defect(f) for f in forests),
        )
    small = [f for f in base if f.weight]
    check(
        "coproduct is a shuffle morphism",
        not any(
            shuffle_morphism_defect(f1, f2)
            for f1 in small
            for f2 in small
            if f1.weight + f2.weight <= max_weight
        ),
    )
    check("counit axioms", not any(counit_defect(f) for f in ext))

    basis = TruncatedBasis(bracket_alphabet(d), max_weight)
    check(
        "product grafts a single vertex both ways",
        all(
            basis.star({single(j): 1}, {single(i): 1})
            == {concat(single(j), single(i)): 1, b_plus(single(j), i): 1}
            for i in letters
            for j in letters
        ),
    )
    check(
        "empty forest is the product unit",
        all(
            basis.star({EMPTY: 1}, {f: 1}) == {f: 1}
            and basis.star({f: 1}, {EMPTY: 1}) == {f: 1}
            for f in basis.forests
        ),
    )
    gens = [{single(l): 1} for l in bracket_alphabet(d)]
    check(
        "product is associative on generators",
        all(
            basis.star(basis.star(a, b), c) == basis.star(a, basis.star(b, c))
            for a in gens
            for b in gens
            for c in gens
        ),
    )
    check(
        "second-order compensators are primitive",
        all(
            is_primitive({concat(single(j), single(i)): 1, b_plus(single(j), i): -1})
            and is_primitive({single((i, j)): 1})
            for i in letters
            for j in letters
        ),
    )
    check(
        "bare two-letter word is not primitive",
        not is_primitive({concat(single(1), single(1)): 1}),
    )

    g = basis.exp_star({single(1): Fraction(1), b_plus(single(1), 1): Fraction(1, 3)})
    check(
        "exponentials are shuffle characters (exact)",
        g.get(b_plus(single(1), 1), 0) == Fraction(1, 2) + Fraction(1, 3)
        and not any(
            character_defect(g, f1, f2)
            for f1 in basis.forests
            for f2 in basis.forests
            if f1.weight and f2.weight and f1.weight + f2.weight <= max_weight
        ),
    )

    return {
        "alphabet_size": d,
        "max_weight": max_weight,
        "dim_base": len(base),
        "dim_bracket": len(ext),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
