"""Combinatorial-algebra tests against an independent grafting oracle.

The oracle implements the planar grafting product directly: every tree of the
left word is either concatenated in front or grafted as a leftmost child
block at one vertex of the right forest, each assignment counted once.  The
library's product is the graded transpose of its coproduct table, so an
exhaustive match here validates both at once.

The axiom checks call the library's defect functions (the ones
``hopf-selftest`` runs) exhaustively on the d=2 alphabets; a broken
coproduct must make each of them report a defect.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bracket_series, exp_by_star
from test_paths import pre_fix_cbar_series

from planarough.forest_core import (
    EMPTY,
    all_forests,
    b_plus,
    base_alphabet,
    bracket_alphabet,
    concat,
    forest,
    parse_forest,
    single,
    tree,
)
from planarough import hopf_mkw
from planarough.hopf_mkw import (
    FloatAlgebra,
    TruncatedBasis,
    bracket_reduce,
    character_defect,
    coassociativity_defect,
    coproduct_mkw,
    counit,
    counit_defect,
    is_primitive,
    pairing,
    shuffle,
    shuffle_morphism_defect,
)
from planarough.rough_path import cbar_series, tilde_series

MAX_WEIGHT = 3


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def _vertex_paths(f):
    """All vertices of a forest as (tree index, child index, ...) paths."""
    out = []

    def walk(t, base):
        out.append(base)
        for k, c in enumerate(t.children):
            walk(c, base + (k,))

    for i, t in enumerate(f.trees):
        walk(t, (i,))
    return out


def _graft_at(t, path, block):
    if not path:
        return tree(t.letter, tuple(block) + t.children)
    kids = list(t.children)
    kids[path[0]] = _graft_at(kids[path[0]], path[1:], block)
    return tree(t.letter, tuple(kids))


def star_oracle(g, h):
    """Brute-force planar grafting product of two forests."""
    targets = _vertex_paths(h)
    out = {}
    for assign in itertools.product(
        range(len(targets) + 1), repeat=len(g.trees)
    ):
        prefix = []
        blocks = {}
        for tr, a in zip(g.trees, assign):
            if a == 0:
                prefix.append(tr)
            else:
                blocks.setdefault(targets[a - 1], []).append(tr)
        new_trees = list(h.trees)
        # graft deepest-first so pending target paths stay valid
        for path in sorted(blocks, key=len, reverse=True):
            i = path[0]
            new_trees[i] = _graft_at(new_trees[i], path[1:], blocks[path])
        w = forest(tuple(prefix) + tuple(new_trees))
        out[w] = out.get(w, 0) + 1
    return out


def _pairs(forests):
    for g in forests:
        for h in forests:
            if g.weight + h.weight <= MAX_WEIGHT:
                yield g, h


@pytest.mark.parametrize("letters", [base_alphabet(1), base_alphabet(2),
                                     bracket_alphabet(1), bracket_alphabet(2)])
def test_product_matches_grafting_oracle_exhaustively(letters):
    basis = TruncatedBasis(letters, MAX_WEIGHT)
    for g, h in _pairs(basis.forests):
        got = basis.star({g: 1}, {h: 1})
        want = star_oracle(g, h)
        assert got == want, f"{g.key} * {h.key}: {got} != {want}"


def test_oracle_spot_values():
    i, j = 1, 2
    assert star_oracle(single(j), single(i)) == {
        concat(single(j), single(i)): 1,
        b_plus(single(j), i): 1,
    }
    # two-letter left word: prefix, split, or ordered block graft
    g = concat(single(1), single(2))
    want = {
        parse_forest("•1•2•3"): 1,
        parse_forest("•1[•2]3"): 1,
        parse_forest("•2[•1]3"): 1,
        parse_forest("[•1•2]3"): 1,
    }
    assert star_oracle(g, single(3)) == want


# ---------------------------------------------------------------------------
# Pinned coproduct expansions
# ---------------------------------------------------------------------------


PINNED = {
    "•1": {("e", "•1"): 1, ("•1", "e"): 1},
    "•2•1": {("e", "•2•1"): 1, ("•2•1", "e"): 1, ("•2", "•1"): 1},
    "[•2]1": {("e", "[•2]1"): 1, ("[•2]1", "e"): 1, ("•2", "•1"): 1},
    "[•3•2]1": {
        ("e", "[•3•2]1"): 1,
        ("[•3•2]1", "e"): 1,
        ("•3", "[•2]1"): 1,
        ("•3•2", "•1"): 1,
    },
    "[•3](12)": {
        ("e", "[•3](12)"): 1,
        ("[•3](12)", "e"): 1,
        ("•3", "•(12)"): 1,
    },
}


def test_pinned_coproducts():
    for src, want in PINNED.items():
        got = {
            (l.key, r.key): c
            for (l, r), c in coproduct_mkw(parse_forest(src)).items()
        }
        assert got == want, src


# ---------------------------------------------------------------------------
# Axioms, exhaustively on the d=2 alphabets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("letters", [base_alphabet(2), bracket_alphabet(2)])
def test_coassociativity_exhaustive(letters):
    for f in all_forests(letters, MAX_WEIGHT):
        assert coassociativity_defect(f) == {}, f.key


def test_counit_exhaustive():
    for f in all_forests(bracket_alphabet(2), MAX_WEIGHT):
        assert counit_defect(f) == {}, f.key


def test_shuffle_morphism_exhaustive():
    forests = [f for f in all_forests(base_alphabet(2), MAX_WEIGHT) if f.weight]
    for f1, f2 in _pairs(forests):
        assert shuffle_morphism_defect(f1, f2) == {}, (f1.key, f2.key)


def test_checks_see_a_broken_coproduct(monkeypatch):
    # drop the term e ⊗ •2•1 from the coproduct of •2•1: each check must notice
    broken = parse_forest("•2•1")
    exact = coproduct_mkw

    def coproduct(f):
        terms = exact(f)
        if f is broken:
            terms = {k: c for k, c in terms.items() if k[0] is not EMPTY}
        return terms

    monkeypatch.setattr(hopf_mkw, "coproduct_mkw", coproduct)
    assert counit_defect(broken) == {("left", broken): -1}
    assert coassociativity_defect(parse_forest("•2•1•1"))
    assert shuffle_morphism_defect(single(2), single(1))
    assert character_defect({single(1): 1}, single(1), single(1)) == -1


# ---------------------------------------------------------------------------
# Primitivity and the compensator series
# ---------------------------------------------------------------------------


def test_second_order_compensators_primitive():
    for i in range(1, 3):
        for j in range(1, 3):
            assert is_primitive(bracket_series(i, j)), (i, j)
            assert is_primitive({single((i, j)): 1}), (i, j)


def test_third_order_compensator_primitive():
    for ijk in itertools.product((1, 2), repeat=3):
        assert is_primitive(tilde_series(*ijk)), ijk


def test_mixed_compensator_primitive():
    # with [•k•i]j and [•i•k]j the series is primitive, so its path
    # increments are additive; coinciding forests add up; the pre-fix series
    # is the negative control
    for ijk in itertools.product((1, 2, 3), repeat=3):
        assert is_primitive(cbar_series(*ijk)), ijk
    assert cbar_series(1, 1, 2)[b_plus(single(2), (1, 1))] == -2
    assert cbar_series(1, 2, 1)[b_plus(concat(single(1), single(1)), 2)] == -2
    for ijk in [(1, 1, 1), (1, 2, 1), (2, 1, 2)]:
        assert not is_primitive(pre_fix_cbar_series(*ijk)), ijk


def test_bare_word_not_primitive():
    assert not is_primitive({concat(single(1), single(1)): 1})


def test_bracket_reduce_expands_bracket_vertex():
    got = bracket_reduce(single((1, 2)))
    want = {
        concat(single(2), single(1)): 1,
        b_plus(single(2), 1): -1,
    }
    assert got == want


# ---------------------------------------------------------------------------
# Exact characters
# ---------------------------------------------------------------------------


def test_exp_star_is_exact_character():
    basis = TruncatedBasis(bracket_alphabet(1), MAX_WEIGHT)
    gen = {single(1): Fraction(1), b_plus(single(1), 1): Fraction(1, 3)}
    g = basis.exp_star(gen)
    assert g[EMPTY] == 1
    assert g[single(1)] == 1
    assert g[b_plus(single(1), 1)] == Fraction(1, 2) + Fraction(1, 3)
    assert g[concat(single(1), single(1))] == Fraction(1, 2)
    nonempty = [f for f in basis.forests if f.weight]
    for f1, f2 in _pairs(nonempty):
        assert character_defect(g, f1, f2) == 0, (f1.key, f2.key)


def test_pairing_and_counit():
    a = {single(1): 2, EMPTY: 1}
    assert pairing(a, {single(1): 3}) == 6
    assert counit(a) == 1


# ---------------------------------------------------------------------------
# Float algebra mirrors the exact one
# ---------------------------------------------------------------------------


def test_float_algebra_matches_exact_star():
    # the bracket and base algebras at N = 3 and the bracket algebra at N = 2
    import numpy as np

    rng = np.random.default_rng(7)
    for letters, max_weight in [
        (bracket_alphabet(2), 3),
        (base_alphabet(3), 3),
        (base_alphabet(1), 3),
        (bracket_alphabet(1), 2),
    ]:
        basis = TruncatedBasis(letters, max_weight)
        alg = FloatAlgebra(basis)

        def exact(v, w):
            a, b = (dict(zip(basis.forests, x)) for x in (v, w))
            return basis.vector(basis.star(a, b))

        for _ in range(20):
            va, vb = rng.standard_normal((2, basis.dim))
            assert np.allclose(alg.star(va, vb), exact(va, vb), atol=1e-12)
        # star_reduce over (cells, substeps, dim), as the lift calls it
        chars = rng.standard_normal((3, 4, basis.dim))
        for got, cell in zip(alg.star_reduce(chars), chars):
            want = exact(exact(cell[0], cell[1]), exact(cell[2], cell[3]))
            assert np.allclose(got, want, atol=1e-12)
        # one row against a batch, as eval_many pads its tilings with the unit
        row = rng.standard_normal(basis.dim)
        batch = rng.standard_normal((5, basis.dim))
        for got, w in zip(alg.star(row, batch), batch):
            assert np.allclose(got, exact(row, w), atol=1e-12)
        assert np.array_equal(alg.star(alg.unit(), batch), batch)
        # exp against the exact ★-exponential on Fractions
        gen = {f: Fraction(int(rng.integers(-9, 10)), 8) for f in basis.forests[1:]}
        omega = basis.vector(gen)
        want = basis.vector(basis.exp_star(gen))
        assert np.allclose(alg.exp(omega), want, atol=1e-12)
        assert np.allclose(alg.exp(np.stack([omega, omega / 2]))[0], want, atol=1e-12)


@pytest.mark.parametrize(
    "letters, max_weight, support_keys",
    [
        (base_alphabet(3), MAX_WEIGHT, ["•1", "•2", "•3", "[•1]2", "[•3•2]1"]),
        (bracket_alphabet(2), MAX_WEIGHT, ["•1", "•2", "[•1]2", "•(12)", "•(21)"]),
        (bracket_alphabet(1), 2, ["•1", "[•1]1", "•(11)"]),
    ],
    ids=["base-d3n3", "bracket-d2n3", "bracket-d1n2"],
)
def test_star_rows_read_the_same_bits_in_any_batch(letters, max_weight, support_keys):
    # the lift's blocks, its last block, the pyramid and eval_many stack
    # rows in counts that vary, so a row must read the same bits alone as
    # in any batch, on both sides of a matrix-product chunk boundary, whose
    # place follows the algebra's size
    import numpy as np

    alg = FloatAlgebra(TruncatedBasis(letters, max_weight))
    chunk = alg.chunk_rows
    support = [alg.basis.index[parse_forest(k)] for k in support_keys]
    rng = np.random.default_rng(3)
    a, b = 0.5 * rng.standard_normal((2, 2 * chunk + 1, alg.dim))
    rates = a[:, support], b[:, support]
    omega = a.copy()
    omega[:, 0] = 0.0
    ops = {
        "star": (alg.star, (a, b)),
        "exp": (alg.exp, (omega,)),
        "commutator": (lambda x, y: alg.commutator(x, y, support), rates),
        "star_reduce": (alg.star_reduce, (np.stack([a, b, b, a], axis=1),)),
    }
    for name, (op, args) in ops.items():
        full = op(*args)
        for n in (1, 3, chunk - 1, chunk, chunk + 1):
            assert np.array_equal(op(*(x[:n] for x in args)), full[:n]), (name, n)
        for row in (0, 2, chunk - 1, chunk, 2 * chunk):
            assert np.array_equal(op(*(x[row] for x in args)), full[row]), (name, row)


@pytest.mark.parametrize(
    "letters, support_keys",
    [
        # the columns a d = 3 lift samples: letters and two intensities
        (base_alphabet(3), ["•1", "•2", "•3", "[•1]2", "[•3•2]1"]),
        # a d = 2 extension's letters and intensity, with every bracket letter
        (
            bracket_alphabet(2),
            ["•1", "•2", "[•1]2", "•(11)", "•(12)", "•(21)", "•(22)"],
        ),
    ],
)
def test_restricted_commutator_matches_full(letters, support_keys):
    import numpy as np

    alg = FloatAlgebra(TruncatedBasis(letters, MAX_WEIGHT))
    support = [alg.basis.index[parse_forest(k)] for k in support_keys]
    rng = np.random.default_rng(2)
    a_on, b_on = rng.standard_normal((2, 64, len(support)))
    a = np.zeros((64, alg.dim))
    b = np.zeros_like(a)
    a[:, support], b[:, support] = a_on, b_on
    full = alg.star(a, b) - alg.star(b, a)
    assert np.count_nonzero(full) > 0
    assert np.array_equal(alg.commutator(a_on, b_on, support), full)


@pytest.mark.parametrize(
    "letters, max_weight",
    [
        (base_alphabet(1), 3),
        (base_alphabet(3), 3),
        (bracket_alphabet(2), 3),
        (bracket_alphabet(3), MAX_WEIGHT),
        (bracket_alphabet(1), 2),
    ],
    ids=["base-d1n3", "base-d3n3", "bracket-d2n3", "bracket-d3-max", "bracket-d1n2"],
)
def test_graded_exp_reads_the_bits_of_full_products(letters, max_weight):
    # the graded powers drop only pairs and columns that meet an exact zero
    # and keep the table's order, so they add the same terms as full ★s
    import numpy as np

    alg = FloatAlgebra(TruncatedBasis(letters, max_weight))
    chunk = alg.chunk_rows
    rng = np.random.default_rng(4)
    omega = 0.5 * rng.standard_normal((2 * chunk + 1, alg.dim))
    omega[:, 0] = 0.0
    omega[::7, 1:] *= 1e-9  # rows of a lift's short substeps
    for n in (1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        assert np.array_equal(alg.exp(omega[:n]), exp_by_star(alg, omega[:n])), n
    for row in (0, 2, chunk - 1, chunk, 2 * chunk):
        assert np.array_equal(alg.exp(omega[row]), exp_by_star(alg, omega[row])), row
    stacked = omega[:6].reshape(2, 3, alg.dim)
    assert np.array_equal(alg.exp(stacked), exp_by_star(alg, stacked))
    want = exp_by_star(alg, omega)
    alg.star = None  # exp runs its own pair tables, not star
    assert np.array_equal(alg.exp(omega), want)


def test_exp_rejects_a_unit_component():
    # the graded powers leave the unit terms out, so a nonzero coefficient
    # of the empty forest would be dropped without a word
    import numpy as np

    alg = FloatAlgebra(TruncatedBasis(base_alphabet(2), 3))
    omega = np.zeros((3, alg.dim))
    omega[:, 1] = 1.0
    alg.exp(omega)
    omega[1, 0] = 1e-300
    with pytest.raises(ValueError, match="empty-forest"):
        alg.exp(omega)
    with pytest.raises(ValueError, match="empty-forest"):
        alg.exp(omega[1])


# ---------------------------------------------------------------------------
# Properties on wider alphabets
# ---------------------------------------------------------------------------


D3 = all_forests(base_alphabet(3), MAX_WEIGHT)
EXT2 = all_forests(bracket_alphabet(2), MAX_WEIGHT)


@given(st.sampled_from(D3))
@settings(max_examples=60, deadline=None)
def test_coassociativity_property_d3(f):
    assert coassociativity_defect(f) == {}


@given(
    st.dictionaries(st.sampled_from(EXT2), st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(EXT2), st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(EXT2), st.integers(-3, 3), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_star_associative_property(a, b, c):
    basis = TruncatedBasis(bracket_alphabet(2), MAX_WEIGHT)
    left = basis.star(basis.star(a, b), c)
    right = basis.star(a, basis.star(b, c))
    assert left == right


@given(st.sampled_from(EXT2), st.sampled_from(EXT2))
@settings(max_examples=60, deadline=None)
def test_shuffle_commutes_property(f1, f2):
    assert shuffle(f1, f2) == shuffle(f2, f1)


@given(st.sampled_from(D3), st.sampled_from(D3))
@settings(max_examples=40, deadline=None)
def test_shuffle_degree_grading(f1, f2):
    for f, c in shuffle(f1, f2).items():
        assert f.weight == f1.weight + f2.weight
        assert c > 0
