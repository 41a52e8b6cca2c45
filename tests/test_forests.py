"""Planar-forest combinatorics: census, grammar round-trips, validation."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sort_key,
    tree,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("max_weight", [1, 2, 3])
def test_base_census_is_catalan(d, max_weight):
    forests = all_forests(base_alphabet(d), max_weight)
    want = sum(catalan(k) * d**k for k in range(max_weight + 1))
    assert len(forests) == want
    by_weight = {}
    for f in forests:
        by_weight[f.weight] = by_weight.get(f.weight, 0) + 1
    for k in range(max_weight + 1):
        assert by_weight.get(k, 0) == catalan(k) * d**k


def test_extended_census_frozen():
    assert len(all_forests(bracket_alphabet(1), 3)) == 14
    assert len(all_forests(bracket_alphabet(2), 3)) == 87


def test_alphabets():
    assert base_alphabet(2) == (1, 2)
    ext = bracket_alphabet(2)
    assert set(ext) == {1, 2, (1, 1), (1, 2), (2, 1), (2, 2)}
    assert single((1, 2)).weight == 2
    with pytest.raises(ValueError):
        base_alphabet(0)
    with pytest.raises(ValueError):
        base_alphabet(10)


def test_enumeration_sorted_and_unique():
    forests = all_forests(bracket_alphabet(2), 3)
    keys = [f.key for f in forests]
    assert len(set(keys)) == len(keys)
    assert [sort_key(f) for f in forests] == sorted(sort_key(f) for f in forests)
    assert forests[0] is EMPTY
    weights = [f.weight for f in forests]
    assert weights == sorted(weights)


# ---------------------------------------------------------------------------
# Grammar round-trip
# ---------------------------------------------------------------------------


def test_parse_round_trip_exhaustive():
    for f in all_forests(bracket_alphabet(2), 3):
        assert parse_forest(f.key) is f


def test_key_examples():
    assert EMPTY.key == "e"
    assert single(3).key == "•3"
    assert single((1, 2)).key == "•(12)"
    assert b_plus(concat(single(2), single(1)), 3).key == "[•2•1]3"
    t = b_plus(single(1), (2, 1))
    assert t.key == "[•1](21)"
    assert parse_forest(t.key) is t


def test_parse_rejects_garbage():
    for bad in ["x", "•", "•0", "[•1", "•1]", "(12)", "•(1)", "e•1", "●1"]:
        with pytest.raises(ValueError):
            parse_forest(bad)


def test_parse_empty_aliases():
    assert parse_forest("e") is EMPTY
    assert parse_forest("") is EMPTY


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_random_constructions_round_trip(data):
    letters = [1, 2, 3, (1, 2), (2, 1)]

    def draw_tree(budget):
        letter = data.draw(st.sampled_from(letters))
        n = data.draw(st.integers(0, min(2, budget - 1)))
        kids = tuple(draw_tree(max(1, budget // 2)) for _ in range(n))
        return tree(letter, kids)

    n_trees = data.draw(st.integers(0, 3))
    f = forest(tuple(draw_tree(2) for _ in range(n_trees)))
    assert parse_forest(f.key) is f
    assert f.weight == sum(t.weight for t in f.trees)
    assert f.degree == sum(t.degree for t in f.trees)


# ---------------------------------------------------------------------------
# Constructors and invariants
# ---------------------------------------------------------------------------


def test_interning_identity():
    assert single(1) is single(1)
    assert concat(single(1), single(2)) is concat(single(1), single(2))
    assert forest(()) is EMPTY


def test_weights():
    assert single(1).weight == 1
    assert single((1, 2)).weight == 2
    t = b_plus(concat(single(1), single((2, 1))), 2)
    assert t.weight == 4
    assert t.degree == 3


def test_b_plus_grafts_whole_word():
    w = concat(single(1), single(2))
    t = b_plus(w, 3)
    assert t.trees[0].letter == 3
    assert t.trees[0].children == (single(1).trees[0], single(2).trees[0])


def test_concat_unit_and_associativity():
    a, b, c = single(1), single(2), single(3)
    assert concat(EMPTY, a) is a
    assert concat(a, EMPTY) is a
    assert concat(concat(a, b), c) is concat(a, concat(b, c))


def test_letter_validation():
    with pytest.raises(ValueError):
        single(0)
    with pytest.raises(ValueError):
        single(11)
    with pytest.raises(ValueError):
        single((1, 1, 1))
    with pytest.raises(ValueError):
        tree("a", ())


def test_sort_key_orders_by_weight_then_key():
    a = single(2)
    b = concat(single(1), single(1))
    assert sort_key(a) < sort_key(b)
    assert sort_key(EMPTY) < sort_key(a)
