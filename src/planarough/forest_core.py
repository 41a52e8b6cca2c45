"""Planar (ordered) rooted forests with decorated vertices.

The combinatorial layer of the package: immutable, interned trees and
forests, a plain-text key grammar, and graded enumeration.

Decorations ("letters") come in two kinds:

* base letters — integers ``1..9``, weight 1;
* bracket letters — ordered pairs ``(i, j)`` of base letters, weight 2.

A *forest* is a finite word of planar rooted trees; the left-to-right order
of the trees, and of the children below each vertex, is significant.  Every
tree/forest is interned, so structural equality coincides with object
identity and containers of forests are cheap.

Key grammar (used by CSV dumps, the CLI, and ``parse_forest``):

* empty forest: ``"e"``
* leaf with letter ``l``: ``"•l"``  (e.g. ``"•2"``, ``"•(12)"``)
* non-leaf tree: ``"[" + children keys + "]" + letter``  (e.g. ``"[•2•1]1"``)
* forest: tree keys juxtaposed, left to right (e.g. ``"•1[•2]1"``)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

Letter = Union[int, tuple]

#: Hard cap on truncation weight; the calculus implemented here is derived
#: and tested only up to third order.
MAX_WEIGHT = 3


def letter_weight(letter: Letter) -> int:
    """Weight of a decoration: 1 for a base letter, 2 for a bracket pair."""
    return 1 if isinstance(letter, int) else 2


def letter_key(letter: Letter) -> str:
    if isinstance(letter, int):
        return str(letter)
    i, j = letter
    return f"({i}{j})"


def check_letter(letter: Letter) -> None:
    if isinstance(letter, int):
        if not 1 <= letter <= 9:
            raise ValueError(f"base letters must lie in 1..9, got {letter!r}")
        return
    if (
        isinstance(letter, tuple)
        and len(letter) == 2
        and all(isinstance(a, int) and 1 <= a <= 9 for a in letter)
    ):
        return
    raise ValueError(f"not a letter: {letter!r}")


@dataclass(frozen=True, eq=False)
class PlanarTree:
    """A planar rooted tree.  Construct only via :func:`tree`."""

    letter: Letter
    children: tuple
    key: str
    degree: int  # number of vertices
    weight: int  # degree, with bracket-decorated vertices counted twice

    def __repr__(self) -> str:
        return f"Tree({self.key})"


@dataclass(frozen=True, eq=False)
class PlanarForest:
    """An ordered word of planar trees.  Construct only via :func:`forest`."""

    trees: tuple
    key: str
    degree: int
    weight: int

    def __len__(self) -> int:
        return len(self.trees)

    def __repr__(self) -> str:
        return f"Forest({self.key})"


_TREES: dict = {}
_FORESTS: dict = {}


def tree(letter: Letter, children: Sequence[PlanarTree] = ()) -> PlanarTree:
    """Interning constructor for a tree with the given ordered children."""
    check_letter(letter)
    kids = tuple(children)
    lk = letter_key(letter)
    if kids:
        key = "[" + "".join(c.key for c in kids) + "]" + lk
    else:
        key = "•" + lk
    cached = _TREES.get(key)
    if cached is not None:
        return cached
    t = PlanarTree(
        letter=letter,
        children=kids,
        key=key,
        degree=1 + sum(c.degree for c in kids),
        weight=letter_weight(letter) + sum(c.weight for c in kids),
    )
    _TREES[key] = t
    return t


def forest(trees_: Sequence[PlanarTree] = ()) -> PlanarForest:
    """Interning constructor for the forest with the given tree word."""
    word = tuple(trees_)
    key = "".join(t.key for t in word) or "e"
    cached = _FORESTS.get(key)
    if cached is not None:
        return cached
    f = PlanarForest(
        trees=word,
        key=key,
        degree=sum(t.degree for t in word),
        weight=sum(t.weight for t in word),
    )
    _FORESTS[key] = f
    return f


EMPTY = forest(())


def single(letter: Letter) -> PlanarForest:
    """The one-vertex forest ``•letter``."""
    return forest((tree(letter),))


def b_plus(f: PlanarForest, letter: Letter) -> PlanarForest:
    """Graft the whole word ``f`` (order kept) under one new root vertex."""
    return forest((tree(letter, f.trees),))


def concat(a: PlanarForest, b: PlanarForest) -> PlanarForest:
    """Word concatenation ``a · b``."""
    return forest(a.trees + b.trees)


def sort_key(f: PlanarForest):
    """Deterministic basis order: by weight, then lexicographically by key."""
    return (f.weight, f.key)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def all_forests(letters: Sequence[Letter], max_weight: int):
    """All forests over ``letters`` of weight ≤ ``max_weight``, sorted.

    Args:
        letters: alphabet of decorations (base and/or bracket letters).
        max_weight: graded truncation, at most :data:`MAX_WEIGHT`.

    Returns:
        List of :class:`PlanarForest`, sorted by ``(weight, key)``; the empty
        forest comes first.
    """
    if not 0 <= max_weight <= MAX_WEIGHT:
        raise ValueError(
            f"truncation weight must lie in 0..{MAX_WEIGHT}, got {max_weight}"
        )
    alphabet = []
    for letter in letters:
        check_letter(letter)
        if letter not in alphabet:
            alphabet.append(letter)
    if not alphabet:
        raise ValueError("alphabet must contain at least one letter")

    tree_memo: dict = {}
    forest_memo: dict = {0: [()]}

    def trees_of(w: int):
        if w not in tree_memo:
            out = []
            for letter in alphabet:
                lw = letter_weight(letter)
                if lw <= w:
                    out.extend(tree(letter, kids) for kids in forests_of(w - lw))
            tree_memo[w] = out
        return tree_memo[w]

    def forests_of(w: int):
        if w not in forest_memo:
            out = []
            for first_w in range(1, w + 1):
                for first in trees_of(first_w):
                    out.extend((first,) + rest for rest in forests_of(w - first_w))
            forest_memo[w] = out
        return forest_memo[w]

    found = [forest(tpl) for w in range(max_weight + 1) for tpl in forests_of(w)]
    found.sort(key=sort_key)
    return found


def base_alphabet(d: int):
    """The base alphabet ``(1, …, d)``."""
    if not 1 <= d <= 9:
        raise ValueError(f"alphabet size must lie in 1..9, got {d}")
    return tuple(range(1, d + 1))


def bracket_alphabet(d: int):
    """Base alphabet extended by all ordered bracket pairs ``(i, j)``."""
    base = base_alphabet(d)
    return base + tuple((i, j) for i in base for j in base)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_letter(text: str, i: int):
    if i < len(text) and text[i] == "(":
        if i + 3 >= len(text) or text[i + 3] != ")":
            raise ValueError(f"malformed bracket letter at {i} in {text!r}")
        a, b = text[i + 1], text[i + 2]
        if not (a.isdigit() and b.isdigit()):
            raise ValueError(f"malformed bracket letter at {i} in {text!r}")
        letter: Letter = (int(a), int(b))
        return letter, i + 4
    if i < len(text) and text[i].isdigit():
        return int(text[i]), i + 1
    raise ValueError(f"expected a letter at {i} in {text!r}")


def _parse_tree(text: str, i: int):
    if text.startswith("•", i):
        letter, i = _parse_letter(text, i + 1)
        return tree(letter), i
    if text.startswith("[", i):
        i += 1
        kids = []
        while i < len(text) and text[i] != "]":
            child, i = _parse_tree(text, i)
            kids.append(child)
        if i >= len(text):
            raise ValueError(f"unbalanced '[' in {text!r}")
        letter, i = _parse_letter(text, i + 1)
        return tree(letter, kids), i
    raise ValueError(f"expected a tree at {i} in {text!r}")


def parse_forest(text: str) -> PlanarForest:
    """Inverse of ``f.key``; accepts exactly the grammar documented above."""
    if text == "e":
        return EMPTY
    word = []
    i = 0
    while i < len(text):
        t, i = _parse_tree(text, i)
        word.append(t)
    return forest(word)
