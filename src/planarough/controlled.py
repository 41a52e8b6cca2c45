"""Controlled paths: forest-indexed coefficient expansions along a lift.

A path ``Z`` is *controlled* by a lift ``X`` (to order ``M``) when it carries
coefficient paths ``⟨τ, Z⟩`` for every forest τ of weight ≤ M such that the
transported expansion

    ⟨τ, Z_t⟩ = Σ_σ ⟨σ, Z_s⟩ · Σ {coeff · ⟨X_{s,t}, P⟩ : (P, τ) a coproduct
               term of σ}  +  R^τ_{s,t}

has remainders of order ``(N − weight(τ)) · α`` in ``t − s``.  This module
provides the function objects used everywhere (values plus derivative
tensors of a user expression), the controlled composition ``F(Y)`` of
derivative tensors at a controlled path's states (its *jets*) as one word
program with one contraction kernel ``D^mF:(v1, …, vm)``, and the transport
remainder with its empirical rate fit.  ``F(X)`` is the same composition
along :func:`driver_path`, the driver controlled by its own lift.

Expressions are parsed by a whitelist and differentiated in truncated
Taylor arithmetic by :mod:`planarough.taylor`, which this module imports at
the first expression it parses; nothing is evaluated as Python.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .forest_core import EMPTY, MAX_WEIGHT, PlanarForest, forest, single
from .hopf_mkw import coproduct_mkw
from .rates import fit_loglog
from .rough_path import ConfigError, RoughPath


# ---------------------------------------------------------------------------
# Function objects
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SmoothFunctionWithDerivatives:
    """A smooth map ``R^n_in → R^n_out`` given by expression strings, with its
    derivative tensors by Taylor arithmetic (:mod:`planarough.taylor`).

    ``value(u)`` evaluates the map at points ``u`` of shape ``(..., n_in)``;
    ``tensor(u, m)`` the m-th derivative tensor and ``tensors(u, m)`` those
    of orders 0..m from one Taylor evaluation; ``dm(u, (v1, …, vm))`` the
    m-th derivative as a symmetric multilinear form on the given direction
    arrays.  All evaluations broadcast over leading axes, and every row is
    computed by elementwise operations alone, so a row reads the same bits
    in any batch.  The expressions are parsed once, on construction.
    """

    exprs: tuple
    variables: tuple
    _program: object = field(init=False, repr=False)

    def __post_init__(self):
        """Parse the expressions; :class:`ConfigError` for a repeated or
        non-string variable name, or an expression that
        :func:`planarough.taylor.parse_expression` refuses."""
        if not isinstance(self.exprs, (list, tuple)):
            raise ConfigError("exprs must be a list of expressions")
        if not isinstance(self.variables, (list, tuple)) or not all(
            isinstance(v, str) for v in self.variables
        ):
            raise ConfigError("vars must be a list of names")
        self.exprs, self.variables = tuple(self.exprs), tuple(self.variables)
        if len(set(self.variables)) != len(self.variables):
            raise ConfigError(f"vars repeat a name: {list(self.variables)}")
        from .taylor import TaylorProgram  # compiled only where a command parses

        self._program = TaylorProgram(self.exprs, self.variables)

    @classmethod
    def from_expressions(cls, exprs, variables):
        """Build from expressions over distinct variable names."""
        return cls(exprs=exprs, variables=variables)

    @property
    def n_in(self) -> int:
        return len(self.variables)

    @property
    def n_out(self) -> int:
        return len(self.exprs)

    def value(self, u) -> np.ndarray:
        """Map values, shape ``(..., n_out)``."""
        return self.tensor(u, 0)[..., 0]

    def tensor(self, u, m: int) -> np.ndarray:
        """m-th derivative tensor, shape ``(..., n_out, n_in**m)`` (flat)."""
        return self.tensors(u, m)[m]

    def tensors(self, u, order: int) -> list:
        """The flat tensors of orders 0..order, from one Taylor evaluation."""
        if order > MAX_WEIGHT:
            raise ValueError(f"derivative order {order} exceeds {MAX_WEIGHT}")
        return self._program.tensors(np.asarray(u, dtype=float), order)

    def dm(self, u, directions) -> np.ndarray:
        """Directional derivative ``D^m F(u):(v1, …, vm)``, m = len(directions)."""
        return contract_tensor(self.tensor(u, len(directions)), directions)


def contract_tensor(t, directions) -> np.ndarray:
    """``D^m F(u):(v1, …, vm)`` from the flat tensor ``t`` that
    :meth:`SmoothFunctionWithDerivatives.tensor` returned at ``u``, so one
    evaluation serves many direction tuples, each with ``u``'s leading axes:
    one word of :func:`contract_words` with the points as its nodes."""
    lead, (n_out, width) = t.shape[:-2], t.shape[-2:]
    t = t.reshape(-1, n_out * width).T.reshape(n_out, width, -1)
    vs = [np.asarray(v).reshape(-1, np.shape(v)[-1]).T[None] for v in directions]
    return contract_words(t, vs)[0].T.reshape(lead + (n_out,))


def jets(func: SmoothFunctionWithDerivatives, y, order: int) -> list:
    """The flat tensors ``D^m func`` (m = 0..order) at ``y``'s states;
    :class:`ConfigError` unless ``func`` takes those states and its tensors
    there are finite."""
    if func.n_in != y.n_out:
        raise ConfigError(f"F takes {func.n_in} variables, the path has {y.n_out}")
    with np.errstate(all="ignore"):  # a pole or a log of 0 divides by zero
        tensors = func.tensors(y.coeffs[EMPTY], order)
    if not all(np.isfinite(t).all() for t in tensors):
        raise ConfigError(f"F or a derivative up to order {order} is not finite")
    return tensors


# ---------------------------------------------------------------------------
# Controlled paths
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ControlledPath:
    """Coefficient paths ``⟨τ, Z⟩`` on the grid nodes of a reference lift.

    ``coeffs`` maps forests (weight ≤ ``order``) to arrays of shape
    ``(nodes, n_out)``; forests absent from the dict are identically zero.
    """

    x: RoughPath
    order: int
    coeffs: dict
    n_out: int

    def __post_init__(self):
        nodes = len(self.x.grid)
        for f, arr in self.coeffs.items():
            if arr.shape != (nodes, self.n_out):
                raise ValueError(
                    f"coefficient {f.key} has shape {arr.shape}, "
                    f"expected {(nodes, self.n_out)}"
                )
            if f.weight > self.order:
                raise ValueError(f"coefficient {f.key} exceeds order {self.order}")

    # -- transport and remainders ------------------------------------------

    def remainder_blocks(self, f: PlanarForest, stride: int) -> np.ndarray:
        """Remainders over all aligned stride-blocks, shape ``(m, n_out)``:
        the coefficient at ``f`` minus its transport over the coproduct terms
        ``(P, f)`` of every coefficient's forest σ."""
        chars = self.x.stride_chars(stride)
        idx = self.x.algebra.basis.index
        starts = np.arange(0, self.x.cells, stride)
        zero = np.zeros((len(self.x.grid), self.n_out))
        acc = self.coeffs.get(f, zero)[starts + stride]
        for sigma, arr in self.coeffs.items():
            for (p, r), c in coproduct_mkw(sigma).items():
                if r is f:
                    acc -= c * arr[starts] * chars[:, idx[p], None]
        return acc

    def remainder_rate(self, f: PlanarForest):
        """Empirical order of ``max |R^f|`` across all dyadic block sizes."""
        scales, maxima = [], []
        for l in range(len(self.x.levels)):
            scales.append(self.x.T * (1 << l) / self.x.cells)
            maxima.append(float(np.max(np.abs(self.remainder_blocks(f, 1 << l)))))
        return fit_loglog(scales, maxima)


# ---------------------------------------------------------------------------
# Coefficient constructions
# ---------------------------------------------------------------------------


def driver_path(x: RoughPath) -> ControlledPath:
    """The driver as a path controlled by its own lift.

    Its only coefficients are ``⟨e, X_t⟩ = X_t`` and ``⟨•_i, X_t⟩ = e_i``, so
    its transport remainders vanish at every order.
    """
    d, nodes = x.base_values.shape
    eye = np.eye(d)
    coeffs = {EMPTY: x.base_values.T}
    for i in range(1, d + 1):
        coeffs[single(i)] = np.tile(eye[i - 1], (nodes, 1))
    return ControlledPath(x=x, order=MAX_WEIGHT, coeffs=coeffs, n_out=d)


def compose_FX(
    x: RoughPath, func: SmoothFunctionWithDerivatives, order: int
) -> ControlledPath:
    """The controlled path of ``F(driver)``: :func:`compose_FY` along
    :func:`driver_path`.

    The empty forest carries ``F(X_t)``, the word ``•_{a1}…•_{am}`` carries
    ``∂_{a1}…∂_{am} F (X_t)`` (no symmetry factor), and every forest
    containing a non-trivial tree carries zero.
    """
    y = driver_path(x)
    return compose_FY(y, jets(func, y, order), order)


def word_program(keys: dict, w: int) -> list:
    """One ``(weights, words)`` per composition ``(w1, …, wm)`` of ``w``, in
    the order of its cuts read as a binary number (bit ``p − 1`` for a cut
    at weight ``p``), whose weights all carry ``keys`` (weight → forests):
    the forests that ``keys[w1] × … × keys[wm]`` concatenate to, row-major."""
    program = []
    for mask in range(1 << (w - 1)):
        cuts = [p for p in range(1, w) if mask >> (p - 1) & 1]
        weights = tuple(b - a for a, b in zip([0, *cuts], [*cuts, w]))
        if all(keys.get(v) for v in weights):
            words = itertools.product(*(keys[v] for v in weights))
            program.append((weights, [forest([t for f in fs for t in f.trees]) for fs in words]))
    return program


def contract_words(t, blocks) -> np.ndarray:
    """``D^mF:(v1, …, vm)`` for every word of one composition at once, from
    ``t = D^mF`` node-last, ``(n_out, n**m, nodes)``, and one block per weight,
    its keys' coefficients ``(K_j, n, nodes)``: ``(K_1⋯K_m, n_out, nodes)``,
    words row-major.  The first derivative index pairs with the leftmost
    block.  Each contraction adds ``t[…, k]·v[…, k]`` over k in order as whole
    arrays: a node reads the same bits in any batch; Fractions stay exact."""
    n_out, nodes = t.shape[0], t.shape[-1]
    for v in reversed(blocks):
        t = t.reshape(-1, v.shape[1], nodes)
        out = t[:, 0] * v[:, None, 0]
        for k in range(1, v.shape[1]):
            out += t[:, k] * v[:, None, k]
        t = out
    return t.reshape(-1, n_out, nodes)


def compose_FY(y: ControlledPath, jets: list, order: int) -> ControlledPath:
    """The controlled path of ``F(Y)`` for ``Y`` itself controlled.

    ``jets[m]`` is ``D^m F`` at ``y``'s states, flat with shape
    ``(nodes, n_out, n**m)``, for m up to ``order`` (see :func:`jets`).  The
    coefficient at a forest ω sums, over every way of splitting ω's tree
    word into consecutive nonempty blocks ``ω1 … ωm`` that ``Y`` carries,
    ``D^m F(Y):(⟨ω1, Y⟩, …, ⟨ωm, Y⟩)``: :func:`contract_words` of each
    composition of :func:`word_program`, added in its order.
    """
    if order > min(y.order, len(jets) - 1):
        raise ValueError(f"no order-{order} composition at {y.order}, {len(jets)} jets")
    keys = {w: [f for f in y.coeffs if f.weight == w] for w in range(1, order + 1)}
    blocks = {w: np.array([y.coeffs[f].T for f in fs]) for w, fs in keys.items()}
    n_out = jets[0].shape[-2]
    tensors = [t.transpose(1, 2, 0).copy() for t in jets[: order + 1]]
    acc = {}
    for w in range(1, order + 1):
        for weights, words in word_program(keys, w):
            out = contract_words(tensors[len(weights)], [blocks[v] for v in weights])
            for f, arr in zip(words, np.ascontiguousarray(out.transpose(0, 2, 1))):
                acc[f] = acc[f] + arr if f in acc else arr
    index = y.x.algebra.basis.index
    coeffs = {f: acc[f] for f in sorted(acc, key=index.get) if np.any(acc[f])}
    return ControlledPath(y.x, order, {EMPTY: jets[0][..., 0]} | coeffs, n_out)
