"""Numerical verification of the branched change-of-variable identities.

Four statements are checked, all of the shape

    F(end) − F(start) = Σ (compensated rough sums) + Σ (Young correction sums)

evaluated on a ladder of dyadic coarsenings of the lift grid:

* simple, truncation 2:  ``δF(X) = Σ_i ∫ ∂_i F(X) dX^i
                                  + Σ_{ij} ∫ ∂_i∂_j F(X) dX̂^{(ij)}``
* simple, truncation 3:  adds ``Σ_{ijk} ∫ ∂_i∂_j∂_k F(X) dX̃^{(ijk)}`` (Young)
* general, truncation 2: for ``Y`` solving ``dY = Σ f_i(Y) dX^i``:
                          ``δF(Y) = Σ_i ∫ DF:(f_i)(Y) dX^i
                                   + Σ_{ij} ∫ D²F:(f_i,f_j)(Y) dX̂^{(ij)}``
* general, truncation 3: adds the Young terms
                          ``Σ_{ijk} ∫ D³F:(f_i,f_j,f_k)(Y) dX̃^{(ijk)}`` and
                          ``Σ_{ijk} ∫ D²F:(f_i, Df_j:f_k)(Y) dc̄X^{(ijk)}``.

Every integrand and its derivatives up to order ``N − 1`` (its *jets*) are
numeric contractions of ``F``'s tensors (orders ``0..N``) and the fields'
(orders ``0..N−1``) by the product rule, for example
``D(DF:f_i):v = D²F:(f_i, v) + DF:(Df_i:v)``.  The simple statement is the
general one for ``f_i = e_i``, whose solution is the driver itself: ``F(X)``
is ``F(Y)`` along :func:`~planarough.controlled.driver_path`, the jets are
slices of ``F``'s tensors, and the mixed compensator term vanishes because
``Df_j = 0``.

Each verifier lifts its driver once, to the bracket extension ``X̂``
(Hairer–Kelly 2015), whose basis holds the base forests too and whose base
columns are the lift ``X`` bit for bit; the states, the jets and every sum
run on ``X̂`` alone.  On a mesh cell ``[u, v]`` every sum is linear in the
character ``X̂_{u,v}``: a rough sum against letter ``l`` adds
``⟨τ, Z_u⟩·⟨X̂_{u,v}, [τ]_l⟩`` over its integrand's coefficients τ, a Young
sum ``g(u)·⟨X̂_{u,v}, series⟩``.  So :func:`_terms` makes each term a node
functional Φ on the columns it touches, whose total on the stride-``s`` mesh
is :func:`pair`'s ``Σ_k ⟨X̂_{t_k, t_k+s}, Φ(t_k)⟩``: the rough ones from one
``compose_FY`` call per order, the letters stacked as outputs, the Young ones
from one product of the integrands with the stacked series of ``X̃`` or ``c̄X``.

Each report records per-term totals on every rung, the identity residual, and
the empirical convergence order of the residual, with verdicts against a
tolerance at the finest mesh and an order threshold ``(N+1)·α − 1 − 0.3``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .calculus import VectorFieldFamily, solve_rde
from .controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    compose_FY,
    driver_path,
    jets,
)
from .forest_core import EMPTY, b_plus
from .rates import MeshLadder
from .rough_path import (
    ConfigError,
    DriverSpec,
    RoughPath,
    bracket_extension,
    cbar_series,
    tilde_series,
)


@dataclass
class ItoReport(MeshLadder):
    """Per-rung bookkeeping and verdict of one identity verification."""

    name: str
    theorem: str
    truncation: int
    alpha: float
    lhs: float
    terms: dict
    rhs: list
    finest_residual: float
    tolerance: float
    order_threshold: float
    passed_residual: bool
    passed_order: bool
    passed: bool


def pair(x: RoughPath, functional: list, stride: int) -> float:
    """``Σ_k ⟨X_{t_k, t_k+s}, Φ(t_k)⟩`` on ``x``'s stride-``s`` mesh for the
    ``(column, Φ)`` pairs of ``functional``, summed per column, then over them."""
    chars = x.stride_chars(stride)
    return sum(float(chars[:, c] @ phi[:-1:stride]) for c, phi in functional)


def rough_functional(z: ControlledPath, jets_k: list, letters) -> list:
    """The functional of ``Σ_l ∫ Z^l dX^l`` as ``(column, Φ)`` pairs: column
    ``[τ]_l`` carries ``⟨τ, Z^l⟩``.  The integrands of ``letters``, stacked
    in ``jets_k`` after the node axis, compose as one path's outputs."""
    jets_k = [t.reshape(len(t), len(letters), -1) for t in jets_k]
    idx = z.x.algebra.basis.index
    return [
        (idx[b_plus(tau, l)], coeff[:, o])
        for tau, coeff in compose_FY(z, jets_k, len(jets_k) - 1).coeffs.items()
        for o, l in enumerate(letters)
    ]


def _young(z: ControlledPath, g: np.ndarray, series) -> list:
    """The functional of ``Σ_{ijk} ∫ g_{ijk} d⟨X̂, series(i, j, k)⟩`` for
    ``g`` with axes ``(node, i, j, k)``, as ``(column, Φ)`` pairs."""
    triples = itertools.product(range(1, g.shape[1] + 1), repeat=3)
    rows = np.stack([z.x.algebra.basis.vector(series(*ijk)) for ijk in triples])
    cols = np.flatnonzero(rows.any(axis=0))
    return list(zip(cols, (g.reshape(len(g), -1) @ rows[:, cols]).T))


def _terms(z: ControlledPath, jets_of: dict, mixed):
    """Yield ``(name, functional)`` per term of the identity for states ``z``.
    Entry m of ``jets_of[k]`` holds the integrands of k letters and their
    m-th derivatives, axes ``(node, l1…lk, b1…bm)`` for m up to ``N − k``;
    ``mixed`` is the ``c̄X`` integrand, axes ``(node, i, j, k)``, or None."""
    letters = range(1, z.x.base_values.shape[0] + 1)
    yield "rough_first_order", rough_functional(z, jets_of[1], letters)
    pairs = list(itertools.product(letters, repeat=2))
    yield "bracket_second_order", rough_functional(z, jets_of[2], pairs)
    if z.x.N == 3:
        yield "tilde_third_order", _young(z, jets_of[3][0], tilde_series)
        if mixed is not None:
            yield "cbar_mixed_order", _young(z, mixed, cbar_series)


def _verify(name, theorem, values, z, jets_of, mixed, rungs, tolerance) -> ItoReport:
    """Evaluate every term on every rung and judge the identity
    ``F(z_T) − F(z_0) = Σ terms`` for ``F``'s ``values`` at the nodes."""
    xhat = z.x
    lhs = float(values[-1] - values[0])
    strides, scales = MeshLadder.rungs_of(xhat, rungs)
    terms = {}
    for term, functional in _terms(z, jets_of, mixed):
        terms[term] = [pair(xhat, functional, s) for s in strides]
        del functional  # one term's functional alive at a time
    rhs = [sum(terms[k][r] for k in terms) for r in range(len(strides))]
    ladder = MeshLadder.fit(strides, scales, rhs, lhs)
    threshold = (xhat.N + 1) * xhat.alpha - 1.0 - 0.3
    finest = ladder["residuals"][-1]
    passed_res, passed_ord = finest <= tolerance, ladder["slope"] >= threshold
    return ItoReport(
        name=name,
        theorem=f"{theorem}-n{xhat.N}",
        truncation=xhat.N,
        alpha=xhat.alpha,
        lhs=lhs,
        terms=terms,
        rhs=[float(v) for v in rhs],
        finest_residual=finest,
        tolerance=float(tolerance),
        order_threshold=float(threshold),
        passed_residual=bool(passed_res),
        passed_order=bool(passed_ord),
        passed=bool(passed_res and passed_ord),
        **ladder,
    )


def _scalar(func: SmoothFunctionWithDerivatives) -> None:
    if func.n_out != 1:
        raise ConfigError("the observable F must be scalar-valued")


def _scalar_jets(func: SmoothFunctionWithDerivatives, z: ControlledPath) -> list:
    """``D^mF`` at ``z``'s states for m = 0..N, axes ``(node, a1…am)``."""
    return [
        t.reshape((len(t),) + (z.n_out,) * m)
        for m, t in enumerate(jets(func, z, z.x.N))
    ]


def _einsum_in_order(spec: str, *ops) -> np.ndarray:
    """``np.einsum(spec, *ops)`` with the terms of its sums added one at a
    time from zero, the summed letters in row-major order.  That is einsum's
    own order over a batch of nodes on the node-last layout, but a lone node
    (its axis of length 1 dropped) sums a contraction to a scalar in SIMD
    lanes or partial sums, so a plain einsum gives a node other bits alone
    than in a batch."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    summed = "".join(dict.fromkeys(c for s in ins for c in s if c not in out))
    size = {c: op.shape[k] for s, op in zip(ins, ops) for k, c in enumerate(s)}
    free = ",".join(s.translate({ord(c): None for c in summed}) for s in ins)
    total = 0.0
    for index in itertools.product(*(range(size[c]) for c in summed)):
        at = dict(zip(summed, index))
        picked = [op[tuple(at.get(c, slice(None)) for c in s)] for s, op in zip(ins, ops)]
        total = total + np.einsum(f"{free}->{out}", *picked)
    return total


def _general_jets(DF: list, ft: list):
    """``(jets_of, mixed)`` for :func:`_terms` by the product rule, from
    ``D^mF`` and the fields' ``D^m f`` at the states, for example
    ``D²(DF:f_i):(v, w) = D³F:(f_i, v, w) + D²F:(Df_i:v, w)
    + D²F:(Df_i:w, v) + DF:(D²f_i:(v, w))``."""
    # node axis last and contiguous, so each einsum's inner loop runs over
    # the nodes; the jets move it back to the front
    e = _einsum_in_order
    DF, ft = ([np.moveaxis(t, 0, -1).copy() for t in ts] for ts in (DF, ft))
    f, Df = ft[0], ft[1]

    def front(ts):
        return [np.moveaxis(t, -1, 0) for t in ts]

    first = [
        e("ar,iar->ir", DF[1], f),
        e("abr,iar->ibr", DF[2], f) + e("ar,iabr->ibr", DF[1], Df),
    ]
    second = [e("abr,iar,jbr->ijr", DF[2], f, f)]
    if len(DF) < 4:
        return {1: front(first), 2: front(second)}, None
    D3F, D2f = DF[3], ft[2]
    first.append(
        e("abcr,iar->ibcr", D3F, f)
        + e("acr,iabr->ibcr", DF[2], Df)
        + e("abr,iacr->ibcr", DF[2], Df)
        + e("ar,iabcr->ibcr", DF[1], D2f)
    )
    second.append(
        e("abcr,iar,jbr->ijcr", D3F, f, f)
        + e("abr,iacr,jbr->ijcr", DF[2], Df, f)
        + e("abr,iar,jbcr->ijcr", DF[2], f, Df)
    )
    third = [e("abcr,iar,jbr,kcr->ijkr", D3F, f, f, f)]
    mixed = e("abr,iar,jbcr,kcr->ijkr", DF[2], f, Df, f)
    return {1: front(first), 2: front(second), 3: front(third)}, np.moveaxis(mixed, -1, 0)


def verify_simple(
    driver: DriverSpec,
    func: SmoothFunctionWithDerivatives,
    name: str = "simple",
    rungs: int = 6,
    tolerance: float = 1e-5,
) -> ItoReport:
    """Check the change-of-variable identity for ``F(driver)`` on the
    driver's bracket extension."""
    _scalar(func)
    if func.n_in != driver.d:
        raise ConfigError(f"F takes {func.n_in} variables, the driver has {driver.d}")
    z = driver_path(bracket_extension(driver))
    DF = _scalar_jets(func, z)
    # f_i = e_i: the integrand of letters l1…lk is F's tensor at (l1…lk, …)
    jets_of = {k: DF[k:] for k in range(1, driver.N + 1)}
    return _verify(name, "simple", DF[0], z, jets_of, None, rungs, tolerance)


def verify_general(
    driver: DriverSpec,
    fields: VectorFieldFamily,
    func: SmoothFunctionWithDerivatives,
    xi,
    name: str = "general",
    rungs: int = 6,
    tolerance: float = 1e-5,
) -> ItoReport:
    """Check the change-of-variable identity for ``F(Y)`` along the solution
    of ``dY = Σ f_i(Y) dX^i``, solved on the driver's bracket extension."""
    _scalar(func)
    if func.variables != fields.stacked.variables:
        raise ConfigError("F and the fields must use the same variables")
    y = solve_rde(bracket_extension(driver), fields, xi)
    DF = _scalar_jets(func, y)
    jets_of, mixed = _general_jets(DF, fields.tensors(y.coeffs[EMPTY], driver.N - 1))
    return _verify(name, "general", DF[0], y, jets_of, mixed, rungs, tolerance)
