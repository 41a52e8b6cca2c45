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
is ``Σ_k ⟨X̂_{t_k, t_k+s}, Φ(t_k)⟩``: the rough ones from one ``compose_FY``
call per order, the letters stacked as outputs, the Young ones from one
product of the integrands with the stacked series of ``X̃`` or ``c̄X``.

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


def _rough(z: ControlledPath, jets_k: list, letters) -> list:
    """The functional of ``Σ_l ∫ Z^l dX̂^l`` as ``(column, Φ)`` pairs: column
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
    yield "rough_first_order", _rough(z, jets_of[1], letters)
    pairs = list(itertools.product(letters, repeat=2))
    yield "bracket_second_order", _rough(z, jets_of[2], pairs)
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
        terms[term] = [
            sum(float(xhat.stride_chars(s)[:, c] @ phi[:-1:s]) for c, phi in functional)
            for s in strides
        ]
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


def _general_jets(DF: list, ft: list):
    """``(jets_of, mixed)`` for :func:`_terms` by the product rule, from
    ``D^mF`` and the fields' ``D^m f`` at the states, for example
    ``D²(DF:f_i):(v, w) = D³F:(f_i, v, w) + D²F:(Df_i:v, w)
    + D²F:(Df_i:w, v) + DF:(D²f_i:(v, w))``."""
    e = np.einsum
    f, Df = ft[0], ft[1]
    first = [
        e("...a,...ia->...i", DF[1], f),
        e("...ab,...ia->...ib", DF[2], f) + e("...a,...iab->...ib", DF[1], Df),
    ]
    second = [e("...ab,...ia,...jb->...ij", DF[2], f, f)]
    if len(DF) < 4:
        return {1: first, 2: second}, None
    D3F, D2f = DF[3], ft[2]
    first.append(
        e("...abc,...ia->...ibc", D3F, f)
        + e("...ac,...iab->...ibc", DF[2], Df)
        + e("...ab,...iac->...ibc", DF[2], Df)
        + e("...a,...iabc->...ibc", DF[1], D2f)
    )
    second.append(
        e("...abc,...ia,...jb->...ijc", D3F, f, f)
        + e("...ab,...iac,...jb->...ijc", DF[2], Df, f)
        + e("...ab,...ia,...jbc->...ijc", DF[2], f, Df)
    )
    third = [e("...abc,...ia,...jb,...kc->...ijk", D3F, f, f, f)]
    mixed = e("...ab,...ia,...jbc,...kc->...ijk", DF[2], f, Df, f)
    return {1: first, 2: second, 3: third}, mixed


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
