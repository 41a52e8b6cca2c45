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

Every integrand is a coefficient of the one composition ``W = F(Y)``
(:func:`~planarough.controlled.compose_FY` at order ``N``), and so are its
own controlled coefficients: the integrand of letter ``i`` is ``⟨•i, W⟩``,
that of ``(ij)`` is ``⟨•i•j, W⟩``, and the Young integrands are
``⟨•i•j•k, W⟩`` and ``⟨•i[•k]j, W⟩``, for example
``⟨•i[•k]j, W⟩ = D²F:(f_i, f_{[•k]j})``.  :func:`read` takes the
coefficients ``⟨τ, ⟨σ, W⟩⟩`` off ``W`` through the coproduct (Curry,
Ebrahimi-Fard, Manchon and Munthe-Kaas, JDE 2020), so no product rule is
written out.  The simple statement is the general one for ``f_i = e_i``,
whose solution is the driver itself: ``Y`` is
:func:`~planarough.controlled.driver_path`, ``W`` carries ``F``'s tensors on
the words, and the mixed compensator term vanishes because ``Df_j = 0``.

Each verifier lifts its driver once, to the bracket extension ``X̂``
(Hairer–Kelly 2015), whose basis holds the base forests too and whose base
columns are the lift ``X`` bit for bit; the states, ``W`` and every sum run
on ``X̂`` alone.  On a mesh cell ``[u, v]`` every sum is linear in the
character ``X̂_{u,v}``: a rough sum against letter ``l`` adds
``⟨τ, Z_u⟩·⟨X̂_{u,v}, [τ]_l⟩`` over its integrand's coefficients τ, a Young
sum ``g(u)·⟨X̂_{u,v}, series⟩``.  So :func:`_terms` makes each term a node
functional Φ on the columns it touches, whose total on the stride-``s`` mesh
is :func:`pair`'s ``Σ_k ⟨X̂_{t_k, t_k+s}, Φ(t_k)⟩``: the rough ones by
:func:`rough_sums`, the Young ones from one product of the integrands with
the stacked series of ``X̃`` or ``c̄X``.

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
from .forest_core import EMPTY, PlanarForest, b_plus, concat, forest, single, tree
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


def read(w: ControlledPath, sigmas: list) -> dict:
    """The coefficients ``⟨τ, ⟨σ, W⟩⟩`` of the integrands ``⟨σ, W⟩`` of a
    scalar ``W``, keyed by τ's basis index and σ's position in ``sigmas``,
    in that order: ``Σ_ω c·⟨ω, W⟩`` over the coproduct terms ``c·(τ, σ)``
    of each ω (Curry–Ebrahimi-Fard–Manchon–Munthe-Kaas, JDE 2020)."""
    basis = w.x.algebra.basis
    slot = {basis.index[s]: k for k, s in enumerate(sigmas)}
    out = {}
    for omega, arr in w.coeffs.items():
        for tau, sigma, c in basis.cut_rows[basis.index[omega]]:
            k = slot.get(sigma)
            if k is not None:
                term = c * arr[:, 0]
                out[tau, k] = out[tau, k] + term if (tau, k) in out else term
    return dict(sorted(out.items()))


def rough_sums(w: ControlledPath, grafts: list) -> list:
    """The functional of ``Σ ∫ ⟨σ, W⟩ dX^l`` over the ``(σ, l)`` of
    ``grafts`` as ``(column, Φ)`` pairs: column ``[τ]_l`` carries
    ``⟨τ, ⟨σ, W⟩⟩``."""
    basis = w.x.algebra.basis
    return [
        (basis.index[b_plus(basis.forests[tau], grafts[k][1])], phi)
        for (tau, k), phi in read(w, [s for s, _ in grafts]).items()
    ]


def _young(w: ControlledPath, sigma, series) -> list:
    """The functional of ``Σ_{ijk} ∫ ⟨σ(i, j, k), W⟩ d⟨X̂, series(i, j, k)⟩``
    as ``(column, Φ)`` pairs; the integrands are the coefficients at ``e``."""
    basis = w.x.algebra.basis
    triples = list(itertools.product(range(1, w.x.base_values.shape[0] + 1), repeat=3))
    g = read(w, [sigma(*ijk) for ijk in triples])
    zero = np.zeros(len(w.x.grid))
    g = np.stack([g.get((basis.index[EMPTY], k), zero) for k in range(len(triples))], 1)
    rows = np.stack([basis.vector(series(*ijk)) for ijk in triples])
    cols = np.flatnonzero(rows.any(axis=0))
    return list(zip(cols, (g @ rows[:, cols]).T))


def word(*letters) -> PlanarForest:
    """``•l1 … •lk``."""
    return forest([tree(l) for l in letters])


def mixed_word(i, j, k) -> PlanarForest:
    """``•i [•k]j``, whose coefficient in ``F(Y)`` is ``D²F:(f_i, Df_j:f_k)``."""
    return concat(single(i), b_plus(single(k), j))


def _terms(w: ControlledPath, mixed: bool):
    """Yield ``(name, functional)`` per term of the identity for ``W = F(Y)``;
    ``mixed`` adds the ``c̄X`` term."""
    letters = range(1, w.x.base_values.shape[0] + 1)
    yield "rough_first_order", rough_sums(w, [(word(l), l) for l in letters])
    pairs = itertools.product(letters, repeat=2)
    yield "bracket_second_order", rough_sums(w, [(word(*ij), ij) for ij in pairs])
    if w.x.N == 3:
        yield "tilde_third_order", _young(w, word, tilde_series)
        if mixed:
            yield "cbar_mixed_order", _young(w, mixed_word, cbar_series)


def _verify(name, theorem, y, func, strides, scales, tolerance) -> ItoReport:
    """Evaluate every term on every rung and judge the identity
    ``F(y_T) − F(y_0) = Σ terms`` for the states ``y``."""
    xhat = y.x
    w = compose_FY(y, jets(func, y, xhat.N), xhat.N)
    lhs = float(w.coeffs[EMPTY][-1, 0] - w.coeffs[EMPTY][0, 0])
    terms = {}
    for term, functional in _terms(w, theorem == "general"):
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


def require_scalar(func: SmoothFunctionWithDerivatives) -> None:
    """:class:`ConfigError` unless ``F`` is scalar-valued, as every term
    reads a scalar ``F(Y)``."""
    if func.n_out != 1:
        raise ConfigError("the observable F must be scalar-valued")


def verify_simple(
    driver: DriverSpec,
    func: SmoothFunctionWithDerivatives,
    name: str = "simple",
    rungs: int = 6,
    tolerance: float = 1e-5,
) -> ItoReport:
    """Check the change-of-variable identity for ``F(driver)`` on the
    driver's bracket extension."""
    require_scalar(func)
    if func.n_in != driver.d:
        raise ConfigError(f"F takes {func.n_in} variables, the driver has {driver.d}")
    strides, scales = MeshLadder.rungs_of(driver, rungs)
    y = driver_path(bracket_extension(driver))
    return _verify(name, "simple", y, func, strides, scales, tolerance)


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
    require_scalar(func)
    if func.variables != fields.stacked.variables:
        raise ConfigError("F and the fields must use the same variables")
    strides, scales = MeshLadder.rungs_of(driver, rungs)
    y = solve_rde(bracket_extension(driver), fields, xi)
    return _verify(name, "general", y, func, strides, scales, tolerance)
