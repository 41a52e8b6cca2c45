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
``Df_j = 0``.  So one builder, :func:`_table`, makes the :class:`Term` rows
of both, one per sum above: a name, the integrands per letter, pair or
triple, and the integrator (the base lift, the bracket extension ``X̂``, or
the scalar Young paths ``X̃`` and ``c̄X``); one loop evaluates every term on
every rung of the mesh ladder.

Each report records per-term totals on every rung, the identity residual, and
the empirical convergence order of the residual, with verdicts against a
tolerance at the finest mesh and an order threshold ``(N+1)·α − 1 − 0.3``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .calculus import VectorFieldFamily, rough_integral, solve_rde, young_integral
from .controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    compose_FY,
    driver_path,
    jets,
)
from .forest_core import EMPTY
from .rates import MeshLadder
from .rough_path import (
    ConfigError,
    RoughPath,
    ScalarExtensionPath,
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


@dataclass(frozen=True)
class Term:
    """One sum of an identity: ``Σ_l ∫ integrands[l] d integrator[l]``.

    A :class:`RoughPath` integrator takes controlled integrands and the
    compensated rough sum against its letter ``l``.  A dict of scalar
    extension paths takes integrands sampled at the grid nodes and the
    left-point Young sum against ``integrator[l]``.
    """

    name: str
    integrands: dict
    integrator: object

    def total(self, stride: int) -> float:
        """The sum over the ``stride``-cell mesh."""
        if isinstance(self.integrator, RoughPath):
            return sum(
                float(rough_integral(z, self.integrator, l, stride).sum())
                for l, z in self.integrands.items()
            )
        total = 0.0
        for l, g in self.integrands.items():
            increments = self.integrator[l].cell_increments(stride)
            total += float(young_integral(g[::stride], increments).sum())
        return total


def _table(x: RoughPath, z: ControlledPath, jets_of: dict, mixed) -> list:
    """The terms of an identity for states ``z`` controlled by ``x``.

    ``jets_of[k]`` lists the integrands of k letters and their derivatives:
    entry m has axes ``(node, l1…lk, b1…bm)``, for m up to ``N − k``.  The
    integrands of one and two letters are composed with ``z`` into
    controlled integrands.  ``mixed`` is the ``c̄X`` integrand with axes
    ``(node, i, j, k)``, or None where the identity has none.
    """
    letters = range(1, x.base_values.shape[0] + 1)

    def integrand(*ls):
        at = (slice(None),) + tuple(l - 1 for l in ls)
        return [t[at].reshape(len(t), 1, -1) for t in jets_of[len(ls)]]

    first = {i: compose_FY(z, integrand(i), x.N - 1) for i in letters}
    pairs = itertools.product(letters, repeat=2)
    second = {ij: compose_FY(z, integrand(*ij), x.N - 2) for ij in pairs}
    xhat = bracket_extension(x)
    table = [
        Term("rough_first_order", first, x),
        Term("bracket_second_order", second, xhat),
    ]
    if x.N == 3:
        triples = list(itertools.product(letters, repeat=3))
        table.append(
            Term(
                "tilde_third_order",
                {ijk: integrand(*ijk)[0][:, 0, 0] for ijk in triples},
                {ijk: ScalarExtensionPath(xhat, tilde_series(*ijk)) for ijk in triples},
            )
        )
        if mixed is not None:
            table.append(
                Term(
                    "cbar_mixed_order",
                    {(i, j, k): mixed[:, i - 1, j - 1, k - 1] for i, j, k in triples},
                    {ijk: ScalarExtensionPath(xhat, cbar_series(*ijk)) for ijk in triples},
                )
            )
    return table


def _verify(name, theorem, values, x, table, rungs, tolerance) -> ItoReport:
    """Evaluate every term of ``table`` on every rung and judge the identity
    ``F(z_T) − F(z_0) = Σ terms`` for ``F``'s ``values`` at the nodes."""
    lhs = float(values[-1] - values[0])
    strides, scales = MeshLadder.rungs_of(x, rungs)
    terms = {t.name: [] for t in table}
    for stride in strides:
        for t in table:
            terms[t.name].append(t.total(stride))
    rhs = [sum(terms[k][r] for k in terms) for r in range(len(strides))]
    ladder = MeshLadder.fit(strides, scales, rhs, lhs)
    threshold = (x.N + 1) * x.alpha - 1.0 - 0.3
    finest = ladder["residuals"][-1]
    passed_res = finest <= tolerance
    passed_ord = ladder["slope"] >= threshold
    return ItoReport(
        name=name,
        theorem=f"{theorem}-n{x.N}",
        truncation=x.N,
        alpha=x.alpha,
        lhs=lhs,
        terms={k: [float(v) for v in vals] for k, vals in terms.items()},
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
    """``(jets_of, mixed)`` for :func:`_table` by the product rule, from
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
    x: RoughPath,
    func: SmoothFunctionWithDerivatives,
    name: str = "simple",
    rungs: int = 6,
    tolerance: float = 1e-5,
) -> ItoReport:
    """Check the change-of-variable identity for ``F(driver)``."""
    _scalar(func)
    z = driver_path(x)
    DF = _scalar_jets(func, z)
    # f_i = e_i: the integrand of letters l1…lk is F's tensor at (l1…lk, …)
    jets_of = {k: DF[k:] for k in range(1, x.N + 1)}
    table = _table(x, z, jets_of, mixed=None)
    return _verify(name, "simple", DF[0], x, table, rungs, tolerance)


def verify_general(
    x: RoughPath,
    fields: VectorFieldFamily,
    func: SmoothFunctionWithDerivatives,
    xi,
    name: str = "general",
    rungs: int = 6,
    tolerance: float = 1e-5,
) -> ItoReport:
    """Check the change-of-variable identity for ``F(Y)`` along the solution
    of ``dY = Σ f_i(Y) dX^i``."""
    _scalar(func)
    if func.variables != fields.stacked.variables:
        raise ConfigError("F and the fields must use the same variables")
    y = solve_rde(x, fields, xi)
    DF = _scalar_jets(func, y)
    jets_of, mixed = _general_jets(DF, fields.tensors(y.coeffs[EMPTY], x.N - 1))
    table = _table(x, y, jets_of, mixed)
    return _verify(name, "general", DF[0], x, table, rungs, tolerance)
