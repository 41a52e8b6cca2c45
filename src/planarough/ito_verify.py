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

The simple statement is the general one for the constant fields
``f_i = e_i``, whose solution is the driver itself: ``F(X)`` is ``F(Y)``
along :func:`~planarough.controlled.driver_path`, ``D^mF:(f_i, …)`` is
``∂_i…F``, and the mixed compensator term vanishes because ``Df_j = 0``.  So
one builder, :func:`_table`, makes the :class:`Term` rows of both, one per
sum above: a name, the integrands per letter, pair or triple, and the
integrator (the base lift, the bracket extension ``X̂``, or the scalar Young
paths ``X̃`` and ``c̄X``).  :func:`verify_simple` and :func:`verify_general`
only build their states and integrands; one loop evaluates every term on
every rung of the mesh ladder.

Each report records per-term totals on every rung, the identity residual, and
the empirical convergence order of the residual, with verdicts against a
tolerance at the finest mesh and an order threshold ``(N+1)·α − 1 − 0.3``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .calculus import VectorFieldFamily, rough_integral, solve_rde, young_integral
from .controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    compose_FY,
    driver_path,
)
from .forest_core import EMPTY
from .rates import MeshLadder
from .rough_path import (
    ConfigError,
    RoughPath,
    bracket_extension,
    cbar_path,
    tilde_path,
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
    extension paths takes smooth integrands, evaluated at the mesh states,
    and the left-point Young sum against ``integrator[l]``.
    """

    name: str
    integrands: dict
    integrator: object

    def total(self, stride: int, states: np.ndarray, T: float) -> float:
        """The sum over the ``stride``-cell mesh."""
        if isinstance(self.integrator, RoughPath):
            return sum(
                float(rough_integral(z, self.integrator, l, stride).sum())
                for l, z in self.integrands.items()
            )
        mesh = states[::stride]
        total = 0.0
        for l, g in self.integrands.items():
            increments = self.integrator[l].cell_increments(stride)
            total += float(young_integral(g.value(mesh)[:, 0], increments, T=T).sum())
        return total


def _table(x: RoughPath, z: ControlledPath, integrand, mixed) -> list:
    """The terms of an identity for states ``z`` controlled by ``x``.

    ``integrand(*letters)`` is the smooth integrand of 1, 2 or 3 letters;
    the first two orders are composed with ``z`` into controlled integrands.
    ``mixed(i, j, k)`` is the integrand of the ``c̄X`` term, or None where the
    identity has none.
    """
    letters = range(1, x.base_values.shape[0] + 1)
    pairs = list(itertools.product(letters, repeat=2))
    # composed first: an F of the wrong arity fails before X̂ is built
    first = {i: compose_FY(z, integrand(i), x.N - 1) for i in letters}
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
                {ijk: integrand(*ijk) for ijk in triples},
                {ijk: tilde_path(xhat, *ijk) for ijk in triples},
            )
        )
        if mixed is not None:
            table.append(
                Term(
                    "cbar_mixed_order",
                    {ijk: mixed(*ijk) for ijk in triples},
                    {ijk: cbar_path(xhat, *ijk) for ijk in triples},
                )
            )
    return table


def _verify(name, theorem, func, z, table, rungs, tolerance) -> ItoReport:
    """Evaluate every term of ``table`` on every rung and judge the identity
    ``F(z_T) − F(z_0) = Σ terms``."""
    x = z.x
    states = z.coeffs[EMPTY]
    values = func.value(states)[:, 0]
    lhs = float(values[-1] - values[0])
    strides, scales = MeshLadder.rungs_of(x, rungs)
    terms = {t.name: [] for t in table}
    for stride in strides:
        for t in table:
            terms[t.name].append(t.total(stride, states, x.T))
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


def _scalar(func: SmoothFunctionWithDerivatives):
    if func.n_out != 1:
        raise ConfigError("the observable F must be scalar-valued")
    return func


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

    def partials(*letters):
        return functools.reduce(SmoothFunctionWithDerivatives.partial, letters, func)

    table = _table(x, z, partials, mixed=None)
    return _verify(name, "simple", func, z, table, rungs, tolerance)


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
    if tuple(func.symbols) != tuple(fields.symbols):
        raise ConfigError("F and the fields must use the same variables")
    y = solve_rde(x, fields, xi)

    def f(i):
        return fields.fields[i - 1].exprs

    def contractions(*letters):
        return func.contract(*map(f, letters))

    def mixed(i, j, k):
        return func.contract(f(i), fields.fields[j - 1].contract(f(k)).exprs)

    table = _table(x, y, contractions, mixed)
    return _verify(name, "general", func, y, table, rungs, tolerance)
