"""Rough integrals, Young integrals, and the tree-indexed Euler scheme.

The compensated Riemann sum of a controlled integrand ``Z`` against letter
``l`` of a lift ``X`` adds, on each mesh cell ``[u, v]``, every term
``⟨τ, Z_u⟩ · ⟨X_{u,v}, [τ]_l⟩`` whose grafted forest survives the weight
truncation.  Against a base letter this compensates with all available
coefficients; against a bracket letter the weight budget shrinks by two, so
at truncation 2 the sum is a plain left-point sum and at truncation 3 it
carries single-letter compensators.

Differential equations driven by a lift are solved by the step-``N`` scheme

    Y_{k+1} = Y_k + Σ_{trees τ, weight ≤ N}  f_τ(Y_k) · ⟨X_{cell k}, τ⟩ ,

with the elementary differentials ``f_{•_i} = f_i`` and
``f_{[τ1…τm]_i} = D^m f_i : (f_{τ1}, …, f_{τm})``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import sympy

from .forest_core import EMPTY, PlanarForest, b_plus, forest, letter_weight
from .controlled import ControlledPath, SmoothFunctionWithDerivatives, _as_symbols
from .rates import MeshLadder, fit_loglog
from .rough_path import ConfigError, RoughPath


class DivergenceError(RuntimeError):
    """The numerical solution left the trust region (norm above 1e6)."""


# ---------------------------------------------------------------------------
# Vector fields and elementary differentials
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VectorFieldFamily:
    """Driving vector fields ``f_1, …, f_d`` on R^n, with shared symbols."""

    fields: tuple
    _ftau_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.fields:
            raise ValueError("need at least one vector field")
        symbols = self.fields[0].symbols
        for f in self.fields:
            if f.symbols != symbols:
                raise ValueError("vector fields must share one symbol tuple")
            if f.n_in != f.n_out:
                raise ValueError("vector fields must map R^n to R^n")

    @classmethod
    def from_expressions(cls, exprs_per_field, variables):
        """One field per expression list, each through
        :meth:`SmoothFunctionWithDerivatives.from_expressions`."""
        return cls(
            fields=tuple(
                SmoothFunctionWithDerivatives.from_expressions(exprs, variables)
                for exprs in exprs_per_field
            )
        )

    @property
    def d(self) -> int:
        return len(self.fields)

    @property
    def n(self) -> int:
        return self.fields[0].n_in

    @property
    def symbols(self):
        return self.fields[0].symbols


def f_tau(fields: VectorFieldFamily, f: PlanarForest) -> SmoothFunctionWithDerivatives:
    """Elementary differential of a single tree as a function object."""
    if len(f.trees) != 1:
        raise ValueError(f"elementary differentials live on trees, got {f.key}")
    cached = fields._ftau_cache.get(f)
    if cached is not None:
        return cached
    t = f.trees[0]
    if not isinstance(t.letter, int):
        raise ValueError(f"tree {f.key} uses a bracket letter")
    if not 1 <= t.letter <= fields.d:
        raise ValueError(f"tree {f.key} uses letters beyond d={fields.d}")
    root = fields.fields[t.letter - 1]
    if not t.children:
        out = root
    else:
        out = root.contract(
            *(f_tau(fields, forest((child,))).exprs for child in t.children)
        )
    fields._ftau_cache[f] = out
    return out


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------


def rough_integral(
    z: ControlledPath, x: RoughPath, letter, stride: int = 1
) -> np.ndarray:
    """Compensated-sum contributions per mesh cell, shape ``(m, n_out)``.

    The mesh is the aligned coarsening of ``x``'s grid by ``stride`` cells.
    The total integral over the horizon is ``result.sum(axis=0)``; a running
    integral is its cumulative sum.
    """
    chars = x.stride_chars(stride)
    idx = x.algebra.basis.index
    starts = np.arange(0, x.cells, stride)
    out = np.zeros((len(starts), z.n_out))
    budget = x.N - letter_weight(letter)
    for tau, coeff in z.coeffs.items():
        if tau.weight > budget:
            continue
        grafted = idx.get(b_plus(tau, letter))
        if grafted is None:
            raise ValueError(f"integrator basis lacks [{tau.key}]_{letter}")
        out += coeff[starts] * chars[:, grafted, None]
    return out


def holder_exponent(node_values: np.ndarray, scales_T: float = 1.0) -> float:
    """Empirical Hölder order of a sampled path from dyadic increment maxima."""
    v = np.asarray(node_values, dtype=float)
    m = len(v) - 1
    scales, maxima = [], []
    stride = 1
    while stride * 8 <= m:
        diffs = v[stride::stride] - v[:-stride:stride]
        scales.append(scales_T * stride / m)
        maxima.append(float(np.max(np.abs(diffs))))
        stride *= 2
    return fit_loglog(scales, maxima, floor=1e-14)


def young_integral(
    integrand_nodes: np.ndarray,
    cell_increments: np.ndarray,
    T: float = 1.0,
) -> np.ndarray:
    """Left-point Young sums per cell: ``g(t_k) · δW_k``.

    ``integrand_nodes`` holds the integrand at the mesh nodes (one more entry
    than ``cell_increments``).  On 16 or more cells the empirical Hölder
    orders of both sequences are estimated from dyadic increments; a summed
    order ≤ 1 triggers a ``UserWarning`` (the product limit is then not
    guaranteed to exist).
    """
    g = np.asarray(integrand_nodes, dtype=float)
    dw = np.asarray(cell_increments, dtype=float)
    if len(g) != len(dw) + 1:
        raise ValueError("need one more integrand node than increments")
    if len(dw) >= 16:
        a_g = holder_exponent(g, T)
        a_w = holder_exponent(np.concatenate([[0.0], np.cumsum(dw)]), T)
        if a_g + a_w <= 1.0 and not (math.isinf(a_g) or math.isinf(a_w)):
            warnings.warn(
                f"Young precondition violated: estimated orders "
                f"{a_g:.3f} + {a_w:.3f} <= 1",
                stacklevel=2,
            )
    return g[:-1] * dw


# ---------------------------------------------------------------------------
# Differential equations
# ---------------------------------------------------------------------------


def solve_rde(x: RoughPath, fields: VectorFieldFamily, xi) -> ControlledPath:
    """Step-N tree Euler solution of ``dY = Σ f_i(Y) dX^i`` as a controlled path.

    The returned path carries the solution at the empty forest and the
    elementary differentials ``f_τ(Y_t)`` on trees up to weight ``N − 1``
    (multi-tree forests carry zero).  Raises :class:`ConfigError` unless
    there is one field per driver letter and one entry of ``xi`` per state.
    """
    if fields.d != x.base_values.shape[0]:
        raise ConfigError(
            f"{fields.d} fields against a driver with {x.base_values.shape[0]} letters"
        )
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (fields.n,):
        raise ConfigError(f"xi has {xi.size} entries for {fields.n} states")
    basis = x.algebra.basis
    trees = [f for f in basis.forests if len(f.trees) == 1]
    ftaus = {f: f_tau(fields, f) for f in trees}

    # one compiled step: y + Σ_τ c_τ f_τ(y), with the c_τ as scalar arguments
    weights = _as_symbols([f"c{k}" for k in range(len(trees))])
    step_exprs = list(fields.symbols)
    for w, f in zip(weights, trees):
        step_exprs = [e + w * fe for e, fe in zip(step_exprs, ftaus[f].exprs)]
    step = sympy.lambdify(tuple(fields.symbols) + tuple(weights), step_exprs,
                          modules="numpy")

    cells = x.levels[0]
    cols = [x.algebra.basis.index[f] for f in trees]
    nodes = len(x.grid)
    y = np.empty((nodes, fields.n))
    y[0] = xi
    for k in range(x.cells):
        args = list(y[k]) + [cells[k, c] for c in cols]
        y[k + 1] = step(*args)
        if not np.all(np.isfinite(y[k + 1])) or np.max(np.abs(y[k + 1])) > 1e6:
            raise DivergenceError(
                f"solution left the trust region at t={x.grid[k + 1]:.6g}"
            )

    coeffs = {EMPTY: y}
    for f in trees:
        if f.weight <= x.N - 1:
            arr = ftaus[f].value(y)
            if np.any(arr):
                coeffs[f] = arr
    return ControlledPath(x=x, order=x.N - 1, coeffs=coeffs, n_out=fields.n)


# ---------------------------------------------------------------------------
# Convergence reporting
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport(MeshLadder):
    """Mesh-refinement record for one scalar quantity."""

    quantity: str
    values: list
    reference: float
    tolerance: float
    threshold: float
    passed: bool

    @classmethod
    def from_values(
        cls,
        quantity: str,
        strides,
        scales,
        values,
        reference: float,
        tolerance: float,
        threshold: float,
    ) -> "ConvergenceReport":
        ladder = MeshLadder.fit(strides, scales, values, reference)
        passed = ladder["residuals"][-1] <= tolerance and ladder["slope"] >= threshold
        return cls(
            quantity=quantity,
            values=list(float(v) for v in values),
            reference=float(reference),
            tolerance=float(tolerance),
            threshold=float(threshold),
            passed=bool(passed),
            **ladder,
        )
