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
``f_{[τ1…τm]_i} = D^m f_i : (f_{τ1}, …, f_{τm})``, numeric contractions
(:func:`elementary_differentials`) of the fields' derivative tensors.
The recursion is sequential, but :func:`solve_rde` evaluates it a window of
cells at a time: each sweep evaluates the steps at the latest guess of every
node of the window and sums them in order, and the nodes that reproduce
their guess bit for bit prove the next node exact.  The solution is the
cell-by-cell recursion's to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest_core import EMPTY, b_plus, concat, letter_weight, single
from .controlled import ControlledPath, SmoothFunctionWithDerivatives
from .rates import MeshLadder
from .rough_path import ConfigError, RoughPath


class DivergenceError(RuntimeError):
    """The numerical solution left the trust region (norm above 1e6)."""


# ---------------------------------------------------------------------------
# Vector fields and elementary differentials
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VectorFieldFamily:
    """Driving vector fields ``f_1, …, f_d`` on R^n as one ``stacked``
    function of ``d·n`` outputs: one Taylor evaluation serves every order
    of every field."""

    stacked: SmoothFunctionWithDerivatives
    d: int

    def __post_init__(self):
        if min(self.d, self.n) < 1 or self.stacked.n_out != self.d * self.n:
            raise ValueError("need one or more vector fields on R^n, n ≥ 1")

    @classmethod
    def from_expressions(cls, exprs_per_field, variables):
        """One field per expression list, all through one
        :meth:`SmoothFunctionWithDerivatives.from_expressions`."""
        if any(len(exprs) != len(variables) for exprs in exprs_per_field):
            raise ValueError("vector fields must map R^n to R^n")
        flat = [e for exprs in exprs_per_field for e in exprs]
        build = SmoothFunctionWithDerivatives.from_expressions
        return cls(stacked=build(flat, variables), d=len(exprs_per_field))

    @property
    def n(self) -> int:
        return self.stacked.n_in

    def tensors(self, u, order: int) -> list:
        """``D^m f_i(u)`` for m = 0..order, axes ``(..., i, a, b1, …, bm)``."""
        lead = np.shape(u)[:-1] + (self.d,)
        return [
            t.reshape(lead + (self.n,) * (m + 1))
            for m, t in enumerate(self.stacked.tensors(u, order))
        ]


def elementary_differentials(trees, d: int):
    """The numeric map from the fields' tensors to ``f_τ`` for ``trees``.

    It takes :meth:`VectorFieldFamily.tensors` up to the heaviest tree's
    weight minus one, at any leading axes, and stacks the ``f_τ`` on axis −2
    in the order of ``trees``: one contraction per shape, then one gather.
    ``ValueError`` for a forest that is no tree of weight ≤ 3 over ``1..d``.
    """
    # the rows of the shapes •i, [•j]i, [[•k]j]i, [•k•j]i, row-major in letters
    r = range(1, d + 1)
    rows = [single(i) for i in r]
    rows += [b_plus(single(j), i) for i in r for j in r]
    rows += [b_plus(b_plus(single(k), j), i) for i in r for j in r for k in r]
    rows += [b_plus(concat(single(k), single(j)), i) for i in r for k in r for j in r]
    rows = {f: row for row, f in enumerate(rows)}
    for f in trees:
        if f not in rows:
            raise ValueError(f"{f.key} is no tree of weight ≤ 3 over letters 1..{d}")
    slots = np.array([rows[f] for f in trees], dtype=np.intp)

    def f_taus(ft):
        f = ft[0]
        lead = f.shape[:-2] + (-1, f.shape[-1])
        shapes = [f]
        if len(ft) > 1:
            f_ji = np.einsum("...iab,...jb->...ija", ft[1], f)  # [•j]i
            shapes.append(f_ji.reshape(lead))
        if len(ft) > 2:
            f_kji = np.einsum("...iab,...jkb->...ijka", ft[1], f_ji)  # [[•k]j]i
            f_k_ji = np.einsum("...iabc,...kb,...jc->...ikja", ft[2], f, f)  # [•k•j]i
            shapes += [f_kji.reshape(lead), f_k_ji.reshape(lead)]
        return np.concatenate(shapes, axis=-2).take(slots, axis=-2)

    return f_taus


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


def young_integral(
    integrand_nodes: np.ndarray, cell_increments: np.ndarray
) -> np.ndarray:
    """Left-point Young sums per cell: ``g(t_k) · δW_k``.

    ``integrand_nodes`` holds the integrand at the mesh nodes (one more entry
    than ``cell_increments``).  The sums converge when the Hölder orders of
    integrand and integrator add up to more than 1 (Young 1936).  At ``N = 3``
    the identities pair α-Hölder integrands with 3α-Hölder compensators, so
    that is ``4α > 1``, which ``DriverSpec`` guarantees through
    ``alpha_window(3)``.
    """
    g = np.asarray(integrand_nodes, dtype=float)
    dw = np.asarray(cell_increments, dtype=float)
    if len(g) != len(dw) + 1:
        raise ValueError("need one more integrand node than increments")
    return g[:-1] * dw


# ---------------------------------------------------------------------------
# Differential equations
# ---------------------------------------------------------------------------


def solve_rde(x: RoughPath, fields: VectorFieldFamily, xi) -> ControlledPath:
    """Step-N tree Euler solution of ``dY = Σ f_i(Y) dX^i`` as a controlled path.

    The recursion runs in sweeps over a window of cells ``[done, end)``
    whose first node ``Y_done`` is exact (waveform relaxation; Gander,
    *50 years of time parallel time integration*, 2015).  A sweep evaluates
    the steps at the current guesses of the window's nodes in one vectorised
    pass and adds them onto ``Y_done`` in order (``cumsum``), as the
    recursion does.  So node ``done + 1`` is exact, and so is each further
    node while every node before it reproduced its guess bit for bit.  The
    sweep checks those exact nodes against the trust region in order and
    moves the window past them: every sweep advances, and the result is the
    cell-by-cell recursion's to the last bit.  Nodes new to a window start
    at the latest guess before them, and the width follows the last
    advance.  Guesses beyond the exact nodes may overflow unreported.

    The scheme reads the base-letter trees only, so ``x`` may be a bracket
    extension.  The returned path carries the solution at the empty forest
    and the elementary differentials ``f_τ(Y_t)`` on trees up to weight
    ``N − 1`` (multi-tree forests carry zero).  Raises :class:`ConfigError` unless
    there is one field per driver letter and one entry of ``xi`` per state,
    and :class:`DivergenceError` at the first node whose norm exceeds 1e6.
    """
    if fields.d != x.base_values.shape[0]:
        raise ConfigError(
            f"{fields.d} fields against a driver with {x.base_values.shape[0]} letters"
        )
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (fields.n,):
        raise ConfigError(f"xi has {xi.size} entries for {fields.n} states")
    basis = x.algebra.basis
    trees = [f for f in basis.forests if len(f.trees) == 1 and f.weight == f.degree]
    f_taus = elementary_differentials(trees, fields.d)
    cells = x.levels[0][:, [basis.index[f] for f in trees]]
    y = np.empty((len(x.grid), fields.n))
    y[0] = xi
    # y[:done + 1] is exact and y[:seen] holds a guess of every node
    done, seen, width = 0, 1, 16
    with np.errstate(all="ignore"):
        while done < x.cells:
            end = min(done + width, x.cells)
            y[seen:end] = y[seen - 1]
            seen = max(seen, end + 1)
            ft = f_taus(fields.tensors(y[done:end], x.N - 1))
            inc = (cells[done:end, None, :] @ ft)[:, 0]  # bitwise cells[k] @ ft[k]
            new = np.concatenate([y[done : done + 1], inc]).cumsum(axis=0)
            same = new[1:-1].view(np.int64) == y[done + 1 : end].view(np.int64)
            same = same.all(axis=1)
            advance = 1 + (len(same) if same.all() else int(same.argmin()))
            y[done + 1 : end + 1] = new[1:]
            # NaN fails the comparison too, so it diverges like inf
            inside = (np.abs(y[done + 1 : done + 1 + advance]) <= 1e6).all(axis=1)
            if not inside.all():
                t = x.grid[done + 1 + int(inside.argmin())]
                raise DivergenceError(f"solution left the trust region at t={t:.6g}")
            done += advance
            width = min(1024, max(16, 8 * advance))

    coeffs = {EMPTY: y}
    values = f_taus(fields.tensors(y, x.N - 1))
    for f, arr in zip(trees, np.moveaxis(values, -2, 0)):
        if f.weight <= x.N - 1 and np.any(arr):
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
