"""Branched lifts of synthetic drivers over planar forests.

A driver is a tuple of smooth scalar signals (one per base letter), optionally
enriched by "intensity" signals attached to individual trees — prescribed
rates for the non-geometric components of the lift.  The lift integrates the
truncated character equation

    dg_t = g_t ★ v(t) dt ,
    v(t) = Σ_i  ẋ_i(t) •_i  +  Σ_τ  λ̇_τ(t) τ ,

one grid cell at a time, each cell split into ``substeps`` Magnus steps: the
step generator is the *exact* increment of the linear part plus the two-point
Gauss commutator correction, exponentiated exactly in the weight-truncated
algebra.  Each step is therefore group-like to machine precision, cell
characters compose by ★ (Chen's identity holds exactly), and level-one
components are exact.

The bracket extension lifts the driver over the alphabet extended by bracket
letters ``(i j)``, whose level-one increments are defined per substep as
``⟨g, •_j •_i⟩ − ⟨g, [•_j]_i⟩`` of the base substep character: the negated
increment of the intensity on ``[•_j]_i``.  Restricted to base-letter forests
the extension reproduces the lift exactly, so a verification needs it alone.

Both paths run one Magnus pipeline.  It samples each distinct signal once
(values on the substep nodes, rates on the two Gauss arrays), then builds the
substep characters one block of whole cells at a time and keeps only the
block's cell characters, so the ``(substeps, dim)`` temporaries of the Magnus
step are block-sized, not path-sized.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forest_core import (
    PlanarForest,
    b_plus,
    base_alphabet,
    bracket_alphabet,
    concat,
    letter_key,
    parse_forest,
    single,
)
from .hopf_mkw import FloatAlgebra, TruncatedBasis, shuffle
from .rates import fit_loglog

_SQRT3 = math.sqrt(3.0)
_GAUSS = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)


class ConfigError(ValueError):
    """A driver or experiment configuration violates its contract."""


# ---------------------------------------------------------------------------
# Scalar signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolySignal:
    """Polynomial signal ``x(t) = Σ coeffs[k] t**k``."""

    coeffs: tuple

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for k in range(len(self.coeffs) - 1, 0, -1):
            out = out * t + k * self.coeffs[k]
        return out


@dataclass(frozen=True)
class TrigSignal:
    """Sum of sine waves: ``x(t) = Σ a sin(w t + phi)`` per (a, w, phi) term."""

    terms: tuple

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, w, phi in self.terms:
            out = out + a * np.sin(w * t + phi)
        return out

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, w, phi in self.terms:
            out = out + a * w * np.cos(w * t + phi)
        return out


@dataclass(frozen=True, eq=False)
class SpectralSignal:
    """Seeded random trigonometric polynomial with power-law mode decay.

    ``x(t) = amplitude · Σ_{m=1..modes} m^{-(hurst+1/2)}
             (a_m cos(2π m t / period) + b_m sin(2π m t / period))``

    with independent standard normal ``a_m, b_m`` drawn from the seed.  On
    scales above ``period/modes`` the increments scale like ``h^hurst``; below
    that the signal is smooth, so rate fits should stay above the cutoff.

    ``value`` and ``rate`` evaluate the sum at any times, in O(times · modes).
    The lift samples the uniform substep grid through :meth:`sample_grid`
    instead, by inverse real FFT in O(steps + q·log q), whenever the period
    spans a whole number ``q`` of substeps with ``2·modes < q ≤ steps``;
    other grids fall back to ``value`` and ``rate``.
    """

    hurst: float
    modes: int
    seed: int
    amplitude: float = 1.0
    period: float = 1.0
    _cos: np.ndarray = field(init=False, repr=False)
    _sin: np.ndarray = field(init=False, repr=False)
    _freq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.period > 0:
            raise ConfigError(f"spectral period must be positive, got {self.period}")
        rng = np.random.default_rng(self.seed)
        m = np.arange(1, self.modes + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            decay = self.amplitude * m ** (-(self.hurst + 0.5))
        if not np.isfinite(decay).all():
            raise ConfigError(
                f"spectral mode decay is not finite for hurst={self.hurst}, "
                f"amplitude={self.amplitude}"
            )
        object.__setattr__(self, "_cos", decay * rng.standard_normal(self.modes))
        object.__setattr__(self, "_sin", decay * rng.standard_normal(self.modes))
        object.__setattr__(self, "_freq", 2.0 * np.pi * m / self.period)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        phase = np.multiply.outer(t, self._freq)
        return np.cos(phase) @ self._cos + np.sin(phase) @ self._sin

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        phase = np.multiply.outer(t, self._freq)
        return (-np.sin(phase) * self._freq) @ self._cos + (
            np.cos(phase) * self._freq
        ) @ self._sin

    def sample_grid(self, T: float, steps: int):
        """Values on the nodes ``k·T/steps`` (``k = 0..steps``) and rates at
        the Gauss points ``(k + c)·T/steps`` of each step, ``c = ½ ∓ √3/6``;
        ``None`` when the grid does not fit one inverse real FFT.

        The FFT length is the period in steps, ``q = period·steps/T``.  It
        must be a whole number above ``2·modes``, because the Nyquist bin of
        an even length holds a real coefficient only, and at most ``steps``,
        so no FFT array outgrows the node array.  Node ``k`` reads bin
        ``k mod q``: a grid that holds several periods tiles.  The value
        coefficients are ``(q/2)(a_m − i b_m)``; a rate's are those times
        ``iω_m`` and the phase shift ``exp(2πi·m·c/q)``.
        """
        q = self.period * steps / T
        if not (2 * self.modes < q <= steps and q.is_integer()):
            return None
        q = int(q)
        bins = np.zeros(q // 2 + 1, dtype=complex)

        def on_grid(coeffs, size):
            bins[1 : self.modes + 1] = coeffs
            return np.resize(np.fft.irfft(bins, q), size)

        coeffs = (q / 2) * (self._cos - 1j * self._sin)
        slopes = coeffs * (1j * self._freq)
        shift = (2j * np.pi / q) * np.arange(1, self.modes + 1)
        values = on_grid(coeffs, steps + 1)
        return values, *(on_grid(slopes * np.exp(c * shift), steps) for c in _GAUSS)


# ---------------------------------------------------------------------------
# Driver specification
# ---------------------------------------------------------------------------


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def alpha_window(N: int):
    """Admissible regularity window for truncation level ``N``."""
    if N == 2:
        return (1.0 / 3.0, 1.0 / 2.0)
    if N == 3:
        return (1.0 / 4.0, 1.0 / 3.0)
    raise ConfigError(f"truncation level must be 2 or 3, got {N}")


@dataclass(frozen=True, eq=False)
class DriverSpec:
    """A synthetic driver plus lift parameters.

    Attributes:
        d: number of base letters (components of the driver).
        base: one scalar signal per base letter, index ``i`` driving ``•_{i+1}``.
        intensities: pairs ``(tree_forest, signal)`` prescribing rates of
            non-geometric tree components; each forest must be a single tree
            with 2..N vertices decorated by base letters, given once.
        T: time horizon; the grid is uniform on ``[0, T]``.
        cells: number of grid cells (power of two).
        substeps: Magnus steps per cell (power of two).
        N: truncation weight (2 or 3).
        alpha: Hölder exponent the lift is meant to model; must lie in
            ``(1/3, 1/2]`` for N=2 and ``(1/4, 1/3]`` for N=3.
    """

    d: int
    base: tuple
    intensities: tuple = ()
    T: float = 1.0
    cells: int = 1024
    substeps: int = 64
    N: int = 2
    alpha: float = 0.45

    def __post_init__(self):
        if not 1 <= self.d <= 9:
            raise ConfigError(f"d must lie in 1..9, got {self.d}")
        if len(self.base) != self.d:
            raise ConfigError(
                f"driver has {len(self.base)} base signals for d={self.d}"
            )
        lo, hi = alpha_window(self.N)
        if not lo < self.alpha <= hi:
            raise ConfigError(
                f"alpha={self.alpha} outside ({lo:.4f}, {hi:.4f}] for N={self.N}"
            )
        if not _is_pow2(self.cells):
            raise ConfigError(f"cells must be a power of two, got {self.cells}")
        if not _is_pow2(self.substeps):
            raise ConfigError(f"substeps must be a power of two, got {self.substeps}")
        if not self.T > 0:
            raise ConfigError(f"horizon T must be positive, got {self.T}")
        trees = [f for f, _sig in self.intensities]
        for k, f in enumerate(trees):
            if f in trees[:k]:
                raise ConfigError(f"intensity tree {f.key} is given twice")
            if len(f.trees) != 1:
                raise ConfigError(f"intensity key {f.key} is not a single tree")
            if not 2 <= f.degree <= self.N:
                raise ConfigError(
                    f"intensity tree {f.key} needs 2..{self.N} vertices"
                )
            if f.weight != f.degree:
                raise ConfigError(f"intensity tree {f.key} uses bracket letters")
            if any(
                not (isinstance(l, int) and 1 <= l <= self.d)
                for l in _letters_of(f)
            ):
                raise ConfigError(f"intensity tree {f.key} uses letters beyond d")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.cells + 1)


def _letters_of(f: PlanarForest):
    out = []
    stack = list(f.trees)
    while stack:
        t = stack.pop()
        out.append(t.letter)
        stack.extend(t.children)
    return out


# ---------------------------------------------------------------------------
# Algebra caches
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def get_algebra(letters, max_weight: int) -> FloatAlgebra:
    return FloatAlgebra(TruncatedBasis(letters, max_weight))


# ---------------------------------------------------------------------------
# The lift
# ---------------------------------------------------------------------------


def _sample_substeps(driver: DriverSpec):
    """Sample each distinct signal once on the substep nodes and Gauss points.

    A signal with a ``sample_grid`` method samples the uniform grid itself
    when it can (a spectral signal by FFT); every other signal, and a grid
    that method declines, is evaluated by ``value`` and ``rate``.  Returns
    the substep lengths ``h``, one column ``(forest, increments, rates at
    c₁, rates at c₂)`` per base letter and intensity, and the base signals
    on the grid, which is every ``substeps``-th node.
    """
    steps = driver.cells * driver.substeps
    nodes = np.linspace(0.0, driver.T, steps + 1)
    lo, hi = nodes[:-1], nodes[1:]
    h = hi - lo
    pairs = [(single(i + 1), sig) for i, sig in enumerate(driver.base)]
    pairs += list(driver.intensities)
    seen = {}
    for f, sig in pairs:
        if id(sig) in seen:
            continue
        sample_grid = getattr(sig, "sample_grid", None)
        with np.errstate(over="ignore", invalid="ignore"):
            sampled = sample_grid(driver.T, steps) if sample_grid else None
            if sampled is None:
                sampled = (sig.value(nodes), *(sig.rate(lo + h * c) for c in _GAUSS))
            v, r1, r2 = sampled
            inc = v[1:] - v[:-1]
        if not all(np.isfinite(a).all() for a in sampled):
            raise ConfigError(f"the signal on {f.key} is not finite on the grid")
        seen[id(sig)] = (v, inc, r1, r2)
    columns = [(f, *seen[id(sig)][1:]) for f, sig in pairs]
    base_values = np.stack([seen[id(s)][0][:: driver.substeps] for s in driver.base])
    return h, columns, base_values


def _substep_chars(algebra: FloatAlgebra, h: np.ndarray, columns) -> np.ndarray:
    """Substep characters ``exp(Ω)``, shape ``(len(h), dim)``.

    Ω is the exact increment plus the two-point Gauss commutator correction
    ``h²·√3/12·[a₁, a₂]``; the rates ``a₁, a₂`` live on the sampled columns
    only, so the commutator runs the structure constants inside them.  Each
    temporary is dropped once used, so at most four arrays of Ω's shape are
    alive at a time; :func:`_cell_blocks` calls this one block at a time.
    """
    index = algebra.basis.index
    support = [index[f] for f, *_ in columns]
    a1 = np.zeros((len(h), algebra.dim))
    a2 = np.zeros_like(a1)
    for f, _inc, r1, r2 in columns:
        a1[:, index[f]] = r1
        a2[:, index[f]] = r2
    correction = algebra.commutator(a1, a2, support)
    del a1, a2
    correction *= ((h * h) * (_SQRT3 / 12.0))[:, None]
    omega = np.zeros_like(correction)
    for f, inc, _r1, _r2 in columns:
        omega[:, index[f]] = inc
    omega += correction
    del correction
    return algebra.exp(omega)


# Substep rows per Magnus block.  On perfbench's lift-d3n3 (dim 157, two
# lifts of 16,384 substeps; 2 cores, one BLAS thread, median of 6 CLI runs)
# blocks of 1024 / 2048 / 4096 rows took 0.95 / 0.90 / 0.96 s against 1.24 s
# for one full-width block, with the per-output ★ loop of that time; the
# pair-table ★ lifts in about the same time at all three sizes.  A block
# holds a power-of-two number of cells, at least two, so whole blocks tile
# the dyadic cells; a ★ row reads the same bits in any batch, so the
# characters stay bit for bit those of a full-width block.
_BLOCK_ROWS = 2048


def _cell_blocks(driver: DriverSpec, algebra: FloatAlgebra, h: np.ndarray, columns):
    """Yield the cell characters block by block.

    Each block is the same power-of-two number of whole cells; its substep
    characters come from :func:`_substep_chars` on the block's slice of the
    samples and its cell characters are their ★-products per cell.  The
    substep characters never leave this generator and are dropped before the
    next block is built.
    """
    cells = min(driver.cells, max(2, _BLOCK_ROWS // driver.substeps))
    rows = cells * driver.substeps
    for start in range(0, len(h), rows):
        block = slice(start, start + rows)
        sampled = [(f, *(a[block] for a in arrays)) for f, *arrays in columns]
        sub_chars = _substep_chars(algebra, h[block], sampled)
        cell_chars = algebra.star_reduce(
            sub_chars.reshape(cells, driver.substeps, algebra.dim)
        )
        del sub_chars
        yield cell_chars


def _pyramid(algebra: FloatAlgebra, cell_chars: np.ndarray):
    levels = [cell_chars]
    while levels[-1].shape[0] > 1:
        prev = levels[-1]
        levels.append(algebra.star(prev[0::2], prev[1::2]))
    return levels


@dataclass(eq=False)
class RoughPath:
    """A lifted driver: per-cell characters plus their dyadic compositions.

    ``levels[l]`` holds the characters of the ``cells >> l`` aligned blocks of
    ``2**l`` consecutive cells, so every stride of the dyadic mesh ladder is a
    plain array lookup and arbitrary node intervals compose from O(log) rows.
    A computed path keeps its ``driver``; a loaded one has none.
    """

    algebra: FloatAlgebra
    grid: np.ndarray
    levels: list
    base_values: np.ndarray  # (d, nodes) sampled base signals
    alpha: float
    driver: DriverSpec | None = None

    @property
    def cells(self) -> int:
        return self.levels[0].shape[0]

    @property
    def N(self) -> int:
        return self.algebra.basis.max_weight

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def stride_chars(self, stride: int) -> np.ndarray:
        """Characters of all aligned ``stride``-cell blocks (stride = 2**l)."""
        l = stride.bit_length() - 1
        if stride != 1 << l or l >= len(self.levels):
            raise ValueError(f"stride {stride} not available on {self.cells} cells")
        return self.levels[l]

    def _blocks(self, a: int, b: int) -> list:
        """Rows of the dyadic blocks tiling ``[t_a, t_b]``, left to right."""
        if not 0 <= a <= b <= self.cells:
            raise ValueError(f"node interval ({a}, {b}) out of range")
        rows = []
        pos = a
        while pos < b:
            l = 0
            while (
                pos % (2 << l) == 0
                and pos + (2 << l) <= b
                and l + 1 < len(self.levels)
            ):
                l += 1
            rows.append(self.levels[l][pos >> l])
            pos += 1 << l
        return rows

    def eval_many(self, a, b) -> np.ndarray:
        """Characters of the node intervals ``[t_a[p], t_b[p]]``, one row each.

        Every interval is tiled by its dyadic blocks; the tilings are padded
        on the right with the unit and composed left to right, one batched
        ★ per block step, so ``P`` intervals cost at most about
        ``2·log₂ cells`` products rather than ``P`` times that many.
        """
        tilings = [self._blocks(int(lo), int(hi)) for lo, hi in zip(a, b)]
        unit = self.algebra.unit()
        g = self.algebra.unit((len(tilings),))
        for step in range(max(map(len, tilings), default=0)):
            blocks = [t[step] if step < len(t) else unit for t in tilings]
            g = self.algebra.star(g, np.stack(blocks))
        return g

    def eval_nodes(self, a: int, b: int) -> np.ndarray:
        """Character of ``[t_a, t_b]`` composed from dyadic blocks."""
        return self.eval_many([a], [b])[0]

    def holder_slope(self, f: PlanarForest, min_level: int = 0, max_level=None):
        """Empirical Hölder order of one component across dyadic scales.

        Fits ``log max_k |⟨g over blocks of 2**l cells, f⟩|`` against the
        block length; returns ``+inf`` when the component vanishes at every
        usable scale.
        """
        col = self.algebra.basis.index[f]
        top = len(self.levels) - 1 if max_level is None else max_level
        scales, maxima = [], []
        for l in range(min_level, top + 1):
            scales.append(self.T * (1 << l) / self.cells)
            maxima.append(float(np.max(np.abs(self.levels[l][:, col]))))
        return fit_loglog(scales, maxima)

    # -- persistence ------------------------------------------------------

    def dump(self, out_dir: str):
        """Write per-cell components to ``lift.csv`` plus a JSON metadata
        sidecar ``lift.meta.json``."""
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "lift.csv")
        meta_path = os.path.join(out_dir, "lift.meta.json")
        forests = self.algebra.basis.forests
        with open(csv_path, "w") as fh:
            fh.write("t_left,t_right,forest,value\n")
            cells = self.levels[0]
            for k in range(cells.shape[0]):
                tl, tr = repr(float(self.grid[k])), repr(float(self.grid[k + 1]))
                row = cells[k]
                for i, f in enumerate(forests):
                    if row[i] != 0.0:
                        fh.write(f"{tl},{tr},{f.key},{float(row[i])!r}\n")
        meta = {
            "letters": [letter_key(l) for l in self.algebra.basis.letters],
            "max_weight": self.algebra.basis.max_weight,
            "alpha": self.alpha,
            "T": self.T,
            "cells": int(self.cells),
            "grid": [float(t) for t in self.grid],
            "base_values": [[float(v) for v in row] for row in self.base_values],
        }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return csv_path, meta_path

    @classmethod
    def load(cls, out_dir: str) -> "RoughPath":
        """Read back the lift that :meth:`dump` wrote to ``out_dir``."""
        with open(os.path.join(out_dir, "lift.meta.json")) as fh:
            meta = json.load(fh)
        letters = tuple(parse_forest(f"•{t}").trees[0].letter for t in meta["letters"])
        algebra = get_algebra(letters, meta["max_weight"])
        cells = meta["cells"]
        chars = np.zeros((cells, algebra.dim))
        chars[:, 0] = 1.0
        grid = np.array(meta["grid"])
        with open(os.path.join(out_dir, "lift.csv")) as fh:
            header = fh.readline()
            if header.strip() != "t_left,t_right,forest,value":
                raise ValueError("unrecognized lift CSV header")
            for line in fh:
                tl, _tr, key, val = line.rstrip("\n").split(",")
                k = int(round(float(tl) / meta["T"] * cells))
                chars[k, algebra.basis.index[parse_forest(key)]] = float(val)
        return cls(
            algebra=algebra,
            grid=grid,
            levels=_pyramid(algebra, chars),
            base_values=np.array(meta["base_values"]),
            alpha=meta["alpha"],
        )


def _path(driver, algebra, h, columns, base_values) -> RoughPath:
    with np.errstate(over="ignore", invalid="ignore"):
        cell_chars = list(_cell_blocks(driver, algebra, h, columns))
        levels = _pyramid(algebra, np.concatenate(cell_chars))
    # ★ only adds and multiplies, and every row's entries reach the product
    # through its unit terms, so a non-finite cell character, or an overflow
    # on any level, leaves the one row of the top level, and its sum,
    # non-finite
    if not np.isfinite(levels[-1].sum()):
        raise ConfigError("the lift overflows: the signals grow too large")
    return RoughPath(
        algebra=algebra,
        grid=driver.grid,
        levels=levels,
        base_values=base_values,
        alpha=driver.alpha,
        driver=driver,
    )


def lift(driver: DriverSpec) -> RoughPath:
    """Lift a driver to a branched rough path over its base alphabet."""
    # the algebra's tables before the samples: in the other order two d = 3,
    # N = 3 lifts of 16,384 substeps peaked 0.5 MB higher in one process
    algebra = get_algebra(base_alphabet(driver.d), driver.N)
    return _path(driver, algebra, *_sample_substeps(driver))


def bracket_extension(driver: DriverSpec) -> RoughPath:
    """Lift a driver over the bracket alphabet: its bracket extension X̂.

    Level-one bracket components integrate ``⟨•_j •_i⟩ − ⟨[•_j]_i⟩`` of the
    base substep characters, so the defining identity holds exactly on every
    grid interval (that combination is primitive, hence additive), and the
    base-letter components are those of :func:`lift` bit for bit.

    Per substep, ``⟨exp Ω, •_j •_i⟩`` and ``⟨exp Ω, [•_j]_i⟩`` share the
    quadratic part ``½·Ω_j·Ω_i`` and the Gauss commutator
    ``h²·√3/12·(a1_j·a2_i − a2_j·a1_i)`` (one structure constant ``(•_j, •_i)``
    each), so their difference is ``Ω_{•_j •_i} − Ω_{[•_j]_i} = −Δλ_{[•_j]_i}``,
    the negated increment of the intensity on ``[•_j]_i``.  Each such intensity
    gives the column ``(•(ij), −Δλ, −Δλ/h, −Δλ/h)``; a letter without one has
    zero increments and gets no column.  A lift step that breaks this
    identity has to compute the difference again.
    """
    algebra = get_algebra(bracket_alphabet(driver.d), driver.N)  # as in lift
    h, columns, base_values = _sample_substeps(driver)
    brackets = []
    for f, inc, *_rates in columns:
        if f.degree == 2:  # the tree [•j]i, with root i
            (root,) = f.trees
            rate = -inc / h
            letter = (root.letter, root.children[0].letter)
            brackets.append((single(letter), -inc, rate, rate))
    return _path(driver, algebra, h, columns + brackets, base_values)


# ---------------------------------------------------------------------------
# Scalar extension paths
# ---------------------------------------------------------------------------


def bracket_series(i: int, j: int) -> dict:
    """The level-two combination a bracket letter abbreviates."""
    return {concat(single(j), single(i)): 1, b_plus(single(j), i): -1}


def tilde_series(i: int, j: int, k: int) -> dict:
    """Third-order compensator element for the triple ``(i, j, k)``."""
    return {
        concat(single(k), concat(single(j), single(i))): 1,
        b_plus(concat(single(k), single(j)), i): -1,
        b_plus(single(k), (i, j)): -1,
    }


def cbar_series(i: int, j: int, k: int) -> dict:
    """Mixed second-order compensator element for ``(i, j, k)``, the Young
    integrator of ``D²F:(f_i, Df_j:f_k)`` in the general ``N = 3`` identity:

        •i [•k]j + [•k]j •i − [[•k]j]i − [•k•i]j − [•i•k]j − [•k](ij) − [•k](ji)

    The trees ``[•k•i]j`` and ``[•i•k]j`` are derived here (the source
    abstract does not state the series).  The rough first-order sum pairs
    ``D²(DF:f_j):(f_k, f_i)``, the coefficient of ``DF:f_j(Y)`` at the word
    ``•k•i``, with ``⟨X, [•k•i]j⟩``.  Its ``D³F`` part cancels against the
    tilde term and its ``DF:D²f_j:(f_k, f_i)`` part matches ``F(Y)``'s
    increment through ``f_{[•k•i]j}``; the leftovers ``D²F:(f_i, Df_j:f_k)``
    and ``D²F:(f_k, Df_j:f_i)`` are this integrand at ``(i, j, k)`` and
    ``(k, j, i)``.  Coinciding forests add up; the series is primitive
    modulo the bracket relation, so ``c̄X`` is additive.
    """
    kj = b_plus(single(k), j)
    series = Counter((concat(single(i), kj), concat(kj, single(i))))
    series.subtract((
        b_plus(kj, i),
        b_plus(concat(single(k), single(i)), j),
        b_plus(concat(single(i), single(k)), j),
        b_plus(single(k), (i, j)),
        b_plus(single(k), (j, i)),
    ))
    return dict(series)


@dataclass(eq=False)
class ScalarExtensionPath:
    """A scalar functional of an extended lift, evaluated per interval.

    ``increment(a, b)`` pairs the character of ``[t_a, t_b]`` with a fixed
    series — the defining two-parameter evaluation.  Whether those increments
    are additive over (s, u, t) is a property of the series (additive exactly
    when the series is primitive modulo the bracket relation), not of this
    container; :meth:`additivity_defect` measures it.  For a non-primitive
    series, Chen's relation makes that defect equal to the reduced coproduct
    of the series paired with the characters of ``[t_a, t_u]`` (left slot)
    and ``[t_u, t_b]`` (right slot).
    """

    xhat: RoughPath
    series: dict

    def __post_init__(self):
        self._vec = self.xhat.algebra.basis.vector(self.series)

    def increment(self, a: int, b: int) -> float:
        return float(self.xhat.eval_nodes(a, b) @ self._vec)

    def cell_increments(self, stride: int) -> np.ndarray:
        """Direct increments of all aligned stride-blocks of the grid."""
        return self.xhat.stride_chars(stride) @ self._vec

    def additivity_defect(self, a: int, u: int, b: int) -> float:
        return self.increment(a, b) - self.increment(a, u) - self.increment(u, b)


# ---------------------------------------------------------------------------
# Probe helpers
# ---------------------------------------------------------------------------


def chen_residuals(x: RoughPath, n_probes: int, seed: int = 0) -> np.ndarray:
    """∞-norm of ``g_{a,u} ★ g_{u,b} − g_{a,b}`` over random node triples
    ``a < u < b``, all probes evaluated as one batch."""
    rng = np.random.default_rng(seed)
    triples = [
        np.sort(rng.choice(x.cells + 1, size=3, replace=False)) for _ in range(n_probes)
    ]
    a, u, b = np.array(triples).T
    g = x.eval_many(np.concatenate([a, u, a]), np.concatenate([u, b, b]))
    left = x.algebra.star(g[:n_probes], g[n_probes : 2 * n_probes])
    return np.max(np.abs(left - g[2 * n_probes :]), axis=1)


def character_residuals(x: RoughPath, n_probes: int, seed: int = 0) -> np.ndarray:
    """Shuffle-character defects over random intervals and forest pairs."""
    rng = np.random.default_rng(seed)
    basis = x.algebra.basis
    nonempty = [f for f in basis.forests if f.weight >= 1]
    pairs = [
        (f1, f2)
        for f1 in nonempty
        for f2 in nonempty
        if f1.weight + f2.weight <= basis.max_weight
    ]
    if not pairs:
        raise ValueError("truncation too low for character probes")
    a, b, drawn = [], [], []
    for _ in range(n_probes):
        lo, hi = np.sort(rng.choice(x.cells + 1, size=2, replace=False))
        a.append(lo)
        b.append(hi)
        drawn.append(pairs[rng.integers(len(pairs))])
    idx = basis.index
    out = np.empty(n_probes)
    for p, (g, (f1, f2)) in enumerate(zip(x.eval_many(a, b), drawn)):
        lhs = sum(m * g[idx[w]] for w, m in shuffle(f1, f2).items())
        out[p] = abs(lhs - g[idx[f1]] * g[idx[f2]])
    return out
