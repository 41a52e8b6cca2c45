"""Lift construction against an independent symbolic oracle.

The oracle integrates the character ODE for the smooth driver ``X = (t, t²)``
directly in sympy, using only the word-shuffle recursion — no library
internals beyond the forest constructors — and its exact rational values at
``t = 1`` are additionally frozen below so a regression in either the oracle
or the lift is caught.
"""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from planarough.forest_core import (
    EMPTY,
    all_forests,
    b_plus,
    base_alphabet,
    bracket_alphabet,
    concat,
    forest,
    parse_forest,
    single,
)
from planarough.hopf_mkw import shuffle
from planarough.rough_path import (
    ConfigError,
    DriverSpec,
    PolySignal,
    RoughPath,
    ScalarExtensionPath,
    SpectralSignal,
    TrigSignal,
    _sample_substeps,
    _substep_chars,
    alpha_window,
    bracket_extension,
    cbar_series,
    character_residuals,
    chen_residuals,
    get_algebra,
    lift,
    tilde_series,
)

# ---------------------------------------------------------------------------
# Symbolic oracle for the canonical smooth driver X = (t, t²)
# ---------------------------------------------------------------------------

T_SYM = sp.Symbol("t", nonnegative=True)
CANONICAL_RATES = {1: sp.Integer(1), 2: 2 * T_SYM}


def _shuffles(w1, w2):
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out = {}
    for w, c in _shuffles(w1[:-1], w2).items():
        k = w + (w1[-1],)
        out[k] = out.get(k, 0) + c
    for w, c in _shuffles(w1, w2[:-1]).items():
        k = w + (w2[-1],)
        out[k] = out.get(k, 0) + c
    return out


def oracle_polynomials(forests):
    """Exact ⟨g_{0,t}, f⟩ for the canonical driver, in weight order."""
    vals = {EMPTY: sp.Integer(1)}
    for f in forests:
        if f is EMPTY:
            continue
        last, head = f.trees[-1], f.trees[:-1]
        rhs = sp.Integer(0)
        for w, c in _shuffles(head, last.children).items():
            rhs += c * vals[forest(w)]
        vals[f] = sp.integrate(
            sp.expand(rhs) * CANONICAL_RATES[last.letter], (T_SYM, 0, T_SYM)
        )
    return vals


# exact values at t = 1, frozen
CANONICAL_AT_ONE = {
    "e": "1", "•1": "1", "•2": "1",
    "[•1]1": "1/2", "[•1]2": "2/3", "[•2]1": "1/3", "[•2]2": "1/2",
    "•1•1": "1/2", "•1•2": "2/3", "•2•1": "1/3", "•2•2": "1/2",
    "[[•1]1]1": "1/6", "[[•1]1]2": "1/4", "[[•1]2]1": "1/6", "[[•1]2]2": "4/15",
    "[[•2]1]1": "1/12", "[[•2]1]2": "2/15", "[[•2]2]1": "1/10", "[[•2]2]2": "1/6",
    "[•1]1•1": "1/6", "[•1]1•2": "1/4", "[•1]2•1": "1/6", "[•1]2•2": "4/15",
    "[•1•1]1": "1/6", "[•1•1]2": "1/4", "[•1•2]1": "1/6", "[•1•2]2": "4/15",
    "[•2]1•1": "1/12", "[•2]1•2": "2/15", "[•2]2•1": "1/10", "[•2]2•2": "1/6",
    "[•2•1]1": "1/12", "[•2•1]2": "2/15", "[•2•2]1": "1/10", "[•2•2]2": "1/6",
    "•1[•1]1": "1/3", "•1[•1]2": "1/2", "•1[•2]1": "1/4", "•1[•2]2": "2/5",
    "•1•1•1": "1/6", "•1•1•2": "1/4", "•1•2•1": "1/6", "•1•2•2": "4/15",
    "•2[•1]1": "1/4", "•2[•1]2": "2/5", "•2[•2]1": "1/5", "•2[•2]2": "1/3",
    "•2•1•1": "1/12", "•2•1•2": "2/15", "•2•2•1": "1/10", "•2•2•2": "1/6",
}


def canonical_driver(N, cells=64, substeps=64):
    return DriverSpec(
        d=2,
        base=(PolySignal((0.0, 1.0)), PolySignal((0.0, 0.0, 1.0))),
        cells=cells,
        substeps=substeps,
        N=N,
        alpha=0.45 if N == 2 else 0.30,
    )


def test_oracle_reproduces_frozen_table():
    forests = all_forests(base_alphabet(2), 3)
    assert len(forests) == len(CANONICAL_AT_ONE) == 51
    polys = oracle_polynomials(forests)
    for f in forests:
        got = sp.Rational(polys[f].subs(T_SYM, 1))
        assert got == sp.Rational(CANONICAL_AT_ONE[f.key]), f.key


@pytest.mark.parametrize("N", [2, 3])
def test_canonical_lift_matches_oracle(N):
    x = lift(canonical_driver(N))
    g = x.eval_nodes(0, x.cells)
    idx = x.algebra.basis.index
    for f in x.algebra.basis.forests:
        want = float(Fraction(CANONICAL_AT_ONE[f.key]))
        assert abs(g[idx[f]] - want) <= 1e-8 * abs(want), f.key


def test_canonical_lift_matches_oracle_at_half():
    x = lift(canonical_driver(3))
    polys = oracle_polynomials(x.algebra.basis.forests)
    g = x.eval_nodes(0, x.cells // 2)
    index = x.algebra.basis.index
    for f in x.algebra.basis.forests:
        want = float(polys[f].subs(T_SYM, sp.Rational(1, 2)))
        got = g[index[f]]
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-3), f.key


# ---------------------------------------------------------------------------
# Tree intensities
# ---------------------------------------------------------------------------


def test_intensity_shifts_tree_component_only():
    tau = parse_forest("[•1]1")
    x = lift(
        DriverSpec(
            d=1,
            base=(PolySignal((0.0, 1.0)),),
            intensities=((tau, PolySignal((0.0, 0.3))),),
            cells=64,
            substeps=2,
            N=2,
            alpha=0.45,
        )
    )
    word = parse_forest("•1•1")
    index = x.algebra.basis.index
    whole, half = x.eval_nodes(0, x.cells), x.eval_nodes(0, x.cells // 2)
    assert whole[index[tau]] == pytest.approx(0.5 + 0.3, abs=1e-12)
    assert whole[index[word]] == pytest.approx(0.5, abs=1e-12)
    assert half[index[tau]] == pytest.approx(0.125 + 0.15, abs=1e-12)


# ---------------------------------------------------------------------------
# Composition structure
# ---------------------------------------------------------------------------


def trig_driver(N=2, cells=256, substeps=4, intensity=False):
    base = (
        TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8))),
        TrigSignal(((0.7, 3.0, 1.2),)),
    )
    intensities = ()
    if intensity:
        intensities = (
            (parse_forest("[•1]2"), PolySignal((0.0, 0.4, -0.3))),
            (parse_forest("[•2]1"), TrigSignal(((0.2, 4.0, 0.5),))),
        )
    return DriverSpec(
        d=2,
        base=base,
        intensities=intensities,
        cells=cells,
        substeps=substeps,
        N=N,
        alpha=0.45 if N == 2 else 0.30,
    )


def test_eval_nodes_matches_sequential_composition():
    x = lift(trig_driver())
    g = x.algebra.unit()
    for k in range(3, 11):
        g = x.algebra.star(g, x.levels[0][k])
    assert np.max(np.abs(g - x.eval_nodes(3, 11))) < 1e-13


def d3_driver(cells=64, substeps=2):
    """d = 3, N = 3 (dim 157), with a weight-2 and a weight-3 intensity."""
    return DriverSpec(
        d=3,
        base=(
            SpectralSignal(hurst=0.8, modes=32, seed=5, amplitude=0.3),
            TrigSignal(((0.6, 3.0, 2.9), (0.25, 7.0, 2.3))),
            PolySignal((0.0, 0.57, -0.43)),
        ),
        intensities=(
            (parse_forest("[•1]2"), PolySignal((0.0, 0.17, 0.11))),
            (parse_forest("[•3•2]1"), TrigSignal(((0.12, 4.0, 2.7),))),
        ),
        cells=cells,
        substeps=substeps,
        N=3,
        alpha=0.3,
    )


def test_eval_many_matches_eval_nodes():
    # batched rows go through a matrix-vector product, a single row through a
    # dot product: the two may round differently, by far less than 1e-15
    x = lift(d3_driver())
    rng = np.random.default_rng(3)
    a, b = np.sort(rng.integers(0, x.cells + 1, size=(2, 40)), axis=0)
    a = np.concatenate([a, [0, 17, x.cells]])
    b = np.concatenate([b, [x.cells, 17, x.cells]])
    g = x.eval_many(a, b)
    assert g.shape == (len(a), x.algebra.dim)
    for row, lo, hi in zip(g, a, b):
        assert np.max(np.abs(row - x.eval_nodes(int(lo), int(hi)))) <= 1e-15
        seq = x.algebra.unit()
        for k in range(lo, hi):
            seq = x.algebra.star(seq, x.levels[0][k])
        assert np.max(np.abs(row - seq)) < 1e-13
    assert np.array_equal(g[-2], x.algebra.unit())  # a == b is exactly the unit
    assert x.eval_many([], []).shape == (0, x.algebra.dim)
    with pytest.raises(ValueError):
        x.eval_many([3], [2])


def test_probes_match_per_probe_reference():
    # the per-probe loops the batched probes replace: the same draws, one
    # interval and one row ★ at a time
    x = lift(d3_driver())
    n, seed = 40, 11
    rng = np.random.default_rng(seed)
    chen = np.empty(n)
    for p in range(n):
        a, u, b = map(int, np.sort(rng.choice(x.cells + 1, size=3, replace=False)))
        left = x.algebra.star(x.eval_nodes(a, u), x.eval_nodes(u, b))
        chen[p] = np.max(np.abs(left - x.eval_nodes(a, b)))
    assert np.max(np.abs(chen - chen_residuals(x, n, seed))) <= 1e-15

    basis = x.algebra.basis
    nonempty = [f for f in basis.forests if f.weight >= 1]
    pairs = [
        (f1, f2)
        for f1 in nonempty
        for f2 in nonempty
        if f1.weight + f2.weight <= basis.max_weight
    ]
    rng = np.random.default_rng(seed)
    char = np.empty(n)
    for p in range(n):
        a, b = map(int, np.sort(rng.choice(x.cells + 1, size=2, replace=False)))
        f1, f2 = pairs[rng.integers(len(pairs))]
        g = x.eval_nodes(a, b)
        lhs = sum(m * g[basis.index[w]] for w, m in shuffle(f1, f2).items())
        char[p] = abs(lhs - g[basis.index[f1]] * g[basis.index[f2]])
    assert np.max(np.abs(char - character_residuals(x, n, seed))) <= 1e-15
    assert chen.max() < 1e-10 and char.max() < 1e-10


def test_chen_and_character_residuals_small():
    x = lift(trig_driver(intensity=True))
    c = chen_residuals(x, 200, seed=1)
    m = character_residuals(x, 200, seed=1)
    assert c.shape == (200,) and m.shape == (200,)
    assert float(c.max()) < 1e-10
    assert float(m.max()) < 1e-10
    assert np.array_equal(c, chen_residuals(x, 200, seed=1))


def test_magnus_substep_order_is_four():
    errs, hs = [], []
    ref = lift(trig_driver(cells=4, substeps=256)).eval_nodes(0, 4)
    for sub in (1, 2, 4, 8):
        g = lift(trig_driver(cells=4, substeps=sub)).eval_nodes(0, 4)
        errs.append(float(np.max(np.abs(g - ref))))
        hs.append(1.0 / (4 * sub))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope > 3.5, (slope, errs)


def test_holder_slope_of_linear_component_is_one():
    x = lift(
        DriverSpec(d=1, base=(PolySignal((0.0, 1.0)),), cells=256, substeps=1)
    )
    assert x.holder_slope(single(1)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Bracket extension and compensator paths
# ---------------------------------------------------------------------------


def analytic_driver(N=2, cells=64, substeps=4, lam=-0.5):
    intensities = ()
    if lam:
        intensities = ((parse_forest("[•1]1"), PolySignal((0.0, lam))),)
    return DriverSpec(
        d=1,
        base=(PolySignal((0.0, 1.0)),),
        intensities=intensities,
        cells=cells,
        substeps=substeps,
        N=N,
        alpha=0.45 if N == 2 else 0.30,
    )


def test_bracket_extension_restricts_bitwise():
    driver = trig_driver(intensity=True)
    x = lift(driver)
    xhat = bracket_extension(driver)
    cols = [x.algebra.basis.index[f] for f in x.algebra.basis.forests]
    hat_cols = [xhat.algebra.basis.index[f] for f in x.algebra.basis.forests]
    for l, level in enumerate(x.levels):
        assert np.array_equal(level[:, cols], xhat.levels[l][:, hat_cols])


def test_bracket_component_value_and_additivity():
    # with λ = -t/2 on [•1]1 the bracket increment is exactly +dt/2
    xhat = bracket_extension(analytic_driver())
    b = single((1, 1))
    idx = xhat.algebra.basis.index[b]
    assert xhat.eval_nodes(0, xhat.cells)[idx] == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, u, c = sorted(rng.integers(0, xhat.cells + 1, size=3))
        whole = xhat.eval_nodes(a, c)[idx]
        parts = xhat.eval_nodes(a, u)[idx] + xhat.eval_nodes(u, c)[idx]
        assert abs(whole - parts) < 1e-13


def test_third_order_compensator_path_additive():
    # a 3-vertex intensity feeds tilde(1,2,1) directly, so the path is
    # genuinely nonzero while staying two-parameter additive
    spec = DriverSpec(
        d=2,
        base=(
            TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8))),
            TrigSignal(((0.7, 3.0, 1.2),)),
        ),
        intensities=(
            (parse_forest("[•1]2"), PolySignal((0.0, 0.4, -0.3))),
            (parse_forest("[•1•2]1"), PolySignal((0.0, 0.2, 0.1))),
        ),
        cells=64,
        substeps=4,
        N=3,
        alpha=0.30,
    )
    xhat = bracket_extension(spec)
    p = ScalarExtensionPath(xhat, tilde_series(1, 2, 1))
    assert abs(p.increment(0, xhat.cells)) > 1e-2  # non-degenerate specimen
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, u, b = sorted(rng.integers(0, xhat.cells + 1, size=3))
        assert abs(p.additivity_defect(int(a), int(u), int(b))) < 1e-13


def test_third_order_compensator_vanishes_for_canonical_driver():
    xhat = bracket_extension(analytic_driver(N=3))
    p = ScalarExtensionPath(xhat, tilde_series(1, 1, 1))
    assert abs(p.increment(0, xhat.cells)) < 1e-13


def pre_fix_cbar_series(i, j, k):
    """The mixed compensator series before ``[•k•i]j`` and ``[•i•k]j`` were
    derived, with its dict literal that merges ``[•k](ij)`` and ``[•k](ji)``
    when i = j: the negative control of the tests that find the corrected
    series additive.  It is not primitive."""
    return {
        concat(single(i), b_plus(single(k), j)): 1,
        concat(b_plus(single(k), j), single(i)): 1,
        b_plus(b_plus(single(k), j), i): -1,
        b_plus(single(k), (i, j)): -1,
        b_plus(single(k), (j, i)): -1,
    }


def test_mixed_compensator_known_defect():
    # geometric X = t: the pre-fix series has increment (t-s)³/3 over [s,t],
    # so splitting [0,1] at the midpoint leaves 1/3 - 2·(1/24) = 1/4; the
    # corrected series vanishes on a geometric driver and splits without
    # defect
    xhat = bracket_extension(analytic_driver(N=3, lam=0.0))
    half = xhat.cells // 2
    old = ScalarExtensionPath(xhat, pre_fix_cbar_series(1, 1, 1))
    assert old.increment(0, xhat.cells) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert old.additivity_defect(0, half, xhat.cells) == pytest.approx(
        0.25, abs=1e-12
    )
    p = ScalarExtensionPath(xhat, cbar_series(1, 1, 1))
    assert abs(p.increment(0, xhat.cells)) <= 1e-12
    assert abs(p.additivity_defect(0, half, xhat.cells)) <= 1e-12


def test_scalar_extension_path_consistency():
    # the mixed path reads the weight-3 intensity, the tilde path the others
    spec = trig_driver(N=3, cells=64, intensity=True)
    weight3 = (parse_forest("[•1•2]1"), PolySignal((0.0, 0.2, 0.1)))
    spec = dataclasses.replace(spec, intensities=spec.intensities + (weight3,))
    xhat = bracket_extension(spec)
    # block sums reproduce the whole increment only for additive series:
    # the tilde and the mixed path are, the pre-fix mixed series visibly not
    for series in (tilde_series(1, 2, 1), cbar_series(2, 1, 1)):
        p = ScalarExtensionPath(xhat, series)
        whole = p.increment(0, xhat.cells)
        assert abs(whole) > 1e-3  # non-degenerate specimen
        assert p.cell_increments(4).sum() == pytest.approx(whole, abs=1e-14)
    old = ScalarExtensionPath(xhat, pre_fix_cbar_series(2, 1, 1))
    gap = abs(old.cell_increments(4).sum() - old.increment(0, xhat.cells))
    assert gap > 1e-3


# ---------------------------------------------------------------------------
# One Magnus pipeline: each lift samples each signal once
# ---------------------------------------------------------------------------


class CountingSignal:
    """Wraps a signal and records every sample taken of it: the size of each
    ``value``/``rate`` call, and the arguments of each ``sample_grid`` call,
    which it forwards when the wrapped signal has that method."""

    def __init__(self, inner):
        self.inner = inner
        self.value_sizes, self.rate_sizes, self.grid_calls = [], [], []

    def value(self, t):
        self.value_sizes.append(np.size(t))
        return self.inner.value(t)

    def rate(self, t):
        self.rate_sizes.append(np.size(t))
        return self.inner.rate(t)

    def __getattr__(self, name):
        if name != "sample_grid":
            raise AttributeError(name)
        sample_grid = getattr(self.inner, name)  # a trig signal has none

        def counted(T, steps):
            self.grid_calls.append((T, steps))
            return sample_grid(T, steps)

        return counted


def test_each_lift_samples_each_distinct_signal_once():
    trig = TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8)))
    spectral = SpectralSignal(hurst=0.78, modes=33, seed=11, amplitude=0.35)

    def spec(first, second):
        # the first signal also drives an intensity: still one distinct signal
        return DriverSpec(
            d=2,
            base=(first, second),
            intensities=((parse_forest("[•1]2"), first),),
            cells=32,
            substeps=4,
            N=3,
            alpha=0.30,
        )

    n = 32 * 4
    for build in (lift, bracket_extension):
        trig_calls, spectral_calls = CountingSignal(trig), CountingSignal(spectral)
        path = build(spec(trig_calls, spectral_calls))
        assert trig_calls.grid_calls == []
        assert trig_calls.value_sizes == [n + 1]
        assert trig_calls.rate_sizes == [n, n]
        # period = T = 1: the FFT length q = 128 exceeds 2·33, so the
        # spectral signal samples the whole grid in its one grid call
        assert spectral_calls.grid_calls == [(1.0, n)]
        assert spectral_calls.value_sizes == []
        assert spectral_calls.rate_sizes == []
        plain = build(spec(trig, spectral))
        assert np.array_equal(path.base_values, plain.base_values)
        for a, b in zip(path.levels, plain.levels):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "T, period, steps, modes, fft",
    [
        (1.0, 1.0, 512, 96, True),
        (2.0, 0.5, 512, 60, True),  # q = 128: four periods tile the grid
        (1.0, 33 / 64, 64, 16, True),  # q = 33, the edge 2·modes < q
        (1.0, 33 / 64, 64, 17, False),
        (1.0, 0.5, 64, 16, False),  # q = 32: bin 16 is the real-only Nyquist bin
        (2.5, 1.0, 512, 8, False),  # q = 204.8 is not whole
        (1.0, 1e300, 64, 8, False),  # q > steps
        (1.0, 1.7e308, 64, 8, False),  # q overflows to inf
        (1e-300, 1.0, 64, 8, False),  # q overflows to inf
    ],
)
def test_fft_samples_match_the_outer_product(T, period, steps, modes, fft):
    sig = SpectralSignal(
        hurst=0.4, modes=modes, seed=modes, amplitude=0.5, period=period
    )
    nodes = np.linspace(0.0, T, steps + 1)
    lo, h = nodes[:-1], nodes[1:] - nodes[:-1]
    want = (
        sig.value(nodes),
        sig.rate(lo + h * (0.5 - np.sqrt(3.0) / 6.0)),
        sig.rate(lo + h * (0.5 + np.sqrt(3.0) / 6.0)),
    )
    grid = sig.sample_grid(T, steps)
    assert (grid is not None) == fft
    if fft:
        for got, ref in zip(grid, want):
            assert got.shape == ref.shape
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    driver = DriverSpec(
        d=1, base=(sig,), T=T, cells=steps // 4, substeps=4, N=2, alpha=0.45
    )
    _h, columns, base_values = _sample_substeps(driver)
    v, r1, r2 = grid if fft else want  # the FFT's samples, or bitwise the product
    _f, inc, rate1, rate2 = columns[0]
    assert np.array_equal(inc, v[1:] - v[:-1])
    assert np.array_equal(rate1, r1) and np.array_equal(rate2, r2)
    assert np.array_equal(base_values[0], v[::4])


def test_spectral_sampling_peak_memory_is_node_sized():
    # simple-n3-fbm's spectral driver: 96 modes on 8192 cells x 4 substeps.
    # The outer product peaked at 74.1 MiB (296 node arrays) with its
    # (steps, modes) phase temporaries; the FFT peaks at 2.1 MiB (8.5 node
    # arrays: nodes, step lengths, values, increments, two rates, and the
    # FFT's bins and output)
    sig = SpectralSignal(hurst=0.78, modes=96, seed=11, amplitude=0.35)
    driver = DriverSpec(d=1, base=(sig,), cells=8192, substeps=4, N=3, alpha=0.3)
    tracemalloc.start()
    try:
        _sample_substeps(driver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_array = (8192 * 4 + 1) * np.dtype(float).itemsize
    assert peak < 10 * node_array, peak / node_array


@pytest.mark.parametrize("modes", [7, 33, 64, 96])
@pytest.mark.parametrize("T, cells, substeps", [(1.0, 64, 8), (2.5, 256, 4)])
def test_spectral_samples_do_not_depend_on_the_array(modes, T, cells, substeps):
    # the lift takes increments and grid values from one sample of the
    # substep nodes; that is bitwise what separate samples would give
    sig = SpectralSignal(hurst=0.6, modes=modes, seed=modes, amplitude=0.5)
    nodes = np.linspace(0.0, T, cells * substeps + 1)
    v = sig.value(nodes)
    assert np.array_equal(
        v[1:] - v[:-1], sig.value(nodes[1:]) - sig.value(nodes[:-1])
    )
    assert np.array_equal(v[::substeps], sig.value(np.linspace(0.0, T, cells + 1)))


def _one_shot_levels(driver, algebra, h, columns):
    """Pyramid characters with every substep built at once."""
    sub_chars = _substep_chars(algebra, h, columns)
    levels = [
        algebra.star_reduce(
            sub_chars.reshape(driver.cells, driver.substeps, algebra.dim)
        )
    ]
    while levels[-1].shape[0] > 1:
        prev = levels[-1]
        levels.append(algebra.star(prev[0::2], prev[1::2]))
    return levels


@pytest.mark.parametrize("cells, substeps", [(512, 16), (4, 4096), (2, 2)])
def test_blocked_lift_matches_one_shot(cells, substeps):
    # the lift builds its substeps a block of cells at a time: 512 x 16 is
    # four blocks, 4 x 4096 two blocks of two cells, 2 x 2 less than one
    driver = DriverSpec(
        d=2,
        base=(
            SpectralSignal(hurst=0.8, modes=32, seed=5, amplitude=0.3),
            TrigSignal(((0.6, 3.0, 2.9), (0.25, 7.0, 2.3))),
        ),
        intensities=(
            (parse_forest("[•1]2"), PolySignal((0.0, 0.17, 0.11))),
            (parse_forest("[•2•1]1"), TrigSignal(((0.12, 4.0, 2.7),))),
        ),
        cells=cells,
        substeps=substeps,
        N=3,
        alpha=0.30,
    )
    x = lift(driver)
    h, columns, _values = _sample_substeps(driver)
    levels = _one_shot_levels(driver, x.algebra, h, columns)
    assert len(x.levels) == len(levels)
    for got, want in zip(x.levels, levels):
        assert np.array_equal(got, want)
    # the intensity on [•1]2 gives the letter (21); (11), (12), (22) have none
    (inc,) = [inc for f, inc, *_ in columns if f == parse_forest("[•1]2")]
    brackets = [(single((2, 1)), -inc, -inc / h, -inc / h)]
    ext_alg = get_algebra(bracket_alphabet(2), 3)
    ext_levels = _one_shot_levels(driver, ext_alg, h, columns + brackets)
    xhat = bracket_extension(driver)
    assert len(xhat.levels) == len(ext_levels)
    for got, want in zip(xhat.levels, ext_levels):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "d, N, trees",
    [(1, 2, ("[•1]1",)), (3, 3, ("[•1]2", "[•2]2", "[•3•2]1", "[[•1]2]3"))],
)
def test_bracket_increments_are_negated_intensity_increments(d, N, trees):
    # per substep character g, ⟨g, •j•i⟩ − ⟨g, [•j]i⟩ is −Δλ on [•j]i up to
    # roundoff, and exactly zero without an intensity there; the extension
    # takes its bracket letters from the intensity samples on that ground
    base = (SpectralSignal(hurst=0.6, modes=24, seed=3, amplitude=0.4),)
    base += tuple(
        TrigSignal(((0.5 / k, 2.0 + k, 0.3 * k), (0.2, 7.0 + k, 1.1)))
        for k in range(2, d + 1)
    )
    intensities = tuple(
        (parse_forest(t), TrigSignal(((0.1 + 0.05 * n, 3.0 + n, 0.7 * n),)))
        for n, t in enumerate(trees)
    )
    driver = DriverSpec(
        d=d,
        base=base,
        intensities=intensities,
        cells=64,
        substeps=8,
        N=N,
        alpha=0.45 if N == 2 else 0.30,
    )
    h, columns, _values = _sample_substeps(driver)
    algebra = get_algebra(base_alphabet(d), N)
    sub = _substep_chars(algebra, h, columns)
    idx = algebra.basis.index
    increments = {f: inc for f, inc, *_ in columns}
    with_intensity = 0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            tree = b_plus(single(j), i)
            old = sub[:, idx[concat(single(j), single(i))]] - sub[:, idx[tree]]
            if tree in increments:
                dlam = increments[tree]
                assert np.max(np.abs(old + dlam)) <= 1e-15 * np.max(np.abs(dlam))
                with_intensity += 1
            else:
                assert not old.any()
    assert with_intensity == sum(parse_forest(t).degree == 2 for t in trees)


def test_lift_peak_memory_is_block_sized():
    # a full-width lift of 512 x 16 substeps peaked at 41.4 MiB, building
    # every (substeps, dim) array at once; blocks peaked at 14.5 MiB while
    # the previous block's substep characters stayed alive, 12.0 MiB since,
    # and 11.7 MiB since the lift stopped building bracket columns
    driver = d3_driver(cells=512, substeps=16)
    lift(d3_driver(cells=2, substeps=2))  # warm the algebra tables
    tracemalloc.start()
    try:
        lift(driver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full_width = 512 * 16 * 157 * np.dtype(float).itemsize
    assert peak < 1.35 * full_width, peak / 2**20


# ---------------------------------------------------------------------------
# Persistence, determinism, validation
# ---------------------------------------------------------------------------


def test_dump_load_round_trip(tmp_path):
    driver = trig_driver(cells=32, intensity=True)
    # the extension's metadata holds bracket letters such as (12)
    for path, sub in ((lift(driver), "base"), (bracket_extension(driver), "bracket")):
        path.dump(str(tmp_path / sub))
        y = RoughPath.load(str(tmp_path / sub))
        assert np.array_equal(path.grid, y.grid)
        assert np.array_equal(path.base_values, y.base_values)
        assert len(path.levels) == len(y.levels)
        for a, b in zip(path.levels, y.levels):
            assert np.array_equal(a, b)
        assert path.alpha == y.alpha
        assert y.algebra.basis.letters == path.algebra.basis.letters
        assert y.algebra.basis.forests == path.algebra.basis.forests


def test_spectral_signal_deterministic():
    t = np.linspace(0.0, 1.0, 17)
    a = SpectralSignal(hurst=0.78, modes=96, seed=11, amplitude=0.35)
    b = SpectralSignal(hurst=0.78, modes=96, seed=11, amplitude=0.35)
    c = SpectralSignal(hurst=0.78, modes=96, seed=12, amplitude=0.35)
    assert np.array_equal(a.value(t), b.value(t))
    assert not np.array_equal(a.value(t), c.value(t))
    assert np.array_equal(a.rate(t), b.rate(t))


def test_spectral_lift_holder_slope_orders_by_roughness():
    # block-maximum order estimates carry a log-factor bias, so assert the
    # ordering and a sane band rather than the exponent itself
    def slope(hurst):
        x = lift(
            DriverSpec(
                d=1,
                base=(
                    SpectralSignal(
                        hurst=hurst, modes=1024, seed=11, amplitude=0.35
                    ),
                ),
                cells=8192,
                substeps=1,
                N=2,
                alpha=0.45,
            )
        )
        return x.holder_slope(single(1), min_level=5, max_level=8)

    rough, mild = slope(0.45), slope(0.78)
    assert 0.2 < rough < 0.55, rough
    assert 0.5 < mild < 0.95, mild
    assert rough < mild


def test_alpha_window():
    assert alpha_window(2) == (1.0 / 3.0, 0.5)
    lo, hi = alpha_window(3)
    assert lo == 0.25 and hi == pytest.approx(1.0 / 3.0)
    with pytest.raises(ConfigError):
        alpha_window(4)


def test_driver_validation():
    base = (PolySignal((0.0, 1.0)),)
    with pytest.raises(ConfigError):
        DriverSpec(d=1, base=base, alpha=0.9)
    with pytest.raises(ConfigError):
        DriverSpec(d=1, base=base, cells=1000)
    with pytest.raises(ConfigError):
        DriverSpec(d=1, base=base, T=0.0)
    with pytest.raises(ConfigError):
        DriverSpec(d=2, base=base)
    with pytest.raises(ConfigError):  # intensity key must be a single tree
        DriverSpec(
            d=1,
            base=base,
            intensities=((parse_forest("•1•1"), PolySignal((0.0, 1.0))),),
        )
    with pytest.raises(ConfigError):  # too many vertices for N=2
        DriverSpec(
            d=1,
            base=base,
            intensities=((parse_forest("[[•1]1]1"), PolySignal((0.0, 1.0))),),
        )
    with pytest.raises(ConfigError):  # letter beyond d
        DriverSpec(
            d=1,
            base=base,
            intensities=((parse_forest("[•2]1"), PolySignal((0.0, 1.0))),),
        )
    with pytest.raises(ConfigError, match="given twice"):  # one rate per tree
        DriverSpec(
            d=1,
            base=base,
            intensities=(
                (parse_forest("[•1]1"), PolySignal((0.0, 0.3))),
                (parse_forest("[•1]1"), PolySignal((0.0, 0.5))),
            ),
        )
    with pytest.raises(ConfigError, match="period"):
        SpectralSignal(hurst=0.7, modes=8, seed=0, period=0.0)
