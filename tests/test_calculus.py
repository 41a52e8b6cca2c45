"""Elementary differentials, integrals, and the tree-Euler solver."""

import itertools

import numpy as np
import pytest
import sympy

from planarough.calculus import (
    ConvergenceReport,
    DivergenceError,
    VectorFieldFamily,
    elementary_differentials,
    rough_integral,
    solve_rde,
    young_integral,
)
from planarough.controlled import SmoothFunctionWithDerivatives, compose_FX
from planarough.forest_core import (
    EMPTY,
    all_forests,
    base_alphabet,
    parse_forest,
    single,
)
from planarough.rough_path import (
    DriverSpec,
    PolySignal,
    SpectralSignal,
    TrigSignal,
    bracket_extension,
    lift,
)


def scalar_fields(expr="y1"):
    return VectorFieldFamily.from_expressions([(expr,)], ("y1",))


def canonical_driver(N=2, cells=1024, substeps=1, lam=0.0):
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


def canonical_x(**kwargs):
    return lift(canonical_driver(**kwargs))


# ---------------------------------------------------------------------------
# Elementary differentials
# ---------------------------------------------------------------------------


def f_taus_at(fields, keys, u):
    """``f_τ(u)`` for the trees ``keys``, shape ``(..., len(keys), n)``."""
    trees = [parse_forest(k) for k in keys]
    order = max(f.weight for f in trees) - 1
    return elementary_differentials(trees, fields.d)(fields.tensors(u, order))


def test_f_tau_scalar_hand_values():
    fields = scalar_fields("y1**2")
    y = np.linspace(-1.5, 2.0, 8)
    cases = {
        "•1": y**2,
        "[•1]1": 2 * y**3,  # Df:(f)
        "[•1•1]1": 2 * y**4,  # D²f:(f,f)
        "[[•1]1]1": 4 * y**4,  # Df:(Df:(f))
    }
    got = f_taus_at(fields, list(cases), y[:, None])
    for col, (key, want) in enumerate(cases.items()):
        assert np.allclose(got[:, col, 0], want, rtol=1e-14, atol=0), key


def test_f_tau_planar_order_matters():
    # [•1]2 contracts Df2:(f1); with f1 = (y2, 0), f2 = (0, y1) the
    # first-order trees already distinguish the two grafting orders
    fields = VectorFieldFamily.from_expressions(
        [("y2", "0"), ("0", "y1")], ("y1", "y2")
    )
    u = np.random.default_rng(8).standard_normal((6, 2))
    got = f_taus_at(fields, ["[•1]2", "[•2]1", "[•1•2]1"], u)
    zero = np.zeros(len(u))
    assert np.array_equal(got[:, 0], np.stack([zero, u[:, 1]], axis=-1))
    assert np.array_equal(got[:, 1], np.stack([u[:, 0], zero], axis=-1))
    # the second derivative vanishes for linear fields
    assert np.array_equal(got[:, 2], np.zeros((len(u), 2)))


def test_f_tau_validation():
    for key, d in (("•1•1", 1), ("•(11)", 1), ("•2", 1), ("[[[•1]1]1]1", 1)):
        with pytest.raises(ValueError):
            elementary_differentials([parse_forest(key)], d)


def reference_f_tau(exprs, symbols, t):
    """``f_τ`` as sympy expressions by the defining recursion
    ``f_[τ1…τm]i = Σ ∂_{a1…am} f_i · f_τ1[a1] ⋯ f_τm[am]``."""
    root = [sympy.sympify(e) for e in exprs[t.letter - 1]]
    kids = [reference_f_tau(exprs, symbols, c) for c in t.children]
    out = []
    for e in root:
        acc = sympy.Integer(0)
        for multi in itertools.product(range(len(symbols)), repeat=len(kids)):
            term = e.diff(*(symbols[a] for a in multi)) if multi else e
            for kid, a in zip(kids, multi):
                term = term * kid[a]
            acc += term
        out.append(acc)
    return out


def test_elementary_differentials_match_sympy_reference():
    # every tree of weight ≤ 3 at d = 2, against the symbolic recursion
    exprs = [
        ("1 + 0.2*y2**2 + sin(y1)*y2", "0.3*y1*y2"),
        ("cos(y2) - y1**3/4", "1 - y2/4 + y1**2"),
    ]
    fields = VectorFieldFamily.from_expressions(exprs, ("y1", "y2"))
    symbols = sympy.symbols("y1 y2", real=True)
    local = dict(zip(("y1", "y2"), symbols))
    exprs = [[sympy.sympify(e, locals=local) for e in f] for f in exprs]
    trees = [f for f in all_forests(base_alphabet(2), 3) if len(f.trees) == 1]
    assert len(trees) == 2 + 4 + 8 + 8
    u = np.random.default_rng(9).uniform(-1.5, 1.5, (7, 2))
    got = elementary_differentials(trees, 2)(fields.tensors(u, 2))
    for col, f in enumerate(trees):
        ref = reference_f_tau(exprs, symbols, f.trees[0])
        want = np.stack(
            [
                np.broadcast_to(sympy.lambdify(symbols, e)(u[:, 0], u[:, 1]), len(u))
                for e in ref
            ],
            axis=-1,
        )
        scale = np.abs(want).max()
        assert np.allclose(got[:, col], want, rtol=1e-12, atol=1e-12 * scale), f.key


def test_vector_field_family_validation():
    with pytest.raises(ValueError):
        VectorFieldFamily.from_expressions([], ("y1",))
    with pytest.raises(ValueError):
        VectorFieldFamily.from_expressions([("y1", "y2")], ("y1",))
    # the stacked outputs match in number, not per field
    with pytest.raises(ValueError):
        VectorFieldFamily.from_expressions([("y1", "y2", "y1"), ("y2",)], ("y1", "y2"))
    a = SmoothFunctionWithDerivatives.from_expressions(("y1", "y1**2"), ("y1",))
    with pytest.raises(ValueError):
        VectorFieldFamily(stacked=a, d=3)
    assert VectorFieldFamily(stacked=a, d=2).n == 1


# ---------------------------------------------------------------------------
# Rough integrals
# ---------------------------------------------------------------------------


def test_rough_integral_exact_for_linear_integrand():
    # geometric X = t: per-cell sums carry u·h + h²/2, summing to 1/2 exactly
    x = canonical_x(cells=256)
    func = SmoothFunctionWithDerivatives.from_expressions(("x1",), ("x1",))
    z = compose_FX(x, func, x.N - 1)
    for stride in (1, 8):
        total = rough_integral(z, x, 1, stride).sum()
        assert total == pytest.approx(0.5, abs=1e-12)


def test_rough_integral_sees_tree_corrections():
    # with rate -1/2 on [•1]1 the first-derivative term removes λ exactly:
    # ∫x d(x-part) + ∫1 dλ = 1/2 - 1/2 = 0
    x = canonical_x(cells=256, lam=-0.5)
    func = SmoothFunctionWithDerivatives.from_expressions(("x1",), ("x1",))
    z = compose_FX(x, func, x.N - 1)
    assert rough_integral(z, x, 1).sum() == pytest.approx(0.0, abs=1e-12)


def test_rough_integral_pinned_quadratic_limit():
    # F = x² against the compensated driver: limit is 1/3 - 1/2 = -1/6,
    # approached at first order in the mesh
    vals = []
    for cells in (256, 1024):
        x = canonical_x(cells=cells, lam=-0.5)
        func = SmoothFunctionWithDerivatives.from_expressions(("x1**2",), ("x1",))
        z = compose_FX(x, func, x.N - 1)
        vals.append(float(rough_integral(z, x, 1).sum()))
    err = [abs(v + 1.0 / 6.0) for v in vals]
    assert err[1] < 1e-3
    assert err[0] / err[1] > 3.0  # one order per 4x refinement


def test_rough_integral_budget_drops_heavy_coefficients():
    # bracket letters have weight two, so only the weight-zero coefficient
    # pairs against them at N=2
    xhat = bracket_extension(canonical_driver(cells=64, lam=-0.5))
    func = SmoothFunctionWithDerivatives.from_expressions(("x1**2",), ("x1",))
    z = compose_FX(xhat, func, 0)
    got = rough_integral(z, xhat, (1, 1)).sum()
    u = xhat.base_values.T[:-1, 0]
    col = xhat.algebra.basis.index[single((1, 1))]
    want = (u**2 * xhat.levels[0][:, col]).sum()
    assert got == pytest.approx(float(want), abs=1e-14)


def test_rough_integral_rejects_unknown_graft():
    x = canonical_x(cells=64)
    func = SmoothFunctionWithDerivatives.from_expressions(("x1",), ("x1",))
    z = compose_FX(x, func, x.N - 1)
    with pytest.raises(ValueError):
        rough_integral(z, x, 2)


# ---------------------------------------------------------------------------
# Young integrals
# ---------------------------------------------------------------------------


def test_young_integral_left_point_sums():
    t = np.linspace(0.0, 1.0, 257)
    g = t
    dw = np.diff(t**2)
    total = young_integral(g, dw).sum()
    assert abs(total - 2.0 / 3.0) < 0.01


def test_young_integral_shape_validation():
    with pytest.raises(ValueError):
        young_integral(np.zeros(5), np.zeros(5))


# ---------------------------------------------------------------------------
# Tree-Euler solver
# ---------------------------------------------------------------------------


def test_solve_rde_exponential():
    x = canonical_x(cells=1024)
    y = solve_rde(x, scalar_fields("y1"), [1.0])
    got = y.coeffs[EMPTY][:, 0]
    want = np.exp(x.grid)
    assert np.max(np.abs(got - want)) < 1e-5
    # first-order coefficient carries f(Y)
    assert np.allclose(y.coeffs[single(1)][:, 0], got, atol=1e-12)
    assert y.order == x.N - 1


def test_solve_rde_rotation():
    fields = VectorFieldFamily.from_expressions(
        [("-y2", "y1")], ("y1", "y2")
    )
    x = canonical_x(cells=512)
    y = solve_rde(x, fields, [1.0, 0.0])
    got = y.coeffs[EMPTY]
    want = np.stack([np.cos(x.grid), np.sin(x.grid)], axis=-1)
    assert np.max(np.abs(got - want)) < 1e-6


def test_solve_rde_diverges_for_blowup():
    x = canonical_x(cells=256)
    with pytest.raises(DivergenceError, match="trust region"):
        solve_rde(x, scalar_fields("y1**2"), [5.0])


def test_solve_rde_dimension_mismatch():
    x = canonical_x(cells=64)
    fields = VectorFieldFamily.from_expressions(
        [("y1",), ("y1",)], ("y1",)
    )
    with pytest.raises(ValueError):
        solve_rde(x, fields, [1.0])


def cell_recursion(x, fields, xi):
    """``Y_{k+1} = Y_k + Σ_τ ⟨X_{cell k}, τ⟩ f_τ(Y_k)``, one cell at a time,
    up to the first state outside the trust region."""
    basis = x.algebra.basis
    trees = [f for f in basis.forests if len(f.trees) == 1]
    f_taus = elementary_differentials(trees, fields.d)
    cells = x.levels[0][:, [basis.index[f] for f in trees]]
    y = np.empty((len(x.grid), fields.n))
    y[0] = xi
    with np.errstate(all="ignore"):
        for k in range(x.cells):
            ft = f_taus(fields.tensors(y[k : k + 1], x.N - 1))[0]
            y[k + 1] = y[k] + cells[k] @ ft
            if not np.all(np.abs(y[k + 1]) <= 1e6):
                return y[: k + 2]
    return y


def d2_x(base, N=3, cells=1024, intensities=()):
    return lift(
        DriverSpec(
            d=2, base=base, intensities=intensities, cells=cells, substeps=2,
            N=N, alpha=0.45 if N == 2 else 0.30,
        )
    )


def fields_of(*rows):
    n = len(rows[0])
    return VectorFieldFamily.from_expressions(rows, tuple(f"y{a + 1}" for a in range(n)))


D2N3_FIELDS = (("1 + 0.2*y2**2", "0.3*y1"), ("0.25", "1 - y2/4"))
TRIG_POLY = (
    TrigSignal(((0.55, 2.0, 0.4), (0.18, 5.0, 2.1))),
    PolySignal((0.0, 0.7, -0.3)),
)
ROUGH = tuple(SpectralSignal(hurst=0.3, modes=256, seed=s) for s in (3, 4))

SWEEP_CASES = {
    "d1-n2": lambda: (canonical_x(N=2, lam=0.3), fields_of(("0.5 + sin(2*y1)",)), [0.3]),
    "d1-n3": lambda: (canonical_x(N=3, lam=0.3), fields_of(("0.5 + sin(2*y1)",)), [0.3]),
    "general-d2n3": lambda: (
        d2_x(TRIG_POLY, intensities=((parse_forest("[•1]2"), PolySignal((0.0, 0.15))),)),
        fields_of(*D2N3_FIELDS),
        [0.2, -0.4],
    ),
    "cos-exp": lambda: (canonical_x(N=3), fields_of(("cos(y1) + exp(y1/3)",)), [0.1]),
    # two states: each column reaches the compiled functions as a strided view
    "d2-sin-exp": lambda: (
        d2_x(TRIG_POLY),
        fields_of(("sin(y2)", "cos(y1)"), ("exp(-y1*y2)", "0.3*sin(y1 + y2)")),
        [0.2, -0.4],
    ),
    "constant": lambda: (d2_x(TRIG_POLY, N=2), fields_of(("0.25", "1"), ("-0.5", "0.75")), [1.0, 2.0]),
    "rough-d2": lambda: (d2_x(ROUGH), fields_of(*D2N3_FIELDS), [0.2, -0.4]),
}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_matches_cell_recursion(case):
    # every node of the windowed sweep is the recursion's, bit for bit, and
    # on the bracket extension, which the general verifier solves on, the
    # solution and its f_τ are those on the lift
    x, fields, xi = SWEEP_CASES[case]()
    y = solve_rde(x, fields, xi)
    assert np.array_equal(y.coeffs[EMPTY], cell_recursion(x, fields, xi))
    y_hat = solve_rde(bracket_extension(x.driver), fields, xi)
    assert list(y_hat.coeffs) == list(y.coeffs)
    for f, arr in y.coeffs.items():
        assert np.array_equal(y_hat.coeffs[f], arr), f.key


def test_sweep_evaluates_windows_not_cells(monkeypatch):
    # a smooth driver settles each window in a few sweeps, so the fields are
    # evaluated far fewer times than once per cell
    calls = []
    tensors = VectorFieldFamily.tensors
    monkeypatch.setattr(
        VectorFieldFamily,
        "tensors",
        lambda self, u, order: calls.append(len(u)) or tensors(self, u, order),
    )
    x = canonical_x(N=3, cells=4096, lam=0.3)
    solve_rde(x, fields_of(("0.5 + sin(2*y1)",)), [0.3])
    assert len(calls) <= x.cells // 16
    # constant fields make every guess exact after one sweep over it, and the
    # next sweep confirms it: eight sweeps and the coefficients
    calls.clear()
    x, fields, xi = SWEEP_CASES["constant"]()
    solve_rde(x, fields, xi)
    assert len(calls) <= 9 and calls[-1] == len(x.grid)


@pytest.mark.parametrize("expr, xi", [("y1**2", 5.0), ("exp(y1)", 0.5)])
@pytest.mark.filterwarnings("error")
def test_divergence_keeps_its_step(expr, xi):
    # the error names the first node outside the trust region, as the cell
    # recursion finds it; overflowing guesses beyond it warn nothing
    x = canonical_x(cells=256)
    want = x.grid[len(cell_recursion(x, scalar_fields(expr), [xi])) - 1]
    assert want < x.grid[-1]
    with pytest.raises(DivergenceError, match=f"t={want:.6g}$"):
        solve_rde(x, scalar_fields(expr), [xi])


# ---------------------------------------------------------------------------
# Convergence reporting
# ---------------------------------------------------------------------------


def test_convergence_report_normal_case():
    scales = [0.1, 0.05, 0.025]
    values = [1.01, 1.0025, 1.000625]
    rep = ConvergenceReport.from_values(
        "probe", [4, 2, 1], scales, values, 1.0, tolerance=1e-2, threshold=1.5
    )
    assert rep.passed
    assert rep.slope == pytest.approx(2.0, abs=1e-6)
    d = rep.to_dict()
    assert d["slope"] == rep.slope
    assert d["slope_is_converged_sentinel"] is False


def test_convergence_report_sentinel_case():
    rep = ConvergenceReport.from_values(
        "probe", [2, 1], [0.1, 0.05], [1.0, 1.0], 1.0,
        tolerance=1e-10, threshold=0.5,
    )
    assert rep.passed
    d = rep.to_dict()
    assert d["slope"] is None
    assert d["slope_is_converged_sentinel"] is True
    import json

    json.dumps(d)  # payload stays JSON-serializable
