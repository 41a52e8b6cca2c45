"""Elementary differentials, integrals, and the tree-Euler solver."""

import warnings

import numpy as np
import pytest
import sympy

from planarough.calculus import (
    ConvergenceReport,
    DivergenceError,
    VectorFieldFamily,
    f_tau,
    holder_exponent,
    rough_integral,
    solve_rde,
    young_integral,
)
from planarough.controlled import SmoothFunctionWithDerivatives, compose_FX
from planarough.forest_core import EMPTY, parse_forest, single
from planarough.rough_path import (
    DriverSpec,
    PolySignal,
    SpectralSignal,
    bracket_extension,
    lift,
)


def scalar_fields(expr="y1"):
    return VectorFieldFamily.from_expressions([(expr,)], ("y1",))


def canonical_x(N=2, cells=1024, substeps=1, lam=0.0):
    intensities = ()
    if lam:
        intensities = ((parse_forest("[•1]1"), PolySignal((0.0, lam))),)
    return lift(
        DriverSpec(
            d=1,
            base=(PolySignal((0.0, 1.0)),),
            intensities=intensities,
            cells=cells,
            substeps=substeps,
            N=N,
            alpha=0.45 if N == 2 else 0.30,
        )
    )


# ---------------------------------------------------------------------------
# Elementary differentials
# ---------------------------------------------------------------------------


def test_f_tau_scalar_hand_values():
    fields = scalar_fields("y1**2")
    y = fields.symbols[0]
    cases = {
        "•1": y**2,
        "[•1]1": 2 * y**3,  # Df:(f)
        "[•1•1]1": 2 * y**4,  # D²f:(f,f)
        "[[•1]1]1": 4 * y**4,  # Df:(Df:(f))
    }
    for key, want in cases.items():
        got = f_tau(fields, parse_forest(key)).exprs[0]
        assert sympy.expand(got - want) == 0, key


def test_f_tau_planar_order_matters():
    # [•1•2]1 contracts D²f1:(f1, f2); with f1 = (y2, 0), f2 = (0, y1) the
    # first-order trees already distinguish the two grafting orders
    fields = VectorFieldFamily.from_expressions(
        [("y2", "0"), ("0", "y1")], ("y1", "y2")
    )
    y1, y2 = fields.symbols
    got12 = f_tau(fields, parse_forest("[•1]2")).exprs
    got21 = f_tau(fields, parse_forest("[•2]1")).exprs
    assert got12 == (sympy.Integer(0), y2)
    assert got21 == (y1, sympy.Integer(0))
    # quadratic second derivative vanishes for linear fields
    assert f_tau(fields, parse_forest("[•1•2]1")).exprs == (
        sympy.Integer(0),
        sympy.Integer(0),
    )


def test_f_tau_validation():
    fields = scalar_fields()
    with pytest.raises(ValueError):
        f_tau(fields, parse_forest("•1•1"))
    with pytest.raises(ValueError):
        f_tau(fields, parse_forest("•(11)"))
    with pytest.raises(ValueError):
        f_tau(fields, parse_forest("•2"))


def test_vector_field_family_validation():
    with pytest.raises(ValueError):
        VectorFieldFamily(fields=())
    with pytest.raises(ValueError):
        VectorFieldFamily.from_expressions([("y1", "y2")], ("y1",))
    a = SmoothFunctionWithDerivatives.from_expressions(("y1",), ("y1",))
    b = SmoothFunctionWithDerivatives.from_expressions(("z1",), ("z1",))
    with pytest.raises(ValueError):
        VectorFieldFamily(fields=(a, b))


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
    xhat = bracket_extension(canonical_x(cells=64, lam=-0.5))
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


def test_young_precondition_warning_fires_for_rough_pair():
    t = np.linspace(0.0, 1.0, 513)
    g = SpectralSignal(hurst=0.4, modes=256, seed=3).value(t)
    w = SpectralSignal(hurst=0.45, modes=256, seed=4).value(t)
    with pytest.warns(UserWarning, match="Young precondition"):
        young_integral(g, np.diff(w))


def test_young_precondition_quiet_for_smooth_pair():
    t = np.linspace(0.0, 1.0, 257)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        young_integral(t, np.diff(t**2))


def test_holder_exponent_linear_path():
    t = np.linspace(0.0, 1.0, 257)
    assert holder_exponent(t) == pytest.approx(1.0, abs=1e-9)


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
