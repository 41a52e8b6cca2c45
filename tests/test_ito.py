"""The four change-of-variable verifiers on fast instances.

RESOLUTION NOTE: at truncation 2 a nonzero tree intensity sets an O(mesh)
floor under the identity residual for generic integrands (the step-two local
error picks up δx·δλ cross terms, and the left-point pairing against the
O(mesh) bracket increment does the same on the sum side).  The residual gate
is therefore reached at truncation 2 either with quadratic observables /
constant fields (exact) or with geometric drivers (second order); the
intensity-driven instance below is kept as a slope-only specimen, asserting
the documented behavior rather than hiding it.
"""

import json

import numpy as np
import pytest

from planarough import ito_verify
from planarough.calculus import VectorFieldFamily
from planarough.controlled import SmoothFunctionWithDerivatives
from planarough.forest_core import parse_forest
from planarough.ito_verify import verify_general, verify_simple
from planarough.rough_path import ConfigError, DriverSpec, PolySignal, TrigSignal, lift


def sfunc(expr, variables=("x1",)):
    return SmoothFunctionWithDerivatives.from_expressions((expr,), variables)


def analytic_x(cells=256, substeps=8):
    return lift(
        DriverSpec(
            d=1,
            base=(PolySignal((0.0, 1.0)),),
            intensities=((parse_forest("[•1]1"), PolySignal((0.0, -0.5))),),
            cells=cells,
            substeps=substeps,
            N=2,
            alpha=0.45,
        )
    )


def trig_x(N=2, cells=512, substeps=4, intensity=True):
    intensities = ()
    if intensity:
        intensities = (
            (parse_forest("[•1]2"), PolySignal((0.0, 0.4, -0.3))),
            (parse_forest("[•2]1"), TrigSignal(((0.2, 4.0, 0.5),))),
        )
    return lift(
        DriverSpec(
            d=2,
            base=(
                TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8))),
                TrigSignal(((0.7, 3.0, 1.2),)),
            ),
            intensities=intensities,
            cells=cells,
            substeps=substeps,
            N=N,
            alpha=0.45 if N == 2 else 0.30,
        )
    )


# ---------------------------------------------------------------------------
# Simple observable F(driver)
# ---------------------------------------------------------------------------


def test_simple_n2_analytic_is_exact():
    rep = verify_simple(analytic_x(), sfunc("x1**2"), tolerance=1e-6)
    assert rep.theorem == "simple-n2"
    assert rep.lhs == pytest.approx(1.0, abs=1e-15)
    assert set(rep.terms) == {"rough_first_order", "bracket_second_order"}
    # dyadic grid and half-integer rates make every rung exact in doubles
    assert rep.finest_residual == 0.0
    assert max(rep.residuals) == 0.0
    assert rep.terms["rough_first_order"][-1] == pytest.approx(0.0, abs=1e-12)
    assert rep.terms["bracket_second_order"][-1] == pytest.approx(1.0, abs=1e-12)
    assert rep.passed and rep.passed_residual and rep.passed_order
    d = rep.to_dict()
    assert d["slope"] is None and d["slope_is_converged_sentinel"] is True
    json.dumps(d)


def test_simple_n2_linear_observable_trivial():
    rep = verify_simple(analytic_x(cells=128), sfunc("x1"), tolerance=1e-12)
    assert rep.finest_residual < 1e-14
    assert rep.terms["bracket_second_order"][-1] == 0.0


def test_simple_n2_quadratic_trig_exact():
    rep = verify_simple(
        trig_x(),
        sfunc("x1*x2 + 0.3*x1**2 - 0.5*x2", ("x1", "x2")),
        tolerance=1e-6,
    )
    assert rep.finest_residual < 1e-12
    assert rep.passed


def test_simple_n3_quartic_converges():
    x = lift(
        DriverSpec(
            d=1,
            base=(PolySignal((0.0, 1.0, 0.5)),),
            intensities=(
                (parse_forest("[•1]1"), PolySignal((0.0, 0.3, -0.2))),
                (parse_forest("[[•1]1]1"), PolySignal((0.0, -0.1, 0.0, 0.2))),
                (parse_forest("[•1•1]1"), PolySignal((0.0, 0.2, 0.1))),
            ),
            cells=512,
            substeps=2,
            N=3,
            alpha=0.30,
        )
    )
    rep = verify_simple(x, sfunc("x1**4 - x1**2"), tolerance=1e-5)
    assert rep.theorem == "simple-n3"
    assert set(rep.terms) == {
        "rough_first_order",
        "bracket_second_order",
        "tilde_third_order",
    }
    assert rep.finest_residual < 1e-5
    assert rep.passed


def test_simple_exchange_of_letters_is_a_symmetry():
    # relabeling the two driver letters and the observable's variables in
    # the same way must reproduce the residual ladder
    base = (
        TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8))),
        TrigSignal(((0.7, 3.0, 1.2),)),
    )
    lam = PolySignal((0.0, 0.4, -0.3))
    mu = TrigSignal(((0.2, 4.0, 0.5),))
    x = lift(
        DriverSpec(
            d=2,
            base=base,
            intensities=(
                (parse_forest("[•1]2"), lam),
                (parse_forest("[•2]1"), mu),
            ),
            cells=256,
            substeps=4,
        )
    )
    x_swapped = lift(
        DriverSpec(
            d=2,
            base=(base[1], base[0]),
            intensities=(
                (parse_forest("[•2]1"), lam),
                (parse_forest("[•1]2"), mu),
            ),
            cells=256,
            substeps=4,
        )
    )
    f = sfunc("sin(x1) + x1*x2**2", ("x1", "x2"))
    f_swapped = sfunc("sin(x2) + x2*x1**2", ("x1", "x2"))
    a = verify_simple(x, f)
    b = verify_simple(x_swapped, f_swapped)
    assert np.allclose(a.residuals, b.residuals, atol=1e-12)
    assert np.allclose(a.rhs, b.rhs, atol=1e-12)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-14)


# ---------------------------------------------------------------------------
# General observable F(solution)
# ---------------------------------------------------------------------------


def test_general_n2_geometric_converges():
    x = lift(
        DriverSpec(
            d=1,
            base=(TrigSignal(((0.8, 2.0, 0.3), (0.25, 5.0, 1.1))),),
            cells=1024,
            substeps=8,
        )
    )
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))
    rep = verify_general(x, fields, sfunc("y1**2", ("y1",)), [1.0])
    assert rep.theorem == "general-n2"
    assert rep.finest_residual < 1e-5
    assert rep.slope >= rep.order_threshold
    assert rep.passed


def test_general_n2_constant_fields_exact_with_intensity():
    fields = VectorFieldFamily.from_expressions(
        [("1.0", "-0.2"), ("0.3", "0.8")], ("y1", "y2")
    )
    rep = verify_general(
        trig_x(cells=256),
        fields,
        sfunc("y1*y2 - 0.5*y1**2 + y2", ("y1", "y2")),
        [0.0, 0.0],
        tolerance=1e-6,
    )
    assert rep.finest_residual < 1e-12
    assert rep.passed


def test_general_n2_intensity_floor_is_slope_only():
    # the documented mesh floor: nonconstant second derivative against a
    # tree intensity leaves an O(mesh) residual at truncation 2, so the
    # verdict fails the residual gate while converging at order ≥ 1
    x = lift(
        DriverSpec(
            d=1,
            base=(TrigSignal(((0.8, 2.0, 0.3),)),),
            intensities=((parse_forest("[•1]1"), PolySignal((0.0, 0.5))),),
            cells=512,
            substeps=4,
        )
    )
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))
    rep = verify_general(x, fields, sfunc("y1**2", ("y1",)), [1.0])
    assert rep.finest_residual > 1e-4
    assert not rep.passed_residual
    assert rep.slope >= max(rep.order_threshold, 0.8)
    assert not rep.passed


def test_general_n3_nonlinear_converges():
    x = lift(
        DriverSpec(
            d=1,
            base=(TrigSignal(((0.7, 2.0, 0.3), (0.2, 5.0, 1.1))),),
            intensities=((parse_forest("[•1]1"), PolySignal((0.0, 0.25))),),
            cells=1024,
            substeps=2,
            N=3,
            alpha=0.30,
        )
    )
    fields = VectorFieldFamily.from_expressions([("1 + y1**2/4",)], ("y1",))
    rep = verify_general(x, fields, sfunc("y1**3", ("y1",)), [0.1])
    assert rep.theorem == "general-n3"
    assert set(rep.terms) == {
        "rough_first_order",
        "bracket_second_order",
        "tilde_third_order",
        "cbar_mixed_order",
    }
    assert rep.finest_residual < 1e-5
    assert rep.passed


# ---------------------------------------------------------------------------
# Interface contracts
# ---------------------------------------------------------------------------


def test_observable_must_be_scalar():
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("x1", "x1**2"), ("x1",)
    )
    with pytest.raises(ConfigError):
        verify_simple(analytic_x(cells=64), func)


def test_general_requires_shared_symbols():
    x = analytic_x(cells=64)
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))
    with pytest.raises(ConfigError):
        verify_general(x, fields, sfunc("z1**2", ("z1",)), [1.0])


def test_wrong_arity_fails_before_the_extension(monkeypatch):
    built = []
    extend = ito_verify.bracket_extension
    monkeypatch.setattr(
        ito_verify, "bracket_extension", lambda x: built.append(x) or extend(x)
    )
    x = analytic_x(cells=64)
    with pytest.raises(ConfigError, match="F takes 2 variables"):
        verify_simple(x, sfunc("x1*x2", ("x1", "x2")))
    assert built == []
    verify_simple(x, sfunc("x1**2"), rungs=2)  # the counter counts
    assert built == [x]


def test_report_dict_shape():
    rep = verify_simple(analytic_x(cells=64), sfunc("x1**2"), rungs=4)
    d = rep.to_dict()
    assert set(d) == {
        "name", "theorem", "truncation", "alpha", "lhs", "strides",
        "scales", "terms", "rhs", "residuals", "finest_residual", "slope",
        "slope_is_converged_sentinel", "tolerance", "order_threshold",
        "passed_residual", "passed_order", "passed",
    }
    assert d["strides"] == [8, 4, 2, 1]
    assert len(d["rhs"]) == 4
    json.dumps(d)
