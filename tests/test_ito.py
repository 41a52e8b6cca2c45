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

import itertools
import json

import numpy as np
import pytest
import sympy

from reference import ScalarExtensionPath

from planarough import ito_verify, taylor
from planarough.calculus import (
    VectorFieldFamily,
    rough_integral,
    solve_rde,
    young_integral,
)
from planarough.controlled import SmoothFunctionWithDerivatives, compose_FY
from planarough.forest_core import EMPTY, parse_forest
from planarough.ito_verify import verify_general, verify_simple
from planarough.rough_path import (
    ConfigError,
    DriverSpec,
    PolySignal,
    TrigSignal,
    bracket_extension,
    cbar_series,
    lift,
    tilde_series,
)


def sfunc(expr, variables=("x1",)):
    return SmoothFunctionWithDerivatives.from_expressions((expr,), variables)


def analytic_driver(cells=256, substeps=8):
    return DriverSpec(
        d=1,
        base=(PolySignal((0.0, 1.0)),),
        intensities=((parse_forest("[•1]1"), PolySignal((0.0, -0.5))),),
        cells=cells,
        substeps=substeps,
        N=2,
        alpha=0.45,
    )


def trig_driver(N=2, cells=512, substeps=4, intensity=True):
    intensities = ()
    if intensity:
        intensities = (
            (parse_forest("[•1]2"), PolySignal((0.0, 0.4, -0.3))),
            (parse_forest("[•2]1"), TrigSignal(((0.2, 4.0, 0.5),))),
        )
    return DriverSpec(
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


# ---------------------------------------------------------------------------
# Simple observable F(driver)
# ---------------------------------------------------------------------------


def test_simple_n2_analytic_is_exact():
    rep = verify_simple(analytic_driver(), sfunc("x1**2"), tolerance=1e-6)
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
    rep = verify_simple(analytic_driver(cells=128), sfunc("x1"), tolerance=1e-12)
    assert rep.finest_residual < 1e-14
    assert rep.terms["bracket_second_order"][-1] == 0.0


def test_simple_n2_quadratic_trig_exact():
    rep = verify_simple(
        trig_driver(),
        sfunc("x1*x2 + 0.3*x1**2 - 0.5*x2", ("x1", "x2")),
        tolerance=1e-6,
    )
    assert rep.finest_residual < 1e-12
    assert rep.passed


def test_simple_n3_quartic_converges():
    driver = DriverSpec(
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
    rep = verify_simple(driver, sfunc("x1**4 - x1**2"), tolerance=1e-5)
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
    driver = DriverSpec(
        d=2,
        base=base,
        intensities=(
            (parse_forest("[•1]2"), lam),
            (parse_forest("[•2]1"), mu),
        ),
        cells=256,
        substeps=4,
    )
    driver_swapped = DriverSpec(
        d=2,
        base=(base[1], base[0]),
        intensities=(
            (parse_forest("[•2]1"), lam),
            (parse_forest("[•1]2"), mu),
        ),
        cells=256,
        substeps=4,
    )
    f = sfunc("sin(x1) + x1*x2**2", ("x1", "x2"))
    f_swapped = sfunc("sin(x2) + x2*x1**2", ("x1", "x2"))
    a = verify_simple(driver, f)
    b = verify_simple(driver_swapped, f_swapped)
    assert np.allclose(a.residuals, b.residuals, atol=1e-12)
    assert np.allclose(a.rhs, b.rhs, atol=1e-12)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-14)


# ---------------------------------------------------------------------------
# General observable F(solution)
# ---------------------------------------------------------------------------


def test_general_n2_geometric_converges():
    driver = DriverSpec(
        d=1,
        base=(TrigSignal(((0.8, 2.0, 0.3), (0.25, 5.0, 1.1))),),
        cells=1024,
        substeps=8,
    )
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))
    rep = verify_general(driver, fields, sfunc("y1**2", ("y1",)), [1.0])
    assert rep.theorem == "general-n2"
    assert rep.finest_residual < 1e-5
    assert rep.slope >= rep.order_threshold
    assert rep.passed


def test_general_n2_constant_fields_exact_with_intensity():
    fields = VectorFieldFamily.from_expressions(
        [("1.0", "-0.2"), ("0.3", "0.8")], ("y1", "y2")
    )
    rep = verify_general(
        trig_driver(cells=256),
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
    driver = DriverSpec(
        d=1,
        base=(TrigSignal(((0.8, 2.0, 0.3),)),),
        intensities=((parse_forest("[•1]1"), PolySignal((0.0, 0.5))),),
        cells=512,
        substeps=4,
    )
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))
    rep = verify_general(driver, fields, sfunc("y1**2", ("y1",)), [1.0])
    assert rep.finest_residual > 1e-4
    assert not rep.passed_residual
    assert rep.slope >= max(rep.order_threshold, 0.8)
    assert not rep.passed


def test_general_n3_nonlinear_converges():
    driver = DriverSpec(
        d=1,
        base=(TrigSignal(((0.7, 2.0, 0.3), (0.2, 5.0, 1.1))),),
        intensities=((parse_forest("[•1]1"), PolySignal((0.0, 0.25))),),
        cells=1024,
        substeps=2,
        N=3,
        alpha=0.30,
    )
    fields = VectorFieldFamily.from_expressions([("1 + y1**2/4",)], ("y1",))
    rep = verify_general(driver, fields, sfunc("y1**3", ("y1",)), [0.1])
    assert rep.theorem == "general-n3"
    assert set(rep.terms) == {
        "rough_first_order",
        "bracket_second_order",
        "tilde_third_order",
        "cbar_mixed_order",
    }
    assert rep.finest_residual < 1e-5
    assert rep.passed


def tree3_report(*intensities):
    """The general identity at d=2, N=3 on 128 cells, driven by the pinned
    trig + poly base of ``test_cli`` with the given ``(tree, slope)``
    intensities ``slope·t``, for ``F = sin(y1) + 0.3·y1·y2`` and non-linear
    fields."""
    driver = DriverSpec(
        d=2,
        base=(
            TrigSignal(((0.6, 2.0, 0.3), (0.2, 5.0, 1.1))),
            PolySignal((0.0, 0.7, -0.3)),
        ),
        intensities=tuple(
            (parse_forest(key), PolySignal((0.0, slope)))
            for key, slope in intensities
        ),
        cells=128,
        substeps=2,
        N=3,
        alpha=0.30,
    )
    fields = VectorFieldFamily.from_expressions(
        [("1 + 0.2*y2**2", "0.3*y1"), ("0.25", "1 - y2/4")], ("y1", "y2")
    )
    func = sfunc("sin(y1) + 0.3*y1*y2", ("y1", "y2"))
    return verify_general(driver, fields, func, [0.1, -0.2], rungs=4, tolerance=1e-3)


def test_general_n3_weight3_intensity_converges():
    # a weight-3 intensity pairs with the c̄X trees [•k•i]j: without them the
    # residual sat flat at 2.0e-2 on every rung; with them it falls on each
    rep = tree3_report(("[•2•1]1", 0.5))
    res = rep.residuals
    assert all(b < a for a, b in zip(res, res[1:])), res
    assert res[-1] < 5e-5
    assert rep.passed


def test_flat_geometry_is_planar_invariant():
    # on R^n with the flat connection f_[τ1…τm]i = D^m f_i:(f_τ1, …) is
    # symmetric in the branches, so the identity sees X only through its
    # symmetrised image: moving the intensity from [•2•1]1 to [•1•2]1, or
    # splitting it, changes no number beyond roundoff
    reports = [
        tree3_report(("[•2•1]1", 0.5)),
        tree3_report(("[•1•2]1", 0.5)),
        tree3_report(("[•2•1]1", 0.25), ("[•1•2]1", 0.25)),
    ]
    first = reports[0]
    for rep in reports[1:]:
        assert rep.lhs == pytest.approx(first.lhs, abs=1e-12)
        for name, totals in first.terms.items():
            assert np.allclose(rep.terms[name], totals, rtol=0, atol=1e-12), name
        assert np.allclose(rep.residuals, first.residuals, rtol=0, atol=1e-12)


def test_term_pairings_match_the_integrators(monkeypatch):
    # every term is one pairing of X̂'s cell characters with a node
    # functional; on every rung of a d = 2, N = 3 general experiment it must
    # equal the library's integrators: Σ_l rough_integral of a per-letter
    # compose_FY, against X for letters i and X̂ for bracket letters (i, j),
    # and Σ young_integral against the scalar extension paths.  The [•2•1]1
    # intensity makes c̄X non-trivial, and the [•1]2 intensity only X̂^(21);
    # each integrand is weighted by its letters so that no term is symmetric
    # in them, and a pairing at the column of (j, i) for (i, j) fails.
    driver = DriverSpec(
        d=2,
        base=(
            TrigSignal(((0.6, 2.0, 0.3), (0.2, 5.0, 1.1))),
            PolySignal((0.0, 0.7, -0.3)),
        ),
        intensities=(
            (parse_forest("[•1]2"), PolySignal((0.0, 0.2))),
            (parse_forest("[•2•1]1"), PolySignal((0.0, 0.5))),
        ),
        cells=64,
        substeps=2,
        N=3,
        alpha=0.30,
    )
    fields = VectorFieldFamily.from_expressions(
        [("1 + 0.2*y2**2", "0.3*y1"), ("0.25", "1 - y2/4")], ("y1", "y2")
    )
    func = sfunc("sin(y1) + 0.3*y1*y2", ("y1", "y2"))
    general_jets = ito_verify._general_jets

    def weighted(DF, ft):
        jets_of, mixed = general_jets(DF, ft)
        w = {k: np.arange(1.0, 2**k + 1).reshape((2,) * k) for k in (1, 2, 3)}
        for k, ts in jets_of.items():
            jets_of[k] = [t * w[k].reshape((2,) * k + (1,) * m) for m, t in enumerate(ts)]
        return jets_of, mixed * w[3]

    monkeypatch.setattr(ito_verify, "_general_jets", weighted)
    rep = verify_general(driver, fields, func, [0.1, -0.2], rungs=4)
    x, xhat = lift(driver), bracket_extension(driver)
    y = solve_rde(x, fields, [0.1, -0.2])
    DF = ito_verify._scalar_jets(func, y)
    jets_of, mixed = weighted(DF, fields.tensors(y.coeffs[EMPTY], 2))
    nodes = len(x.grid)

    def rough(k, path, letter, stride):
        at = (slice(None),) + tuple(np.atleast_1d(letter) - 1)
        z = compose_FY(y, [t[at].reshape(nodes, 1, -1) for t in jets_of[k]], 3 - k)
        return rough_integral(z, path, letter, stride).sum()

    def young(g, series, stride):
        return sum(
            young_integral(
                g[(slice(None),) + tuple(np.subtract(ijk, 1))][::stride],
                ScalarExtensionPath(xhat, series(*ijk)).cell_increments(stride),
            ).sum()
            for ijk in itertools.product((1, 2), repeat=3)
        )

    pairs = list(itertools.product((1, 2), repeat=2))
    want = {
        "rough_first_order": lambda s: sum(rough(1, x, i, s) for i in (1, 2)),
        "bracket_second_order": lambda s: sum(rough(2, xhat, ij, s) for ij in pairs),
        "tilde_third_order": lambda s: young(jets_of[3][0], tilde_series, s),
        "cbar_mixed_order": lambda s: young(mixed, cbar_series, s),
    }
    assert rep.strides == [8, 4, 2, 1] and list(rep.terms) == list(want)
    for name, total in want.items():
        ref = [total(s) for s in rep.strides]
        assert np.allclose(rep.terms[name], ref, rtol=1e-13, atol=0), name


# ---------------------------------------------------------------------------
# Numeric jets and the compile budget
# ---------------------------------------------------------------------------


GENERAL_JET_FAMILIES = [
    (
        [
            ("1 + 0.2*y2**2 + sin(y1)*y2", "0.3*y1*y2"),
            ("cos(y2) - y1**3/4", "1 - y2/4 + y1**2"),
        ],
        "sin(y1)*y2 + y1**3/3 + 0.3*y1*y2**2",
    ),
    # three states: every sum over a state axis adds three terms
    (
        [
            ("sin(y2)*y3 + 0.5", "0.3*y1*y3", "cos(y1) - y2**2/4"),
            ("exp(-y3/2)", "1 - y1*y2/4", "0.2*y3**2 + sin(y2)"),
        ],
        "sin(y1)*y3 + y2**3/3 + 0.3*y1*y2*y3",
    ),
]


def general_jets_against_sympy(f_exprs, F_expr):
    """Every jet and the ``c̄X`` integrand of two fields on ``n`` states,
    against sympy differentiating the composed expressions."""
    n = len(f_exprs[0])
    variables = tuple(f"y{a + 1}" for a in range(n))
    fields = VectorFieldFamily.from_expressions(f_exprs, variables)
    func = sfunc(F_expr, variables)
    y = sympy.symbols(variables, real=True)
    local = dict(zip(variables, y))
    F = sympy.sympify(F_expr, locals=local)
    f = [[sympy.sympify(e, locals=local) for e in row] for row in f_exprs]

    def D(e, l):  # De:f_l
        return sum(e.diff(y[a]) * f[l - 1][a] for a in range(n))

    u = np.random.default_rng(10).uniform(-1.2, 1.2, (6, n))
    DF = [func.tensor(u, m).reshape((len(u),) + (n,) * m) for m in range(4)]
    jets_of, mixed = ito_verify._general_jets(DF, fields.tensors(u, 2))

    def check(got, expr, what):
        want = np.broadcast_to(sympy.lambdify(y, expr)(*u.T), len(u))
        scale = np.abs(want).max()
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale), what

    for k in (1, 2, 3):
        for ls in itertools.product((1, 2), repeat=k):
            # the integrand D^kF:(f_l1, …, f_lk) as one expression in y
            g = sum(
                F.diff(*(y[a] for a in multi))
                * sympy.Mul(*(f[l - 1][a] for l, a in zip(ls, multi)))
                for multi in itertools.product(range(n), repeat=k)
            )
            for m, t in enumerate(jets_of[k]):
                for bs in itertools.product(range(n), repeat=m):
                    expr = g.diff(*(y[b] for b in bs)) if bs else g
                    at = (slice(None),) + tuple(l - 1 for l in ls) + bs
                    check(t[at], expr, (ls, bs))
    assert [len(jets_of[k]) for k in (1, 2, 3)] == [3, 2, 1]
    for i, j, k in itertools.product((1, 2), repeat=3):
        # D²F:(f_i, Df_j:f_k), with Df_j:f_k a fixed direction
        dfjk = [D(f[j - 1][b], k) for b in range(n)]
        expr = sum(
            F.diff(y[a], y[b]) * f[i - 1][a] * dfjk[b]
            for a in range(n)
            for b in range(n)
        )
        check(mixed[:, i - 1, j - 1, k - 1], expr, (i, j, k))


def test_general_jets_match_sympy_reference():
    # every integrand of the general identity at d = 2, N = 3 and each of its
    # derivatives that compose_FY takes, against sympy differentiating the
    # composed expressions (so the product rule is sympy's, not the library's),
    # on two states and on three
    for f_exprs, F_expr in GENERAL_JET_FAMILIES:
        general_jets_against_sympy(f_exprs, F_expr)


@pytest.mark.parametrize("N", [2, 3])
def test_compile_budget(monkeypatch, N):
    # one parse per user expression, on construction (F and the four stacked
    # field components); verifying parses nothing: every derivative order is
    # a Taylor evaluation and every integrand a numeric contraction.  The
    # rough terms compose the integrands of all letters at once: one
    # compose_FY call per order, two per verification
    calls, composed = [], []
    parse, compose = taylor.parse_expression, ito_verify.compose_FY
    monkeypatch.setattr(
        taylor, "parse_expression", lambda *a: calls.append(a[0]) or parse(*a)
    )
    monkeypatch.setattr(
        ito_verify, "compose_FY", lambda *a: composed.append(a[2]) or compose(*a)
    )
    driver = trig_driver(N=N, cells=64)
    fields = VectorFieldFamily.from_expressions(
        [("1 + 0.2*y2**2", "0.3*y1"), ("0.25", "1 - y2/4")], ("y1", "y2")
    )
    func = sfunc("sin(y1) + 0.3*y1*y2", ("y1", "y2"))
    assert len(calls) == 5
    verify_general(driver, fields, func, [0.1, -0.2], rungs=2)
    assert composed == [N - 1, N - 2]
    func = sfunc("sin(x1)*x2 + x2**3/3", ("x1", "x2"))
    assert len(calls) == 6
    verify_simple(driver, func, rungs=2)
    assert len(calls) == 6
    assert composed == [N - 1, N - 2] * 2


# ---------------------------------------------------------------------------
# Interface contracts
# ---------------------------------------------------------------------------


def test_observable_must_be_scalar():
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("x1", "x1**2"), ("x1",)
    )
    with pytest.raises(ConfigError):
        verify_simple(analytic_driver(cells=64), func)


def test_general_requires_shared_symbols():
    driver = analytic_driver(cells=64)
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))
    with pytest.raises(ConfigError):
        verify_general(driver, fields, sfunc("z1**2", ("z1",)), [1.0])


def test_wrong_arity_fails_before_the_extension(monkeypatch):
    built = []
    extend = ito_verify.bracket_extension
    monkeypatch.setattr(
        ito_verify, "bracket_extension", lambda d: built.append(d) or extend(d)
    )
    driver = analytic_driver(cells=64)
    with pytest.raises(ConfigError, match="F takes 2 variables"):
        verify_simple(driver, sfunc("x1*x2", ("x1", "x2")))
    assert built == []
    verify_simple(driver, sfunc("x1**2"), rungs=2)  # the counter counts
    assert built == [driver]


def test_report_dict_shape():
    rep = verify_simple(analytic_driver(cells=64), sfunc("x1**2"), rungs=4)
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
