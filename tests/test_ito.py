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
import sys

import numpy as np
import pytest
import sympy

from reference import ScalarExtensionPath

from planarough import controlled, ito_verify, taylor
from planarough.calculus import (
    VectorFieldFamily,
    elementary_differentials,
    rough_integral,
    solve_rde,
    young_integral,
)
from planarough.controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    compose_FY,
    jets,
)
from planarough.forest_core import EMPTY, forest, parse_forest
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


class SympyCalculus:
    """``F`` and the fields ``f_l`` on ``n`` states as sympy expressions:
    elementary differentials, integrands and their derivatives composed by
    sympy, the tests' independent reference for what the verifier reads off
    ``F(Y)``."""

    def __init__(self, f_exprs, F_expr):
        self.variables = tuple(f"y{a + 1}" for a in range(len(f_exprs[0])))
        self.y = sympy.symbols(self.variables, real=True)
        local = dict(zip(self.variables, self.y))
        self.F = sympy.sympify(F_expr, locals=local)
        self.f = [[sympy.sympify(e, locals=local) for e in row] for row in f_exprs]

    def D(self, g, directions):
        """``D^m g:(v1, …, vm)`` for directions given as expression lists."""
        if not directions:
            return g
        return sum(
            g.diff(*(self.y[a] for a in multi))
            * sympy.Mul(*(v[a] for v, a in zip(directions, multi)))
            for multi in itertools.product(range(len(self.y)), repeat=len(directions))
        )

    def f_tau(self, t):
        """``f_{[τ1…τm]i} = D^m f_i:(f_τ1, …, f_τm)``."""
        kids = [self.f_tau(k) for k in t.children]
        return [self.D(c, kids) for c in self.f[t.letter - 1]]

    def integrand(self, sigma):
        """``G_σ = D^kF:(f_σ1, …, f_σk)`` for the trees ``σ1 … σk`` of σ."""
        return self.D(self.F, [self.f_tau(t) for t in sigma.trees])

    def coefficient(self, sigma, tau):
        """``⟨τ, G_σ(Y)⟩ = D^m G_σ:(f_τ1, …, f_τm)``."""
        return self.D(self.integrand(sigma), [self.f_tau(t) for t in tau.trees])


def word(*letters):
    """``•l1 … •lk``."""
    return parse_forest("".join(f"•{l}" for l in letters))


def mixed_word(i, j, k):
    """``•i [•k]j``, the word of the ``c̄X`` integrand ``D²F:(f_i, Df_j:f_k)``."""
    return parse_forest(f"•{i}[•{k}]{j}")


def preorder(f):
    """The letters of a forest in preorder: ``(i, j, k)`` for ``•i[•k]j``."""
    return [l for t in f.trees for l in (t.letter, *preorder(forest(t.children)))]


D2N3_FIELDS = [("1 + 0.2*y2**2", "0.3*y1"), ("0.25", "1 - y2/4")]
D2N3_F = "sin(y1) + 0.3*y1*y2"


def test_term_pairings_match_the_integrators(monkeypatch):
    # every term is one pairing of X̂'s cell characters with a node
    # functional read off F(Y); on every rung of a d = 2, N = 3 general
    # experiment it must equal the library's integrators: Σ_l rough_integral
    # of compose_FY of the integrand G_σ (composed by sympy, compiled by the
    # library), against X for letters i and X̂ for bracket letters (i, j),
    # and Σ young_integral of G_σ against the scalar extension paths.  The
    # [•2•1]1 intensity makes c̄X non-trivial, and the [•1]2 intensity only
    # X̂^(21); each integrand is weighted by its letters so that no term is
    # symmetric in them, and a pairing at the column of (j, i) for (i, j) fails.
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
    fields = VectorFieldFamily.from_expressions(D2N3_FIELDS, ("y1", "y2"))
    func = sfunc(D2N3_F, ("y1", "y2"))
    w = {k: np.arange(1.0, 2**k + 1).reshape((2,) * k) for k in (1, 2, 3)}

    def weight(sigma):
        letters = np.array(preorder(sigma)) - 1
        return w[len(letters)][tuple(letters)]

    read = ito_verify.read

    def weighted(W, sigmas):
        return {key: phi * weight(sigmas[key[1]]) for key, phi in read(W, sigmas).items()}

    monkeypatch.setattr(ito_verify, "read", weighted)
    rep = verify_general(driver, fields, func, [0.1, -0.2], rungs=4)
    x, xhat = lift(driver), bracket_extension(driver)
    y = solve_rde(x, fields, [0.1, -0.2])
    sym = SympyCalculus(D2N3_FIELDS, D2N3_F)

    def G(sigma):  # the library compiles sympy's integrand
        return sfunc(str(sym.integrand(sigma)), sym.variables)

    def rough(sigma, path, letter, stride):
        order = 3 - len(sigma.trees)
        z = compose_FY(y, jets(G(sigma), y, order), order)
        return weight(sigma) * rough_integral(z, path, letter, stride).sum()

    def young(word, series, stride):
        return sum(
            young_integral(
                weight(word(*ijk)) * G(word(*ijk)).value(y.coeffs[EMPTY])[::stride, 0],
                ScalarExtensionPath(xhat, series(*ijk)).cell_increments(stride),
            ).sum()
            for ijk in itertools.product((1, 2), repeat=3)
        )

    pairs = list(itertools.product((1, 2), repeat=2))
    want = {
        "rough_first_order": lambda s: sum(rough(word(i), x, i, s) for i in (1, 2)),
        "bracket_second_order": lambda s: sum(rough(word(*ij), xhat, ij, s) for ij in pairs),
        "tilde_third_order": lambda s: young(word, tilde_series, s),
        "cbar_mixed_order": lambda s: young(mixed_word, cbar_series, s),
    }
    assert rep.strides == [8, 4, 2, 1] and list(rep.terms) == list(want)
    for name, total in want.items():
        ref = [total(s) for s in rep.strides]
        assert np.allclose(rep.terms[name], ref, rtol=1e-13, atol=0), name


# ---------------------------------------------------------------------------
# Integrand coefficients and the compile budget
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
    """Every coefficient ``⟨τ, Z^σ⟩`` that the general verifier pairs at
    d = 2, N = 3, for two fields on ``n`` states at random states, against
    sympy's ``D^m G_σ:(f_τ1, …, f_τm)``.  ``Y`` carries the library's
    ``f_τ`` at the states, as ``solve_rde`` returns them, and the verifier
    reads ``Z^σ`` off the one composition ``F(Y)``."""
    sym = SympyCalculus(f_exprs, F_expr)
    fields = VectorFieldFamily.from_expressions(f_exprs, sym.variables)
    func = sfunc(F_expr, sym.variables)
    xhat = bracket_extension(trig_driver(N=3, cells=8, substeps=1))
    basis = xhat.algebra.basis
    u = np.random.default_rng(10).uniform(-1.2, 1.2, (len(xhat.grid), len(sym.y)))
    trees = [f for f in basis.forests if len(f.trees) == 1 and f.weight == f.degree]
    values = elementary_differentials(trees, 2)(fields.stacked.tensors(u, 2))
    coeffs = {EMPTY: u} | dict(zip(trees, np.moveaxis(values, -2, 0)))
    y = ControlledPath(x=xhat, order=3, coeffs=coeffs, n_out=len(sym.y))
    W = compose_FY(y, jets(func, y, 3), 3)

    def check(got, expr, what):
        want = np.broadcast_to(sympy.lambdify(sym.y, expr)(*u.T), len(u))
        scale = np.abs(want).max()
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale), what

    # the rough integrands of the letters i and (i, j), then the Young ones:
    # D³F:(f_i, f_j, f_k) and the c̄X integrand D²F:(f_i, Df_j:f_k)
    triples = list(itertools.product((1, 2), repeat=3))
    sigmas = [word(l) for l in (1, 2)]
    sigmas += [word(*ij) for ij in itertools.product((1, 2), repeat=2)]
    sigmas += [word(*ijk) for ijk in triples]
    sigmas += [mixed_word(*ijk) for ijk in triples]
    read = ito_verify.read(W, sigmas)
    base = [f for f in basis.forests if all(type(t.letter) is int for t in f.trees)]
    checked = 0
    for k, sigma in enumerate(sigmas):
        for tau in base:
            if tau.weight + sigma.weight <= 3:
                got = read.get((basis.index[tau], k), np.zeros(len(u)))
                check(got, sym.coefficient(sigma, tau), (sigma.key, tau.key))
                checked += 1
    assert checked == 2 * 11 + 4 * 3 + 16
    # the verifier's own Young integrands are these, and the c̄X one is
    # D²F:(f_i, Df_j:f_k) with Df_j:f_k a fixed direction
    f, n = sym.f, len(sym.y)
    for k, ijk in enumerate(triples):
        assert ito_verify.word(*ijk) is sigmas[6 + k]
        assert ito_verify.mixed_word(*ijk) is sigmas[14 + k]
        i, j, l = ijk
        dfjk = [sym.D(f[j - 1][b], [f[l - 1]]) for b in range(n)]
        expr = sym.D(sym.F, [f[i - 1], dfjk])
        check(read[basis.index[EMPTY], 14 + k], expr, ijk)


def test_general_jets_match_sympy_reference():
    # every integrand of the general identity at d = 2, N = 3 and each of
    # its controlled coefficients that the verifier pairs, read off F(Y),
    # against sympy composing and differentiating the expressions (so the
    # coproduct rule is checked against sympy's chain rule), on two states
    # and on three
    for f_exprs, F_expr in GENERAL_JET_FAMILIES:
        general_jets_against_sympy(f_exprs, F_expr)


@pytest.mark.parametrize("N", [2, 3])
def test_compile_budget(monkeypatch, N):
    # one parse per user expression, on construction (F and the four stacked
    # field components); verifying parses nothing: every derivative order is
    # a Taylor evaluation and every integrand a numeric contraction.  Every
    # term reads its integrands off one composition F(Y) at order N, and
    # solve_rde's f_τ runs the word program without calling compose_FY,
    # which a trace wraps in every module that binds it
    calls, composed = [], []
    parse, compose = taylor.parse_expression, ito_verify.compose_FY
    monkeypatch.setattr(
        taylor, "parse_expression", lambda *a: calls.append(a[0]) or parse(*a)
    )
    counted = lambda *a: composed.append(a[2]) or compose(*a)  # noqa: E731
    for name, module in list(sys.modules.items()):
        if name.startswith("planarough") and vars(module).get("compose_FY") is compose:
            monkeypatch.setattr(module, "compose_FY", counted)
    assert controlled.compose_FY is counted
    driver = trig_driver(N=N, cells=64)
    fields = VectorFieldFamily.from_expressions(
        [("1 + 0.2*y2**2", "0.3*y1"), ("0.25", "1 - y2/4")], ("y1", "y2")
    )
    func = sfunc("sin(y1) + 0.3*y1*y2", ("y1", "y2"))
    assert len(calls) == 5
    verify_general(driver, fields, func, [0.1, -0.2], rungs=2)
    assert composed == [N]
    func = sfunc("sin(x1)*x2 + x2**3/3", ("x1", "x2"))
    assert len(calls) == 6
    verify_simple(driver, func, rungs=2)
    assert len(calls) == 6
    assert composed == [N, N]


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
