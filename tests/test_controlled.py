"""Derivative tensors and controlled-coefficient constructions."""

import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from planarough.controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    _splittings,
    compose_FX,
    compose_FY,
    driver_path,
    jets,
)
from planarough.forest_core import EMPTY, forest, parse_forest, single, tree
from planarough.rough_path import DriverSpec, PolySignal, TrigSignal, lift


def example_func():
    return SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1*x2)", "x1**3 - x2"), ("x1", "x2")
    )


def trig_driver(N=2, cells=256):
    return DriverSpec(
        d=2,
        base=(
            TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8))),
            TrigSignal(((0.7, 3.0, 1.2),)),
        ),
        cells=cells,
        substeps=4,
        N=N,
        alpha=0.45 if N == 2 else 0.30,
    )


# ---------------------------------------------------------------------------
# Derivative tensors vs finite differences
# ---------------------------------------------------------------------------


def _fd_dir(func, u, v, eps=1e-6):
    return (func.value(u + eps * v) - func.value(u - eps * v)) / (2 * eps)


def test_first_derivative_matches_finite_differences():
    func = example_func()
    rng = np.random.default_rng(0)
    u = rng.standard_normal((5, 2))
    v = rng.standard_normal((5, 2))
    got = func.dm(u, (v,))
    assert np.allclose(got, _fd_dir(func, u, v), atol=1e-7)


def test_second_derivative_matches_finite_differences():
    func = example_func()
    rng = np.random.default_rng(1)
    u, v, w = rng.standard_normal((3, 4, 2))
    eps = 1e-5
    fd = (
        func.dm(u + eps * w, (v,)) - func.dm(u - eps * w, (v,))
    ) / (2 * eps)
    assert np.allclose(func.dm(u, (v, w)), fd, atol=1e-6)


def test_third_derivative_matches_finite_differences():
    func = example_func()
    rng = np.random.default_rng(2)
    u, v, w, z = rng.standard_normal((4, 3, 2))
    eps = 1e-4
    fd = (
        func.dm(u + eps * z, (v, w)) - func.dm(u - eps * z, (v, w))
    ) / (2 * eps)
    assert np.allclose(func.dm(u, (v, w, z)), fd, atol=5e-5)


def test_dm_is_symmetric_in_directions():
    func = example_func()
    rng = np.random.default_rng(3)
    u, v, w = rng.standard_normal((3, 6, 2))
    assert np.allclose(func.dm(u, (v, w)), func.dm(u, (w, v)), atol=1e-12)


def test_tensor_order_cap():
    func = example_func()
    with pytest.raises(ValueError):
        func.tensor(np.zeros((1, 2)), 4)


def test_each_order_compiles_once_on_first_use(monkeypatch):
    calls = []
    lambdify = sympy.lambdify

    def counted(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sympy, "lambdify", counted)
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1)*x2", "0.25"), ("x1", "x2")
    )
    assert len(calls) == 0
    u = np.array([[0.3, -1.2], [1.1, 0.4]])
    func.value(u)
    func.value(u)
    assert len(calls) == 1
    func.tensor(u, 2)
    func.tensor(u[0], 2)
    assert len(calls) == 2


def test_tensor_matches_per_component_reference():
    # a constant output, constant and zero derivatives: scalars broadcast
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1)*x2**2", "0.25", "x1**2 + exp(x2)"), ("x1", "x2")
    )
    rng = np.random.default_rng(6)
    u = rng.standard_normal((3, 4, 2))
    for m in range(4):
        want = np.empty(u.shape[:-1] + (func.n_out, 2**m))
        for i, e in enumerate(func.exprs):
            for flat, multi in enumerate(itertools.product(range(2), repeat=m)):
                de = e
                for a in multi:
                    de = de.diff(func.symbols[a])
                fn = sympy.lambdify(func.symbols, de, modules="numpy")
                want[..., i, flat] = fn(u[..., 0], u[..., 1])
        assert np.array_equal(func.tensor(u, m), want), m


@given(st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_dm_linear_in_each_direction(a):
    func = example_func()
    rng = np.random.default_rng(5)
    u, v, w = rng.standard_normal((3, 2, 2))
    lhs = func.dm(u, (a * v, w))
    rhs = a * func.dm(u, (v, w))
    assert np.allclose(lhs, rhs, atol=1e-10 * (1 + abs(a)))


def test_one_point_matches_many_points():
    # a single point takes the same path as many; the values agree bit for bit
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1*x2)", "x1**3 - x2", "0.25"), ("x1", "x2")
    )
    rng = np.random.default_rng(7)
    u = rng.standard_normal((5, 2))
    for m in range(4):
        many = func.tensor(u, m)
        for p in range(len(u)):
            assert np.array_equal(func.tensor(u[p], m), many[p])


# ---------------------------------------------------------------------------
# compose_FX
# ---------------------------------------------------------------------------


def test_compose_FX_product_function_structure():
    x = lift(trig_driver())
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("x1*x2",), ("x1", "x2")
    )
    z = compose_FX(x, func, 2)
    u = x.base_values.T
    want_keys = {"e", "•1", "•2", "•1•2", "•2•1"}
    assert {f.key for f in z.coeffs} == want_keys
    assert np.allclose(z.coeffs[EMPTY][:, 0], u[:, 0] * u[:, 1], atol=1e-14)
    assert np.allclose(z.coeffs[parse_forest("•1")][:, 0], u[:, 1], atol=1e-14)
    assert np.allclose(z.coeffs[parse_forest("•1•2")][:, 0], 1.0, atol=1e-14)


def test_compose_FX_rejects_dimension_mismatch():
    x = lift(trig_driver())
    func = SmoothFunctionWithDerivatives.from_expressions(("x1**2",), ("x1",))
    with pytest.raises(ValueError):
        compose_FX(x, func, 2)


def test_quadratic_remainder_vanishes_identically():
    # a quadratic map is reproduced exactly by its weight-2 expansion
    x = lift(
        DriverSpec(
            d=1, base=(PolySignal((0.0, 1.0, 0.5)),), cells=128, substeps=4
        )
    )
    func = SmoothFunctionWithDerivatives.from_expressions(("x1**2",), ("x1",))
    z = compose_FX(x, func, 2)
    assert np.max(np.abs(z.remainder_blocks(EMPTY, 8))) < 1e-13


def test_remainder_rates_beat_graded_bounds():
    spec = DriverSpec(
        d=1,
        base=(PolySignal((0.0, 1.0)),),
        intensities=((parse_forest("[•1]1"), PolySignal((0.0, -0.5))),),
        cells=256,
        substeps=4,
        N=2,
        alpha=0.45,
    )
    x = lift(spec)
    func = SmoothFunctionWithDerivatives.from_expressions(("x1**3",), ("x1",))
    z = compose_FX(x, func, x.N - 1)
    for f in (EMPTY, single(1)):
        bound = (x.N - f.weight) * spec.alpha - 0.2
        assert z.remainder_rate(f) >= bound, f.key


# ---------------------------------------------------------------------------
# compose_FY
# ---------------------------------------------------------------------------


def test_driver_path_transports_exactly():
    x = lift(trig_driver(N=3, cells=64))
    y = driver_path(x)
    assert set(y.coeffs) == {EMPTY, single(1), single(2)}
    assert np.array_equal(y.coeffs[EMPTY], x.base_values.T)
    for f in y.coeffs:
        assert np.max(np.abs(y.remainder_blocks(f, 4))) < 1e-13, f.key


@pytest.mark.parametrize("N", [2, 3])
def test_compose_FX_words_carry_tensor_columns(N):
    # F(X) is F(Y) along the driver: the word •a1…•am carries column
    # (a1, …, am) of the m-th derivative tensor, bit for bit
    x = lift(trig_driver(N=N, cells=64))
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1) + x1*x2**2",), ("x1", "x2")
    )
    u = x.base_values.T
    for order in range(N + 1):
        want = {EMPTY: func.value(u)}
        for m in range(1, order + 1):
            t = func.tensor(u, m)
            for flat, multi in enumerate(itertools.product((1, 2), repeat=m)):
                if np.any(t[..., flat]):
                    want[forest(tuple(tree(a) for a in multi))] = t[..., flat]
        z = compose_FX(x, func, order)
        assert z.order == order
        assert set(z.coeffs) == set(want), order
        for f, arr in want.items():
            assert np.array_equal(z.coeffs[f], arr), (order, f.key)


def test_compose_FX_evaluates_each_tensor_order_once(monkeypatch):
    # evaluating D^mF afresh for every word and splitting cost, at d = 2 and
    # order 3, 2 / 4 / 8 tensor calls of orders 1 / 2 / 3; the jets are the
    # tensors of orders 0..3, each evaluated once
    x = lift(trig_driver(N=3, cells=64))
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1) + x1*x2**2",), ("x1", "x2")
    )
    calls = []
    tensor = SmoothFunctionWithDerivatives.tensor

    def counted(self, u, m):
        calls.append(m)
        return tensor(self, u, m)

    monkeypatch.setattr(SmoothFunctionWithDerivatives, "tensor", counted)
    compose_FX(x, func, 3)
    assert sorted(calls) == [0, 1, 2, 3]


def test_compose_FY_blocks_use_higher_coefficients():
    # give the word •1•1 a nonzero coefficient: the block splitting
    # (•1•1) contributes DF:(that coefficient) on top of D²F:(•1, •1)
    x = lift(trig_driver(N=3, cells=64))
    y = driver_path(x)
    nodes = len(x.grid)
    w = parse_forest("•1•1")
    extra = np.zeros((nodes, 2))
    extra[:, 0] = 2.0
    y.coeffs[w] = extra
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("x1**2",), ("x1", "x2")
    )
    z = compose_FY(y, jets(func, y, 2), 2)
    u = y.coeffs[EMPTY]
    want = 2.0 * 1.0 * 1.0 + 2 * u[:, 0] * 2.0  # D²F:(e1,e1) + DF:(extra)
    assert np.allclose(z.coeffs[w][:, 0], want, atol=1e-12)


def test_compose_FY_validation():
    x = lift(trig_driver(cells=64))
    y = driver_path(x)
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("x1",), ("x1", "x2")
    )
    with pytest.raises(ValueError):
        compose_FY(y, jets(func, y, y.order), y.order + 1)
    with pytest.raises(ValueError):
        compose_FY(y, jets(func, y, 1), 2)  # too few jets
    bad = SmoothFunctionWithDerivatives.from_expressions(("x1",), ("x1",))
    with pytest.raises(ValueError):
        jets(bad, y, 1)


def test_splittings_census():
    trees = parse_forest("•1•2•1").trees
    blocks = list(_splittings(trees))
    assert len(blocks) == 4  # 2**(n-1)
    assert [tuple(len(b) for b in bs) for bs in blocks] == [
        (3,),
        (1, 2),
        (2, 1),
        (1, 1, 1),
    ]
    assert list(_splittings(())) == []


# ---------------------------------------------------------------------------
# Controlled paths and persistence
# ---------------------------------------------------------------------------


def test_controlled_path_shape_validation():
    x = lift(trig_driver(cells=64))
    with pytest.raises(ValueError):
        ControlledPath(
            x=x, order=1, coeffs={EMPTY: np.zeros((3, 1))}, n_out=1
        )
    with pytest.raises(ValueError):
        ControlledPath(
            x=x,
            order=0,
            coeffs={single(1): np.zeros((len(x.grid), 1))},
            n_out=1,
        )
