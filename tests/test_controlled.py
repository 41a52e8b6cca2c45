"""Derivative tensors and controlled-coefficient constructions."""

import importlib.util
import itertools
import json
import os
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import rational, reference_contraction, reference_FY, reference_splittings

from planarough import taylor
from planarough.controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    compose_FX,
    compose_FY,
    contract_tensor,
    driver_path,
    jets,
    word_program,
)
from planarough.forest_core import (
    EMPTY,
    all_forests,
    base_alphabet,
    forest,
    parse_forest,
    single,
    tree,
)
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
    # the one compile is a parse of each expression, on construction; no
    # order evaluated afterwards parses again
    calls = []
    parse = taylor.parse_expression
    monkeypatch.setattr(
        taylor, "parse_expression", lambda *a: calls.append(a[0]) or parse(*a)
    )
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1)*x2", "0.25"), ("x1", "x2")
    )
    assert calls == ["sin(x1)*x2", "0.25"]
    u = np.array([[0.3, -1.2], [1.1, 0.4]])
    func.value(u)
    func.value(u)
    func.tensor(u, 2)
    func.tensor(u[0], 3)
    assert len(calls) == 2


def config_expressions():
    """``(exprs, vars)`` of every function and field section in ``configs/``
    and of the perfbench workloads that parse expressions."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if "exprs" in node:
                exprs = node["exprs"]
                flat = [e for row in exprs for e in row] if isinstance(exprs[0], list) else exprs
                found.append((tuple(flat), tuple(node["vars"])))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    root = os.path.join(os.path.dirname(__file__), "..")
    for fn in sorted(os.listdir(os.path.join(root, "configs"))):
        with open(os.path.join(root, "configs", fn), encoding="utf-8") as fh:
            walk(json.load(fh))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        if name != "ito-suite":  # configs/ito-suite.json, read above
            walk(json.loads(workloads.generate(name, 0)[1]))
    return list(dict.fromkeys(found))


# the expressions of the tests, then the rest of the grammar: division,
# roots, logs, real, negative and variable powers
TEST_EXPRESSIONS = [
    (("sin(x1*x2)", "x1**3 - x2", "sin(x1)*x2", "0.25", "x1*x2"), ("x1", "x2")),
    (("sin(x1)*x2**2", "x1**2 + exp(x2)", "sin(x1) + x1*x2**2", "x1"), ("x1", "x2")),
    (("sin(x1)*x2 + x2**3/3", "sin(x2) + x2*x1**2", "x1**2"), ("x1", "x2")),
    (("x1**2", "x1**3", "sin(x1) + x1**3", "exp(x1)"), ("x1",)),
    (("1 + 0.2*y2**2 + sin(y1)*y2", "0.3*y1*y2", "cos(y2) - y1**3/4"), ("y1", "y2")),
    (("1 - y2/4 + y1**2", "sin(y1)*y2 + y1**3/3 + 0.3*y1*y2**2", "-y2", "y1"),
     ("y1", "y2")),
    (("sin(y2)", "cos(y1)", "exp(-y1*y2)", "0.3*sin(y1 + y2)"), ("y1", "y2")),
    (("0.5 + sin(2*y1)", "cos(y1) + exp(y1/3)", "exp(y1)", "y1**2 - 5.0"), ("y1",)),
    (("log(x1**2 + 1)", "sqrt(x1**2 + 2)", "x1**2.5", "1/(1 + x1**2)"), ("x1",)),
    (("cos(x1)**-3", "exp(-x1)/x1", "x1**x2", "2**x1", "x1/x2 - x3*x1"),
     ("x1", "x2", "x3")),
]


def test_tensor_matches_per_component_reference():
    # sympy differentiates each component on its own: the Taylor tensors lie
    # within 1e-13 of it, relative to the largest entry of that output's
    # tensor over the points (one entry alone may cancel, as 12·x² − 2
    # does), and are exactly 0 wherever its tensor is 0 (a constant output,
    # constant and zero derivatives, every mixed derivative that vanishes)
    rng = np.random.default_rng(6)
    for exprs, variables in config_expressions() + TEST_EXPRESSIONS:
        func = SmoothFunctionWithDerivatives.from_expressions(exprs, variables)
        symbols = sympy.symbols(variables, real=True)
        local = dict(zip(variables, symbols))
        n = len(variables)
        u = rng.uniform(0.2, 1.6, (3, 4, n))
        for m in range(4):
            want = np.empty(u.shape[:-1] + (func.n_out, n**m))
            for i, e in enumerate(exprs):
                e = sympy.sympify(e, locals=local)
                for flat, multi in enumerate(itertools.product(range(n), repeat=m)):
                    de = e.diff(*(symbols[a] for a in multi)) if multi else e
                    fn = sympy.lambdify(symbols, de, modules=[np])
                    want[..., i, flat] = fn(*(u[..., k] for k in range(n)))
            got = func.tensor(u, m)
            assert np.all(got[want == 0] == 0), (exprs, m)
            scale = np.abs(want).max(axis=(0, 1, 3), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (exprs, m)


def test_rows_read_the_same_bits_in_any_batch():
    # every row of a batch is the tensor of that row alone, bit for bit, for
    # window sizes solve_rde's sweeps use: the evaluator is elementwise
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1)*x2**2 + log(x1**2 + 1)", "1/(1 + x2**2) - sqrt(x1**2 + 2)",
         "x1**2.5 + exp(-x2)/x1", "0.25"),
        ("x1", "x2"),
    )
    rng = np.random.default_rng(8)
    for rows in (1, 3, 16, 129):
        u = rng.uniform(0.2, 1.6, (rows, 2))
        for m in range(4):
            batch = func.tensor(u, m)
            for p in range(rows):
                assert np.array_equal(batch[p], func.tensor(u[p : p + 1], m)[0])
                assert np.array_equal(batch[p], func.tensor(u[p], m))


def test_one_evaluation_reads_every_order_bit_for_bit():
    # jets and the RDE sweep read orders 0..m off one evaluation to degree
    # m; each equals an evaluation to its own degree, bit for bit, for every
    # expression of the configs, the perfbench workloads and the tests
    rng = np.random.default_rng(9)
    for exprs, variables in config_expressions() + TEST_EXPRESSIONS:
        func = SmoothFunctionWithDerivatives.from_expressions(exprs, variables)
        u = rng.uniform(0.2, 1.6, (5, len(variables)))
        top = func.tensors(u, 3)
        for m in range(4):
            assert np.array_equal(np.moveaxis(top[m], -1, 0), func.tensor(u, m)), (exprs, m)


@given(st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_dm_linear_in_each_direction(a):
    func = example_func()
    rng = np.random.default_rng(5)
    u, v, w = rng.standard_normal((3, 2, 2))
    lhs = func.dm(u, (a * v, w))
    rhs = a * func.dm(u, (v, w))
    assert np.allclose(lhs, rhs, atol=1e-10 * (1 + abs(a)))


def test_contract_tensor_is_exact_on_fractions():
    # an exact oracle contracts rational tensors: on object arrays of
    # Fractions every D^m t:(v1, …, vm) must equal the sum written out,
    # Σ t[a1…am]·v1[a1]…vm[am], with the first direction on the first axis
    rng = np.random.default_rng(11)
    n, outs, nodes = 3, 2, 4
    for m in range(4):
        t = rational(rng, (nodes, outs, n**m))
        vs = [rational(rng, (nodes, n)) for _ in range(m)]
        got = contract_tensor(t, vs)
        assert got.shape == (nodes, outs)
        assert all(type(v) is Fraction for v in got.flat), m
        assert np.array_equal(got, reference_contraction(t, vs)), m


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


def test_tensors_are_node_last_and_tensor_is_their_view():
    # the one layout of derivative tensors: tensors() node-last and
    # C-contiguous, (n_out, n_in**m) + lead, at any leading axes; tensor()
    # is the same bits node-first, and a constant output is the jet of a
    # constant, its value at order 0 and exact zeros above
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1)*x2**2 + log(x1**2 + 1)", "x1**2.5 + exp(-x2)/x1", "0.25"),
        ("x1", "x2"),
    )
    rng = np.random.default_rng(14)
    for lead in ((), (7,), (3, 5)):
        u = rng.uniform(0.2, 1.6, lead + (2,))
        for m in range(4):
            t = func.tensors(u, m)[m]
            assert t.shape == (3, 2**m) + lead and t.flags.c_contiguous, (lead, m)
            first = np.moveaxis(t, (0, 1), (-2, -1))
            assert np.array_equal(first.view(np.int64), func.tensor(u, m).view(np.int64))
            want = np.full(t.shape[1:], 0.25 if m == 0 else 0.0)
            assert np.array_equal(t[2].view(np.int64), want.view(np.int64)), (lead, m)


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
    # order 3, 2 / 4 / 8 tensor calls of orders 1 / 2 / 3; then one Taylor
    # evaluation per order; the jets are the tensors of orders 0..3, all read
    # off one evaluation of the program to degree 3
    x = lift(trig_driver(N=3, cells=64))
    func = SmoothFunctionWithDerivatives.from_expressions(
        ("sin(x1) + x1*x2**2",), ("x1", "x2")
    )
    calls = []
    jets = taylor.TaylorProgram.jets

    def counted(self, u, m):
        calls.append(m)
        return jets(self, u, m)

    monkeypatch.setattr(taylor.TaylorProgram, "jets", counted)
    compose_FX(x, func, 3)
    assert calls == [3]


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


def test_word_program_census():
    # when Y carries every forest, a forest of k trees is the word of
    # 2**(k-1) compositions, one per splitting into consecutive blocks,
    # ordered by their cuts between trees read as a binary number
    forests = [f for f in all_forests(base_alphabet(2), 3) if f.weight]
    keys = {}
    for f in forests:
        keys.setdefault(f.weight, []).append(f)
    splits = {}
    for w in (1, 2, 3):
        for weights, words in word_program(keys, w):
            assert len(words) == np.prod([len(keys[v]) for v in weights])
            for f in words:
                splits.setdefault(f, []).append(weights)
    assert set(splits) == set(forests)
    for f, weights in splits.items():
        assert len(weights) == 2 ** (len(f.trees) - 1), f.key
    assert splits[parse_forest("•1•2•1")] == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    assert splits[parse_forest("[•1]2•1")] == [(3,), (2, 1)]
    # no keys, no words; a missing weight drops every composition using it
    assert word_program({}, 2) == []
    assert [w for w, _ in word_program({1: keys[1], 3: keys[3]}, 3)] == [(3,), (1, 1, 1)]


def test_compose_FY_is_exact_on_fractions():
    # an exact oracle composes rational jets along a Y that carries trees and
    # multi-tree forests (so words split into forest-valued blocks): on
    # object arrays of Fractions every ⟨ω, F(Y)⟩ is the definition's sum
    rng = np.random.default_rng(12)
    x = lift(trig_driver(N=3, cells=4))
    n, nodes = 2, len(x.grid)
    keys = ["•1", "•2", "[•1]2", "•2•1", "•1•2", "[•2•1]1", "•1[•2]1", "•2•1•2"]
    coeffs = {EMPTY: rational(rng, (nodes, n))}
    coeffs |= {parse_forest(k): rational(rng, (nodes, n)) for k in keys}
    y = ControlledPath(x=x, order=3, coeffs=coeffs, n_out=n)
    dF = [rational(rng, (2, n**m, nodes)) for m in range(4)]
    want = reference_FY(y, [np.moveaxis(t, -1, 0) for t in dF], 3)
    got = compose_FY(y, dF, 3)
    assert set(got.coeffs) == {EMPTY} | {f for f, v in want.items() if np.any(v != 0)}
    assert np.array_equal(got.coeffs[EMPTY], dF[0][:, 0].T)
    for f, arr in got.coeffs.items():
        if f is not EMPTY:
            assert all(type(v) is Fraction for v in arr.flat), f.key
            assert np.array_equal(arr, want[f]), f.key
    # •2•1•2 splits four ways, three of them through carried multi-tree blocks
    w = parse_forest("•2•1•2")
    assert sum(all(b in coeffs for b in bs) for bs in reference_splittings(w.trees)) == 4


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
