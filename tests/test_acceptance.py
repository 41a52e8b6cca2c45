"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Criterion 9 checks plain additivity for all three scalar extensions
(bracket, tilde and the mixed compensator, whose series is primitive), and
Chen's relation for the mixed compensator.  The pre-fix mixed series, which
lacked two trees, is its negative control: not primitive, with a defect of
1/4 at the midpoint on the unit-slope driver that the reduced-coproduct
cross term accounts for.
"""

import json
import os

import numpy as np
import pytest

from test_paths import (
    CANONICAL_AT_ONE,
    canonical_driver,
    pre_fix_cbar_series,
    trig_driver,
)

from planarough.calculus import VectorFieldFamily, solve_rde
from planarough.cli import main as cli_main
from planarough.controlled import SmoothFunctionWithDerivatives, compose_FX
from planarough.forest_core import EMPTY, parse_forest, single
from planarough.hopf_mkw import (
    coproduct_mkw,
    is_primitive,
    reduced_coproduct,
    run_selftest,
)
from planarough.ito_verify import verify_simple
from planarough.rough_path import (
    DriverSpec,
    PolySignal,
    ScalarExtensionPath,
    TrigSignal,
    bracket_extension,
    bracket_series,
    cbar_series,
    character_residuals,
    chen_residuals,
    lift,
    tilde_series,
)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def analytic_driver_n2(cells=4096, substeps=64):
    return DriverSpec(
        d=1,
        base=(PolySignal((0.0, 1.0)),),
        intensities=((parse_forest("[•1]1"), PolySignal((0.0, -0.5))),),
        cells=cells,
        substeps=substeps,
        N=2,
        alpha=0.45,
    )


def test_criterion_01_hopf_exactness():
    """All structural checks on the 51-forest d=2 truncation are bit-exact."""
    report = run_selftest(d=2, max_weight=3)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    # census clause: 1 + 2 + 8 + 40 forests at weights 0..3
    pinned = {
        "•1": {("e", "•1"): 1, ("•1", "e"): 1},
        "•2•1": {("e", "•2•1"): 1, ("•2•1", "e"): 1, ("•2", "•1"): 1},
        "[•2]1": {("e", "[•2]1"): 1, ("[•2]1", "e"): 1, ("•2", "•1"): 1},
        "[•2•2]1": {
            ("e", "[•2•2]1"): 1,
            ("[•2•2]1", "e"): 1,
            ("•2", "[•2]1"): 1,
            ("•2•2", "•1"): 1,
        },
        "[•2](12)": {("e", "[•2](12)"): 1, ("[•2](12)", "e"): 1, ("•2", "•(12)"): 1},
    }
    for src, want in pinned.items():
        got = {
            (l.key, r.key): c
            for (l, r), c in coproduct_mkw(parse_forest(src)).items()
        }
        assert got == want, src


def test_criterion_02_compensator_primitivity():
    """Both second-order compensator elements are primitive for all labels."""
    for i in (1, 2):
        for j in (1, 2):
            assert is_primitive(bracket_series(i, j)), (i, j)
            assert is_primitive({single((i, j)): 1}), (i, j)


def test_criterion_03_chen_and_character_probes():
    """Chen and character residuals stay below 1e-10 on 1000 probes each."""
    x = lift(
        DriverSpec(
            d=2,
            base=(
                TrigSignal(((0.9, 2.0, 0.1), (0.3, 7.0, 0.8))),
                TrigSignal(((0.7, 3.0, 1.2),)),
            ),
            intensities=(
                (parse_forest("[•1]2"), PolySignal((0.0, 0.4, -0.3))),
                (parse_forest("[•2]1"), TrigSignal(((0.2, 4.0, 0.5),))),
            ),
            cells=1024,
            substeps=8,
        )
    )
    chen = chen_residuals(x, 1000, seed=0)
    char = character_residuals(x, 1000, seed=0)
    assert float(chen.max()) < 1e-10, float(chen.max())
    assert float(char.max()) < 1e-10, float(char.max())


@pytest.mark.parametrize("N", [2, 3])
def test_criterion_04_canonical_lift(N):
    """Lift of (t, t²) at 64 substeps matches exact values to 1e-8 relative."""
    from fractions import Fraction

    x = lift(canonical_driver(N, cells=64, substeps=64))
    g = x.eval_nodes(0, x.cells)
    idx = x.algebra.basis.index
    for f in x.algebra.basis.forests:
        want = float(Fraction(CANONICAL_AT_ONE[f.key]))
        assert abs(g[idx[f]] - want) <= 1e-8 * abs(want), f.key


def test_criterion_05_analytic_identity_n2():
    """The compensated identity holds to 1e-6 on the 2^-12 analytic mesh."""
    func = SmoothFunctionWithDerivatives.from_expressions(("x1**2",), ("x1",))
    rep = verify_simple(analytic_driver_n2(), func, name="analytic", tolerance=1e-6)
    assert rep.finest_residual <= 1e-6, rep.finest_residual
    threshold = 3 * 0.45 - 1.0 - 0.3
    assert rep.slope >= threshold, rep.slope
    assert rep.passed


def test_criterion_06_four_theorems_across_configs(tmp_path):
    """All bundled identity configs (≥ 6, covering all four statements) pass."""
    rc = cli_main(
        [
            "ito",
            "--config",
            os.path.join(CONFIGS, "ito-suite.json"),
            "--out",
            str(tmp_path),
            "--jobs",
            "4",
        ]
    )
    assert rc == 0
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    rows = summary["experiments"]
    assert len(rows) >= 6, len(rows)
    assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]
    theorems = set()
    for r in rows:
        with open(tmp_path / r["name"] / "ito_report.json", encoding="utf-8") as fh:
            theorems.add(json.load(fh)["theorem"])
    assert theorems == {"simple-n2", "simple-n3", "general-n2", "general-n3"}


def test_criterion_07_remainder_rates():
    """Controlled remainders decay at order ≥ (N − w(τ))·α − 0.2."""
    cases = [
        (
            lift(analytic_driver_n2(cells=1024, substeps=8)),
            "x1**2",
        ),
        (
            lift(
                DriverSpec(
                    d=1,
                    base=(PolySignal((0.0, 1.0, 0.5)),),
                    intensities=(
                        (parse_forest("[•1]1"), PolySignal((0.0, 0.3, -0.2))),
                    ),
                    cells=1024,
                    substeps=2,
                    N=3,
                    alpha=0.30,
                )
            ),
            "x1**4 - x1**2",
        ),
    ]
    for x, expr in cases:
        func = SmoothFunctionWithDerivatives.from_expressions((expr,), ("x1",))
        z = compose_FX(x, func, x.N - 1)
        for f in z.coeffs:
            bound = (x.N - f.weight) * x.alpha - 0.2
            rate = z.remainder_rate(f)
            assert rate >= bound, (f.key, rate, bound)


def test_criterion_08_rde_oracle_and_truncation_gap():
    """Exponential growth to 1e-4 at 2^-10; truncations 2 and 3 agree to 1e-5."""
    fields = VectorFieldFamily.from_expressions([("y1",)], ("y1",))

    def solve(N):
        x = lift(
            DriverSpec(
                d=1,
                base=(PolySignal((0.0, 1.0)),),
                cells=1024,
                substeps=1,
                N=N,
                alpha=0.45 if N == 2 else 0.30,
            )
        )
        return x, solve_rde(x, fields, [1.0]).coeffs[EMPTY][:, 0]

    x2, y2 = solve(2)
    _, y3 = solve(3)
    err = float(np.max(np.abs(y2 - np.exp(x2.grid))))
    assert err <= 1e-4, err
    gap = float(np.max(np.abs(y2 - y3)))
    assert gap <= 1e-5, gap


def test_criterion_09_extension_additivity_and_restriction():
    """Extension additivity ≤ 1e-10 (and Chen's relation for cbar);
    restriction ≤ 1e-12.

    The bracket, third-order (tilde) and mixed (cbar) compensators are
    primitive, so their increments are plainly additive on every driver
    here.  The mixed compensator's additivity defect is also checked against
    Chen's relation: it must equal the reduced coproduct paired with the two
    sub-interval characters, which is zero for the corrected series and
    1/4 at the midpoint for the pre-fix series, the negative control.  The
    extended lift must restrict bitwise to the base lift.
    """
    # geometric unit-slope driver exhibits the pre-fix defect in closed form
    xg = bracket_extension(
        DriverSpec(
            d=1,
            base=(PolySignal((0.0, 1.0)),),
            cells=64,
            substeps=4,
            N=3,
            alpha=0.30,
        )
    )
    # compensated driver for the bracket/tilde clauses
    driver = analytic_driver_n2(cells=256, substeps=8)
    x, xhat = lift(driver), bracket_extension(driver)

    # restriction: shared components are reproduced bitwise (≤ 1e-12)
    cols = [x.algebra.basis.index[f] for f in x.algebra.basis.forests]
    hat_cols = [xhat.algebra.basis.index[f] for f in x.algebra.basis.forests]
    for l, level in enumerate(x.levels):
        diff = np.max(np.abs(level[:, cols] - xhat.levels[l][:, hat_cols]))
        assert diff <= 1e-12, (l, diff)

    # bracket-extension additivity (≤ 1e-10)
    rng = np.random.default_rng(9)
    col = xhat.algebra.basis.index[single((1, 1))]
    for _ in range(100):
        a, u, b = sorted(int(v) for v in rng.integers(0, xhat.cells + 1, 3))
        defect = abs(
            xhat.eval_nodes(a, b)[col]
            - xhat.eval_nodes(a, u)[col]
            - xhat.eval_nodes(u, b)[col]
        )
        assert defect <= 1e-10, defect

    # third-order compensator additivity (≤ 1e-10)
    xh3 = bracket_extension(
        DriverSpec(
            d=1,
            base=(PolySignal((0.0, 1.0)),),
            intensities=(
                (parse_forest("[•1]1"), PolySignal((0.0, -0.5))),
                (parse_forest("[•1•1]1"), PolySignal((0.0, 0.2, 0.1))),
            ),
            cells=64,
            substeps=4,
            N=3,
            alpha=0.30,
        )
    )
    tilde = ScalarExtensionPath(xh3, tilde_series(1, 1, 1))
    for _ in range(100):
        a, u, b = sorted(int(v) for v in rng.integers(0, xh3.cells + 1, 3))
        assert abs(tilde.additivity_defect(a, u, b)) <= 1e-10

    # mixed compensator (≤ 1e-10): its series is primitive, so its increments
    # are plainly additive, and Chen's relation holds with a zero cross term.
    # Chen's relation pairs the reduced coproduct of a series with the
    # characters of [t_a, t_u] (left slot) and [t_u, t_b] (right slot)
    def chen_corrected_defect(xh, series, a, u, b):
        idx = xh.algebra.basis.index
        left, right = xh.eval_nodes(a, u), xh.eval_nodes(u, b)
        cross = sum(
            float(c) * left[idx[l]] * right[idx[r]]
            for (l, r), c in reduced_coproduct(series).items()
        )
        path = ScalarExtensionPath(xh, series)
        return path.additivity_defect(a, u, b) - cross

    # negative control: the pre-fix series is not primitive; on the
    # unit-slope geometric driver its increment over [s,t] is (t-s)³/3 and
    # the midpoint split of [0,1] leaves exactly 1/3 - 2/24 = 1/4, which
    # the Chen cross term accounts for
    mid = xg.cells // 2
    pre_fix = pre_fix_cbar_series(1, 1, 1)
    pre_fix_raw = ScalarExtensionPath(xg, pre_fix).additivity_defect(0, mid, xg.cells)
    assert pre_fix_raw == pytest.approx(0.25, abs=1e-12), pre_fix_raw
    assert abs(chen_corrected_defect(xg, pre_fix, 0, mid, xg.cells)) <= 1e-10

    # at d=1 both slot orders of the cross term agree; mixed letters tell
    # the left (first sub-interval) slot from the right one
    xt = bracket_extension(trig_driver(N=3, cells=64, substeps=4, intensity=True))
    for xh, ijks, n in (
        (xg, [(1, 1, 1)], 10),
        (xh3, [(1, 1, 1)], 100),
        (xt, [(1, 2, 1), (2, 1, 2), (2, 2, 1)], 10),
    ):
        splits = [(0, xh.cells // 2, xh.cells)] + [
            tuple(sorted(int(v) for v in rng.integers(0, xh.cells + 1, 3)))
            for _ in range(n)
        ]
        for ijk in ijks:
            path = ScalarExtensionPath(xh, cbar_series(*ijk))
            for a, u, b in splits:
                plain = abs(path.additivity_defect(a, u, b))
                assert plain <= 1e-10, (
                    f"mixed-compensator additivity defect is {plain:.6g} at "
                    f"{ijk} over {(a, u, b)}, gate is 1e-10: the series is "
                    "primitive (test_hopf.py::test_mixed_compensator_primitive); "
                    "see README 'Tests'"
                )
                defect = abs(chen_corrected_defect(xh, cbar_series(*ijk), a, u, b))
                assert defect <= 1e-10, (ijk, a, u, b, defect)


def test_criterion_10_cli_determinism(tmp_path):
    """Two CLI runs of the same config produce byte-identical outputs."""
    cfg = os.path.join(CONFIGS, "simple-n2-analytic.json")
    for sub in ("one", "two"):
        rc = cli_main(["ito", "--config", cfg, "--out", str(tmp_path / sub)])
        assert rc == 0

    def tree(root):
        out = {}
        for dirpath, _dirs, files in os.walk(root):
            for fn in files:
                p = os.path.join(dirpath, fn)
                with open(p, "rb") as fh:
                    out[os.path.relpath(p, root)] = fh.read()
        return out

    a, b = tree(tmp_path / "one"), tree(tmp_path / "two")
    assert a.keys() == b.keys()
    for k in a:
        assert a[k] == b[k], f"{k} differs between identical runs"
