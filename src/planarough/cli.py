"""Command-line interface: lift drivers, run verifications, dump tables.

Usage::

    planarough <command> [--config FILE] [--out DIR] [--jobs K]

Commands:

* ``hopf-selftest`` — exact combinatorial/algebraic self-checks (no config
  needed; an optional ``hopf`` section overrides alphabet size and weight).
* ``lift``          — build the lift of the configured driver and probe the
  Chen and character identities at random nodes.
* ``integrate``     — compensated rough integral of ``F(driver)`` against one
  base letter, with a mesh-refinement convergence report.
* ``rde``           — solve the configured differential equation, dump the
  solution, optionally compare against a closed-form oracle.
* ``ito``           — verify the configured change-of-variable identity.
* ``dump``          — write basis/coproduct/product tables as CSV.

The config file holds one experiment object or ``{"experiments": [...]}``;
each experiment needs a ``name`` and the section for the chosen command.
Outputs land in ``<out>/<name>/`` and are byte-deterministic: reports are
JSON with sorted keys, two-space indent, and a trailing newline; no
timestamps or machine identifiers are written.

Exit codes: 0 success, 1 a verification verdict failed, 2 a solution
diverged, 3 an I/O failure, 64 a malformed config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
from sympy.core.function import AppliedUndef

from .calculus import (
    ConvergenceReport,
    DivergenceError,
    VectorFieldFamily,
    rough_integral,
    solve_rde,
)
from .controlled import SmoothFunctionWithDerivatives, compose_FX
from .forest_core import (
    EMPTY,
    MAX_WEIGHT,
    all_forests,
    base_alphabet,
    bracket_alphabet,
    concat,
    parse_forest,
    single,
)
from .hopf_mkw import TruncatedBasis, coproduct_table, star_table
from .ito_verify import verify_general, verify_simple
from .rough_path import (
    ConfigError,
    DriverSpec,
    PolySignal,
    SpectralSignal,
    TrigSignal,
    character_residuals,
    chen_residuals,
    lift,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_DIVERGED = 2
EXIT_IO = 3
EXIT_CONFIG = 64


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _integer(value, what: str, lo: int, hi: float = math.inf) -> int:
    """``value`` if it is a JSON integer in ``lo..hi``."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        bound = f"in {lo}..{hi}" if hi < math.inf else f">= {lo}"
        raise ConfigError(f"{what} must be an integer {bound}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(values, what: str, length=None) -> tuple:
    """A JSON list of numbers, of the given length if one is given."""
    if not isinstance(values, list) or length not in (None, len(values)):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{what} must be {size} numbers, got {values!r}")
    return tuple(_number(v, what) for v in values)


def _check_exprs(exprs, symbols, where: str) -> None:
    """Reject free symbols outside ``vars`` and calls of undefined functions."""
    for e in exprs:
        unknown = e.free_symbols - set(symbols)
        if unknown:
            names = ", ".join(sorted(map(str, unknown)))
            raise ConfigError(f"{where} uses symbols not in vars: {names}")
        undefined = e.atoms(AppliedUndef)
        if undefined:
            names = ", ".join(sorted(map(str, undefined)))
            raise ConfigError(f"{where} calls undefined functions: {names}")


def signal_from(cfg) -> object:
    """Build a scalar signal from its JSON description."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"signal must be an object, got {cfg!r}")
    kind = _require(cfg, "kind", "signal")
    if kind == "poly":
        coeffs = _require(cfg, "coeffs", "poly signal")
        return PolySignal(_numbers(coeffs, "poly coeffs"))
    if kind == "trig":
        terms = _require(cfg, "terms", "trig signal")
        if not isinstance(terms, list):
            raise ConfigError(f"trig terms must be a list, got {terms!r}")
        return TrigSignal(tuple(_numbers(t, "trig term", 3) for t in terms))
    if kind == "spectral":
        return SpectralSignal(
            hurst=_number(_require(cfg, "hurst", "spectral signal"), "hurst"),
            modes=_integer(_require(cfg, "modes", "spectral signal"), "modes", 0),
            seed=_integer(cfg.get("seed", 0), "signal seed", 0),
            amplitude=_number(cfg.get("amplitude", 1.0), "amplitude"),
            period=_number(cfg.get("period", 1.0), "period"),
        )
    raise ConfigError(f"unknown signal kind {kind!r}")


def driver_from(cfg) -> DriverSpec:
    """Build a :class:`DriverSpec` from its JSON description."""
    if not isinstance(cfg, dict):
        raise ConfigError("driver section must be an object")
    base = tuple(signal_from(s) for s in _require(cfg, "base", "driver"))
    intensities = []
    for item in cfg.get("intensities", ()):
        key = _require(item, "tree", "intensity")
        try:
            f = parse_forest(key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        intensities.append((f, signal_from(_require(item, "signal", "intensity"))))
    return DriverSpec(
        d=_integer(_require(cfg, "d", "driver"), "driver d", 1),
        base=base,
        intensities=tuple(intensities),
        T=_number(cfg.get("T", 1.0), "driver T"),
        cells=_integer(cfg.get("cells", 1024), "driver cells", 1),
        substeps=_integer(cfg.get("substeps", 64), "driver substeps", 1),
        N=_integer(cfg.get("N", 2), "driver N", 1),
        alpha=_number(cfg.get("alpha", 0.45), "driver alpha"),
    )


def func_from(cfg, max_order: int = 3) -> SmoothFunctionWithDerivatives:
    if not isinstance(cfg, dict):
        raise ConfigError("function section must be an object")
    exprs = _require(cfg, "exprs", "function")
    variables = _require(cfg, "vars", "function")
    try:
        func = SmoothFunctionWithDerivatives.from_expressions(
            exprs, variables, max_order=max_order
        )
    except (ValueError, TypeError, SyntaxError) as exc:
        raise ConfigError(f"bad function expressions: {exc}") from exc
    _check_exprs(func.exprs, func.symbols, "function")
    return func


def fields_from(cfg) -> VectorFieldFamily:
    if not isinstance(cfg, dict):
        raise ConfigError("fields section must be an object")
    exprs = _require(cfg, "exprs", "fields")
    variables = _require(cfg, "vars", "fields")
    try:
        fields = VectorFieldFamily.from_expressions(exprs, variables)
    except (ValueError, TypeError, SyntaxError) as exc:
        raise ConfigError(f"bad field expressions: {exc}") from exc
    for f in fields.fields:
        _check_exprs(f.exprs, f.symbols, "fields")
    return fields


def load_experiments(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "experiments" in doc:
        exps = doc["experiments"]
    elif isinstance(doc, dict):
        exps = [doc]
    else:
        raise ConfigError("config must be an object")
    names = set()
    for exp in exps:
        if not isinstance(exp, dict):
            raise ConfigError("each experiment must be an object")
        name = _require(exp, "name", "experiment")
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise ConfigError(f"bad experiment name {name!r}")
        if name in names:
            raise ConfigError(f"duplicate experiment name {name!r}")
        names.add(name)
    return exps


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def write_csv(path: str, header: str, rows) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


# ---------------------------------------------------------------------------
# Exact self-checks
# ---------------------------------------------------------------------------


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


_PINNED_COPRODUCTS = {
    # forest key -> {(left key, right key): coefficient}
    "•1": {("e", "•1"): 1, ("•1", "e"): 1},
    "•2•1": {("e", "•2•1"): 1, ("•2•1", "e"): 1, ("•2", "•1"): 1},
    "[•2]1": {("e", "[•2]1"): 1, ("[•2]1", "e"): 1, ("•2", "•1"): 1},
    "[•3•2]1": {
        ("e", "[•3•2]1"): 1,
        ("[•3•2]1", "e"): 1,
        ("•3", "[•2]1"): 1,
        ("•3•2", "•1"): 1,
    },
    "[•3](12)": {("e", "[•3](12)"): 1, ("[•3](12)", "e"): 1, ("•3", "•(12)"): 1},
}


def run_selftest(d: int = 2, max_weight: int = 3) -> dict:
    """Exact structural checks of the combinatorial algebra; no tolerances."""
    from .hopf_mkw import coproduct_mkw, coproduct_series, is_primitive, shuffle
    from .forest_core import b_plus

    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(ok), "detail": detail})

    base = all_forests(base_alphabet(d), max_weight)
    by_weight = {}
    for f in base:
        by_weight[f.weight] = by_weight.get(f.weight, 0) + 1
    expected = {0: 1}
    for k in range(1, max_weight + 1):
        expected[k] = _catalan(k) * d**k
    check(
        "forest census matches the planar count",
        by_weight == expected,
        f"{by_weight} vs {expected}",
    )

    pinned_ok = True
    detail = ""
    for src, want in _PINNED_COPRODUCTS.items():
        got = {
            (l.key, r.key): c for (l, r), c in coproduct_mkw(parse_forest(src)).items()
        }
        if got != want:
            pinned_ok = False
            detail = f"{src}: {got}"
            break
    check("pinned coproduct expansions", pinned_ok, detail)

    ext = all_forests(bracket_alphabet(d), max_weight)

    def coassoc(forests) -> bool:
        for f in forests:
            lhs = {}
            rhs = {}
            for (a, b), c in coproduct_mkw(f).items():
                for (a1, a2), c2 in coproduct_mkw(a).items():
                    key = (a1, a2, b)
                    lhs[key] = lhs.get(key, 0) + c * c2
                for (b1, b2), c2 in coproduct_mkw(b).items():
                    key = (a, b1, b2)
                    rhs[key] = rhs.get(key, 0) + c * c2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return False
        return True

    check("coproduct is coassociative (base alphabet)", coassoc(base))
    check("coproduct is coassociative (bracket alphabet)", coassoc(ext))

    morphism_ok = True
    small = [f for f in base if 1 <= f.weight]
    for f1 in small:
        for f2 in small:
            if f1.weight + f2.weight > max_weight:
                continue
            left = coproduct_series(shuffle(f1, f2))
            right = {}
            for (a1, b1), c1 in coproduct_mkw(f1).items():
                for (a2, b2), c2 in coproduct_mkw(f2).items():
                    for fa, ca in shuffle(a1, a2).items():
                        for fb, cb in shuffle(b1, b2).items():
                            key = (fa, fb)
                            right[key] = right.get(key, 0) + c1 * c2 * ca * cb
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            if left != right:
                morphism_ok = False
    check("coproduct is a shuffle morphism", morphism_ok)

    counit_ok = True
    for f in ext:
        terms = coproduct_mkw(f)
        left = {}
        right = {}
        for (a, b), c in terms.items():
            if a is EMPTY:
                left[b] = left.get(b, 0) + c
            if b is EMPTY:
                right[a] = right.get(a, 0) + c
        if left != {f: 1} or right != {f: 1}:
            counit_ok = False
    check("counit axioms", counit_ok)

    basis = TruncatedBasis(bracket_alphabet(d), max_weight)
    graft_ok = True
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            got = basis.star({single(j): 1}, {single(i): 1})
            want = {concat(single(j), single(i)): 1, b_plus(single(j), i): 1}
            if got != want:
                graft_ok = False
    check("product grafts a single vertex both ways", graft_ok)

    unit_ok = all(
        basis.star({EMPTY: 1}, {f: 1}) == {f: 1}
        and basis.star({f: 1}, {EMPTY: 1}) == {f: 1}
        for f in basis.forests
    )
    check("empty forest is the product unit", unit_ok)

    gens = [{single(l): 1} for l in bracket_alphabet(d)]
    assoc_ok = True
    for a in gens:
        for b in gens:
            ab = basis.star(a, b)
            for c in gens:
                if basis.star(ab, c) != basis.star(a, basis.star(b, c)):
                    assoc_ok = False
    check("product is associative on generators", assoc_ok)

    prim_ok = True
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            expanded = {
                concat(single(j), single(i)): 1,
                b_plus(single(j), i): -1,
            }
            if not is_primitive(expanded):
                prim_ok = False
            if not is_primitive({single((i, j)): 1}):
                prim_ok = False
    check("second-order compensators are primitive", prim_ok)

    neg = {concat(single(1), single(1)): 1}
    check("bare two-letter word is not primitive", not is_primitive(neg))

    gen = {single(1): Fraction(1), b_plus(single(1), 1): Fraction(1, 3)}
    g = basis.exp_star(gen)
    char_ok = g.get(b_plus(single(1), 1), 0) == Fraction(1, 2) + Fraction(1, 3)
    for f1 in basis.forests:
        for f2 in basis.forests:
            if f1.weight + f2.weight > max_weight or not f1.weight or not f2.weight:
                continue
            lhs = Fraction(0)
            for f, c in shuffle(f1, f2).items():
                lhs += c * g.get(f, Fraction(0))
            if lhs != g.get(f1, Fraction(0)) * g.get(f2, Fraction(0)):
                char_ok = False
    check("exponentials are shuffle characters (exact)", char_ok)

    passed = all(c["passed"] for c in checks)
    return {
        "alphabet_size": d,
        "max_weight": max_weight,
        "dim_base": len(base),
        "dim_bracket": len(ext),
        "checks": checks,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# Per-experiment command bodies (top-level functions: picklable for --jobs)
# ---------------------------------------------------------------------------


def _cmd_hopf_selftest(exp: dict, out_dir: str) -> dict:
    sec = exp.get("hopf", {})
    report = run_selftest(
        d=_integer(sec.get("d", 2), "hopf d", 1, 4),
        max_weight=_integer(
            sec.get("max_weight", 3), "hopf max_weight", 2, MAX_WEIGHT
        ),
    )
    write_json(os.path.join(out_dir, "hopf_selftest.json"), report)
    return {"passed": report["passed"], "report": "hopf_selftest.json"}


def _cmd_lift(exp: dict, out_dir: str) -> dict:
    sec = exp.get("lift", {})
    probes = _integer(sec.get("probes", 256), "lift probes", 1)
    seed = _integer(sec.get("seed", 0), "lift seed", 0)
    tol = _number(sec.get("tolerance", 1e-10), "lift tolerance")
    x = lift(driver_from(_require(exp, "driver", "experiment")))
    chen = chen_residuals(x, probes, seed)
    char = character_residuals(x, probes, seed)
    passed = bool(chen.max() < tol and char.max() < tol)
    report = {
        "cells": x.cells,
        "truncation": x.N,
        "alpha": x.alpha,
        "dimension": x.algebra.dim,
        "probes": probes,
        "seed": seed,
        "chen_max": float(chen.max()),
        "character_max": float(char.max()),
        "tolerance": tol,
        "passed": passed,
    }
    write_json(os.path.join(out_dir, "lift_report.json"), report)
    if sec.get("dump", False):
        x.dump(out_dir, "lift")
    return {"passed": passed, "report": "lift_report.json"}


def _cmd_integrate(exp: dict, out_dir: str) -> dict:
    x = lift(driver_from(_require(exp, "driver", "experiment")))
    sec = _require(exp, "integrate", "experiment")
    func = func_from(_require(sec, "F", "integrate"))
    if func.n_out != 1:
        raise ConfigError("integrate needs a scalar F")
    if func.n_in != x.base_values.shape[0]:
        raise ConfigError(
            f"F takes {func.n_in} variables, driver has {x.base_values.shape[0]}"
        )
    letter = int(sec.get("letter", 1))
    if not 1 <= letter <= x.base_values.shape[0]:
        raise ConfigError(f"letter {letter} outside this driver's alphabet")
    rungs = min(int(sec.get("rungs", 6)), len(x.levels))
    z = compose_FX(x, func, x.N - 1)
    strides = [1 << (rungs - 1 - r) for r in range(rungs)]
    values = [float(rough_integral(z, x, letter, s).sum()) for s in strides]
    reference = float(sec["reference"]) if "reference" in sec else values[-1]
    report = ConvergenceReport.from_values(
        quantity=f"integral of F against letter {letter}",
        strides=strides,
        scales=[x.T * s / x.cells for s in strides],
        values=values,
        reference=reference,
        tolerance=float(sec.get("tolerance", 1e-6)),
        threshold=float(sec.get("threshold", 0.0)),
    )
    write_json(os.path.join(out_dir, "integrate_report.json"), report.to_dict())
    return {"passed": report.passed, "report": "integrate_report.json"}


def _cmd_rde(exp: dict, out_dir: str) -> dict:
    x = lift(driver_from(_require(exp, "driver", "experiment")))
    sec = _require(exp, "rde", "experiment")
    fields = fields_from(_require(sec, "fields", "rde"))
    xi = [float(v) for v in _require(sec, "xi", "rde")]
    if len(xi) != fields.n:
        raise ConfigError(f"initial state has {len(xi)} entries for {fields.n} fields")
    y = solve_rde(x, fields, xi)
    yv = y.coeffs[EMPTY]
    header = "t," + ",".join(f"y{k + 1}" for k in range(fields.n))
    rows = (
        [repr(float(t))] + [repr(float(v)) for v in row]
        for t, row in zip(x.grid, yv)
    )
    write_csv(os.path.join(out_dir, "solution.csv"), header, rows)
    report = {
        "cells": x.cells,
        "truncation": x.N,
        "dimension": fields.n,
        "final_state": [float(v) for v in yv[-1]],
    }
    passed = True
    if "oracle" in sec:
        oracle = func_from(sec["oracle"])
        if oracle.n_in != 1 or oracle.n_out != fields.n:
            raise ConfigError("oracle must map one time variable to the state space")
        ref = oracle.value(x.grid[:, None])
        err = float(np.abs(yv - ref).max())
        tol = float(sec.get("tolerance", 1e-4))
        passed = err <= tol
        report.update({"oracle_error_max": err, "tolerance": tol})
    report["passed"] = passed
    write_json(os.path.join(out_dir, "rde_report.json"), report)
    return {"passed": passed, "report": "rde_report.json"}


def _cmd_ito(exp: dict, out_dir: str) -> dict:
    x = lift(driver_from(_require(exp, "driver", "experiment")))
    sec = _require(exp, "ito", "experiment")
    theorem = sec.get("theorem", "simple")
    func = func_from(_require(sec, "F", "ito"))
    if func.n_out != 1:
        raise ConfigError("the observable F must be scalar-valued")
    rungs = int(sec.get("rungs", 6))
    tol = float(sec.get("tolerance", 1e-5))
    d = x.base_values.shape[0]
    if theorem == "simple":
        if func.n_in != d:
            raise ConfigError(f"F takes {func.n_in} variables, driver has {d}")
        rep = verify_simple(x, func, name=exp["name"], rungs=rungs, tolerance=tol)
    elif theorem == "general":
        fields = fields_from(_require(sec, "fields", "ito"))
        xi = [float(v) for v in _require(sec, "xi", "ito")]
        if fields.d != d:
            raise ConfigError(f"{fields.d} fields for a driver with {d} letters")
        if len(xi) != fields.n:
            raise ConfigError(f"xi has {len(xi)} entries for {fields.n} states")
        if tuple(map(str, func.symbols)) != tuple(map(str, fields.symbols)):
            raise ConfigError("F and fields must use the same variables")
        rep = verify_general(
            x, fields, func, xi, name=exp["name"], rungs=rungs, tolerance=tol
        )
    else:
        raise ConfigError(f"unknown theorem {theorem!r}")
    write_json(os.path.join(out_dir, "ito_report.json"), rep.to_dict())
    return {"passed": rep.passed, "report": "ito_report.json"}


def _cmd_dump(exp: dict, out_dir: str) -> dict:
    sec = exp.get("dump", {})
    what = sec.get("what", "coproduct")
    alphabet = sec.get("alphabet", "base")
    d = _integer(sec.get("d", 2), "dump d", 1, 9)
    mw = _integer(sec.get("max_weight", 3), "dump max_weight", 0, MAX_WEIGHT)
    if alphabet == "base":
        letters = base_alphabet(d)
    elif alphabet == "bracket":
        letters = bracket_alphabet(d)
    else:
        raise ConfigError(f"unknown alphabet {alphabet!r}")
    basis = TruncatedBasis(letters, mw)
    if what == "basis":
        rows = (
            (k, f.key, f.degree, f.weight) for k, f in enumerate(basis.forests)
        )
        write_csv(os.path.join(out_dir, "basis.csv"), "index,forest,degree,weight", rows)
        out = "basis.csv"
    elif what == "coproduct":
        write_csv(
            os.path.join(out_dir, "coproduct.csv"),
            "forest,left,right,coefficient",
            coproduct_table(basis),
        )
        out = "coproduct.csv"
    elif what == "star":
        write_csv(
            os.path.join(out_dir, "star.csv"),
            "left,right,result,coefficient",
            star_table(basis),
        )
        out = "star.csv"
    elif what == "lift":
        x = lift(driver_from(_require(exp, "driver", "experiment")))
        x.dump(out_dir, "lift")
        out = "lift.csv"
    else:
        raise ConfigError(f"unknown dump target {what!r}")
    return {"passed": True, "report": out}


_COMMANDS = {
    "hopf-selftest": _cmd_hopf_selftest,
    "lift": _cmd_lift,
    "integrate": _cmd_integrate,
    "rde": _cmd_rde,
    "ito": _cmd_ito,
    "dump": _cmd_dump,
}


def run_experiment(command: str, exp: dict, out_root: str) -> dict:
    """Run one experiment; returns a summary row (exceptions propagate)."""
    name = exp["name"]
    out_dir = os.path.join(out_root, name)
    result = _COMMANDS[command](exp, out_dir)
    return {"name": name, **result}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="planarough",
        description="planarly branched rough-path calculus experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment file")
        p.add_argument("--out", default="out", help="output directory root")
        p.add_argument("--jobs", type=int, default=1, help="parallel experiments")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.config is None:
            if args.command != "hopf-selftest":
                raise ConfigError(f"{args.command} needs --config")
            experiments = [{"name": "hopf-selftest"}]
        else:
            experiments = load_experiments(args.config)

        rows = []
        diverged = False
        if args.jobs > 1 and len(experiments) > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                futures = [
                    pool.submit(run_experiment, args.command, exp, args.out)
                    for exp in experiments
                ]
                for exp, fut in zip(experiments, futures):
                    try:
                        rows.append(fut.result())
                    except DivergenceError as exc:
                        diverged = True
                        rows.append(
                            {"name": exp["name"], "passed": False, "error": str(exc)}
                        )
        else:
            for exp in experiments:
                try:
                    rows.append(run_experiment(args.command, exp, args.out))
                except DivergenceError as exc:
                    diverged = True
                    rows.append(
                        {"name": exp["name"], "passed": False, "error": str(exc)}
                    )

        rows.sort(key=lambda r: r["name"])
        summary = {"command": args.command, "experiments": rows}
        write_json(os.path.join(args.out, "summary.json"), summary)
        for row in rows:
            verdict = "PASS" if row["passed"] else "FAIL"
            extra = row.get("error", row.get("report", ""))
            print(f"{verdict} {args.command} {row['name']} {extra}".rstrip())

        if diverged:
            return EXIT_DIVERGED
        if not all(row["passed"] for row in rows):
            return EXIT_VERDICT
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
