"""Command-line interface: lift drivers, run verifications, dump tables.

Usage::

    planarough <command> [--config FILE] [--out DIR] [--jobs K]

Commands:

* ``hopf-selftest`` — the exact combinatorial/algebraic self-checks of
  :func:`planarough.hopf_mkw.run_selftest` (no config needed; an optional
  ``hopf`` section overrides alphabet size and weight).
* ``lift``          — build the lift of the configured driver and probe the
  Chen and character identities at random nodes; with ``"dump": true`` also
  write the lift (:func:`write_lift`).
* ``integrate``     — compensated rough integral of ``F(driver)`` against one
  base letter, the one-letter rough term of the ``ito`` pairing on the base
  lift, with a mesh-refinement convergence report.
* ``rde``           — solve the configured differential equation, dump the
  solution, optionally compare against a closed-form oracle.
* ``ito``           — verify the configured change-of-variable identity.
* ``dump``          — write the basis or coproduct table of an alphabet as CSV.

The config file holds one experiment object or ``{"experiments": [...]}``;
each experiment needs a ``name`` and the section for the chosen command.
Outputs land in ``<out>/<name>/`` and are byte-deterministic: reports are
JSON with sorted keys, two-space indent, and a trailing newline; no
timestamps or machine identifiers are written.  This module checks JSON
types and ranges and passes on only the keys a config sets; the library
call each value goes to holds its default and checks the rules it relies
on, raising :class:`~planarough.rough_path.ConfigError`.

Exit codes: 0 success, 1 a verification verdict failed, 2 a solution
diverged, 3 an I/O failure, 64 a malformed config or command line (an
unknown command, a flag without its value, an empty ``--out``, ``--jobs``
below 1), 70 an internal error (an uncaught exception, in this process or
in a ``--jobs`` worker, reported as one ``internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .calculus import ConvergenceReport, DivergenceError, VectorFieldFamily, solve_rde
from .controlled import SmoothFunctionWithDerivatives, compose_FX
from .forest_core import (
    EMPTY,
    MAX_WEIGHT,
    base_alphabet,
    bracket_alphabet,
    letter_key,
    parse_forest,
)
from .hopf_mkw import TruncatedBasis, run_selftest
from .ito_verify import pair, require_scalar, rough_sums, verify_general, verify_simple
from .rates import MeshLadder
from .rough_path import (
    ConfigError,
    DriverSpec,
    PolySignal,
    RoughPath,
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
EXIT_INTERNAL = 70


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
    """``value`` as a float if it is a finite JSON number (Python's ``json``
    also reads ``NaN``, ``Infinity``, ``1e999`` and integers of any size)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {number}")
    return number


def _list(values, what: str, length=None) -> list:
    """``values`` if it is a JSON list, of the given length if one is given."""
    if not isinstance(values, list) or length not in (None, len(values)):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{what} must be {size}, got {values!r}")
    return values


def _numbers(values, what: str, length=None) -> tuple:
    """A JSON list of numbers, of the given length if one is given."""
    return tuple(_number(v, what) for v in _list(values, what, length))


def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _given(sec: dict, where: str, **checks) -> dict:
    """The keys of ``sec`` that ``checks`` names and the config sets, each
    read by its check; the library call they go to defaults the others."""
    return {k: check(sec[k], f"{where} {k}") for k, check in checks.items() if k in sec}


_positive = functools.partial(_integer, lo=1)


def signal_from(cfg) -> object:
    """Build a scalar signal from its JSON description."""
    kind = _require(_object(cfg, "signal"), "kind", "signal")
    if kind == "poly":
        coeffs = _require(cfg, "coeffs", "poly signal")
        return PolySignal(_numbers(coeffs, "poly coeffs"))
    if kind == "trig":
        terms = _list(_require(cfg, "terms", "trig signal"), "trig terms")
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
    _object(cfg, "driver section")
    base = _list(_require(cfg, "base", "driver"), "driver base")
    intensities = []
    for item in _list(cfg.get("intensities", []), "driver intensities"):
        key = _require(_object(item, "intensity"), "tree", "intensity")
        if not isinstance(key, str):
            raise ConfigError(f"intensity tree must be a forest key, got {key!r}")
        try:
            f = parse_forest(key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except RecursionError as exc:
            raise ConfigError("intensity tree is nested too deeply") from exc
        intensities.append((f, signal_from(_require(item, "signal", "intensity"))))
    return DriverSpec(
        d=_integer(_require(cfg, "d", "driver"), "driver d", 1),
        base=tuple(signal_from(s) for s in base),
        intensities=tuple(intensities),
        **_given(cfg, "driver", T=_number, alpha=_number),
        **_given(cfg, "driver", cells=_positive, substeps=_positive, N=_positive),
    )


def _expressions(build, cfg, what: str):
    """``build(exprs, vars)`` from a function or fields section; every
    error of the expression parser or of ``build``'s checks becomes a
    config error."""
    _object(cfg, f"{what} section")
    exprs = _require(cfg, "exprs", what)
    variables = _require(cfg, "vars", what)
    try:
        return build(exprs, variables)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad expressions in {what}: {exc}") from exc


def func_from(cfg) -> SmoothFunctionWithDerivatives:
    build = SmoothFunctionWithDerivatives.from_expressions
    return _expressions(build, cfg, "function")


def fields_from(cfg) -> VectorFieldFamily:
    return _expressions(VectorFieldFamily.from_expressions, cfg, "fields")


def load_experiments(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise ConfigError(f"config holds an unreadable number: {exc}") from exc
    if isinstance(doc, dict) and "experiments" in doc:
        exps = _list(doc["experiments"], "experiments")
    elif isinstance(doc, dict):
        exps = [doc]
    else:
        raise ConfigError("config must be an object")
    names = set()
    for exp in exps:
        if not isinstance(exp, dict):
            raise ConfigError("each experiment must be an object")
        name = _require(exp, "name", "experiment")
        # a directory name: non-empty, unhidden, one that the file system and
        # the verdict lines on stdout encode
        stdout = getattr(sys.stdout, "encoding", None) or "utf-8"
        try:
            ok = isinstance(name, str) and os.fsencode(name) and name[0] != "."
            ok = ok and name.encode(stdout)
        except UnicodeEncodeError:
            ok = False
        if not ok or any(c in name for c in "/\\\0"):
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
        fh.write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))
        fh.write("\n")


def write_csv(path: str, header: str, rows) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def write_lift(x: RoughPath, out_dir: str) -> None:
    """Write the nonzero components of each cell character of ``x`` to
    ``lift.csv`` and its letters, grid and base samples to
    ``lift.meta.json``."""
    forests = x.algebra.basis.forests
    nodes = [repr(t) for t in x.grid.tolist()]
    rows = (
        (nodes[k], nodes[k + 1], f.key, repr(v))
        for k, row in enumerate(x.levels[0].tolist())
        for f, v in zip(forests, row)
        if v != 0.0
    )
    write_csv(os.path.join(out_dir, "lift.csv"), "t_left,t_right,forest,value", rows)
    meta = {
        "letters": [letter_key(l) for l in x.algebra.basis.letters],
        "max_weight": x.algebra.basis.max_weight,
        "alpha": x.alpha,
        "T": x.T,
        "cells": x.cells,
        "grid": x.grid.tolist(),
        "base_values": x.base_values.tolist(),
    }
    write_json(os.path.join(out_dir, "lift.meta.json"), meta)


# ---------------------------------------------------------------------------
# Per-experiment command bodies (top-level functions: picklable for --jobs)
# ---------------------------------------------------------------------------


def _cmd_hopf_selftest(exp: dict, out_dir: str) -> dict:
    sec = _object(exp.get("hopf", {}), "hopf section")
    report = run_selftest(
        **_given(
            sec,
            "hopf",
            d=functools.partial(_integer, lo=1, hi=4),
            max_weight=functools.partial(_integer, lo=2, hi=MAX_WEIGHT),
        )
    )
    write_json(os.path.join(out_dir, "hopf_selftest.json"), report)
    return {"passed": report["passed"], "report": "hopf_selftest.json"}


def _cmd_lift(exp: dict, out_dir: str) -> dict:
    sec = _object(exp.get("lift", {}), "lift section")
    probes = _integer(sec.get("probes", 256), "lift probes", 1)
    seed = _integer(sec.get("seed", 0), "lift seed", 0)
    tol = _number(sec.get("tolerance", 1e-10), "lift tolerance")
    dump = sec.get("dump", False)
    if not isinstance(dump, bool):
        raise ConfigError(f"lift dump must be true or false, got {dump!r}")
    driver = driver_from(_require(exp, "driver", "experiment"))
    if driver.cells < 2:
        raise ConfigError("lift probes need at least 2 cells (3 grid nodes)")
    x = lift(driver)
    with np.errstate(over="ignore", invalid="ignore"):
        chen = chen_residuals(x, probes, seed)
        char = character_residuals(x, probes, seed)
    if not np.isfinite([chen.max(), char.max()]).all():
        raise ConfigError("the lift overflows on a probed interval")
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
    if dump:
        write_lift(x, out_dir)
    return {"passed": passed, "report": "lift_report.json"}


def _cmd_integrate(exp: dict, out_dir: str) -> dict:
    sec = _object(_require(exp, "integrate", "experiment"), "integrate section")
    func = func_from(_require(sec, "F", "integrate"))
    require_scalar(func)
    rungs = _integer(sec.get("rungs", 6), "integrate rungs", 1)
    tolerance = _number(sec.get("tolerance", 1e-6), "integrate tolerance")
    threshold = _number(sec.get("threshold", 0.0), "integrate threshold")
    reference = None
    if "reference" in sec:
        reference = _number(sec["reference"], "integrate reference")
    driver = driver_from(_require(exp, "driver", "experiment"))
    letter = _integer(sec.get("letter", 1), "integrate letter", 1, driver.d)
    strides, scales = MeshLadder.rungs_of(driver, rungs)
    x = lift(driver)
    functional = rough_sums(compose_FX(x, func, x.N - 1), [(EMPTY, letter)])
    values = [pair(x, functional, s) for s in strides]
    report = ConvergenceReport.from_values(
        quantity=f"integral of F against letter {letter}",
        strides=strides,
        scales=scales,
        values=values,
        reference=values[-1] if reference is None else reference,
        tolerance=tolerance,
        threshold=threshold,
    )
    write_json(os.path.join(out_dir, "integrate_report.json"), report.to_dict())
    return {"passed": report.passed, "report": "integrate_report.json"}


def _cmd_rde(exp: dict, out_dir: str) -> dict:
    sec = _object(_require(exp, "rde", "experiment"), "rde section")
    fields = fields_from(_require(sec, "fields", "rde"))
    xi = _numbers(_require(sec, "xi", "rde"), "rde xi")
    oracle = None
    if "oracle" in sec:
        oracle = func_from(sec["oracle"])
        if oracle.n_in != 1 or oracle.n_out != fields.n:
            raise ConfigError("oracle must map one time variable to the state space")
        tol = _number(sec.get("tolerance", 1e-4), "rde tolerance")
    driver = driver_from(_require(exp, "driver", "experiment"))
    if oracle is not None:
        with np.errstate(all="ignore"):
            ref = oracle.value(driver.grid[:, None])
        if not np.isfinite(ref).all():
            raise ConfigError("the oracle is not finite on the grid")
    x = lift(driver)
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
    if oracle is not None:
        err = float(np.abs(yv - ref).max())
        passed = err <= tol
        report.update({"oracle_error_max": err, "tolerance": tol})
    report["passed"] = passed
    write_json(os.path.join(out_dir, "rde_report.json"), report)
    return {"passed": passed, "report": "rde_report.json"}


def _cmd_ito(exp: dict, out_dir: str) -> dict:
    sec = _object(_require(exp, "ito", "experiment"), "ito section")
    theorem = sec.get("theorem", "simple")
    if theorem not in ("simple", "general"):
        raise ConfigError(f"unknown theorem {theorem!r}")
    func = func_from(_require(sec, "F", "ito"))
    given = _given(sec, "ito", rungs=_positive, tolerance=_number)
    if theorem == "general":
        fields = fields_from(_require(sec, "fields", "ito"))
        xi = _numbers(_require(sec, "xi", "ito"), "ito xi")
    driver = driver_from(_require(exp, "driver", "experiment"))
    if theorem == "simple":
        rep = verify_simple(driver, func, name=exp["name"], **given)
    else:
        rep = verify_general(driver, fields, func, xi, name=exp["name"], **given)
    write_json(os.path.join(out_dir, "ito_report.json"), rep.to_dict())
    return {"passed": rep.passed, "report": "ito_report.json"}


def _cmd_dump(exp: dict, out_dir: str) -> dict:
    sec = _object(exp.get("dump", {}), "dump section")
    what = sec.get("what", "coproduct")
    if what not in ("basis", "coproduct"):
        raise ConfigError(f"unknown dump target {what!r}")
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
        header = "index,forest,degree,weight"
        rows = ((k, f.key, f.degree, f.weight) for k, f in enumerate(basis.forests))
    else:
        header = "forest,left,right,coefficient"
        keys = [f.key for f in basis.forests]
        rows = (
            (keys[k], keys[li], keys[ri], c)
            for k, cuts in enumerate(basis.cut_rows)
            for li, ri, c in cuts
        )
    write_csv(os.path.join(out_dir, f"{what}.csv"), header, rows)
    return {"passed": True, "report": f"{what}.csv"}


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


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 64 (sysexits' ``EX_USAGE``), not 2,
    the code of a diverged solution; ``--help`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    """``--jobs``: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _out(text: str) -> str:
    """``--out``: a directory; the empty path names none."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def _parse_args(argv):
    parser = _Parser(
        prog="planarough",
        description="planarly branched rough-path calculus experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment file")
        p.add_argument("--out", type=_out, default="out", help="output directory root")
        p.add_argument("--jobs", type=_jobs, default=1, help="parallel experiments")
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
        runs = [(args.command, exp, args.out) for exp in experiments]
        with contextlib.ExitStack() as stack:
            if args.jobs > 1 and len(runs) > 1:
                # imported here, so a serial run never loads multiprocessing;
                # the fork start method starts every worker on the first submit
                from concurrent.futures import ProcessPoolExecutor

                workers = min(args.jobs, len(runs))
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                calls = [pool.submit(run_experiment, *run).result for run in runs]
            else:
                calls = [functools.partial(run_experiment, *run) for run in runs]
            for exp, call in zip(experiments, calls):
                try:
                    rows.append(call())
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
    except Exception as exc:  # any other fault is internal: exit 70, never 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
