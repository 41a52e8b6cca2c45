"""End-to-end CLI behavior: commands, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from planarough import cli
from planarough.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERDICT,
    load_experiments,
    main,
)
from planarough.hopf_mkw import run_selftest
from planarough.rough_path import ConfigError


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def analytic_ito_experiment(name="ana"):
    return {
        "name": name,
        "driver": {
            "d": 1,
            "base": [{"kind": "poly", "coeffs": [0, 1]}],
            "intensities": [
                {"tree": "[•1]1", "signal": {"kind": "poly", "coeffs": [0, -0.5]}}
            ],
            "cells": 256,
            "substeps": 8,
            "N": 2,
            "alpha": 0.45,
        },
        "ito": {
            "theorem": "simple",
            "F": {"exprs": ["x1**2"], "vars": ["x1"]},
            "rungs": 5,
            "tolerance": 1e-6,
        },
    }


def read_json(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            p = os.path.join(dirpath, fn)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# hopf-selftest
# ---------------------------------------------------------------------------


def test_selftest_passes_and_writes_report(tmp_path, capsys):
    rc = main(["hopf-selftest", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = read_json(tmp_path, "hopf-selftest", "hopf_selftest.json")
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    assert len(report["checks"]) >= 10
    out = capsys.readouterr().out
    assert out.startswith("PASS hopf-selftest")


def test_selftest_function_is_reusable():
    report = run_selftest(d=1, max_weight=2)
    assert report["passed"] is True


# ---------------------------------------------------------------------------
# ito / integrate / rde / lift
# ---------------------------------------------------------------------------


def test_ito_command_runs_and_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", analytic_ito_experiment())
    rc = main(["ito", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    rep = read_json(tmp_path, "out", "ana", "ito_report.json")
    assert rep["passed"] is True
    assert rep["finest_residual"] == 0.0
    summary = read_json(tmp_path, "out", "summary.json")
    assert summary["command"] == "ito"
    assert [r["name"] for r in summary["experiments"]] == ["ana"]
    assert "PASS ito ana" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_suite_entry_runs_warning_free(tmp_path, capsys):
    # the suite's N = 3 spectral entry, with every warning an error: its
    # Young sums rely on 4α > 1, which its declared α guarantees
    suite = os.path.join(os.path.dirname(__file__), "..", "configs", "ito-suite.json")
    (exp,) = [e for e in load_experiments(suite) if e["name"] == "simple-n3-fbm"]
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["ito", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"])
    assert rc == EXIT_OK
    assert "PASS ito simple-n3-fbm" in capsys.readouterr().out


def test_outputs_are_byte_deterministic(tmp_path):
    doc = {
        "experiments": [
            analytic_ito_experiment("a1"),
            analytic_ito_experiment("a2"),
        ]
    }
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "two")]) == 0
    a, b = tree_bytes(tmp_path / "one"), tree_bytes(tmp_path / "two")
    assert a.keys() == b.keys()
    assert a == b


def test_jobs_flag_runs_experiments_in_processes(tmp_path):
    doc = {
        "experiments": [
            analytic_ito_experiment("b2"),
            analytic_ito_experiment("b1"),
        ]
    }
    cfg = write_config(tmp_path, "c.json", doc)
    rc = main(
        ["ito", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]
    )
    assert rc == EXIT_OK
    summary = read_json(tmp_path, "out", "summary.json")
    assert [r["name"] for r in summary["experiments"]] == ["b1", "b2"]
    rc = main(["ito", "--config", cfg, "--out", str(tmp_path / "serial")])
    assert rc == EXIT_OK
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "serial")


def test_integrate_command(tmp_path):
    exp = analytic_ito_experiment("quad")
    exp.pop("ito")
    exp["integrate"] = {
        "F": {"exprs": ["x1**2"], "vars": ["x1"]},
        "letter": 1,
        "rungs": 5,
        "reference": -1.0 / 6.0,
        "tolerance": 5e-3,
        "threshold": 0.5,
    }
    exp["driver"]["cells"] = 1024
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    rep = read_json(tmp_path, "out", "quad", "integrate_report.json")
    assert rep["passed"] is True
    assert abs(rep["values"][-1] + 1.0 / 6.0) < 5e-3


def test_rde_command_with_oracle(tmp_path):
    exp = {
        "name": "expgrowth",
        "driver": {
            "d": 1,
            "base": [{"kind": "poly", "coeffs": [0, 1]}],
            "cells": 1024,
            "substeps": 1,
        },
        "rde": {
            "fields": {"exprs": [["y1"]], "vars": ["y1"]},
            "xi": [1.0],
            "oracle": {"exprs": ["exp(t)"], "vars": ["t"]},
            "tolerance": 1e-4,
        },
    }
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["rde", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    rep = read_json(tmp_path, "out", "expgrowth", "rde_report.json")
    assert rep["passed"] is True
    assert rep["oracle_error_max"] < 1e-4
    sol = (tmp_path / "out" / "expgrowth" / "solution.csv").read_text()
    lines = sol.strip().splitlines()
    assert lines[0] == "t,y1"
    assert len(lines) == 1 + 1024 + 1


def test_lift_command_probes(tmp_path):
    exp = analytic_ito_experiment("probe")
    exp.pop("ito")
    exp["lift"] = {"probes": 64, "seed": 3, "tolerance": 1e-10, "dump": True}
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["lift", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    rep = read_json(tmp_path, "out", "probe", "lift_report.json")
    assert rep["chen_max"] < 1e-10 and rep["character_max"] < 1e-10
    assert (tmp_path / "out" / "probe" / "lift.csv").exists()
    assert (tmp_path / "out" / "probe" / "lift.meta.json").exists()


# ---------------------------------------------------------------------------
# dump tables
# ---------------------------------------------------------------------------


def test_dump_tables_are_transpose_consistent(tmp_path):
    base = {"name": "t", "dump": {"alphabet": "bracket", "d": 1, "max_weight": 3}}
    for what in ("basis", "coproduct", "star"):
        doc = json.loads(json.dumps(base))
        doc["dump"]["what"] = what
        doc["name"] = what
        cfg = write_config(tmp_path, f"{what}.json", doc)
        assert main(["dump", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    basis_lines = (tmp_path / "out" / "basis" / "basis.csv").read_text().splitlines()
    assert basis_lines[0] == "index,forest,degree,weight"
    assert len(basis_lines) == 1 + 14  # bracket alphabet census at d=1

    def rows(name, fname):
        lines = (tmp_path / "out" / name / fname).read_text().splitlines()
        return lines[0], {tuple(l.split(",")) for l in lines[1:]}

    chead, cop = rows("coproduct", "coproduct.csv")
    shead, star = rows("star", "star.csv")
    assert chead == "forest,left,right,coefficient"
    assert shead == "left,right,result,coefficient"
    assert {(l, r, f, c) for f, l, r, c in cop} == star


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_verdict_on_failed_gate(tmp_path, capsys):
    exp = analytic_ito_experiment("floor")
    # intensity floor with a non-quadratic observable: residual gate fails
    exp["ito"]["F"] = {"exprs": ["sin(x1) + x1**3"], "vars": ["x1"]}
    exp["ito"]["tolerance"] = 1e-12
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["ito", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_VERDICT
    assert "FAIL ito floor" in capsys.readouterr().out


def test_exit_diverged(tmp_path, capsys):
    exp = {
        "name": "blowup",
        "driver": {
            "d": 1,
            "base": [{"kind": "poly", "coeffs": [0, 1]}],
            "cells": 256,
            "substeps": 1,
        },
        "rde": {
            "fields": {"exprs": [["y1**2"]], "vars": ["y1"]},
            "xi": [5.0],
        },
    }
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["rde", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_DIVERGED
    summary = read_json(tmp_path, "out", "summary.json")
    assert "trust region" in summary["experiments"][0]["error"]
    assert "FAIL rde blowup" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_exit_diverged_on_overflow(tmp_path, capsys):
    # exp overflows in the guesses past the first node outside the trust
    # region; with every warning an error the exit code stays the documented
    # one, for the general identity as for the solver alone
    exp = analytic_ito_experiment("overflow")
    del exp["driver"]["intensities"]
    exp["ito"] = {
        "theorem": "general",
        "F": {"exprs": ["y1**2"], "vars": ["y1"]},
        "fields": {"exprs": [["exp(y1)"]], "vars": ["y1"]},
        "xi": [0.5],
    }
    exp["rde"] = {"fields": exp["ito"]["fields"], "xi": [0.5]}
    cfg = write_config(tmp_path, "c.json", exp)
    for command in ("ito", "rde"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        summary = read_json(out, "summary.json")
        assert "trust region at t=0.617188" in summary["experiments"][0]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_lambdify_leaves_numpy_test_modules_unloaded(tmp_path):
    # a general ito run compiles through numpy's namespace, not through
    # "from numpy import *", which loads numpy.f2py, numpy.testing, unittest
    exp = analytic_ito_experiment("lean")
    del exp["driver"]["intensities"]
    exp["driver"]["cells"] = 64
    exp["ito"] = {
        "theorem": "general",
        "F": {"exprs": ["sin(y1)"], "vars": ["y1"]},
        "fields": {"exprs": [["cos(y1)"]], "vars": ["y1"]},
        "xi": [0.5],
        "rungs": 3,
        "tolerance": 1e-4,
    }
    cfg = write_config(tmp_path, "c.json", exp)
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys; from planarough.cli import main; "
        f"rc = main(['ito', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]); "
        "print(rc, sorted(m for m in ('numpy.f2py', 'numpy.testing', 'unittest') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_exit_config_on_bad_alpha(tmp_path, capsys):
    exp = analytic_ito_experiment("bad")
    exp["driver"]["alpha"] = 0.9
    cfg = write_config(tmp_path, "c.json", exp)
    rc = main(["ito", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_config_on_unknown_signal(tmp_path):
    exp = analytic_ito_experiment("bad")
    exp["driver"]["base"] = [{"kind": "brownian"}]
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_exit_config_on_bad_expression(tmp_path):
    exp = analytic_ito_experiment("bad")
    exp["ito"]["F"] = {"exprs": ["x1***2"], "vars": ["x1"]}
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, doc",
    [
        ("dump", {"dump": {"what": "basis", "max_weight": 4}}),
        ("dump", {"dump": {"d": 0}}),
        ("dump", {"dump": {"d": "x"}}),
        ("hopf-selftest", {"hopf": {"max_weight": 5}}),
        ("hopf-selftest", {"hopf": {"d": 5}}),
    ],
)
def test_exit_config_on_bad_table_size(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "c.json", {"name": "t", **doc})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_rde_bad_oracle_fails_before_solving(tmp_path, capsys):
    exp = {
        **analytic_ito_experiment("rde"),
        "rde": {
            "fields": {"exprs": [["y1"]], "vars": ["y1"]},
            "xi": [1.0],
            "oracle": {"exprs": ["exp(t)", "t"], "vars": ["t"]},
        },
    }
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["rde", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "oracle" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rde" / "solution.csv").exists()


def test_unknown_theorem_fails_before_the_lift(tmp_path, monkeypatch):
    lifts = []
    real = cli.lift
    monkeypatch.setattr(cli, "lift", lambda d: lifts.append(d) or real(d))
    exp = analytic_ito_experiment()
    exp["ito"]["theorem"] = "special"
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert lifts == []
    exp["ito"]["theorem"] = "simple"  # the counter counts
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(lifts) == 1


GENERAL = {
    "theorem": "general",
    "F": {"exprs": ["x1**2"], "vars": ["x1"]},
    "fields": {"exprs": [["x1"]], "vars": ["x1"]},
    "xi": [1.0],
}
INTEGRATE = {"F": {"exprs": ["x1**2"], "vars": ["x1"]}}
RDE = {
    "fields": {"exprs": [["x1"]], "vars": ["x1"]},
    "xi": [1.0],
    "oracle": {"exprs": ["exp(t)"], "vars": ["t"]},
}
DEEP_TREE = "[" * 3000 + "•1" + "]1" * 3000


class Raw(str):
    """A bad value written into the config as raw JSON text, such as ``1e999``."""


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("lift", ("driver", "cells"), "x"),
        ("lift", ("driver", "substeps"), "x"),
        ("lift", ("driver", "d"), "x"),
        ("lift", ("driver", "N"), "x"),
        ("lift", ("driver", "base", 0, "coeffs", 1), "a"),
        ("lift", ("driver", "base", 0), {"kind": "trig", "terms": [[1.0, 2.0]]}),
        (
            "lift",
            ("driver", "base", 0),
            {"kind": "spectral", "hurst": 0.7, "modes": "x"},
        ),
        ("lift", ("lift",), {"probes": "x"}),
        ("lift", ("lift",), {"probes": 0}),
        ("ito", ("ito", "F", "exprs"), ["sin(z)"]),
        ("ito", ("ito", "F", "exprs"), ["foo(x1)"]),
        ("ito", ("ito",), {**GENERAL, "fields": {"exprs": [["z"]], "vars": ["x1"]}}),
        ("ito", ("ito", "rungs"), "x"),
        ("ito", ("ito", "rungs"), 0),
        ("ito", ("ito", "tolerance"), "x"),
        ("ito", ("ito",), {**GENERAL, "xi": "ab"}),
        ("integrate", ("integrate",), {**INTEGRATE, "letter": "x"}),
        ("integrate", ("integrate",), {**INTEGRATE, "rungs": 0}),
        ("integrate", ("integrate",), {**INTEGRATE, "reference": "x"}),
        ("integrate", ("integrate",), {**INTEGRATE, "tolerance": "x"}),
        ("integrate", ("integrate",), {**INTEGRATE, "threshold": "x"}),
        ("rde", ("rde",), {**RDE, "xi": ["x"]}),
        ("rde", ("rde",), {**RDE, "xi": 5}),
        ("rde", ("rde",), {**RDE, "tolerance": "x"}),
        # container types
        ("lift", ("driver", "base"), 5),
        ("lift", ("driver", "intensities"), 5),
        ("lift", ("driver", "intensities", 0), 5),
        ("lift", ("driver", "intensities", 0, "tree"), 5),
        ("lift", ("lift",), [1]),
        ("hopf-selftest", ("hopf",), [2]),
        ("ito", ("ito",), [1]),
        ("lift", ("name",), 5),
        ("lift", ("lift",), {"dump": "no"}),
        # numbers Python's json reads but no setting can use
        pytest.param("ito", ("driver", "T"), Raw("Infinity"), id="ito-T-Infinity"),
        pytest.param("ito", ("ito", "tolerance"), Raw("NaN"), id="ito-tolerance-NaN"),
        pytest.param(
            "ito", ("ito", "tolerance"), Raw("1e999"), id="ito-tolerance-1e999"
        ),
        pytest.param(
            "ito", ("driver", "T"), Raw("1" + "0" * 400), id="ito-T-401-digits"
        ),
        pytest.param(
            "lift",
            ("driver", "intensities", 0, "tree"),
            DEEP_TREE,
            id="lift-tree-nested-3000-deep",
        ),
        # a valid 1-cell driver has 2 grid nodes; a Chen probe needs 3
        pytest.param("lift", ("driver", "cells"), 1, id="lift-one-cell"),
        # rules checked by the library call that relies on them
        pytest.param(
            "lift",
            ("driver", "intensities"),
            [
                {"tree": "[•1]1", "signal": {"kind": "poly", "coeffs": [0, rate]}}
                for rate in (0.3, 0.5)
            ],
            id="lift-intensity-tree-twice",
        ),
        pytest.param(
            "lift",
            ("driver", "base", 0),
            {"kind": "spectral", "hurst": 0.7, "modes": 8, "period": 0},
            id="lift-spectral-period-0",
        ),
        pytest.param(
            "rde",
            ("rde",),
            {**RDE, "fields": {"exprs": [["x1"], ["x1"]], "vars": ["x1"]}},
            id="rde-two-fields-for-d1",
        ),
        pytest.param(
            "rde",
            ("rde",),
            {
                **RDE,
                "fields": {"exprs": [["x1", "x1"]], "vars": ["x1", "x1"]},
                "xi": [1.0, 1.0],
            },
            id="rde-repeated-vars",
        ),
        pytest.param("rde", ("rde",), {**RDE, "xi": [1.0, 2.0]}, id="rde-xi-length"),
        pytest.param(
            "integrate",
            ("integrate",),
            {"F": {"exprs": ["x1*x2"], "vars": ["x1", "x2"]}},
            id="integrate-F-arity",
        ),
        pytest.param(
            "ito",
            ("ito", "F"),
            {"exprs": ["x1*x2"], "vars": ["x1", "x2"]},
            id="ito-simple-F-arity",
        ),
        pytest.param("ito", ("ito", "F", "exprs"), ["x1", "x1**2"], id="ito-vector-F"),
        pytest.param(
            "ito", ("ito",), {**GENERAL, "xi": [1.0, 2.0]}, id="ito-general-xi-length"
        ),
        pytest.param(
            "ito",
            ("ito",),
            {**GENERAL, "fields": {"exprs": [["y1"]], "vars": ["y1"]}},
            id="ito-general-F-and-fields-vars",
        ),
    ],
)
def test_exit_config_on_bad_value(tmp_path, capsys, command, path, value):
    exp = analytic_ito_experiment("bad")
    exp["driver"]["cells"] = 64
    exp["lift"] = {}
    node = exp
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(exp)
    if isinstance(value, Raw):
        text = text.replace(json.dumps(value), value)
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "period, T",
    [
        pytest.param(1e300, 1.0, id="period-1e300"),
        pytest.param(1.7e308, 1.0, id="period-1.7e308"),
        pytest.param(1.0, 1e-300, id="T-1e-300"),
    ],
)
def test_exit_ok_on_spectral_grid_beyond_the_fft(tmp_path, capsys, period, T):
    # the FFT length period·steps/T exceeds the substeps or overflows to inf,
    # so the lift samples by the outer product and passes as it did before
    exp = analytic_ito_experiment("wide")
    exp["driver"].update(
        T=T,
        cells=64,
        base=[{"kind": "spectral", "hurst": 0.7, "modes": 8, "period": period}],
    )
    exp["lift"] = {}
    cfg = write_config(tmp_path, "c.json", exp)
    for command in ("lift", "ito"):
        rc = main([command, "--config", cfg, "--out", str(tmp_path / command)])
        assert rc == EXIT_OK
        assert f"PASS {command} wide" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000, id="nested-100000-deep"),
        pytest.param('{"name": ' + "1" * 5000 + "}", id="integer-of-5000-digits"),
    ],
)
def test_exit_config_on_unreadable_config_text(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["ito", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _fail(exp, out_dir):
    raise RuntimeError("forced fault")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_exit_internal_on_uncaught_exception(tmp_path, capsys, monkeypatch, jobs):
    # --jobs workers are forked, so they run the patched command too
    monkeypatch.setitem(cli._COMMANDS, "dump", _fail)
    doc = {"experiments": [{"name": "a"}, {"name": "b"}]}
    cfg = write_config(tmp_path, "c.json", doc)
    rc = main(["dump", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError('forced fault')"]


def test_exit_config_without_config_flag(tmp_path, capsys):
    assert main(["ito", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "needs --config" in capsys.readouterr().err


def test_exit_config_on_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"name":"x"}')
    assert main(["ito", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_io_on_missing_config(tmp_path, capsys):
    rc = main(["ito", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Frozen report bytes
# ---------------------------------------------------------------------------

PIN_DRIVER = {
    "d": 2,
    "N": 3,
    "alpha": 0.3,
    "cells": 128,
    "substeps": 2,
    "base": [
        {"kind": "trig", "terms": [[0.6, 2.0, 0.3], [0.2, 5.0, 1.1]]},
        {"kind": "poly", "coeffs": [0.0, 0.7, -0.3]},
    ],
    "intensities": [
        {"tree": "[•1]2", "signal": {"kind": "poly", "coeffs": [0.0, 0.2]}}
    ],
}
PIN_DRIVER_N2 = {**PIN_DRIVER, "N": 2, "alpha": 0.45}
PIN_F = {"exprs": ["sin(x1)*x2 + x2**3/3"], "vars": ["x1", "x2"]}
PIN_GENERAL = {
    "theorem": "general",
    "F": {"exprs": ["sin(y1) + 0.3*y1*y2"], "vars": ["y1", "y2"]},
    "fields": {
        "exprs": [["1 + 0.2*y2**2", "0.3*y1"], ["0.25", "1 - y2/4"]],
        "vars": ["y1", "y2"],
    },
    "xi": [0.1, -0.2],
    "rungs": 4,
    "tolerance": 1e-3,
}
# the signals of perfbench's lift-d3n3 workload (seed 0) on a small grid
PIN_LIFT_DRIVER = {
    "d": 3,
    "N": 3,
    "alpha": 0.3,
    "cells": 64,
    "substeps": 4,
    "base": [
        {
            "kind": "spectral",
            "hurst": 0.84,
            "modes": 64,
            "seed": 61660,
            "amplitude": 0.295,
        },
        {"kind": "trig", "terms": [[0.581, 3.0, 2.995], [0.249, 7.0, 2.284]]},
        {"kind": "poly", "coeffs": [0.0, 0.57, -0.434]},
    ],
    "intensities": [
        {"tree": "[•1]2", "signal": {"kind": "poly", "coeffs": [0.0, 0.167, 0.106]}},
        {
            "tree": "[•3•2]1",
            "signal": {"kind": "trig", "terms": [[0.124, 4.0, 2.671]]},
        },
    ],
}
FROZEN_REPORTS = {
    "simple-d2n2": (
        "ito",
        {
            "driver": PIN_DRIVER_N2,
            "ito": {"theorem": "simple", "F": PIN_F, "rungs": 4},
        },
        "ito_report.json",
        "01605bc143f417fdc7004005391823e55975815b3eaae36086c0a0424134d21c",
    ),
    "general-d2n2": (
        "ito",
        {"driver": PIN_DRIVER_N2, "ito": PIN_GENERAL},
        "ito_report.json",
        "7df1b385c4cb41c2f530c6a3a5a134649d0b075e22632dfc784de529a149061c",
    ),
    "integrate-d2n3": (
        "integrate",
        {"driver": PIN_DRIVER, "integrate": {"F": PIN_F, "letter": 2, "rungs": 4}},
        "integrate_report.json",
        "b5a240e2ac78080ec9e8232ade9d236ab04fecc802abb80924cddcfcc384565f",
    ),
    "simple-d2n3": (
        "ito",
        {
            "driver": PIN_DRIVER,
            "ito": {"theorem": "simple", "F": PIN_F, "rungs": 4},
        },
        "ito_report.json",
        "7be873ac4f83bfddc74c2b2c4dd808130fa8b5a30d68a56f3b7539dcc8253126",
    ),
    "general-d2n3": (
        "ito",
        {"driver": PIN_DRIVER, "ito": PIN_GENERAL},
        "ito_report.json",
        "e809f0bd4913cb6ab9a644ab89af583a40016ea9eed990fb8a12e288432e987d",
    ),
    "hopf-d2w3": (
        "hopf-selftest",
        {"hopf": {"d": 2, "max_weight": 3}},
        "hopf_selftest.json",
        "749bf4f17872059f061bc2d35e5f312bb7e48bbf5653e2bcba424b7cd0c29ccc",
    ),
    "lift-d3n3": (
        "lift",
        {"driver": PIN_LIFT_DRIVER, "lift": {"probes": 32}},
        "lift_report.json",
        "52a89970133eeebe3880948075b01fc775770c61bbf6c5ccc43ca220c7a1463a",
    ),
    # grids whose Magnus substeps span several blocks of cells
    "lift-d3n3-blocks": (
        "lift",
        {
            "driver": {**PIN_LIFT_DRIVER, "cells": 512, "substeps": 16},
            "lift": {"probes": 32},
        },
        "lift_report.json",
        "7e924d8399117f1146981d178896587765a434eeb35eed37e0c9255dd90d570e",
    ),
    "general-d2n3-blocks": (
        "ito",
        {"driver": {**PIN_DRIVER, "cells": 1024, "substeps": 4}, "ito": PIN_GENERAL},
        "ito_report.json",
        "687b23715c06d98b8b2e1fb8cb111f0f067e2aef324b3f5e705118a26050813e",
    ),
    "lift-d2n3-wide": (
        "lift",
        {
            "driver": {**PIN_DRIVER, "cells": 4, "substeps": 4096},
            "lift": {"probes": 32, "dump": True},
        },
        "lift.csv",
        "7545f877e0603667a81cd8feea2cae7e079d6a9fcf21791c10cdbc98b820575c",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
def test_report_bytes_are_frozen(tmp_path, name):
    """Report digests recorded before the verifier became a term table and
    the self-test moved next to the algebra (numpy 2.4, sympy 1.14, x86-64);
    the N=2 identities and the integral were recorded before ``F(X)`` became
    ``F(Y)`` along the driver.

    The d=2, N=3 identities run all four kinds of term and the pair and
    triple summation orders, and the integral runs ``compose_FX`` up to
    words of length two; a change of these bytes is a change of output.
    The lift was recorded before its probes were batched: its Chen and
    character maxima sum in another order since, yet read the same bytes.
    The ``-blocks`` and ``-wide`` grids were recorded while the lift still
    built every Magnus substep in one array: the lift now builds them a
    block of cells at a time, and these grids cross block boundaries
    (four blocks, two blocks with the extension and every kind of term, and
    two-cell blocks of 4096 substeps; its cell characters are hashed,
    because one-cell blocks moved their last digits but not its report).
    The general N=3 digests were re-recorded when the mixed compensator
    series gained its trees ``[•k•i]j`` and ``[•i•k]j``: the finest residual
    of ``general-d2n3`` fell from 2.3e-5 to 4.7e-8.  All three general
    digests were re-recorded again when the integrands and ``f_τ`` became
    numeric contractions of the compiled tensors: they sum in another order
    and move by at most 5.6e-17 in any term, residual or ``lhs`` (slopes by
    at most 2.1e-9).  ``lift-d3n3`` and ``lift-d3n3-blocks`` were
    re-recorded when the lift began to sample a spectral signal by inverse
    real FFT: their one changed float each, a Chen or character maximum at
    roundoff, moved by at most 1.1e-16 (``-blocks``' ``chen_max``
    1.1e-16 → 2.2e-16).
    """
    command, doc, report, digest = FROZEN_REPORTS[name]
    cfg = write_config(tmp_path, "c.json", {"name": name, **doc})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    data = (tmp_path / "o" / name / report).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_benchmark_trace_still_attaches():
    """Every library name the benchmark's trace mode wraps still exists."""
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "from probes import Tracer, instrument; instrument(Tracer())"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Experiment list validation
# ---------------------------------------------------------------------------


def test_load_experiments_validation(tmp_path):
    good = write_config(
        tmp_path, "good.json", {"experiments": [{"name": "a"}, {"name": "b"}]}
    )
    assert [e["name"] for e in load_experiments(good)] == ["a", "b"]

    for bad in [
        {"experiments": [{"name": "a"}, {"name": "a"}]},
        {"experiments": [{"name": "a/b"}]},
        {"experiments": [{"name": ".hidden"}]},
        {"experiments": [{"name": ""}]},
        {"experiments": [{"nope": 1}]},
        {"experiments": [{"name": 5}]},
        {"experiments": 5},
        ["not", "an", "object"],
    ]:
        path = write_config(tmp_path, "bad.json", bad)
        with pytest.raises(ConfigError):
            load_experiments(path)

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_experiments(str(broken))


def test_bundled_configs_parse(tmp_path):
    # every shipped config must load cleanly
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(os.listdir(root))
    assert "ito-suite.json" in names
    for fn in names:
        exps = load_experiments(os.path.join(root, fn))
        assert exps, fn


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


def run_remainder_rates(*args):
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "remainder_rates.py"), *args],
        cwd=root,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_remainder_rates_script_prints_one_row_per_coefficient(tmp_path):
    # on its default config (simple-n2-analytic, N = 2) F(X) has the
    # controlled coefficients e and •1
    rows = run_remainder_rates().splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["e", "•1"]

    # a suite config: one table per experiment with an ``ito.F``, in order
    small = analytic_ito_experiment("small")
    lifted = {"name": "lift-only", "driver": small["driver"], "lift": {}}
    pinned = {"name": "pinned", "driver": PIN_DRIVER, "ito": PIN_GENERAL}
    doc = {"experiments": [small, lifted, pinned]}
    tables = run_remainder_rates(write_config(tmp_path, "c.json", doc)).split("\n\n")
    assert [t.split()[1] for t in tables] == ["small", "pinned"]
    keys = [[row.split()[0] for row in t.strip().splitlines()[2:]] for t in tables]
    assert keys[0] == ["e", "•1"]
    assert keys[1][:3] == ["e", "•1", "•2"] and len(keys[1]) > 3
