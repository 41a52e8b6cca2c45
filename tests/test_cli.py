"""End-to-end CLI behavior: commands, determinism, exit codes."""

import concurrent.futures
import contextlib
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

from planarough import cli, rough_path
from planarough.calculus import rough_integral
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
from planarough.controlled import compose_FX
from planarough.forest_core import bracket_alphabet
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


@pytest.mark.parametrize(
    "jobs, experiments, workers", [(4, 2, [2]), (2, 3, [2]), (3, 1, [])]
)
def test_jobs_pool_starts_no_idle_workers(
    tmp_path, monkeypatch, jobs, experiments, workers
):
    # a forked pool starts all max_workers processes on its first submit;
    # the stand-in records the size and runs each call in this process
    sizes = []

    class InlinePool(contextlib.AbstractContextManager):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # main imports the pool only for --jobs > 1, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    exps = [{"name": f"e{k}", "dump": {"d": 1}} for k in range(experiments)]
    cfg = write_config(tmp_path, "c.json", {"experiments": exps})
    argv = ["dump", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", str(jobs)]
    assert main(argv) == EXIT_OK
    assert sizes == workers
    assert len(read_json(tmp_path, "o", "summary.json")["experiments"]) == experiments


def test_serial_run_loads_no_process_pool(tmp_path):
    # a --jobs 1 run, and every set-up probe, imports planarough.cli; the
    # pool and multiprocessing are imported only when --jobs > 1 uses them
    exps = [{"name": f"e{k}", "dump": {"d": 1}} for k in range(2)]
    cfg = write_config(tmp_path, "c.json", {"experiments": exps})
    argv = ["dump", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]
    pool = ("concurrent.futures.process", "multiprocessing")
    code = (
        "import sys; from planarough.cli import main; rc = main(%a); "
        "print(rc, [m for m in %a if m in sys.modules])" % (argv, pool)
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


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
    for what in ("basis", "coproduct"):
        doc = json.loads(json.dumps(base))
        doc["dump"]["what"] = what
        doc["name"] = what
        cfg = write_config(tmp_path, f"{what}.json", doc)
        assert main(["dump", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    basis_lines = (tmp_path / "out" / "basis" / "basis.csv").read_text().splitlines()
    assert basis_lines[0] == "index,forest,degree,weight"
    assert len(basis_lines) == 1 + 14  # bracket alphabet census at d=1

    cop = (tmp_path / "out" / "coproduct" / "coproduct.csv").read_text("utf-8")
    assert cop.splitlines()[0] == "forest,left,right,coefficient"


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


def run_fresh(code: str, **environ) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter from the repository root with its
    ``src`` on ``PYTHONPATH``, so no module this process loaded is there;
    ``environ`` sets further environment variables."""
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
        text=True, timeout=120,
    )


def run_cli_fresh(argv, **environ) -> subprocess.CompletedProcess:
    """Run ``planarough argv`` in a new interpreter (see :func:`run_fresh`)."""
    code = f"import sys; from planarough.cli import main; sys.exit(main({argv!a}))"
    return run_fresh(code, **environ)


def run_cli_ascii(argv) -> subprocess.CompletedProcess:
    """Run ``planarough argv`` in a new interpreter under an ASCII locale:
    the C locale, with neither locale coercion nor UTF-8 mode."""
    return run_cli_fresh(argv, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")


def test_lift_dump_is_utf8_under_an_ascii_locale(tmp_path):
    # the forest keys hold •, which ASCII cannot encode; the lift files are
    # UTF-8 under any locale, the bytes of an in-process run
    exp = analytic_ito_experiment("dumped")
    exp.pop("ito")
    exp["driver"]["cells"] = 32
    exp["lift"] = {"probes": 8, "dump": True}
    cfg = write_config(tmp_path, "c.json", exp)
    proc = run_cli_ascii(["lift", "--config", cfg, "--out", str(tmp_path / "ascii")])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "here")]) == EXIT_OK
    for fn in ("lift.csv", "lift.meta.json"):
        ascii_bytes = (tmp_path / "ascii" / "dumped" / fn).read_bytes()
        assert ascii_bytes == (tmp_path / "here" / "dumped" / fn).read_bytes()


def test_exit_config_on_a_name_the_locale_cannot_encode(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"name": "té"})
    proc = run_cli_ascii(["dump", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "config error: bad experiment name" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_exit_config_on_a_name_stdout_cannot_encode(tmp_path):
    # the file system takes "té", but the verdict line naming it cannot be
    # printed to an ASCII stdout: rejected before anything is written
    cfg = write_config(tmp_path, "c.json", {"name": "té"})
    argv = ["dump", "--config", cfg, "--out", str(tmp_path / "o")]
    proc = run_cli_fresh(argv, PYTHONIOENCODING="ascii")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "config error: bad experiment name" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_general_ito_leaves_numpy_test_modules_unloaded(tmp_path):
    # a general ito run loads none of numpy.f2py, numpy.testing and unittest
    # (a star import of numpy, as sympy's lambdify of "numpy" does, loads all),
    # nor numpy.random, whose import (secrets, hmac, _hashlib) costs 10-14 ms
    # and 6.4 MB of RSS per process; a driver without a spectral signal
    # draws no random numbers
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
    code = (
        "import sys; from planarough.cli import main; "
        f"rc = main(['ito', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]); "
        "print(rc, sorted(m for m in ('numpy.f2py', 'numpy.testing', 'unittest', "
        "'numpy.random') if m in sys.modules))"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_only_commands_that_parse_expressions_load_sympy(tmp_path):
    # sympy's import was most of a cold start; expressions are parsed by the
    # ast whitelist now, so no command loads it, those that parse included,
    # and only those that parse compile the parser
    exp = analytic_ito_experiment("e")
    exp["driver"]["cells"] = 64
    exp["ito"]["rungs"] = 3
    exp["lift"] = {"probes": 4}
    exp["hopf"] = {"d": 1, "max_weight": 2}
    exp["dump"] = {"d": 1, "max_weight": 2}
    exp["integrate"] = {**INTEGRATE, "rungs": 3}
    exp["rde"] = {"fields": RDE["fields"], "xi": RDE["xi"]}
    cfg = write_config(tmp_path, "c.json", exp)
    commands = ("lift", "dump", "hopf-selftest", "ito", "integrate", "rde")
    code = (
        "import sys; import planarough; print('sympy:', 'sympy' in sys.modules)\n"
        "from planarough.cli import main\n"
        f"for command in {commands!r}:\n"
        f"    rc = main([command, '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
        "    print(f'sympy after {command}:', rc, 'sympy' in sys.modules,\n"
        "          'planarough.taylor' in sys.modules)\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    # the commands that parse run last, so the parser stays unloaded before
    parses = {"ito", "integrate", "rde"}
    assert [l for l in proc.stdout.splitlines() if l.startswith("sympy")] == [
        "sympy: False"
    ] + [f"sympy after {c}: {EXIT_OK} False {c in parses}" for c in commands]


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
        # targets since dropped: the lift is written by ``lift``, the
        # ★ table is the coproduct table with its columns reordered
        ("dump", {"dump": {"what": "lift"}}),
        ("dump", {"dump": {"what": "star"}}),
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


def count_pipelines(monkeypatch) -> list:
    """Record the alphabet of every Magnus pipeline that runs from now on."""
    pipelines = []
    real = rough_path._path

    def counted(driver, algebra, *args):
        pipelines.append(algebra.basis.letters)
        return real(driver, algebra, *args)

    monkeypatch.setattr(rough_path, "_path", counted)
    return pipelines


def test_unknown_theorem_fails_before_the_lift(tmp_path, monkeypatch):
    pipelines = count_pipelines(monkeypatch)
    exp = analytic_ito_experiment()
    exp["ito"]["theorem"] = "special"
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert pipelines == []
    exp["ito"]["theorem"] = "simple"  # the counter counts
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(pipelines) == 1


@pytest.mark.parametrize("theorem", ["simple", "general"])
def test_ito_lifts_once_over_the_bracket_alphabet(tmp_path, monkeypatch, theorem):
    # the identities live on the bracket extension X̂, whose base columns are
    # the lift X bit for bit: each verification lifts its driver once, to X̂
    pipelines = count_pipelines(monkeypatch)
    exp = {"name": theorem, "driver": PIN_DRIVER, "ito": {"F": PIN_F, "rungs": 3}}
    if theorem == "general":
        exp["ito"] = PIN_GENERAL
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert pipelines == [bracket_alphabet(2)]


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
            "rde",
            ("rde",),
            {"fields": {"exprs": [[]], "vars": []}, "xi": []},
            id="rde-zero-dimensional-state",
        ),
        # a report once held its error as a bare Infinity token, no JSON
        pytest.param(
            "rde",
            ("rde",),
            {**RDE, "oracle": {"exprs": ["exp(exp(exp(3*t)))"], "vars": ["t"]}},
            id="rde-oracle-not-finite",
        ),
        pytest.param(
            "rde",
            ("rde",),
            {**RDE, "oracle": {"exprs": ["1/t"], "vars": ["t"]}},
            id="rde-oracle-pole",
        ),
        # uncaught exceptions once: AttributeError (a non-expression, a
        # relation), KeyError('ComplexInfinity') from lambdify, TypeError
        # storing a complex value, ValueError from os.makedirs
        pytest.param("ito", ("ito", "F", "exprs"), [None], id="ito-expr-null"),
        pytest.param("ito", ("ito", "F", "exprs"), [[1, 2]], id="ito-expr-list"),
        pytest.param("ito", ("ito", "F", "exprs"), ["zoo"], id="ito-expr-zoo"),
        pytest.param("ito", ("ito", "F", "exprs"), ["x1/0"], id="ito-expr-x1-over-0"),
        pytest.param("ito", ("ito", "F", "exprs"), ["x1 > 0"], id="ito-expr-relation"),
        pytest.param("ito", ("ito", "F", "exprs"), ["I*x1"], id="ito-expr-imaginary"),
        # the whitelist: Python that is no arithmetic, names sympy knew, and
        # inputs that once ended in RecursionError, MemoryError or exit 1
        pytest.param(
            "ito", ("ito", "F", "exprs"), ['__import__("os").getcwd() or x1'],
            id="ito-expr-import",
        ),
        pytest.param("ito", ("ito", "F", "exprs"), ["x1.real"], id="ito-expr-attribute"),
        pytest.param("ito", ("ito", "F", "exprs"), ["[x1][0]"], id="ito-expr-subscript"),
        pytest.param("ito", ("ito", "F", "exprs"), ["(lambda: x1)()"], id="ito-expr-lambda"),
        pytest.param("ito", ("ito", "F", "exprs"), ["sin(x=x1)"], id="ito-expr-keyword"),
        pytest.param(
            "ito", ("ito", "F", "exprs"), ["+".join(["x1"] * 20000)], id="ito-expr-sum-20000"
        ),
        pytest.param(
            "ito", ("ito", "F", "exprs"), ["-" * 100000 + "x1"], id="ito-expr-minus-100000"
        ),
        pytest.param("ito", ("ito", "F", "exprs"), ["abs(x1)"], id="ito-expr-abs"),
        pytest.param("ito", ("ito", "F", "exprs"), ["pi*x1"], id="ito-expr-pi"),
        pytest.param("ito", ("ito", "F", "exprs"), ["1e400*x1"], id="ito-expr-1e400"),
        pytest.param("ito", ("name",), "a\0b", id="ito-name-nul"),
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
        # a ladder of one rung fits no slope, requested or clamped to the
        # grid's levels; it once passed with the converged sentinel
        pytest.param("ito", ("ito", "rungs"), 1, id="ito-one-rung"),
        pytest.param("ito", ("ito",), {**GENERAL, "rungs": 1}, id="ito-general-one-rung"),
        pytest.param("integrate", ("integrate", "rungs"), 1, id="integrate-one-rung"),
        pytest.param("ito", ("driver", "cells"), 1, id="ito-one-cell"),
        pytest.param("integrate", ("driver", "cells"), 1, id="integrate-one-cell"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_config_on_bad_value(tmp_path, capsys, command, path, value):
    # a numpy RuntimeWarning raises here, so a bad value that warns on its
    # way to the config error exits 70 and fails; every command's section is
    # there, so no case exits on a missing one
    exp = analytic_ito_experiment("bad")
    exp["driver"]["cells"] = 64
    exp["lift"] = {}
    exp["integrate"] = {**INTEGRATE}
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
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not err[0].startswith("config error: missing key"), err


def test_expressions_are_never_executed(tmp_path, capsys):
    target = tmp_path / "touched"
    exp = analytic_ito_experiment("bad")
    exp["ito"]["F"]["exprs"] = [f'__import__("pathlib").Path({str(target)!r}).touch() or x1']
    cfg = write_config(tmp_path, "c.json", exp)
    assert main(["ito", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not target.exists()


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
    # so the lift samples the signal per block by its sum of sines and passes
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
    "command, driver, F",
    [
        pytest.param(
            "lift", {"base": [{"kind": "spectral", "hurst": -400, "modes": 8}]},
            "x1**2", id="lift-spectral-hurst-minus-400",
        ),
        pytest.param(
            "ito", {"base": [{"kind": "spectral", "hurst": -400, "modes": 8}]},
            "x1**2", id="ito-spectral-hurst-minus-400",
        ),
        pytest.param(
            "ito", {"base": [{"kind": "poly", "coeffs": [0, 1e300, 1e300]}]},
            "x1**2", id="ito-poly-1e300",
        ),
        pytest.param(
            "ito", {"base": [{"kind": "poly", "coeffs": [0, 3]}]},
            "exp(exp(exp(x1)))", id="ito-F-exp-exp-exp",
        ),
        pytest.param(
            "ito", {"base": [{"kind": "poly", "coeffs": [0, 1]}]},
            "log(x1)", id="ito-F-log-of-zero",
        ),
        # 64 x 1024 substeps on [0, 4] are two Magnus blocks; the base is
        # finite on the first and its rate 3e307·t² overflows from t = 2.45
        pytest.param(
            "ito",
            {
                "T": 4.0,
                "substeps": 1024,
                "base": [{"kind": "poly", "coeffs": [0, 0, 0, 1e307]}],
            },
            "x1**2", id="ito-poly-overflows-in-a-late-block",
        ),
        # two signals: the intensity overflows in the first block, the base
        # only in the second
        pytest.param(
            "lift",
            {
                "T": 4.0,
                "substeps": 1024,
                "base": [{"kind": "poly", "coeffs": [0, 0, 0, 1e307]}],
                "intensities": [
                    {
                        "tree": "[•1]1",
                        "signal": {"kind": "poly", "coeffs": [0, 0, 0, 4e307]},
                    }
                ],
            },
            "x1**2", id="lift-poly-intensity-overflows-first",
        ),
        # every aligned block is finite, an unaligned probed interval is not
        pytest.param(
            "lift",
            {
                "N": 3,
                "alpha": 0.3,
                "base": [{"kind": "trig", "terms": [[3e102, 40, 0]]}],
            },
            "x1**2",
            id="lift-trig-3e102-probes",
        ),
    ],
)
def test_exit_config_on_non_finite_values(tmp_path, command, driver, F):
    # non-finite sampled signals, characters and derivative tensors once
    # ended in exit 1 and reports holding bare NaN or Infinity, no JSON; a
    # fresh interpreter shows what a user sees on stderr, numpy's
    # RuntimeWarnings included, which the test runner would otherwise catch
    exp = analytic_ito_experiment("huge")
    exp["driver"].update(cells=64, **driver)
    exp["ito"]["F"]["exprs"] = [F]
    exp["lift"] = {}
    cfg = write_config(tmp_path, "c.json", exp)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    proc = run_fresh(
        f"import sys; from planarough.cli import main; sys.exit(main({argv!r}))"
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not (tmp_path / "o" / "huge").exists()


def test_exit_config_names_the_first_non_finite_signal_in_grid_order(
    tmp_path, capsys
):
    # the lift samples one Magnus block at a time (two here), so the signal
    # named is the first non-finite one in grid order: the intensity, which
    # overflows in the first block, not the base, first in letter order
    exp = analytic_ito_experiment("huge")
    exp["driver"].update(
        T=4.0,
        cells=64,
        substeps=1024,
        base=[{"kind": "poly", "coeffs": [0, 0, 0, 1e307]}],
    )
    exp["driver"]["intensities"][0]["signal"]["coeffs"] = [0, 0, 0, 4e307]
    exp["lift"] = {}
    cfg = write_config(tmp_path, "c.json", exp)
    for command in ("lift", "ito"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "the signal on [•1]1 is not finite on the grid" in err, err
        assert not (out / "huge").exists()


def test_reports_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli.write_json(str(tmp_path / "r.json"), {"x": float("nan")})


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["lift", "--config"],
        ["lift", "--unknown"],
        ["dump", "--jobs", "x"],
        ["dump", "--jobs", "0"],
        ["dump", "--jobs", "-3"],
        ["dump", "--out", ""],
    ],
)
def test_usage_errors_exit_config(capsys, argv):
    # argparse's own code, 2, is the code of a diverged solution
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: planarough")
    assert "error:" in err.splitlines()[-1]


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--jobs" in capsys.readouterr().out


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
        "5d3ef1fbc8b25bdd9e1f2259d577d7530618d70826f389e3e2a9ba3b4e64b140",
    ),
    "general-d2n2": (
        "ito",
        {"driver": PIN_DRIVER_N2, "ito": PIN_GENERAL},
        "ito_report.json",
        "b3cb573cad217047b5e87af01ef183f52c5378d49ad43d36f2a9b3e97197d640",
    ),
    "integrate-d2n3": (
        "integrate",
        {"driver": PIN_DRIVER, "integrate": {"F": PIN_F, "letter": 2, "rungs": 4}},
        "integrate_report.json",
        "e7d33b8f88a85b6b176284e1b810e8da090dd138efdb2f804e01b4defe393fc4",
    ),
    "simple-d2n3": (
        "ito",
        {
            "driver": PIN_DRIVER,
            "ito": {"theorem": "simple", "F": PIN_F, "rungs": 4},
        },
        "ito_report.json",
        "5efed4c9f0d6087350c680faa7caa2a4f3d5e0a4f829a7bfe389c50269076433",
    ),
    "general-d2n3": (
        "ito",
        {"driver": PIN_DRIVER, "ito": PIN_GENERAL},
        "ito_report.json",
        "9d2c3394fc9f05297f0cb41950929053567a0048b685ceb32c31c6cbb35def09",
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
        "60e5277f135f2b96b8fe84f4b232bc76349966dff570b62793baca884d5b7251",
    ),
    "general-d2n3-blocks": (
        "ito",
        {"driver": {**PIN_DRIVER, "cells": 1024, "substeps": 4}, "ito": PIN_GENERAL},
        "ito_report.json",
        "69d15b733cf9bcf54e00d087e4cfd5b286362e7d3e08b4eb0266f0897b10693e",
    ),
    "lift-d2n3-wide": (
        "lift",
        {
            "driver": {**PIN_DRIVER, "cells": 4, "substeps": 4096},
            "lift": {"probes": 32, "dump": True},
        },
        "lift.csv",
        "b7ac77427017c45f37958ae69ebe0d226f7debcc019906d36ef072e35b2dbe82",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
def test_report_bytes_are_frozen(tmp_path, name):
    """Report digests recorded before the verifier became a term table and
    the self-test moved next to the algebra (numpy 2.4, sympy 1.14, x86-64);
    the N=2 identities and the integral were recorded before ``F(X)`` became
    ``F(Y)`` along the driver.

    The d=2, N=3 identities run all four kinds of term and the pair and
    triple summation orders, and the integral composes ``F`` along the
    driver up to words of length two; a change of these bytes is a change
    of output.
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
    1.1e-16 → 2.2e-16).  ``general-d2n3``, ``general-d2n3-blocks`` and
    ``simple-d2n3`` were re-recorded when the extension began to take the
    bracket letters from the intensity samples (``−Δλ`` on ``[•j]i``, equal
    to the old substep difference up to roundoff) and dropped the all-zero
    columns of letters without one: only tilde and c̄ totals that vanish in
    exact arithmetic moved, by at most 2.7e-21.  ``general-d2n3`` and
    ``general-d2n3-blocks`` were re-recorded for Taylor-jet derivatives,
    when sympy stopped differentiating the expressions: four
    ``tilde_third_order`` totals of order 1e-21, which vanish in exact
    arithmetic, moved by at most 1.9e-37; every other ``ito`` and
    ``integrate`` digest kept its bytes.

    Five digests were re-recorded for the GEMM ★ kernel, which sums the
    structure constants by index pair in one matrix product and adds the
    unit terms after them.  GEMM ★ kernel, ``general-d2n3``: the
    ``tilde_third_order`` and ``cbar_mixed_order`` totals, which vanish in
    exact arithmetic, moved by at most 4.2e-20, and one
    ``bracket_second_order`` total by one ulp (6.9e-18).  GEMM ★ kernel,
    ``general-d2n3-blocks``: the same totals moved by at most 1.5e-21.
    GEMM ★ kernel, ``simple-d2n3``: the ``tilde_third_order`` totals moved
    by at most 4.6e-20.  GEMM ★ kernel, ``lift-d3n3-blocks``: ``chen_max``
    2.2204e-16 → 2.2031e-16 and ``character_max`` 1.058e-16 → 1.093e-16.
    GEMM ★ kernel, ``lift-d2n3-wide``: 85 of the 204 dumped values moved, by
    at most 3.5e-18 (7.7e-16 relative).  Every verdict and every other
    digest kept its bytes.

    Five digests were re-recorded when every term became one pairing of
    ``X̂``'s cell characters with a node functional, summed column by
    column: ``simple-d2n2``, ``general-d2n2``, ``simple-d2n3``,
    ``general-d2n3`` and ``general-d2n3-blocks``.  The rough sums against
    the base letters now read ``X̂``'s base columns, and every sum adds in
    another order.  Terms, ``rhs`` and residuals moved by at most 1.4e-16
    and slopes by at most 4.6e-8 (``general-d2n3-blocks``); ``lhs``, every
    verdict and the other digests kept their bytes.

    ``integrate-d2n3`` was re-recorded when ``integrate`` began to total its
    rungs through the verifier's pairing, which sums per forest column and
    then over the columns, where ``rough_integral`` added every forest into
    one array per cell first: its values and residuals moved by at most
    1.4e-17 and its slope by 8.1e-13; its verdict kept its bytes.

    ``general-d2n2``, ``general-d2n3`` and ``general-d2n3-blocks`` were
    re-recorded when every integrand began to be read off the one
    composition ``F(Y)`` through the coproduct, where a product rule had
    derived each integrand's jets: an integrand's coefficient now sums the
    coefficients of ``F(Y)`` at several forests, in another order.  One
    ``bracket_second_order`` total moved by one ulp (6.9e-18) in each,
    ``rhs`` and residuals by at most 2.8e-17, ``cbar_mixed_order`` totals,
    which vanish in exact arithmetic, by at most 2.7e-20, and slopes by at
    most 1.2e-11 (``general-d2n3``); ``lhs``, every verdict and every other
    digest kept their bytes.
    """
    command, doc, report, digest = FROZEN_REPORTS[name]
    cfg = write_config(tmp_path, "c.json", {"name": name, **doc})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    data = (tmp_path / "o" / name / report).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "driver, F, letter",
    [
        pytest.param(PIN_DRIVER, PIN_F, 1, id="d2n3-letter1"),
        pytest.param(PIN_DRIVER, PIN_F, 2, id="d2n3-letter2"),
        pytest.param(
            analytic_ito_experiment()["driver"], INTEGRATE["F"], 1, id="d1n2-analytic"
        ),
    ],
)
def test_integrate_matches_the_reference_integrator(tmp_path, driver, F, letter):
    """``integrate`` totals each rung as the verifier's pairing; on every rung
    that equals the compensated sum of ``rough_integral`` over
    ``compose_FX``, which it ran before, up to the order of the sum."""
    sec = {"F": F, "letter": letter, "rungs": 4}
    cfg = write_config(tmp_path, "c.json", {"name": "i", "driver": driver, "integrate": sec})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = read_json(tmp_path, "o", "i", "integrate_report.json")
    x = rough_path.lift(cli.driver_from(driver))
    z = compose_FX(x, cli.func_from(F), x.N - 1)
    want = [float(rough_integral(z, x, letter, s).sum()) for s in rep["strides"]]
    assert len(want) == 4
    assert rep["values"] == pytest.approx(want, rel=1e-13, abs=0)


def test_benchmark_trace_still_attaches(tmp_path):
    """Every library name the benchmark's trace mode wraps still exists, and
    a traced ``ito`` run passes through its hooks (the ``after`` hooks read
    the paths they get back) and records the verifier's span."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "from probes import Tracer, instrument; instrument(Tracer())"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr

    exp = analytic_ito_experiment("traced")
    exp["driver"]["cells"] = 64
    cfg = write_config(tmp_path, "c.json", exp)
    out, trace = str(tmp_path / "o"), str(tmp_path / "trace.json")
    argv = ["trace", "ito", cfg, out, trace]
    proc = run_fresh(
        "import sys; sys.path.insert(0, 'perfbench'); import probes; "
        f"sys.exit(probes.main({argv!r}))"
    )
    assert proc.returncode == 0, proc.stderr
    spans = [span[0] for span in read_json(trace)["spans"]]
    assert "ito_verify.verify" in spans, sorted(set(spans))


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
        {"experiments": [{"name": "a\ud800"}]},
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


def test_alpha_window_script_runs_one_seed():
    # one seed of one row of the script's table: a lift of its 2048-mode
    # spectral driver and the simple identity on it; the verdicts read
    # seed medians, so none is asserted on one seed
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "alpha_window.py")
    spec = importlib.util.spec_from_file_location("alpha_window", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    alpha, _window = script.declared_alpha(3, 0.30)
    residual, slope = script.run(3, 0.30, alpha, 0)
    assert math.isfinite(residual) and residual > 0
    assert math.isfinite(slope)
