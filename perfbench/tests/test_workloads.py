"""Tests of the benchmark's own code: workload generators and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Run from the repository root.  The PASS checks run the CLI in-process on
two seeds per generated workload and take about half a minute.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from probes import layer_metrics  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

from planarough.cli import driver_from, load_experiments, main  # noqa: E402

GENERATED = [w for w in WORKLOADS if w != "ito-suite"]
OTHER_SEED = 7


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert generate(workload, 3) == generate(workload, 3)
    assert generate(workload, 3)[1] != generate(workload, 4)[1]


def test_suite_is_the_bundled_config_for_every_seed():
    command, text = generate("ito-suite", 5)
    assert command == "ito"
    assert text == (ROOT / "configs" / "ito-suite.json").read_text(encoding="utf-8")
    assert generate("ito-suite", 6) == (command, text)


@pytest.mark.parametrize("workload", GENERATED)
@pytest.mark.parametrize("seed", range(8))
def test_generated_configs_load(tmp_path, workload, seed):
    _command, text = generate(workload, seed)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    exps = load_experiments(str(path))
    assert len(exps) == 2
    for exp in exps:
        driver_from(exp["driver"])


@pytest.mark.parametrize("workload", GENERATED)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
def test_generated_workloads_pass(tmp_path, capsys, workload, seed):
    command, text = generate(workload, seed)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 2 and all(line.startswith("PASS ") for line in lines)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert all(row["passed"] for row in summary["experiments"])


def test_self_time_subtracts_direct_children():
    trace = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["rough_path.lift", 1.0, 5.0, 0],
            ["hopf_mkw.star_batch", 2.0, 4.0, 1],
            ["hopf_mkw.star_batch", 6.0, 7.0, 0],
        ],
        "counts": {"hopf_mkw.star_batch_calls": 2},
    }
    m = layer_metrics(trace)
    assert m["cli.main_s"] == 10.0
    assert m["cli.self_s"] == 10.0 - 4.0 - 1.0
    assert m["rough_path.lift_self_s"] == 2.0
    assert m["hopf_mkw.star_batch_s"] == 3.0
    assert m["hopf_mkw.star_batch_calls"] == 2
    assert m["hopf_mkw.star_row_calls"] == 0
