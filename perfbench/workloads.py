"""Workload definitions: the CLI command and the experiment config of each.

``ito-suite`` is the bundled reference suite, read verbatim.  The other two
are generated from the seed: the seed picks the driver's coefficients and
phases, the initial state and the probe seeds, never sizes or expressions,
so every seed asks for the same amount of work.  Generated configs are
written as sorted, indented JSON, so one seed always gives the same bytes.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("ito-suite", "general-d2n3", "lift-d3n3")

SUITE_CONFIG = os.path.join("configs", "ito-suite.json")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _trig(rng: random.Random, amps, freqs) -> dict:
    return {
        "kind": "trig",
        "terms": [
            [_u(rng, 0.8 * a, a), float(w), _u(rng, 0.0, 3.0)]
            for a, w in zip(amps, freqs)
        ],
    }


def _poly(rng: random.Random, scales) -> dict:
    coeffs = [0.0]
    for s in scales:
        coeffs.append(_u(rng, 0.5 * s, s) * rng.choice((-1, 1)))
    return {"kind": "poly", "coeffs": coeffs}


def _general_experiment(rng: random.Random, name: str) -> dict:
    # F and the fields stay fixed: their sympy compile is most of this
    # workload, and its cost depends on the expressions' coefficients.
    return {
        "name": name,
        "driver": {
            "d": 2,
            "N": 3,
            "alpha": 0.3,
            "T": 1.0,
            "cells": 4096,
            "substeps": 2,
            "base": [_trig(rng, (0.6, 0.2), (2.0, 5.0)), _poly(rng, (0.8, 0.4))],
            "intensities": [{"tree": "[•1]2", "signal": _poly(rng, (0.2,))}],
        },
        "ito": {
            "theorem": "general",
            "F": {"exprs": ["sin(y1) + 0.3*y1*y2"], "vars": ["y1", "y2"]},
            "fields": {
                "exprs": [["1 + 0.2*y2**2", "0.3*y1"], ["0.25", "1 - y2/4"]],
                "vars": ["y1", "y2"],
            },
            "xi": [_u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5)],
            "rungs": 6,
            "tolerance": 1e-5,
        },
    }


def _lift_experiment(rng: random.Random, name: str) -> dict:
    return {
        "name": name,
        "driver": {
            "d": 3,
            "N": 3,
            "alpha": 0.3,
            "T": 1.0,
            "cells": 2048,
            "substeps": 8,
            "base": [
                {
                    "kind": "spectral",
                    "hurst": _u(rng, 0.7, 0.85),
                    "modes": 64,
                    "seed": rng.randrange(1 << 16),
                    "amplitude": _u(rng, 0.2, 0.4),
                },
                _trig(rng, (0.7, 0.25), (3.0, 7.0)),
                _poly(rng, (1.0, 0.5)),
            ],
            "intensities": [
                {"tree": "[•1]2", "signal": _poly(rng, (0.3, 0.2))},
                {"tree": "[•3•2]1", "signal": _trig(rng, (0.15,), (4.0,))},
            ],
        },
        "lift": {"probes": 32, "seed": rng.randrange(1 << 16), "tolerance": 1e-10},
    }


def generate(workload: str, seed: int) -> tuple:
    """Return ``(command, config_text)`` for a workload and seed.

    ``ito-suite`` ignores the seed and returns the bundled suite unchanged,
    read relative to the current directory (the repository root).
    """
    if workload == "ito-suite":
        with open(SUITE_CONFIG, encoding="utf-8") as fh:
            return "ito", fh.read()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "general-d2n3":
        command = "ito"
        exps = [_general_experiment(rng, f"general-d2n3-{k}") for k in (1, 2)]
    elif workload == "lift-d3n3":
        command = "lift"
        exps = [_lift_experiment(rng, f"lift-d3n3-{k}") for k in (1, 2)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    text = json.dumps({"experiments": exps}, sort_keys=True, indent=2) + "\n"
    return command, text
