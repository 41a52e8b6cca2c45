#!/usr/bin/env python3
"""Test the simple Itô identity on rough spectral drivers, inside and around
the regularity window of each truncation level.

For hurst H ∈ {0.27, 0.30, 0.33, 0.40, 0.45} × N ∈ {2, 3} × 16 seeds, plus a
below-window control (H = 0.22 at N = 3, declared α = 0.26), lifts a d = 1
spectral driver (2048 modes on 4096 cells × 4 substeps, so the lift samples
it by FFT) with a ``[•1]1`` intensity, and checks the simple identity for
``F = sin(2x) + x³/3`` on 6 rungs.  Prints, per (N, H), the seed-median
finest residual and the seed-median slope against ``(N+1)·H − 1``.

The declared α is H where H lies in the window ``alpha_window(N)``, and
otherwise the nearest admissible value (0.01 inside the lower end, or the
upper end); the window column says where H lies.  The pre-registered
expectation: in the window, the seed-median slope is at least
``(N+1)·H − 1 − 0.1``; at the control it is below ``(N+1)·α − 1 − 0.1`` for
the declared α, the gap between the declared and the measured roughness.

Usage: python3 scripts/alpha_window.py   (176 lifts, about a minute)
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from planarough.controlled import SmoothFunctionWithDerivatives  # noqa: E402
from planarough.forest_core import parse_forest  # noqa: E402
from planarough.ito_verify import verify_simple  # noqa: E402
from planarough.rough_path import (  # noqa: E402
    DriverSpec,
    SpectralSignal,
    TrigSignal,
    alpha_window,
)

HURSTS = (0.27, 0.30, 0.33, 0.40, 0.45)
SEEDS = range(16)
CONTROL = (3, 0.22, 0.26)  # (N, hurst, declared alpha)
CELLS, SUBSTEPS, MODES, RUNGS = 4096, 4, 2048, 6
F = SmoothFunctionWithDerivatives.from_expressions(["sin(2*x1) + x1**3/3"], ["x1"])
INTENSITY = ((parse_forest("[•1]1"), TrigSignal(((0.15, 3.0, 0.2),))),)


def declared_alpha(N: int, hurst: float) -> tuple:
    """The α a driver of this hurst declares at level N, and where H lies."""
    lo, hi = alpha_window(N)
    if hurst <= lo:
        return lo + 0.01, "below"
    if hurst > hi:
        return hi, "above"
    return hurst, "in"


def run(N: int, hurst: float, alpha: float, seed: int) -> tuple:
    """``(finest residual, slope)`` of the simple identity on one seed."""
    signal = SpectralSignal(hurst=hurst, modes=MODES, seed=seed, amplitude=0.35)
    driver = DriverSpec(
        d=1,
        base=(signal,),
        intensities=INTENSITY,
        cells=CELLS,
        substeps=SUBSTEPS,
        N=N,
        alpha=alpha,
    )
    report = verify_simple(driver, F, rungs=RUNGS)
    return report.finest_residual, report.slope


def row(N: int, hurst: float, alpha: float, window: str) -> str:
    runs = np.array([run(N, hurst, alpha, seed) for seed in SEEDS])
    residual, slope = np.median(runs, axis=0)
    expected = (N + 1) * hurst - 1.0
    if window == "in":
        verdict = "PASS" if slope >= expected - 0.1 else "FAIL"
    elif window == "control":
        # the declared α promises more than the driver has
        verdict = "PASS" if slope < (N + 1) * alpha - 1.0 - 0.1 else "FAIL"
    else:
        verdict = "-"
    return (
        f"{N:>2} {hurst:>5.2f} {alpha:>6.4f} {window:>7} {residual:>10.3e}"
        f" {slope:>7.3f} {expected:>9.3f} {verdict:>7}"
    )


def main() -> int:
    print(
        f"driver: spectral, {MODES} modes, {CELLS} cells x {SUBSTEPS} substeps, "
        f"{RUNGS} rungs, seeds {SEEDS.start}..{SEEDS.stop - 1}; medians over seeds"
    )
    print(
        f"{'N':>2} {'H':>5} {'alpha':>6} {'window':>7} {'residual':>10}"
        f" {'slope':>7} {'(N+1)H-1':>9} {'verdict':>7}"
    )
    for N in (2, 3):
        for hurst in HURSTS:
            print(row(N, hurst, *declared_alpha(N, hurst)), flush=True)
    N, hurst, alpha = CONTROL
    print(row(N, hurst, alpha, "control"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
