#!/usr/bin/env python3
"""Measure controlled-path remainder decay rates across dyadic scales.

For the controlled expansion of F(driver) on a config's driver, prints the
empirical Hölder-type slope of each coefficient's remainder together with the
graded bound it should dominate, (N − weight(τ))·α.  The config holds one
experiment or a list of them, as for the CLI; each experiment with an
``ito.F`` gets its own table, in config order.

Usage: python3 scripts/remainder_rates.py [CONFIG]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from planarough.cli import driver_from, func_from, load_experiments  # noqa: E402
from planarough.controlled import compose_FX  # noqa: E402
from planarough.rough_path import lift  # noqa: E402

DEFAULT = os.path.join(
    os.path.dirname(__file__), "..", "configs", "simple-n2-analytic.json"
)


def print_table(exp: dict) -> None:
    x = lift(driver_from(exp["driver"]))
    func = func_from(exp["ito"]["F"])
    z = compose_FX(x, func, x.N - 1)

    print(f"driver: {exp['name']}  N={x.N}  alpha={x.alpha}  cells={x.cells}")
    print(f"{'coefficient':<12} {'measured slope':>15} {'graded bound':>13}")
    for f in sorted(z.coeffs, key=lambda f: (f.weight, f.key)):
        slope = z.remainder_rate(f)
        bound = (x.N - f.weight) * x.alpha
        shown = "conv" if slope == float("inf") else f"{slope:.3f}"
        print(f"{f.key:<12} {shown:>15} {bound:>13.3f}")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT
    exps = [e for e in load_experiments(path) if "F" in e.get("ito", {})]
    for k, exp in enumerate(exps):
        if k:
            print()
        print_table(exp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
