"""Log-log slope fitting for empirical convergence orders.

All rate estimates in the package funnel through :func:`fit_loglog`, which
implements one shared convention for every caller: residuals at or below
:data:`RESIDUAL_FLOOR` are treated as exact (pure roundoff) and excluded from
the fit, and when fewer than two informative points remain the fit returns
``+inf`` — "converged faster than measurable", which passes any threshold.

:class:`MeshLadder` holds the one mesh-ladder policy of the reports: which
strides a refinement study uses, their mesh sizes, the residual fit along
them, and the one report serialiser, :meth:`MeshLadder.to_dict`, which
writes every field of a report and a ``+inf`` slope as ``None`` plus a flag.
:class:`ConfigError`, which every module raises for a bad input, lives here
because this module imports no other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """A driver or experiment configuration violates its contract."""


#: Residuals at or below this are considered float roundoff, not signal.
RESIDUAL_FLOOR = 1e-10


def fit_loglog(scales, values) -> float:
    """Least-squares slope of log(values) against log(scales).

    Args:
        scales: positive mesh sizes / step sizes.
        values: nonnegative residual magnitudes, same length.

    Returns:
        Fitted slope, or ``+inf`` when fewer than two points lie above
        :data:`RESIDUAL_FLOOR` (the quantity vanishes to within roundoff at
        every scale).
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.shape != values.shape:
        raise ValueError("scales and values must have matching shapes")
    keep = values > RESIDUAL_FLOOR
    if keep.sum() < 2:
        return math.inf
    return float(np.polyfit(np.log(scales[keep]), np.log(values[keep]), 1)[0])


@dataclass
class MeshLadder:
    """Residuals of one quantity along a dyadic mesh ladder, and their slope.

    The ladder runs coarsest first, so the finest rung (stride 1) is last;
    a rung of stride ``s`` cells has mesh size ``scales = T·s/cells``.
    Reports built on a ladder add their own fields and serialise them all
    with :meth:`to_dict`.
    """

    strides: list
    scales: list
    residuals: list
    slope: float

    @staticmethod
    def rungs_of(x, rungs: int) -> tuple:
        """Strides and mesh sizes of up to ``rungs`` rungs on the grid of
        ``x``, a driver or its lift.

        The request is clamped to the grid's dyadic levels; a ladder of fewer
        than two rungs fits no slope, so it is a :class:`ConfigError`.
        """
        used = min(rungs, x.cells.bit_length())
        if used < 2:
            raise ConfigError(
                f"a mesh ladder needs two rungs or more, got {used} "
                f"({rungs} requested on {x.cells} cells)"
            )
        strides = [1 << (used - 1 - r) for r in range(used)]
        return strides, [x.T * s / x.cells for s in strides]

    @staticmethod
    def fit(strides, scales, values, reference) -> dict:
        """Ladder fields of ``values`` converging to ``reference``.

        Residuals are ``|value − reference|`` per rung; the slope is their
        :func:`fit_loglog` fit against the mesh sizes.
        """
        residuals = [abs(v - reference) for v in values]
        return {
            "strides": [int(s) for s in strides],
            "scales": [float(s) for s in scales],
            "residuals": [float(r) for r in residuals],
            "slope": fit_loglog(scales, residuals),
        }

    def to_dict(self) -> dict:
        """Every field as JSON; a ``+inf`` slope is ``None`` plus a flag."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["slope"] = None if math.isinf(self.slope) else self.slope
        out["slope_is_converged_sentinel"] = math.isinf(self.slope)
        return out
