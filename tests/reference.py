"""Reference code that only the tests use: the scalar extension paths of a
bracket extension and the series a bracket letter abbreviates.

The acceptance criteria, ``test_paths``, ``test_ito`` and ``test_hopf``
measure the library against these; the library itself pairs the extension's
cell characters with node functionals (:func:`planarough.ito_verify.pair`).
"""

from dataclasses import dataclass

import numpy as np

from planarough.forest_core import b_plus, concat, single
from planarough.rough_path import RoughPath


def bracket_series(i: int, j: int) -> dict:
    """The level-two combination a bracket letter abbreviates."""
    return {concat(single(j), single(i)): 1, b_plus(single(j), i): -1}


@dataclass(eq=False)
class ScalarExtensionPath:
    """A scalar functional of an extended lift, evaluated per interval.

    ``increment(a, b)`` pairs the character of ``[t_a, t_b]`` with a fixed
    series — the defining two-parameter evaluation.  Whether those increments
    are additive over (s, u, t) is a property of the series (additive exactly
    when the series is primitive modulo the bracket relation), not of this
    container; :meth:`additivity_defect` measures it.  For a non-primitive
    series, Chen's relation makes that defect equal to the reduced coproduct
    of the series paired with the characters of ``[t_a, t_u]`` (left slot)
    and ``[t_u, t_b]`` (right slot).
    """

    xhat: RoughPath
    series: dict

    def __post_init__(self):
        self._vec = self.xhat.algebra.basis.vector(self.series)

    def increment(self, a: int, b: int) -> float:
        return float(self.xhat.eval_nodes(a, b) @ self._vec)

    def cell_increments(self, stride: int) -> np.ndarray:
        """Direct increments of all aligned stride-blocks of the grid."""
        return self.xhat.stride_chars(stride) @ self._vec

    def additivity_defect(self, a: int, u: int, b: int) -> float:
        return self.increment(a, b) - self.increment(a, u) - self.increment(u, b)
