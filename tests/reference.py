"""Reference code that only the tests use: the scalar extension paths of a
bracket extension, the series a bracket letter abbreviates, the ★-exponential
by full products, the whole-grid sampler of a driver's signals, the reader of
the lift that ``planarough lift`` writes with ``"dump": true``, and the
composition ``F(Y)`` and the contraction ``D^mF:(v1, …, vm)`` written out by
their definitions.

The acceptance criteria, ``test_paths``, ``test_ito`` and ``test_hopf``
measure the library against these; the library itself pairs the extension's
cell characters with node functionals (:func:`planarough.ito_verify.pair`)
and only writes lifts (:func:`planarough.cli.write_lift`).
"""

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from planarough.forest_core import b_plus, concat, forest, parse_forest, single
from planarough.rough_path import _GAUSS, ConfigError, RoughPath, _pyramid, get_algebra


def bracket_series(i: int, j: int) -> dict:
    """The level-two combination a bracket letter abbreviates."""
    return {concat(single(j), single(i)): 1, b_plus(single(j), i): -1}


def exp_by_star(algebra, omega: np.ndarray) -> np.ndarray:
    """``exp★(Ω)`` by full ★ products, ``term = term ★ Ω / k``: the series
    that ``FloatAlgebra.exp`` sums over its graded pair tables."""
    g = algebra.unit(omega.shape[:-1])
    g += omega
    term = omega
    for k in range(2, algebra.basis.max_weight + 1):
        term = algebra.star(term, omega)
        term /= k
        g += term
    return g


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


def sample_substeps(driver):
    """Sample each distinct signal once on the whole substep grid.

    A signal with a ``sample_grid`` method samples the uniform grid itself
    when it can (a spectral signal by FFT); every other signal, and a grid
    that method declines, is evaluated by ``value`` and ``rate``.  Returns
    the substep lengths ``h``, one column ``(forest, increments, rates at
    c₁, rates at c₂)`` per base letter and intensity, and the base signals
    on the grid, which is every ``substeps``-th node: the samples that the
    lift takes block by block, all at once.
    """
    steps = driver.cells * driver.substeps
    nodes = np.linspace(0.0, driver.T, steps + 1)
    lo, hi = nodes[:-1], nodes[1:]
    h = hi - lo
    pairs = [(single(i + 1), sig) for i, sig in enumerate(driver.base)]
    pairs += list(driver.intensities)
    seen = {}
    for f, sig in pairs:
        if id(sig) in seen:
            continue
        sample_grid = getattr(sig, "sample_grid", None)
        with np.errstate(over="ignore", invalid="ignore"):
            sampled = sample_grid(driver.T, steps) if sample_grid else None
            if sampled is None:
                sampled = (sig.value(nodes), *(sig.rate(lo + h * c) for c in _GAUSS))
            v, r1, r2 = sampled
            inc = v[1:] - v[:-1]
        if not all(np.isfinite(a).all() for a in sampled):
            raise ConfigError(f"the signal on {f.key} is not finite on the grid")
        seen[id(sig)] = (v, inc, r1, r2)
    columns = [(f, *seen[id(sig)][1:]) for f, sig in pairs]
    base_values = np.stack([seen[id(s)][0][:: driver.substeps] for s in driver.base])
    return h, columns, base_values


def load_lift(out_dir: str) -> RoughPath:
    """Read back the lift that :func:`planarough.cli.write_lift` wrote to
    ``out_dir``."""
    with open(os.path.join(out_dir, "lift.meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    letters = tuple(parse_forest(f"•{t}").trees[0].letter for t in meta["letters"])
    algebra = get_algebra(letters, meta["max_weight"])
    cells = meta["cells"]
    chars = np.zeros((cells, algebra.dim))
    chars[:, 0] = 1.0
    grid = np.array(meta["grid"])
    with open(os.path.join(out_dir, "lift.csv"), encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "t_left,t_right,forest,value":
            raise ValueError("unrecognized lift CSV header")
        for line in fh:
            tl, _tr, key, val = line.rstrip("\n").split(",")
            k = int(round(float(tl) / meta["T"] * cells))
            chars[k, algebra.basis.index[parse_forest(key)]] = float(val)
    return RoughPath(
        algebra=algebra,
        grid=grid,
        levels=_pyramid(algebra, chars),
        base_values=np.array(meta["base_values"]),
        alpha=meta["alpha"],
    )


def rational(rng, shape):
    """Random Fractions ``p/q``, ``|p| ≤ 8`` and ``1 ≤ q ≤ 8``, as an object array."""
    size = int(np.prod(shape))
    pq = zip(rng.integers(-8, 9, size), rng.integers(1, 9, size))
    return np.array([Fraction(int(p), int(q)) for p, q in pq], dtype=object).reshape(shape)


def reference_contraction(t, vs):
    """``D^m t:(v1, …, vm)`` written out, ``Σ t[a1…am]·v1[a1]⋯vm[am]`` over
    every multi-index, the first index on the first direction; ``t`` is
    ``(nodes, n_out, n**m)`` and each ``v`` is ``(nodes, n)``."""
    n, acc = (vs[0].shape[-1] if vs else 1), 0
    for multi in itertools.product(range(n), repeat=len(vs)):
        term = t[:, :, np.ravel_multi_index(multi, (n,) * len(vs)) if vs else 0]
        for v, a in zip(vs, multi):
            term = term * v[:, a, None]
        acc = acc + term
    return acc


def recursive_f_tau(t, ft):
    """``f_τ`` of the tree ``t`` at the nodes by the defining recursion
    ``f_[τ1…τm]i = D^m f_i:(f_τ1, …, f_τm)``; ``ft[m]`` holds the fields'
    m-th derivative tensors node-first, axes ``(node, i, a)`` and then the m
    derivative axes, flat or not."""
    dfi = ft[len(t.children)][:, t.letter - 1]
    kids = [recursive_f_tau(c, ft) for c in t.children]
    return reference_contraction(dfi.reshape(dfi.shape[:2] + (-1,)), kids)


def reference_splittings(trees):
    """Every way to cut a tree word into consecutive nonempty blocks."""
    yield (forest(trees),)
    for cut in range(1, len(trees)):
        for rest in reference_splittings(trees[cut:]):
            yield (forest(trees[:cut]),) + rest


def reference_FY(y, jets, order):
    """``⟨ω, F(Y)⟩`` of every forest of weight 1..order, by the definition:
    the sum over the splittings of ω whose blocks ``Y`` carries."""
    out = {}
    for f in y.x.algebra.basis.forests:
        if 1 <= f.weight <= order:
            for blocks in reference_splittings(f.trees):
                if all(b in y.coeffs for b in blocks):
                    term = reference_contraction(jets[len(blocks)], [y.coeffs[b] for b in blocks])
                    out[f] = out[f] + term if f in out else term
    return out
