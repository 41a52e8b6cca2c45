"""Child-process probes of the benchmark, one per mode.

    python3 perfbench/probes.py setup   <command> <config>
    python3 perfbench/probes.py kernels
    python3 perfbench/probes.py trace   <command> <config> <out> <trace.json>

Each mode runs in a fresh interpreter started by ``run.py`` with the
repository's ``src`` on ``PYTHONPATH`` and the OpenBLAS thread count pinned.
``setup`` and ``kernels`` print one JSON object as their last line of
standard output.

``trace`` runs ``planarough.cli.main`` in-process at ``--jobs 1`` with spans
around the public calls of each layer.  The spans are recorded from here, by
wrapping the library's functions after import; no library file knows about
them.  They are kept in memory and written to ``trace.json`` when ``main``
returns; the probe exits with the CLI's exit code.  :func:`layer_metrics` turns that file into per-layer metrics; it
needs only the standard library, so ``run.py`` imports it without loading
the library.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
import warnings
from collections import Counter

# ---------------------------------------------------------------------------
# setup: import, config parse and algebra tables, up to the first lift
# ---------------------------------------------------------------------------


def probe_setup(command: str, config: str) -> dict:
    t0 = time.perf_counter()
    from planarough import cli
    from planarough.forest_core import base_alphabet, bracket_alphabet
    from planarough.rough_path import get_algebra

    t_import = time.perf_counter()
    alphabets = set()
    for exp in cli.load_experiments(config):
        driver = cli.driver_from(exp["driver"])
        alphabets.add((base_alphabet(driver.d), driver.N))
        if command == "ito":
            # both verifiers extend the lift over the bracket alphabet
            alphabets.add((bracket_alphabet(driver.d), driver.N))
    for letters, n_trunc in sorted(alphabets, key=repr):
        get_algebra(letters, n_trunc)
    t1 = time.perf_counter()
    return {"setup_s": t1 - t0, "import_s": t_import - t0}


# ---------------------------------------------------------------------------
# kernels: FloatAlgebra.star on the three baseline algebras
# ---------------------------------------------------------------------------

KERNEL_CASES = (
    # name, alphabet, d, N, rows
    ("base_d1n3", "base", 1, 3, 65536),
    ("bracket_d2n3", "bracket", 2, 3, 8192),
    ("bracket_d3n3", "bracket", 3, 3, 8192),
)
KERNEL_REPEATS = 9


def star_cost(rows: int, nnz: int, dim: int) -> tuple:
    """Computed flops and bytes of one batched ★ of ``rows`` rows.

    Each structure constant costs a multiply and an add per row; each row
    reads the two operands at every constant and writes ``dim`` outputs.
    """
    return 2 * rows * nnz, rows * (2 * nnz + dim) * 8


def probe_kernels() -> dict:
    import numpy as np

    from planarough.forest_core import base_alphabet, bracket_alphabet
    from planarough.hopf_mkw import FloatAlgebra, TruncatedBasis

    alphabets = {"base": base_alphabet, "bracket": bracket_alphabet}
    out = {}
    for name, alphabet, d, n_trunc, rows in KERNEL_CASES:
        alg = FloatAlgebra(TruncatedBasis(alphabets[alphabet](d), n_trunc))
        nnz = sum(len(r) for r in alg.basis.cut_rows)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((rows, alg.dim))
        b = rng.standard_normal((rows, alg.dim))
        alg.star(a, b)
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            alg.star(a, b)
            times.append(time.perf_counter() - t0)
        flops, nbytes = star_cost(rows, nnz, alg.dim)
        key = f"hopf_mkw.kernel.{name}"
        out[f"{key}_s"] = statistics.median(times)
        out[f"{key}_flops"] = flops
        out[f"{key}_bytes_computed"] = nbytes
    return out


# ---------------------------------------------------------------------------
# trace: spans around each layer's public calls
# ---------------------------------------------------------------------------


class Tracer:
    """Spans ``[name, start, end, parent]`` and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, fn, name=None, before=None, after=None):
        """``fn`` with a span (unless ``name`` is None) and counting hooks.

        ``name`` may be a function of the call's arguments.  ``before`` sees
        the arguments, ``after`` the arguments and the result.
        """

        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            label = name(args) if callable(name) else name
            if label is None:
                result = fn(*args, **kwargs)
            else:
                sid = len(self.spans)
                parent = self.stack[-1] if self.stack else -1
                self.spans.append([label, time.perf_counter(), None, parent])
                self.stack.append(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.stack.pop()
                    self.spans[sid][2] = time.perf_counter()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced


def _patch(module, attr: str, wrapped) -> None:
    """Replace ``module.attr`` everywhere the library bound the same object."""
    original = getattr(module, attr)
    setattr(module, attr, wrapped)
    for name, mod in list(sys.modules.items()):
        if name == "planarough" or name.startswith("planarough."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _star_shape(args) -> tuple:
    import numpy as np

    return np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))


def _star_span(args) -> str:
    # one 1-D row at a time (``eval_nodes``) versus batches of rows
    return "hopf_mkw.star_row" if len(_star_shape(args)) == 1 else "hopf_mkw.star_batch"


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every layer; returns nothing, patches in place."""
    import sympy

    from planarough import (
        calculus,
        cli,
        controlled,
        forest_core,
        hopf_mkw,
        ito_verify,
        rough_path,
    )

    w = tracer.wrap

    def count(key, value=lambda *call: 1):
        """A hook adding ``value(args)`` (before) or ``value(args, result)``."""

        def hook(counts, *call):
            counts[key] += value(*call)

        return hook

    # forest_core / hopf_mkw: enumeration and the coproduct tables
    _patch(forest_core, "all_forests", w(forest_core.all_forests, "forest_core.enumerate"))
    basis_cls, alg_cls = hopf_mkw.TruncatedBasis, hopf_mkw.FloatAlgebra
    basis_cls.__init__ = w(
        basis_cls.__init__, "hopf_mkw.table_build",
        after=count("forest_core.basis_dim", lambda a, r: a[0].dim),
    )
    alg_cls.__init__ = w(alg_cls.__init__, "hopf_mkw.table_build")

    nnz = {}

    def star_counts(counts, args):
        alg, shape = args[0], _star_shape(args)
        if alg not in nnz:
            nnz[alg] = sum(len(r) for r in alg.basis.cut_rows)
        flops, nbytes = star_cost(math.prod(shape[:-1]), nnz[alg], alg.dim)
        counts.update({_star_span(args) + "_calls": 1,
                       "hopf_mkw.star_flops": flops,
                       "hopf_mkw.star_bytes_computed": nbytes})

    alg_cls.star = w(alg_cls.star, _star_span, before=star_counts)
    alg_cls.exp = w(alg_cls.exp, "hopf_mkw.exp")
    alg_cls.star_reduce = w(
        alg_cls.star_reduce, before=count("hopf_mkw.star_reduce_calls")
    )

    # rough_path: signal sampling, the lift, the extension, the probes
    import numpy as np

    for cls in (rough_path.PolySignal, rough_path.TrigSignal, rough_path.SpectralSignal):
        for meth in ("value", "rate"):
            setattr(cls, meth, w(
                getattr(cls, meth), "rough_path.sample",
                before=count("rough_path.sample_points", lambda a: int(np.size(a[1]))),
            ))

    def substeps_x_dim(a, path):
        return path.driver.cells * path.driver.substeps * path.algebra.dim

    _patch(rough_path, "lift", w(
        rough_path.lift, "rough_path.lift",
        after=count("rough_path.substeps_x_dim", substeps_x_dim),
    ))
    _patch(rough_path, "bracket_extension", w(
        rough_path.bracket_extension, "rough_path.extension",
        after=count("rough_path.substeps_x_dim", substeps_x_dim),
    ))
    rough_path.RoughPath.eval_nodes = w(
        rough_path.RoughPath.eval_nodes, before=count("rough_path.eval_nodes_calls")
    )
    for fn in ("chen_residuals", "character_residuals"):
        _patch(rough_path, fn, w(getattr(rough_path, fn), "rough_path.probe"))

    # controlled: sympy compile, evaluation, composition
    sfwd = controlled.SmoothFunctionWithDerivatives
    sfwd.__post_init__ = w(
        sfwd.__post_init__, "controlled.compile",
        before=count("controlled.compile_calls"),
    )
    lambdify = sympy.lambdify

    def counted_lambdify(*args, **kwargs):
        if tracer.current() == "controlled.compile":
            tracer.counts["controlled.lambdify_calls"] += 1
        return lambdify(*args, **kwargs)

    sympy.lambdify = counted_lambdify
    for meth in ("value", "tensor", "dm"):
        setattr(sfwd, meth, w(getattr(sfwd, meth), "controlled.eval"))
    for fn in ("compose_FX", "compose_FY"):
        _patch(controlled, fn, w(getattr(controlled, fn), "controlled.compose"))

    # calculus: RDE, rough and Young sums
    _patch(calculus, "solve_rde", w(
        calculus.solve_rde, "calculus.rde",
        before=count("calculus.rde_cells", lambda a: a[0].cells),
    ))
    _patch(calculus, "rough_integral", w(calculus.rough_integral, "calculus.rough_sum"))
    young = w(calculus.young_integral, "calculus.young_sum")

    def young_counted(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = young(*args, **kwargs)
        tracer.counts["calculus.young_warnings"] += len(caught)
        for m in caught:
            warnings.warn_explicit(m.message, m.category, m.filename, m.lineno)
        return result

    _patch(calculus, "young_integral", young_counted)

    # ito_verify and cli
    for fn in ("verify_simple", "verify_general"):
        _patch(ito_verify, fn, w(
            getattr(ito_verify, fn), "ito_verify.verify",
            after=count("ito_verify.rungs_used", lambda a, rep: len(rep.strides)),
        ))
    _patch(cli, "write_json", w(
        cli.write_json, "cli.write",
        after=count("cli.report_bytes", lambda a, r: os.path.getsize(a[0])),
    ))
    _patch(cli, "main", w(cli.main, "cli.main"))


def probe_trace(command: str, config: str, out: str, trace_path: str) -> int:
    """Run the CLI in-process under the tracer; returns the CLI's exit code."""
    from planarough import cli

    tracer = Tracer()
    instrument(tracer)
    code = cli.main([command, "--config", config, "--out", out, "--jobs", "1"])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


# span name -> per-layer metric holding the summed self time of those spans
SELF_TIME_METRICS = {
    "forest_core.enumerate": "forest_core.enumerate_s",
    "hopf_mkw.table_build": "hopf_mkw.table_build_s",
    "hopf_mkw.star_batch": "hopf_mkw.star_batch_s",
    "hopf_mkw.star_row": "hopf_mkw.star_row_s",
    "hopf_mkw.exp": "hopf_mkw.exp_self_s",
    "rough_path.sample": "rough_path.sample_s",
    "rough_path.lift": "rough_path.lift_self_s",
    "rough_path.extension": "rough_path.extension_self_s",
    "rough_path.probe": "rough_path.probe_self_s",
    "controlled.compile": "controlled.compile_s",
    "controlled.eval": "controlled.eval_s",
    "controlled.compose": "controlled.compose_s",
    "calculus.rde": "calculus.rde_self_s",
    "calculus.rough_sum": "calculus.rough_sum_s",
    "calculus.young_sum": "calculus.young_sum_s",
    "ito_verify.verify": "ito_verify.verify_self_s",
    "cli.write": "cli.write_s",
    "cli.main": "cli.self_s",
}
COUNT_METRICS = (
    "forest_core.basis_dim",
    "hopf_mkw.star_batch_calls",
    "hopf_mkw.star_row_calls",
    "hopf_mkw.star_flops",
    "hopf_mkw.star_bytes_computed",
    "hopf_mkw.star_reduce_calls",
    "rough_path.sample_points",
    "rough_path.eval_nodes_calls",
    "rough_path.substeps_x_dim",
    "controlled.compile_calls",
    "controlled.lambdify_calls",
    "calculus.rde_cells",
    "calculus.young_warnings",
    "ito_verify.rungs_used",
    "cli.report_bytes",
)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from a trace file: self times, counts, traced wall.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the traced run is single-threaded.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    main_s = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        out[SELF_TIME_METRICS[name]] += (end - start) - inner
        if parent < 0:
            main_s += end - start
    for key in COUNT_METRICS:
        out[key] = trace["counts"].get(key, 0)
    out["cli.main_s"] = main_s
    return out


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = probe_setup(*rest)
    elif mode == "kernels":
        result = probe_kernels()
    elif mode == "trace":
        return probe_trace(*rest)
    else:
        print(f"unknown probe {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
