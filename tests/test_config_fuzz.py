"""Generated configs through ``main()``: every input ends in a documented exit.

The first strategy builds experiments that are mostly well-shaped, so they
reach ``load_experiments``, ``driver_from``, ``parse_forest`` and the command
bodies, with any field swapped for arbitrary JSON.  Most of its runs stop at
a driver error, so the second keeps the driver and every setting but the
expressions fixed and valid: each of its runs reaches the expression parser.
Sizes are bounded (at most 64 cells, d ≤ 2 for lifts) so the whole search
stays short.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planarough.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERDICT,
    main,
)

# no config may end in EXIT_INTERNAL (70): that exit means a fault of the program
EXIT_CODES = {EXIT_OK, EXIT_VERDICT, EXIT_DIVERGED, EXIT_IO, EXIT_CONFIG}

leaf = (
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
junk = st.recursive(
    leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def maybe(strategy):
    """A well-shaped value about seven times in eight, arbitrary JSON
    otherwise (``one_of`` would merge the repeated branches)."""
    return st.sampled_from(range(8)).flatmap(lambda k: strategy if k else junk)


def keys(required=None, **optional):
    """An object with the ``required`` keys and any of the ``optional``
    ones, each value possibly swapped for arbitrary JSON."""
    wrap = lambda d: {k: maybe(v) for k, v in d.items()}
    return st.fixed_dictionaries(wrap(required or {}), optional=wrap(optional))


number = st.one_of(
    st.floats(-2, 2),
    st.integers(-2, 3),
    st.sampled_from([0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan, 10**400]),
)
small = st.integers(-1, 4)
# powers of two up to 64 cells, and a few values the rules refuse
cells = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 0, -1, 3, 48])
substeps = st.sampled_from([1, 2, 4, 0, 3])

signal = maybe(
    st.one_of(
        keys(kind=st.just("poly"), coeffs=st.lists(number, max_size=3)),
        keys(kind=st.just("trig"),
             terms=st.lists(st.lists(number, min_size=3, max_size=3), max_size=2)),
        keys({"kind": st.sampled_from(["spectral", "other"]), "hurst": number,
              "modes": st.integers(-1, 16)},
             seed=small, amplitude=number, period=number),
    )
)
tree = st.one_of(
    st.sampled_from(
        ["[•1]1", "[•2•1]1", "[•1]2", "•1", "•(12)", "[•1]", "", "[[[•1]1]1]1"]
    ),
    st.text(alphabet="[]•()12 ", max_size=8),
)
driver = keys(
    {"d": st.integers(0, 2), "base": st.lists(signal, max_size=2), "cells": cells,
     "substeps": substeps},
    intensities=st.lists(keys({"tree": tree, "signal": signal}), max_size=2),
    N=st.integers(1, 4),
    alpha=st.sampled_from([0.3, 0.45]) | number,
    T=number,
)
expr = st.sampled_from(
    ["x1**2", "sin(x1)", "exp(x1)*x2", "x1 +", "y9", "f(x1)", "1/x1", "zoo", "nan",
     "sqrt(x1)", "log(x1)", "", "x1 x2", "0.25", "x1 > 0", "I*x1",
     # the edges of the whitelist
     '__import__("os").getcwd() or x1', "x1.real", "[x1][0]", "(lambda: x1)()",
     "sin(x=x1)", "+".join(["x1"] * 20000), "-" * 100000 + "x1", "abs(x1)", "pi",
     "1e400*x1", "x1/0", "x1**-2", "(-x1)**3", "x1**0.5", "2**x1", "x1^2"]
)
variables = st.lists(st.sampled_from(["x1", "x2", "t", "1x", ""]), max_size=2)
function = keys({"exprs": st.lists(expr, max_size=2), "vars": variables})
fields = keys(
    {"exprs": st.lists(st.lists(expr, max_size=2), max_size=2), "vars": variables}
)
xi = st.lists(number, max_size=2)
sections = {
    "lift": keys(probes=st.integers(-1, 8), seed=small, tolerance=number,
                 dump=st.booleans()),
    "ito": keys({"F": function}, theorem=st.sampled_from(["simple", "general", "x"]),
                rungs=st.integers(0, 3), tolerance=number, fields=fields, xi=xi),
    "integrate": keys({"F": function}, rungs=st.integers(0, 3), letter=small,
                      reference=number, threshold=number, tolerance=number),
    "rde": keys({"fields": fields, "xi": xi}, oracle=function, tolerance=number),
    "dump": keys(what=st.sampled_from(["basis", "coproduct", "star", "lift", "x"]),
                 alphabet=st.sampled_from(["base", "bracket", "y"]),
                 d=st.integers(0, 2), max_weight=st.integers(-1, 4)),
    "hopf-selftest": keys(d=st.integers(0, 2), max_weight=st.integers(1, 4)),
}


@st.composite
def runs(draw):
    """A command and a config of one or two experiments for it."""
    command = draw(st.sampled_from(sorted(sections)))
    section = "hopf" if command == "hopf-selftest" else command
    exps = [
        draw(keys({"name": st.just(f"e{k}"), "driver": driver,
                   section: sections[command]}))
        for k in range(draw(st.integers(1, 2)))
    ]
    doc = exps[0] if len(exps) == 1 else {"experiments": exps}
    return command, draw(maybe(st.just(doc)))


# a driver and sections every command accepts but for their expressions, so
# each generated F, field and oracle reaches the parser
VALID_DRIVER = {"d": 1, "base": [{"kind": "poly", "coeffs": [0.0, 1.0]}],
                "cells": 16, "substeps": 2, "N": 2, "alpha": 0.45}
one_var = st.fixed_dictionaries(
    {"exprs": st.lists(expr, min_size=1, max_size=2), "vars": st.just(["x1"])}
)
one_field = st.fixed_dictionaries(
    {"exprs": st.lists(expr, min_size=1, max_size=1).map(lambda e: [e]),
     "vars": st.just(["x1"])}
)
expression_sections = {
    "ito": st.fixed_dictionaries(
        {"theorem": st.sampled_from(["simple", "general"]), "F": one_var,
         "fields": one_field, "xi": st.just([0.5]), "rungs": st.just(2)}
    ),
    "integrate": st.fixed_dictionaries({"F": one_var, "rungs": st.just(2)}),
    "rde": st.fixed_dictionaries(
        {"fields": one_field, "xi": st.just([0.5])}, optional={"oracle": one_var}
    ),
}


@st.composite
def expression_runs(draw):
    """A command that parses expressions, its section valid but for them."""
    command = draw(st.sampled_from(sorted(expression_sections)))
    section = draw(expression_sections[command])
    return command, {"name": "e", "driver": VALID_DRIVER, command: section}


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_generated_configs_end_in_a_documented_exit(run):
    ends_in_a_documented_exit(*run)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=expression_runs())
def test_generated_expressions_end_in_a_documented_exit(run):
    ends_in_a_documented_exit(*run)


def ends_in_a_documented_exit(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
    assert rc in EXIT_CODES
    assert "Traceback" not in err.getvalue()
