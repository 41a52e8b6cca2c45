"""Expressions parsed by a whitelist and differentiated in Taylor arithmetic.

An expression string is parsed once, by :func:`ast.parse` and a walk that
admits only finite numeric literals, the variables, binary ``+ − * / **``,
unary ``±`` and one-argument calls of ``sin cos exp log sqrt``, into a
straight-line program; nothing is evaluated or compiled as Python.
:class:`TaylorProgram` runs the program in truncated multivariate Taylor
arithmetic (Griewank–Walther, *Evaluating Derivatives*, 2008, ch. 13):
every intermediate carries the coefficients ``∂^α g / α!`` of all
monomials of degree ≤ m at all points at once, products add their terms
through a fixed index table, a function is applied as
``f(a₀ + ã) = Σ_k f⁽ᵏ⁾(a₀)·ãᵏ/k!``, and the m-th derivative tensor is one
gather of the result times ``α!``.  Every operation is elementwise over the
points, so a point reads the same bits in any batch.

This module owns the one layout of derivative tensors, node-last
``(outputs, n_in**m) + lead``, in which ``F(Y)`` and ``f_τ`` read them.

:mod:`planarough.controlled` imports this module at the first expression
it parses, so commands that parse none never compile it.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from .rough_path import ConfigError


# ---------------------------------------------------------------------------
# The whitelist parse into a straight-line program
# ---------------------------------------------------------------------------

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
MAX_EXPRESSION_CHARS = 10_000
# integer powers up to this size multiply exactly; larger ones use the series
MAX_EXACT_POWER = 64
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
_FOLD = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": operator.pow,
    "neg": operator.neg,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _children(node, variables) -> list:
    """The operands of a whitelisted node; :class:`ConfigError` otherwise."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return [node.left, node.right]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return [node.operand]
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in FUNCTIONS:
            raise ConfigError(f"expressions may call only {', '.join(FUNCTIONS)}")
        if node.keywords or len(node.args) != 1 or isinstance(node.args[0], ast.Starred):
            raise ConfigError(f"{name} takes one positional argument")
        return [node.args[0]]
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise ConfigError(
                f"expressions may use only vars and {', '.join(FUNCTIONS)}, "
                f"not {node.id}"
            )
        return []
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return []
    what = type(node).__name__
    if isinstance(node, ast.Constant):
        what = f"the literal {node.value!r}"
    elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
        what = f"the operator {type(node.op).__name__}"
    raise ConfigError(f"{what} is not allowed in an expression")


def _apply(op: str, args: list, code: list):
    """Fold ``op`` over constant operands, else append its instruction to
    ``code``; a float for a constant, else the instruction's index."""
    if all(isinstance(v, float) for v in args):
        try:
            value = _FOLD[op](*args)
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"{op} of constants has no real value ({exc})") from None
        if not isinstance(value, float) or not math.isfinite(value):
            raise ConfigError(f"{op} of constants has no finite real value")
        return value
    if op == "div" and isinstance(args[1], float) and args[1] == 0.0:
        raise ConfigError("division by zero")
    if op == "pow":
        base, p = args
        if not isinstance(p, float):  # base**p = exp(p·log(base))
            return _apply("exp", [_apply("mul", [p, _apply("log", [base], code)], code)], code)
        if p == 0.0:
            return 1.0
        if p == 1.0:
            return base
    code.append((op, args[0], args[-1] if len(args) > 1 else None))
    return len(code) - 1


def _emit(node, args: list, code: list, variables: tuple):
    """Lower one whitelisted node whose operands ``args`` are lowered."""
    if isinstance(node, ast.Constant):
        try:
            value = float(node.value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"the literal {node.value} is no finite number")
        return value
    if isinstance(node, ast.Name):
        return variables.index(node.id)  # the program's first slots
    if isinstance(node, ast.BinOp):
        return _apply(_BINARY[type(node.op)], args, code)
    if isinstance(node, ast.UnaryOp):
        return args[0] if isinstance(node.op, ast.UAdd) else _apply("neg", args, code)
    return _apply(node.func.id, args, code)


def parse_expression(expr, variables: tuple, code: list):
    """Lower one expression into ``code``, whose first ``len(variables)``
    slots hold the variables: a float if it is constant, else the index of
    its result.  Raises :class:`ConfigError` for anything but a
    finite number or a string of at most ``MAX_EXPRESSION_CHARS`` characters
    that parses to the whitelist; the tree is walked without recursion."""
    if type(expr) in (int, float):
        return _emit(ast.Constant(expr), [], code, variables)
    if not isinstance(expr, str):
        raise ConfigError(f"each expression must be a string or a number, not {expr!r}")
    if len(expr) > MAX_EXPRESSION_CHARS:
        raise ConfigError(f"an expression is longer than {MAX_EXPRESSION_CHARS} characters")
    try:
        root = ast.parse(expr.strip(), mode="eval").body
    except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigError(f"cannot parse {expr!r}: {exc}") from None
    except (RecursionError, MemoryError):
        raise ConfigError("an expression is nested too deeply") from None
    done = {}  # id(node) -> its lowered value
    stack = [root]
    while stack:
        node = stack[-1]
        kids = _children(node, variables)
        todo = [k for k in kids if id(k) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        done[id(node)] = _emit(node, [done[id(k)] for k in kids], code, variables)
    return done[id(root)]


# ---------------------------------------------------------------------------
# Truncated Taylor jets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _jet_tables(n: int, m: int):
    """Index tables of jets in ``n`` variables to degree ``m``.

    A jet's coefficients are indexed by the monomials of degree ≤ m as
    sorted tuples of variable indices, by degree: index 0 is the constant,
    ``1 + k`` the variable k.  Returns ``(size, ranks, gather, scale)``:
    ``ranks[r]`` holds the index arrays ``(γ, α, β)`` of the r-th term
    ``α·β = γ`` with α not constant of every monomial γ that has one, so a
    product adds its terms in one fixed order; ``gather`` and ``scale`` read
    the flat m-th derivative tensor, row-major in ``(a1, …, am)``, as
    coefficient times ``α!``."""
    monomials = [
        c for k in range(m + 1) for c in itertools.combinations_with_replacement(range(n), k)
    ]
    index = {c: i for i, c in enumerate(monomials)}
    ranks = []
    for g, gamma in enumerate(monomials):
        r = 0
        for a, alpha in enumerate(monomials[1:], 1):
            rest = list(gamma)
            for k in alpha:
                if k not in rest:
                    break
                rest.remove(k)
            else:
                if r == len(ranks):
                    ranks.append(([], [], []))
                for col, i in zip(ranks[r], (g, a, index[tuple(rest)])):
                    col.append(i)
                r += 1
    ranks = tuple(tuple(np.array(col, dtype=np.intp) for col in rank) for rank in ranks)
    flat = [tuple(sorted(multi)) for multi in itertools.product(range(n), repeat=m)]
    gather = np.array([index[c] for c in flat], dtype=np.intp)
    scale = np.array(
        [math.prod(math.factorial(c.count(k)) for k in set(c)) for c in flat], dtype=float
    )
    return len(monomials), ranks, gather, scale


def _jet_mul(a, b, ranks):
    """The truncated product of two jets, term by term in a fixed order."""
    out = a[0] * b
    for g, i, j in ranks:
        out[g] += a[i] * b[j]
    return out


def _series(x, coeffs, ranks):
    """``Σ_k coeffs[k]·(x − x₀)^k``: a function with Taylor coefficients
    ``coeffs[k] = f⁽ᵏ⁾(x₀)/k!`` applied to the jet ``x``."""
    out = np.zeros_like(x)
    out[0] = coeffs[0]
    dx = x.copy()
    dx[0] = 0.0
    power = dx
    for k, c in enumerate(coeffs[1:], 1):
        if k > 1:
            power = _jet_mul(power, dx, ranks)
        out[1:] += c * power[1:]
    return out


def _binomial(p: float, k: int) -> float:
    return math.prod(p - i for i in range(k)) / math.factorial(k)


def _taylor(op: str, x0, m: int, p: float = 0.0) -> list:
    """``f⁽ᵏ⁾(x₀)/k!`` for k = 0..m of the function ``op``: a whitelisted
    call, ``pow`` with exponent ``p``, or ``recip``, ``1/x``."""
    if op in ("sin", "cos"):
        if not m:
            return [np.sin(x0) if op == "sin" else np.cos(x0)]
        s, c = np.sin(x0), np.cos(x0)
        cycle = [s, c, -s, -c] if op == "sin" else [c, -s, -c, s]
        return [cycle[k % 4] / math.factorial(k) for k in range(m + 1)]
    if op == "exp":
        e = np.exp(x0)
        return [e / math.factorial(k) for k in range(m + 1)]
    if op in ("sqrt", "pow"):
        p = 0.5 if op == "sqrt" else p
        head = np.sqrt(x0) if op == "sqrt" else np.power(x0, p)
        return [head] + [_binomial(p, k) * np.power(x0, p - k) for k in range(1, m + 1)]
    r = 1.0 / x0
    powers = [r]  # x₀^(−k) by products: ``**`` rounds 0-d and n-d inputs apart
    for _ in range(m):
        powers.append(powers[-1] * r)
    if op == "log":  # (−1)^(k+1) / (k·x₀^k)
        return [np.log(x0)] + [(-1) ** (k + 1) * powers[k - 1] / k for k in range(1, m + 1)]
    return [(-1) ** k * powers[k] for k in range(m + 1)]


def _power(x, p: float, m: int, ranks):
    """``x**p``: exact products for integers up to ``MAX_EXACT_POWER``, so
    polynomials keep their zeros and negative bases work; the series else."""
    if not (p.is_integer() and abs(p) <= MAX_EXACT_POWER):
        return _series(x, _taylor("pow", x[0], m, p), ranks)
    out, base, k = None, x, int(abs(p))
    while k:
        if k & 1:
            out = base if out is None else _jet_mul(out, base, ranks)
        k >>= 1
        if k:
            base = _jet_mul(base, base, ranks)
    return out if p > 0 else _series(out, _taylor("recip", out[0], m), ranks)


def _jet_op(op: str, a, b, m: int, ranks):
    """One instruction on jets to degree m; a float operand is a constant
    (:func:`_apply` leaves at least one jet)."""
    if op in ("add", "sub"):
        f = np.add if op == "add" else np.subtract
        if isinstance(a, float):
            out = f(0.0, b)
            out[0] = f(a, b[0])
        elif isinstance(b, float):
            out = a.copy()
            out[0] = f(a[0], b)
        else:
            out = f(a, b)
        return out
    if op == "mul":
        return a * b if isinstance(a, float) or isinstance(b, float) else _jet_mul(a, b, ranks)
    if op == "div":
        if isinstance(b, float):
            return a / b
        inv = _series(b, _taylor("recip", b[0], m), ranks)
        return a * inv if isinstance(a, float) else _jet_mul(a, inv, ranks)
    if op == "neg":
        return -a
    if op == "pow":
        return _power(a, b, m, ranks)
    return _series(a, _taylor(op, a[0], m), ranks)


class TaylorProgram:
    """Expressions over ``variables`` lowered once into one program whose
    first ``len(variables)`` slots hold the variables."""

    def __init__(self, exprs, variables):
        self.n_in = len(variables)
        self.code = [("var", k, None) for k in range(self.n_in)]
        self.outputs = [parse_expression(e, variables, self.code) for e in exprs]

    def jets(self, u: np.ndarray, m: int) -> np.ndarray:
        """Every output's jet to degree m at ``u``, stacked node-last: shape
        ``(outputs, size) + lead`` for ``u`` of shape ``lead + (n_in,)``.  A
        constant output is the jet of a constant."""
        n = self.n_in
        size, ranks, _, _ = _jet_tables(n, m)
        x = np.zeros((n, size) + u.shape[:-1])
        x[:, 0] = np.moveaxis(u, -1, 0)
        if m:
            x[range(n), range(1, n + 1)] = 1.0
        vals = list(x)
        for op, a, b in self.code[n:]:
            a = vals[a] if type(a) is int else a
            b = vals[b] if type(b) is int else b
            vals.append(_jet_op(op, a, b, m, ranks))
        out = np.zeros((len(self.outputs), size) + u.shape[:-1])
        for jet, i in zip(out, self.outputs):
            if isinstance(i, int):
                jet[...] = vals[i]
            else:
                jet[0] = i
        return out

    def tensors(self, u: np.ndarray, m: int) -> list:
        """The flat derivative tensors of orders 0..m at ``u``, node-last and
        C-contiguous: shapes ``(outputs, n_in**k) + lead``, each one gather of
        the jets times ``α!``.  All are read off one evaluation of the jets to
        degree m: a coefficient of degree k sums the same terms in the same
        order at every degree ≥ k."""
        jets = self.jets(u, m)
        out = []
        for k in range(m + 1):
            _, _, gather, scale = _jet_tables(self.n_in, k)
            out.append(jets.take(gather, axis=1))
            out[k] *= scale.reshape(scale.shape + (1,) * (u.ndim - 1))
        return out
