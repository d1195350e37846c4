"""Tiny arithmetic expression grammar for config-supplied fields.

Grammar: +, -, *, /, **, unary minus, sin, cos, numeric literals, pi,
and variable names ``x1..xn`` / ``y1..yn``.  Expressions are validated
against a whitelist of AST nodes and compiled once; evaluation is
vectorized over numpy arrays.
"""

import ast
import math

import numpy as np

__all__ = ["ExpressionError", "compile_expression", "compile_field"]


class ExpressionError(ValueError):
    """Raised when an expression uses anything outside the grammar."""


_FUNCS = {"sin": np.sin, "cos": np.cos}
_CONSTS = {"pi": math.pi}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
    ast.USub, ast.UAdd,
)


def compile_expression(text, variables):
    """Compile ``text`` into a callable of keyword arguments.

    Parameters
    ----------
    text : str
        Expression source, e.g. ``"cos(2*pi*y1)*cos(2*pi*y2) + 0.25"``.
    variables : sequence of str
        Variable names the expression may reference.

    Returns
    -------
    callable
        ``f(**env)`` evaluating the expression; array arguments broadcast.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    names = set(variables)
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"{type(node).__name__} not allowed in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(
                node.value, (int, float)):
            raise ExpressionError(f"non-numeric literal in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError(f"only sin/cos calls allowed in {text!r}")
            if node.keywords or len(node.args) != 1:
                raise ExpressionError(f"bad call arity in {text!r}")
        if isinstance(node, ast.Name):
            if node.id not in names and node.id not in _FUNCS \
                    and node.id not in _CONSTS:
                raise ExpressionError(f"unknown name {node.id!r} in {text!r}")
    code = compile(tree, "<expression>", "eval")
    base = {"__builtins__": {}}
    base.update(_FUNCS)
    base.update(_CONSTS)

    def fn(**env):
        scope = dict(base)
        scope.update(env)
        return eval(code, scope)  # noqa: S307 - AST whitelisted above

    fn.source = text
    return fn


def compile_field(text, dim, prefixes=("y",)):
    """Compile an expression of point coordinates into ``f(*points)``.

    ``f`` takes one array of shape ``(..., dim)`` per prefix, in order;
    prefix ``p`` exposes the coordinates of its own array as
    ``p1..p<dim>`` (with ``("x", "y")``, x1 reads the first array and y1
    the second).  The result has the broadcast shape of the points.
    """
    names = [f"{p}{i + 1}" for p in prefixes for i in range(dim)]
    inner = compile_expression(text, names)

    def fn(*points):
        points = [np.asarray(pts, dtype=float) for pts in points]
        env = {f"{p}{i + 1}": pts[..., i]
               for p, pts in zip(prefixes, points, strict=True)
               for i in range(dim)}
        shape = np.broadcast_shapes(*(pts.shape[:-1] for pts in points))
        return np.broadcast_to(np.asarray(inner(**env), dtype=float),
                               shape).copy()

    fn.source = text
    return fn
