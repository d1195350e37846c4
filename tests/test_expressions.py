import numpy as np
import pytest

from homogbc.expressions import (ExpressionError, compile_expression,
                                 compile_field)
from homogbc.operators import SourceAndBoundaryData


def test_basic_arithmetic():
    f = compile_expression("2*a + b**2 - 1", ["a", "b"])
    assert f(a=3.0, b=2.0) == pytest.approx(9.0)


def test_trig_and_pi():
    f = compile_expression("sin(pi/2) + cos(0)", [])
    assert f() == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "open('/etc/passwd')",
    "a.__class__",
    "lambda: 1",
    "[1,2][0]",
    "exp(1)",
])
def test_rejects_unsafe_or_unknown(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, ["a"])


def test_rejects_unknown_variable():
    with pytest.raises(ExpressionError):
        compile_expression("a + q", ["a"])


def test_compile_field_broadcasts():
    f = compile_field("cos(2*pi*y1)*cos(2*pi*y2)", dim=2)
    pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.5]])
    np.testing.assert_allclose(f(pts), [1.0, 0.0, 1.0], atol=1e-12)
    # scalar-constant expressions broadcast to the point shape
    g = compile_field("0.25", dim=2)
    assert g(pts).shape == (3,)


def test_compile_field_alias_prefixes():
    # each prefix reads its own array of points, in order
    f = compile_field("x1 + y2", dim=2, prefixes=("x", "y"))
    assert f(np.array([1.0, 2.0]), np.array([10.0, 20.0])) == 21.0
    pts = f(np.zeros((4, 2)), np.array([0.0, 5.0]))
    np.testing.assert_array_equal(pts, np.full(4, 5.0))


def test_data_reads_x_slow_and_y_fast():
    x, y = np.array([0.3, 0.0]), np.array([7.0, 0.0])
    assert SourceAndBoundaryData.from_exprs("x1").g(x, y) == 0.3
    assert SourceAndBoundaryData.from_exprs("y1").g(x, y) == 7.0


def test_source_reads_x_only():
    # f has no fast variable: it is compiled over x1..xn alone and
    # evaluated at the points x; a y in it is refused
    x = np.array([[0.3, 0.5], [1.0, -2.0]])
    data = SourceAndBoundaryData.from_exprs("0", "x1 + 10*x2")
    np.testing.assert_array_equal(data.source(x), [5.3, -19.0])
    with pytest.raises(ExpressionError, match="'y1'"):
        SourceAndBoundaryData.from_exprs("0", "x1 + y1")
