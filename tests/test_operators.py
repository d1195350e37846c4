import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogbc.operators import (EllipticOperatorSpec,
                               effective_operator_estimate, laplacian,
                               linear_operator, pucci_eval, pucci_minus,
                               pucci_plus, symmetric_eigenvalues,
                               validate_operator)


def _rand_sym(rng, n=2, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)


def test_pucci_hand_values():
    M = np.diag([2.0, -1.0])
    assert pucci_eval(M, 1.0, 2.0, "+") == pytest.approx(2 * 2.0 - 1 * 1.0)
    assert pucci_eval(M, 1.0, 2.0, "-") == pytest.approx(1 * 2.0 - 2 * 1.0)


def test_pucci_equal_ellipticity_is_trace():
    rng = np.random.default_rng(0)
    for _ in range(10):
        M = _rand_sym(rng)
        assert pucci_eval(M, 1.3, 1.3, "+") == pytest.approx(1.3 * np.trace(M))
        assert pucci_eval(M, 1.3, 1.3, "-") == pytest.approx(1.3 * np.trace(M))


def test_pucci_duality():
    rng = np.random.default_rng(1)
    for _ in range(25):
        M = _rand_sym(rng, scale=3.0)
        assert pucci_eval(-M, 0.7, 2.4, "+") == pytest.approx(
            -pucci_eval(M, 0.7, 2.4, "-"))


def test_pucci_sub_super_additivity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        M, N = _rand_sym(rng), _rand_sym(rng)
        plus = pucci_eval(M + N, 1.0, 2.0, "+")
        assert plus <= pucci_eval(M, 1.0, 2.0, "+") + pucci_eval(N, 1.0, 2.0, "+") + 1e-12
        minus = pucci_eval(M + N, 1.0, 2.0, "-")
        assert minus >= pucci_eval(M, 1.0, 2.0, "-") + pucci_eval(N, 1.0, 2.0, "-") - 1e-12


def test_pucci_rotation_invariance():
    rng = np.random.default_rng(3)
    th = 0.83
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    for _ in range(10):
        M = _rand_sym(rng)
        assert pucci_eval(Q @ M @ Q.T, 1.0, 2.5, "+") == pytest.approx(
            pucci_eval(M, 1.0, 2.5, "+"))


def test_symmetric_eigenvalues_sorted():
    ev = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(ev, [-1.0, 1.0], atol=1e-14)


def test_validate_operator_pucci_and_linear():
    for op in (pucci_plus(1.0, 2.0), pucci_minus(1.0, 2.0), laplacian()):
        rep = validate_operator(op, samples=100, seed=1)
        assert rep["ok"]
        assert rep["ellipticity_violation"] <= 1e-10
        assert rep["homogeneity_violation"] <= 1e-10
    aniso = linear_operator({"a11": "1.0", "a22": "3.0"}, 1.0, 3.0)
    assert validate_operator(aniso, samples=100, seed=1)["ok"]


def test_laplacian_not_y_dependent():
    assert not laplacian().y_dependent
    osc = linear_operator({"a11": "1.5 + 0.5*sin(2*pi*y1)", "a22": "1.0"},
                          1.0, 2.0, period=(1.0, 1.0))
    assert osc.y_dependent


def test_effective_estimate_constant_coefficients():
    op = laplacian()
    M = np.diag([1.0, -2.0])
    rec = effective_operator_estimate(op, M)
    assert rec["value"] == pytest.approx(op.evaluate(M), abs=1e-6)
    assert rec["residual_history"][-1] <= 1e-5


def test_effective_estimate_layered_harmonic_mean():
    # a11 alternating between 1 and 2 in y1 homogenizes to the harmonic
    # mean 4/3 for pure D11 curvature
    def coeff(y):
        y = np.asarray(y, float)
        a = np.zeros(y.shape[:-1] + (2, 2))
        a[..., 0, 0] = np.where(np.mod(y[..., 0], 1.0) < 0.5, 1.0, 2.0)
        a[..., 1, 1] = 1.0
        return a

    op = EllipticOperatorSpec("linear", 1.0, 2.0, 2, period=(1.0, 1.0),
                              coeff=coeff)
    rec = effective_operator_estimate(op, np.diag([1.0, 0.0]), cell_grid=128)
    assert rec["value"] == pytest.approx(4.0 / 3.0, abs=0.02)


def test_effective_estimate_sinusoidal_harmonic_mean():
    # harmonic mean of 1.5 + 0.5 sin is sqrt(1.5^2 - 0.5^2) = sqrt(2)
    op = linear_operator(
        {"a11": "1.5 + 0.5*sin(2*pi*y1)", "a22": "1.0"},
        1.0, 2.0, period=(1.0, 1.0))
    rec = effective_operator_estimate(op, np.diag([1.0, 0.0]), cell_grid=128)
    assert rec["value"] == pytest.approx(math.sqrt(2.0), abs=0.02)


def test_effective_estimate_monotone_in_M():
    op = linear_operator(
        {"a11": "1.5 + 0.5*sin(2*pi*y1)", "a22": "1.0"},
        1.0, 2.0, period=(1.0, 1.0))
    f1 = effective_operator_estimate(op, np.diag([1.0, 0.0]), cell_grid=48)
    f2 = effective_operator_estimate(op, np.diag([1.0, 0.5]), cell_grid=48)
    assert f2["value"] >= f1["value"] - 1e-8


@pytest.mark.parametrize("make,value", [
    (lambda bell: pucci_plus(1.0, 2.0), 5.0),
    (lambda bell: pucci_minus(1.0, 2.0), 1.0),
    (lambda bell: bell("sup"), 5.0),
    (lambda bell: bell("inf"), 1.0),
], ids=["pucci_plus", "pucci_minus", "bellman_sup", "bellman_inf"])
def test_effective_estimate_constant_nonlinear(diag_bellman, make, value):
    # y-independent operators: Fbar(M) = F(M); at M = diag(3, -1)
    # Pucci+ = 2*3 - 1 = 5 and Pucci- = 3 - 2 = 1, and the diagonal
    # Bellman sup/inf attains the same values
    rec = effective_operator_estimate(make(diag_bellman), np.diag([3.0, -1.0]))
    assert rec["value"] == pytest.approx(value, abs=1e-6)


def test_norm_estimates_present():
    from homogbc.operators import SourceAndBoundaryData
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    assert data.g_sup() == 1.0
    # x is the slow variable: frozen at x0, default the origin
    slow = SourceAndBoundaryData.from_exprs("x1*cos(2*pi*y1)", "0")
    assert slow.g_sup() == 0.0
    assert slow.g_sup(np.array([0.5, 0.0])) == 0.5


def test_default_period_is_the_unit_cell_of_the_points():
    # a datum built without a period samples the unit cell of x0's
    # dimension: a 3-d g may read y3
    from homogbc.operators import SourceAndBoundaryData
    top = np.linspace(0.0, 1.0, 96, endpoint=False)[-1]
    space = SourceAndBoundaryData(g=lambda x, y: y[..., 2] + x[..., 0])
    assert space.g_sup(np.zeros(3)) == top
    assert space.g_sup(np.array([1.0, 0.0, 0.0])) == top + 1.0
    plane = SourceAndBoundaryData(g=lambda x, y: y[..., 0] + y[..., 1])
    assert plane.g_sup() == plane.g_sup(np.zeros(2)) == 2.0 * top


def test_3d_g_sup_samples_in_slabs():
    # the maximum over the whole 96^3 sample grid, bit for bit, without
    # holding that grid: a traced peak under 2 MB
    import tracemalloc

    from homogbc.operators import SourceAndBoundaryData
    data = SourceAndBoundaryData.from_exprs(
        "x1 + cos(2*pi*y1)*sin(2*pi*y2)*cos(2*pi*(y3 - 0.3))", "0", dim=3)
    x0 = np.array([0.25, -0.5, 0.125])
    axes = [np.linspace(0, 1.0, 96, endpoint=False)] * 3
    Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    X = np.broadcast_to(x0, Y.shape).copy()
    full = float(np.max(np.abs(data.g(X, Y))))
    del X, Y
    tracemalloc.start()
    try:
        sup = data.g_sup(x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup == full
    assert peak < 2 * 2 ** 20, peak


def test_probe_points_see_coefficients_off_the_diagonal():
    # both coefficients below are constant on the diagonal y1 = y2 of
    # the period cell: a laminate along (1, -1) depends on y, and an
    # anisotropic a11 is rotated, so that at y = (0.25, 0), where a is
    # diag(1.5, 1), the frame of (1, 1)/sqrt(2) reads Q^T a Q
    lam = "1.5 + 0.5*sin(2*pi*(y1 - y2))"
    assert linear_operator({"a11": lam, "a22": lam}, 1.0, 2.0).y_dependent
    op = linear_operator({"a11": "1 + 0.5*sin(2*pi*(y1 - y2))",
                          "a22": "1"}, 0.5, 1.5)
    Q = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    rot = op.rotated(Q)
    assert rot is not op
    np.testing.assert_allclose(rot.coefficients(np.array([0.25, 0.0])),
                               [[1.25, -0.25], [-0.25, 1.25]], atol=1e-12)
    for kind in (laplacian(), laplacian(3), pucci_plus(1.0, 2.0),
                 pucci_plus(1.0, 1.5, 3)):
        assert not kind.y_dependent and kind.rotated(Q if kind.dim == 2
                                                     else np.eye(3)) is kind


def test_rotated_multiple_of_identity_is_unchanged():
    # Q^T (cI) Q = cI: returning the operator itself keeps the strip
    # matrix bit-identical in every frame
    iso = linear_operator({"a11": "2", "a22": "2"}, lam=2.0, Lam=2.0)
    aniso = linear_operator({"a11": "2", "a22": "1"}, lam=1.0, Lam=2.0)
    varying = linear_operator({"a11": "1.5 + 0.5*cos(2*pi*y1)",
                               "a22": "1.5 + 0.5*cos(2*pi*y1)"},
                              lam=1.0, Lam=2.0)
    for th in np.linspace(0.1, 3.0, 12):
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        for op in (laplacian(), iso):
            assert op.rotated(Q) is op
        for op in (aniso, varying):
            assert op.rotated(Q) is not op
    lap3 = laplacian(3)
    Q3 = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3))[0]
    assert lap3.rotated(Q3) is lap3


def _anisotropic(dim):
    """A constant linear operator that every rotation changes."""
    exprs = {f"a{i + 1}{i + 1}": str(1.2 + 0.2 * i) for i in range(dim)}
    exprs["a12"] = "0.3"
    return linear_operator(exprs, 1.0, 2.0, dim=dim)


def _y_dependent(dim):
    exprs = {f"a{i + 1}{i + 1}": f"1.5 + 0.3*cos(2*pi*y{i + 1})"
             for i in range(dim)}
    exprs["a12"] = "0.2*sin(2*pi*(y1 + y2))"
    if dim == 3:
        exprs["a13"] = "0.1*cos(2*pi*y3)"
        exprs["a23"] = "0.1*sin(2*pi*y1)"
    return linear_operator(exprs, 1.0, 2.0, dim=dim)


def _bellman(mode):
    return lambda dim: EllipticOperatorSpec(
        "bellman", 1.0, 2.0, dim, mode=mode,
        members=(_anisotropic(dim), _y_dependent(dim), laplacian(dim)))


_ROTATABLE = {
    "pucci_plus": lambda dim: pucci_plus(1.0, 2.0, dim),
    "pucci_minus": lambda dim: pucci_minus(1.0, 2.0, dim),
    "anisotropic": _anisotropic,
    "y_dependent": _y_dependent,
    "bellman_sup": _bellman("sup"),
    "bellman_inf": _bellman("inf"),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_ROTATABLE)), dim=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rotated_evaluates_the_rotated_hessian(kind, dim, seed):
    # F rotated by Q at Mt is F at Q Mt Q^T, for every kind that
    # ``rotated`` transforms its own way
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    Mt = _rand_sym(rng, dim, scale=2.0)
    y = rng.uniform(0.0, 1.0, dim)
    op = _ROTATABLE[kind](dim)
    got = op.rotated(Q).evaluate(Mt, y)
    assert abs(got - op.evaluate(Q @ Mt @ Q.T, y)) <= 1e-10
