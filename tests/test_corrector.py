import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogbc import corrector, fdsolver
from homogbc.corrector import (build_strip, estimate_gbar, ray_limit,
                               rotation_frame, solve_corrector)
from homogbc.operators import SourceAndBoundaryData, laplacian, pucci_plus

SQRT2 = math.sqrt(2.0)
NU_IRR = np.array([1.0, SQRT2]) / math.sqrt(3.0)


def test_rotation_frame():
    rng = np.random.default_rng(11)
    for _ in range(10):
        nu = rng.standard_normal(2)
        nu /= np.linalg.norm(nu)
        Q = rotation_frame(nu)
        np.testing.assert_allclose(Q @ Q.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(Q[:, -1], nu, atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0)


def test_constant_trace_reproduced_exactly():
    data = SourceAndBoundaryData(
        g=lambda x, y: np.full(np.shape(y)[:-1], 0.7), period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 1.0, 4.0, 12.0, 1 / 8, data,
                    laplacian())
    alpha, err, rec = ray_limit(p)
    assert alpha == pytest.approx(0.7, abs=1e-8)
    assert err < 0.05


def test_ray_limit_bounded_by_trace_range():
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 0.25, 4.0, 12.0, 1 / 16, data,
                    laplacian())
    alpha, err, rec = ray_limit(p)
    assert abs(alpha) <= 1.0 + 1e-8


def test_oscillation_profile_non_increasing():
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, 4.0, 24.0, 1 / 16, data,
                    pucci_plus(1.0, 2.0))
    sol = solve_corrector(p)
    W = np.asarray(sol.profile.W)
    assert np.all(np.diff(W) <= 1e-10)
    assert W[5] <= W[0] / 4


def test_strip_discretized_once(monkeypatch):
    # the two top-value passes solve one discrete problem
    calls = {"discretize": 0, "solve_dirichlet": 0}

    def counted(name):
        fn = getattr(corrector, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(corrector, name, counted(name))
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 0.25, 4.0, 12.0, 1 / 16, data,
                    laplacian())
    solve_corrector(p)
    assert calls == {"discretize": 1, "solve_dirichlet": 2}


def test_boundary_monotonicity_of_ray_limit():
    g1 = SourceAndBoundaryData(
        g=lambda x, y: np.cos(2 * math.pi * y[..., 0]), period=(1.0, 1.0))
    g2 = SourceAndBoundaryData(
        g=lambda x, y: np.cos(2 * math.pi * y[..., 0]) + 0.4,
        period=(1.0, 1.0))
    a1 = ray_limit(build_strip(np.zeros(2), NU_IRR, 0.25, 4.0, 12.0, 1 / 16,
                               g1, laplacian()))[0]
    a2 = ray_limit(build_strip(np.zeros(2), NU_IRR, 0.25, 4.0, 12.0, 1 / 16,
                               g2, laplacian()))[0]
    assert a2 == pytest.approx(a1 + 0.4, abs=1e-6)


def test_translation_stability_uniform_in_eps():
    # shifting the cell origin moves the readout by a bounded amount
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    for eps in (0.25, 0.125):
        base = ray_limit(build_strip(np.zeros(2), NU_IRR, eps, 4.0, 12.0,
                                     1 / 16, data, laplacian()))
        for d in (0.05, 0.1):
            # y0 = x0/eps = (d, 0) exactly: eps is a power of 2
            shifted = ray_limit(build_strip(np.array([eps * d, 0.0]), NU_IRR,
                                            eps, 4.0, 12.0, 1 / 16, data,
                                            laplacian()))
            assert abs(shifted[0] - base[0]) <= base[1] + shifted[1]


def test_estimate_gbar_constant_data_equal():
    data = SourceAndBoundaryData(
        g=lambda x, y: np.full(np.shape(y)[:-1], -0.3), period=(1.0, 1.0))
    est = estimate_gbar(np.zeros(2), NU_IRR, [0.25, 0.125], 4.0, 12.0, 1 / 16,
                        data, laplacian())
    assert est.equal
    assert est.gbar == pytest.approx(-0.3, abs=1e-6)
    assert est.gbar_lower <= est.gbar <= est.gbar_star


def test_estimate_gbar_spread_within_bars():
    data = SourceAndBoundaryData.from_exprs(
        "cos(2*pi*y1)*cos(2*pi*y2) + 0.25", "0", dim=2, period=(1.0, 1.0))
    est = estimate_gbar(np.zeros(2), NU_IRR, [0.25, 0.125], 4.0, 12.0, 1 / 16,
                        data, laplacian())
    alphas = [r["alpha"] for r in est.per_eps]
    errs = [r["err"] for r in est.per_eps]
    assert max(alphas) - min(alphas) <= errs[0] + errs[1]
    assert est.gbar_lower <= est.gbar_star


def test_build_strip_refuses_narrow():
    with pytest.raises(ValueError):
        build_strip(np.zeros(2), NU_IRR, 0.25, 4.0, 7.0, 1 / 8,
                    SourceAndBoundaryData(
                        g=lambda x, y: np.zeros(np.shape(y)[:-1]),
                        period=(1.0, 1.0)),
                    laplacian())


def _count_splu(monkeypatch):
    calls = {"splu": 0}
    splu = fdsolver.spla.splu

    def counted(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(fdsolver.spla, "splu", counted)
    return calls


def test_estimate_gbar_factors_linear_strip_once(monkeypatch):
    # every strip of a Laplace estimate has one matrix: inside the
    # estimate's scope one LU serves both epsilons and both top-value
    # passes, with the bits of a strip solved on its own
    calls = _count_splu(monkeypatch)
    data = SourceAndBoundaryData.from_exprs(
        "cos(2*pi*y1)*cos(2*pi*y2) + 0.25", "0", dim=2, period=(1.0, 1.0))
    est = estimate_gbar(np.zeros(2), NU_IRR, [0.25, 0.125], 4.0, 12.0, 1 / 16,
                        data, laplacian())
    assert calls["splu"] == 1
    assert fdsolver._scope is None
    for rec in est.per_eps:
        p = build_strip(np.zeros(2), NU_IRR, rec["eps"], 4.0, 12.0, 1 / 16,
                        data, laplacian())
        alpha, err, _ = ray_limit(p, solve_corrector(p))
        assert alpha == rec["alpha"]
        assert err == rec["err"]


def test_pucci_strip_retains_no_factor(monkeypatch):
    # a Pucci strip's matrix changes with every policy: each solve
    # factors its own, and the scope neither counts nor keeps one
    calls = _count_splu(monkeypatch)
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, 2.0, 8.0, 1 / 8, data,
                    pucci_plus(1.0, 2.0))
    with fdsolver.factor_reuse() as scope:
        solve_corrector(p)
        assert scope.lu is None and scope.matrix is None
    assert scope.counts() == {"factorizations": 0, "reused_solves": 0}
    assert calls["splu"] > 2


def test_second_pass_starts_from_first(monkeypatch):
    # only the top value moves between the passes, so the second pass
    # starts from the first's field and needs fewer Howard iterations
    runs = []
    solve = corrector.solve_dirichlet

    def recorded(prob, **kwargs):
        grid, rec = solve(prob, **kwargs)
        cold, cold_rec = solve(prob, tol=kwargs["tol"])
        runs.append((kwargs.get("start"), grid, rec["iterations"],
                     cold, cold_rec["iterations"]))
        return grid, rec

    monkeypatch.setattr(corrector, "solve_dirichlet", recorded)
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, 4.0, 12.0, 1 / 16, data,
                    pucci_plus(1.0, 2.0))
    solve_corrector(p)
    (start1, grid1, _, _, _), (start2, grid2, warm, cold, cold_its) = runs
    assert start1 is None and start2 is grid1
    assert warm < cold_its
    assert np.max(np.abs(grid2.values - cold.values)) <= 1e-8


def test_strip_in_3d():
    # the datum varies along the second tangential axis only
    data = SourceAndBoundaryData(
        g=lambda x, y: 0.5 * np.cos(2 * math.pi * y[..., 1]) ** 2,
        period=(1.0, 1.0, 1.0))
    p = build_strip(np.array([0.0, 0.125, 0.0]), np.array([0.0, 0.0, 1.0]),
                    0.5, 1.0, 2.0, 0.25, data, laplacian(3))
    assert p.g_sup >= 0.49
    sol = solve_corrector(p)
    assert 0.0 <= sol.alpha <= 0.5


@settings(max_examples=20, deadline=None)
@given(pucci=st.booleans(), c0=st.floats(-1.0, 1.0),
       amps=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       angle=st.floats(0.0, 2 * math.pi), eps=st.sampled_from([0.25, 0.125]),
       x0=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_ray_limit_within_datum_range(pucci, c0, amps, angle, eps, x0):
    # g = c0 + A cos(2 pi y1) + B cos(2 pi y2) ranges over exactly
    # [c0 - |A| - |B|, c0 + |A| + |B|]; by the discrete maximum principle
    # the ray limit stays there, up to 10 tol
    A, B = amps
    data = SourceAndBoundaryData(
        g=lambda x, y: c0 + A * np.cos(2 * math.pi * y[..., 0])
        + B * np.cos(2 * math.pi * y[..., 1]), period=(1.0, 1.0))
    op = pucci_plus(1.0, 2.0) if pucci else laplacian()
    tol = 1e-8
    p = build_strip(np.asarray(x0), [math.cos(angle), math.sin(angle)], eps,
                    2.0, 8.0, 1 / 8, data, op)
    alpha = ray_limit(p, tol=tol)[0]
    spread = abs(A) + abs(B)
    assert c0 - spread - 10 * tol <= alpha <= c0 + spread + 10 * tol
