import math
import weakref

import numpy as np
import pytest

from homogbc import corrector as corr
from homogbc import effective, fdsolver
from homogbc.effective import (BoundaryEnvelope, OscillatingProblem,
                               boundary_layer_compare, build_envelopes,
                               effective_sandwich, sample_gbar_on_boundary,
                               solve_oscillating)
from homogbc.fdsolver import INTERIOR, SolveError, discretize, solve_dirichlet
from homogbc.geometry import DomainSpec
from homogbc.operators import SourceAndBoundaryData, laplacian

DISK = DomainSpec.disk((0.0, 0.0), 0.9)


def _const_data(c):
    return SourceAndBoundaryData.from_exprs(f"{c}", "0", dim=2,
                                            period=(1.0, 1.0))


def test_problem_rejects_coarse_epsilon():
    with pytest.raises(ValueError):
        OscillatingProblem(DISK, 0.7, laplacian(), _const_data(0.0))
    with pytest.warns(UserWarning):
        OscillatingProblem(DISK, 0.3, laplacian(), _const_data(0.0))


def test_solve_refuses_coarse_grid():
    p = OscillatingProblem(DISK, 1 / 16, laplacian(), _const_data(0.0))
    with pytest.raises(ValueError):
        solve_oscillating(p, h=1 / 64)


def test_constant_data_solved_exactly():
    p = OscillatingProblem(DISK, 1 / 16, laplacian(), _const_data(0.4))
    u, rec = solve_oscillating(p, h=1 / 128)
    sel = u.mask >= 1
    assert np.max(np.abs(u.values[sel] - 0.4)) < 1e-8
    ub = rec["uniform_bound"]
    assert ub["ok"] and ub["u_sup"] <= ub["bound"] + 1e-12


def test_affine_slow_data_exact():
    # g(x, y) = x1 has no fast dependence; harmonic extension is x1
    data = SourceAndBoundaryData(
        g=lambda x, y: np.atleast_2d(x)[:, 0],
        f=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        period=(1.0, 1.0))
    p = OscillatingProblem(DISK, 1 / 16, laplacian(), data)
    u, _ = solve_oscillating(p, h=1 / 128)
    sel = u.mask >= 1
    # ring nodes read data at projected boundary points, an O(h) offset
    assert np.max(np.abs(u.values[sel] - u.coords()[sel][:, 0])) < 2 / 128


@pytest.fixture(scope="module")
def cosdata_problem():
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    return OscillatingProblem(DISK, 1 / 16, laplacian(), data)


@pytest.fixture(scope="module")
def sampled_env(cosdata_problem):
    env = sample_gbar_on_boundary(cosdata_problem, 12, [1 / 8, 1 / 16],
                                  delta=0.5, T=8.0, L=48.0, h_strip=1 / 16,
                                  offset=0.5)
    return build_envelopes(cosdata_problem, env)


def test_envelope_bounds_and_order(sampled_env):
    env = sampled_env
    pts = DISK.boundary_points(64, 0.25)[0]
    hp = env.h_plus(pts)
    hm = env.h_minus(pts)
    assert np.all(hp >= hm)
    assert np.all(np.abs(hp) <= 3 * env.g_sup + 1e-9)
    assert np.all(np.abs(hm) <= 3 * env.g_sup + 1e-9)


def test_correction_reports_bump_iterations(sampled_env):
    # this sweep excludes balls, so the extremal bump is solved: a
    # Pucci+ Howard solve from a flat start takes more than one policy
    c = sampled_env.correction
    assert c["n_excluded"] > 0
    assert isinstance(c["bump_iterations"], int) and c["bump_iterations"] > 1


def test_correction_reports_the_bump_solver(sampled_env):
    # under the Laplacian the bump is Pucci+(1, 1), whose policies do
    # not depend on the sign: every one runs BiCGSTAB with a V-cycle
    # that smooths on its own matrix above coarse levels held across
    # policies, and the correction says so, with the builds of those
    # levels and without a factorization
    c = sampled_env.correction["bump_solver"]
    assert c["paths"] == {"vcycle": sampled_env.correction["bump_iterations"]}
    assert c["factorizations"] == 0
    assert 1 <= c["hierarchy_builds"] < c["paths"]["vcycle"]
    assert c["krylov_iterations"] >= c["paths"]["vcycle"]
    levels = c["levels"]
    assert len(levels) > 1 and levels[-1] <= fdsolver.COARSEST
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_envelope_covers_sampled_gbar(sampled_env):
    env = sampled_env
    for s in env.samples:
        x = np.asarray(s["x"])[None]
        assert env.h_plus(x)[0] >= s["gbar"] - s["err"] - 1e-9
        assert env.h_minus(x)[0] <= s["gbar"] + s["err"] + 1e-9


def test_envelope_gap_budget_at_samples(sampled_env):
    env = sampled_env
    slack = env.correction["slack"]
    for s in env.samples:
        x = np.asarray(s["x"])[None]
        gap = env.h_plus(x)[0] - env.h_minus(x)[0]
        bars = 2 * s["err"]
        assert gap <= 2 * env.delta + 2 * slack + bars + \
            2 * env.correction["v_sup_K"] * 2 * env.g_sup + 1e-6


def test_envelope_continuity_violation_is_reported(cosdata_problem):
    from homogbc.effective import BoundaryEnvelope
    total = 2 * math.pi * 0.9
    env = BoundaryEnvelope(delta=0.05, total_length=total)
    env.g_sup = 1.0
    for s, val in [(0.0, 0.8), (0.1, -0.8), (total / 2, 0.0)]:
        th = s / 0.9
        env.samples.append({
            "x": np.array([0.9 * math.cos(th), 0.9 * math.sin(th)]),
            "s": s, "gbar": val, "err": 0.01, "kind": "irrational",
            "equal": True})
    with pytest.raises(ValueError, match="delta-continuity"):
        build_envelopes(cosdata_problem, env)


def test_envelope_refinement_monotone(cosdata_problem, sampled_env):
    coarse = sampled_env
    fine_raw = sample_gbar_on_boundary(cosdata_problem, 12, [1 / 8, 1 / 16],
                                       delta=0.25, T=8.0, L=48.0,
                                       h_strip=1 / 16, offset=0.5,
                                       reuse=coarse)
    fine = build_envelopes(cosdata_problem, fine_raw)
    pts = DISK.boundary_points(32, 0.25)[0]
    # halving delta narrows the band wherever both envelopes sample
    assert np.all(fine.h_plus(pts) <= coarse.h_plus(pts) + 1e-9)
    assert np.all(fine.h_minus(pts) >= coarse.h_minus(pts) - 1e-9)


def _kept_fields(monkeypatch, name):
    """Spy on ``effective.<name>``: the list it returns collects the
    field of every call, in call order."""
    solve = getattr(effective, name)
    kept = []

    def spy(*args, **kwargs):
        out = solve(*args, **kwargs)
        kept.append(out[0])
        return out

    monkeypatch.setattr(effective, name, spy)
    return kept


def test_sandwich_on_disk(cosdata_problem, sampled_env):
    verdict = effective_sandwich(cosdata_problem, sampled_env, [1 / 16],
                                 h_pm=1 / 64)
    assert all(r["ok"] for r in verdict.per_eps)
    assert verdict.envelope_gap >= 0.0
    assert verdict.converged
    assert verdict.envelope_gap <= verdict.gap_budget


def test_one_compact_set_for_bump_and_sandwich(monkeypatch, cosdata_problem,
                                              sampled_env):
    # sup_K v and the sandwich check read the one K_SCALE: a value other
    # than the default moves both
    monkeypatch.setattr(effective, "K_SCALE", 0.5)
    solved = _kept_fields(monkeypatch, "solve_dirichlet")
    env = build_envelopes(cosdata_problem, BoundaryEnvelope(
        delta=sampled_env.delta, samples=list(sampled_env.samples),
        excluded=list(sampled_env.excluded),
        total_length=sampled_env.total_length, g_sup=sampled_env.g_sup))
    v = solved[0]
    VX = v.coords()[v.mask == INTERIOR]
    vals = v.values[v.mask == INTERIOR]
    v_sup_K = env.correction["v_sup_K"]
    assert v_sup_K == np.max(vals[DISK.contains_scaled(VX, 0.5)])
    assert np.max(vals[DISK.contains_scaled(VX, 2 / 3)]) > v_sup_K
    oscillating = _kept_fields(monkeypatch, "solve_oscillating")
    verdict = effective_sandwich(cosdata_problem, env, [1 / 16], h_pm=1 / 64)
    assert verdict.K_scale == 0.5
    u, = oscillating
    X = u.coords()[u.mask == INTERIOR]
    assert verdict.per_eps[0]["n_K_points"] == \
        np.count_nonzero(DISK.contains_scaled(X, 0.5))


def test_sandwich_envelopes_share_one_factor(monkeypatch, cosdata_problem,
                                            sampled_env):
    # u+ and u- of a linear operator differ only in their boundary
    # data: one factorization of their grid's matrix serves both, with
    # the bits of each solved on its own
    splu = fdsolver.spla.splu
    factored = []

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fdsolver.spla, "splu", counted)
    # u+ and u- are the sandwich's first two solves; the third is u_eps
    solved = _kept_fields(monkeypatch, "solve_dirichlet")
    effective_sandwich(cosdata_problem, sampled_env, [1 / 16], h_pm=1 / 64)
    up, um = solved[:2]
    assert len(solved) == 3
    monkeypatch.setattr(fdsolver.spla, "splu", splu)
    for env_h, u in ((sampled_env.h_plus, up), (sampled_env.h_minus, um)):
        q = discretize(laplacian(), DISK, 1 / 64, boundary=env_h,
                       source=cosdata_problem.data.source)
        assert np.array_equal(u.values, solve_dirichlet(q, tol=1e-6)[0].values)
    n = q.n_interior
    assert factored.count((n, n)) == 1


def test_sandwich_drops_the_envelope_lu_before_u_eps(monkeypatch,
                                                     cosdata_problem,
                                                     sampled_env):
    # u+ and u- are one problem, discretized once, whose LU is the only
    # one factored before u_eps; it is dead when the first u_eps solve
    # begins, so it never adds to that solve's memory
    factor = fdsolver._Factor
    live = []

    class Watched(factor):
        def __init__(self, B, order):
            super().__init__(B, order)
            live.append(weakref.ref(self))

    grids, entered = [], []
    discretize_ = effective.discretize
    solve = effective.solve_oscillating

    def counted(*args, **kwargs):
        grids.append(args[2])
        return discretize_(*args, **kwargs)

    def watched(*args, **kwargs):
        entered.append((len(live), sum(r() is not None for r in live)))
        return solve(*args, **kwargs)

    monkeypatch.setattr(fdsolver, "_Factor", Watched)
    monkeypatch.setattr(effective, "discretize", counted)
    monkeypatch.setattr(effective, "solve_oscillating", watched)
    effective_sandwich(cosdata_problem, sampled_env, [1 / 16], h_pm=1 / 64)
    assert grids == [1 / 64, 1 / 128]
    assert entered == [(1, 0)]


@pytest.mark.parametrize("exc", [SolveError, TypeError])
def test_sample_gbar_files_only_numerical_failures(monkeypatch, exc):
    # a solver failure is a per-point note; a programming error propagates
    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(corr, "estimate_gbar", fail)
    p = OscillatingProblem(DISK, 1 / 16, laplacian(), _const_data(0.2))
    if exc is TypeError:
        with pytest.raises(TypeError):
            sample_gbar_on_boundary(p, 12, [1 / 8, 1 / 16], delta=0.5)
        return
    env = sample_gbar_on_boundary(p, 12, [1 / 8, 1 / 16], delta=0.5)
    assert not env.samples
    failed = [n for n in env.notes if "gbar estimate failed" in n]
    assert failed and all("injected" in n for n in failed)


def test_g_sup_is_taken_on_the_boundary(monkeypatch):
    # ||g|| of x-dependent data is its sup over the sampled boundary
    # points, not at x = 0, where x1*cos(2*pi*y1) vanishes; the
    # rational-direction scan reads the same value
    def fail(*args, **kwargs):
        raise SolveError("injected")

    monkeypatch.setattr(corr, "estimate_gbar", fail)
    scan = effective._rational_direction_balls
    seen = []

    def spy(*args):
        seen.append(args[-1])
        return scan(*args)

    monkeypatch.setattr(effective, "_rational_direction_balls", spy)
    data = SourceAndBoundaryData.from_exprs("x1*cos(2*pi*y1)", "0", dim=2,
                                            period=(1.0, 1.0))
    p = OscillatingProblem(DISK, 1 / 16, laplacian(), data)
    env = sample_gbar_on_boundary(p, 24, [1 / 8, 1 / 16], delta=0.5,
                                  offset=0.5)
    pts = DISK.boundary_points(24, 0.5)[0]
    assert env.g_sup == np.max(np.abs(pts[:, 0])) > 0.89
    assert seen == [env.g_sup]


@pytest.mark.parametrize("exc", [ValueError, TypeError])
def test_sample_gbar_files_only_unclassifiable_normals(monkeypatch, exc):
    # an unclassifiable normal is a note plus an excluded ball; a
    # programming error in the classifier propagates
    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(effective, "classify_direction", fail)
    p = OscillatingProblem(DISK, 1 / 16, laplacian(), _const_data(0.2))
    if exc is TypeError:
        with pytest.raises(TypeError):
            sample_gbar_on_boundary(p, 12, [1 / 8, 1 / 16], delta=0.5)
        return
    env = sample_gbar_on_boundary(p, 12, [1 / 8, 1 / 16], delta=0.5)
    assert not env.samples
    failed = [n for n in env.notes if "classification failed" in n]
    assert failed and all("injected" in n for n in failed)
    balls = [b for b in env.excluded if b["reason"] == "unclassifiable normal"]
    assert len(balls) == len(failed)


def test_boundary_layer_compare_scales(cosdata_problem):
    u, _ = solve_oscillating(cosdata_problem, h=1 / 128)
    x0 = DISK.project(np.array([0.9 * math.cos(0.7), 0.9 * math.sin(0.7)]))
    rep = boundary_layer_compare(cosdata_problem, u, x0, T=4.0, L=24.0)
    assert rep["deviation"] >= 0.0
    assert rep["C_fit"] == rep["deviation"] / rep["scale"]
    with pytest.raises(ValueError):
        boundary_layer_compare(cosdata_problem, u, x0, pq=(0.9, 0.95))


def test_sample_gbar_reuses_linear_factors_in_scope(cosdata_problem):
    env = sample_gbar_on_boundary(cosdata_problem, 5, [1 / 8, 1 / 16],
                                  delta=0.5, T=2.0, L=8.0, h_strip=1 / 8,
                                  offset=0.5)
    counts = env.factor_reuse
    assert len(env.samples) == 4
    # 4 points x 2 eps x 2 passes, every one a linear strip solve, and
    # the Laplace strips of every normal share one matrix
    assert counts == {"factorizations": 1, "reused_solves": 15,
                      "problems_built": 1, "problems_reused": 7}
    assert fdsolver._scope is None


@pytest.mark.parametrize("offset", [0.05, 0.35, 0.65, 0.95])
def test_disk_sweep_factors_laplace_strip_once(cosdata_problem, offset):
    # the 12-point sweep of the homogenize disk config: the rotated
    # Laplacian is the Laplacian, so one factorization serves every strip
    env = sample_gbar_on_boundary(cosdata_problem, 12, [1 / 8, 1 / 16],
                                  delta=0.1, T=2.0, L=8.0, h_strip=1 / 8,
                                  offset=offset)
    assert env.samples
    assert env.factor_reuse["factorizations"] == 1


def _trace_spread(data, x0, m):
    # the offset loop _trace_mean_varies replaced: one call of g per
    # hyperplane offset
    m = np.asarray(m, float)
    tau = np.array([-m[1], m[0]])
    period = float(np.linalg.norm(m))
    s = (np.arange(512) + 0.5) / 512 * period
    means = []
    for k in range(8):
        Y = (k / 8.0) * m / (m @ m) + s[:, None] * tau / period
        X = np.broadcast_to(np.asarray(x0, float), Y.shape)
        means.append(float(np.mean(data.g(X, Y))))
    return max(means) - min(means)


@pytest.mark.parametrize("g", [
    "cos(2*pi*y1)*cos(2*pi*y2)",
    "x1*sin(2*pi*(2*y1 + 3*y2)) + 0.3*cos(6*pi*y1)"])
def test_trace_mean_scan_matches_the_offset_loop(g):
    # one call of g over all offsets gives the loop's spread bit for
    # bit: the decision flips exactly at the loop's spread
    data = SourceAndBoundaryData.from_exprs(g, dim=2)
    x0 = np.array([0.3, -0.7])
    for m in [(1, 0), (1, 1), (2, -1), (3, 7), (-10, 9)]:
        spread = _trace_spread(data, x0, m)
        assert not effective._trace_mean_varies(data, x0, m, spread)
        assert effective._trace_mean_varies(
            data, x0, m, np.nextafter(spread, -np.inf))
