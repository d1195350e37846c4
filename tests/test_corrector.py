import contextlib
import math
import multiprocessing
import os
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogbc import corrector, fdsolver
from homogbc.corrector import (build_strip, estimate_gbar, ray_limit,
                               rotation_frame, solve_corrector)
from homogbc.operators import (EllipticOperatorSpec, SourceAndBoundaryData,
                               laplacian, linear_operator, pucci_plus)

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
    # factors its own, the scope counts none, and the held problem
    # keeps none
    calls = _count_splu(monkeypatch)
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, 2.0, 8.0, 1 / 8, data,
                    pucci_plus(1.0, 2.0))
    with fdsolver.factor_reuse() as scope:
        solve_corrector(p)
        assert scope.problem[0]._lu is None
    assert scope.counts() == {"factorizations": 0, "reused_solves": 0,
                              "problems_built": 1, "problems_reused": 0}
    assert calls["splu"] > 2


COS_DATA = SourceAndBoundaryData.from_exprs(
    "cos(2*pi*y1)*cos(2*pi*y2)", "0", dim=2, period=(1.0, 1.0))
NORMALS = [np.array([math.cos(a), math.sin(a)]) for a in (0.3, 1.1, 2.0)]
# y0 = X0/eps moves with eps, and so does the bottom trace
X0 = np.array([0.3, 0.1])


def _count_discretize(monkeypatch):
    calls = []
    discretize = corrector.discretize

    def counted(*args, **kwargs):
        calls.append(args[0])
        return discretize(*args, **kwargs)

    monkeypatch.setattr(corrector, "discretize", counted)
    return calls


def _sweep(op, normals=NORMALS):
    """estimate_gbar at every normal, in one factor_reuse scope."""
    with fdsolver.factor_reuse() as scope:
        ests = [estimate_gbar(X0, nu, [0.25, 0.125], 2.0, 8.0,
                              1 / 8, COS_DATA, op) for nu in normals]
    return scope, ests


@pytest.mark.parametrize("op", [laplacian(), pucci_plus(1.0, 2.0)],
                         ids=["laplace", "pucci"])
def test_scope_discretizes_a_rotation_invariant_strip_once(monkeypatch, op):
    # the rotated operator is the operator and does not depend on y:
    # every strip of the scope is one discrete problem with other ring
    # values, and reads the bits of the same strip solved on its own
    calls = _count_discretize(monkeypatch)
    scope, ests = _sweep(op)
    assert len(calls) == 1
    assert scope.counts()["problems_built"] == 1
    assert scope.counts()["problems_reused"] == 2 * len(NORMALS) - 1
    for nu, est in zip(NORMALS, ests):
        for rec in est.per_eps:
            alpha, err, alone = ray_limit(build_strip(
                X0, nu, rec["eps"], 2.0, 8.0, 1 / 8, COS_DATA, op))
            assert alpha == rec["alpha"] and err == rec["err"]
            assert alone["ray_readings"] == rec["ray_readings"]
    assert len(calls) == 1 + 2 * len(NORMALS)


@pytest.mark.parametrize("kind", ["anisotropic", "bellman", "laminate",
                                  "antidiagonal_laminate"])
def test_scope_rediscretizes_strips_of_other_operators(monkeypatch,
                                                       diag_bellman, kind):
    # a rotated Bellman operator is a new operator, and a laminate's
    # coefficients move with the strip, also along (1, -1), which the
    # probe points off the diagonal of the period cell see: no strip
    # reuses another's problem; a rotated anisotropic operator is a new
    # object too, but one constant coefficient per frame, so the second
    # epsilon of each normal reuses the first's problem
    lam = {"laminate": "1.5 + 0.5*sin(2*pi*y1)",
           "antidiagonal_laminate": "1.5 + 0.5*sin(2*pi*(y1 - y2))"}
    op = {"anisotropic": linear_operator({"a11": "1.0", "a22": "2.0"},
                                         1.0, 2.0),
          "bellman": diag_bellman("sup")}.get(kind) or \
        linear_operator({"a11": lam[kind], "a22": lam[kind]}, 1.0, 2.0)
    if kind == "antidiagonal_laminate":
        assert op.y_dependent
        assert op.rotated(rotation_frame(NORMALS[0])) is not op
    calls = _count_discretize(monkeypatch)
    scope, _ = _sweep(op, NORMALS[:2])
    built = 2 if kind == "anisotropic" else 4
    assert len(calls) == built
    assert scope.counts()["problems_built"] == built
    assert scope.counts()["problems_reused"] == 4 - built


def test_anisotropic_strips_of_one_normal_share_one_problem(monkeypatch):
    # the rotated operator is a new object for every strip, but the
    # strips of one normal have one frame and one constant coefficient:
    # one problem and one factorization serve both epsilons and both
    # passes, with the bits of each strip solved on its own
    op = linear_operator({"a11": "1.0", "a22": "2.0"}, 1.0, 2.0)
    calls = _count_splu(monkeypatch)
    for nu in NORMALS[:2]:
        with fdsolver.factor_reuse() as scope:
            est = estimate_gbar(X0, nu, [0.25, 0.125], 2.0, 8.0, 1 / 8,
                                COS_DATA, op)
        assert scope.counts() == {"factorizations": 1, "reused_solves": 3,
                                  "problems_built": 1, "problems_reused": 1}
        for rec in est.per_eps:
            alpha, err, alone = ray_limit(build_strip(
                X0, nu, rec["eps"], 2.0, 8.0, 1 / 8, COS_DATA, op))
            assert alpha == rec["alpha"] and err == rec["err"]
            assert alone["ray_readings"] == rec["ray_readings"]
    # the strips solved on their own factor once each
    assert calls["splu"] == 2 + 4


def _half_step_coeff(y):
    # 2 I where 8 y1 is a half-integer, else I: every probe point and
    # the nodes of a strip at y0 = 0 read I, those at y0 = (1/16, 0) 2 I
    c = np.where(np.mod(8.0 * np.asarray(y)[..., 0], 1.0) == 0.5, 2.0, 1.0)
    return c[..., None, None] * np.eye(2)


def test_scope_rediscretizes_a_strip_whose_constant_moved():
    # each strip's coefficients are one constant matrix, but not the
    # same one: the second strip is discretized anew, with its own
    # members, not served the first's
    op = EllipticOperatorSpec("linear", 1.0, 2.0, 2, coeff=_half_step_coeff)
    strips = [build_strip(np.array([x, 0.0]), np.array([0.0, 1.0]), 1 / 8,
                          2.0, 8.0, 1 / 8, COS_DATA, op)
              for x in (0.0, 1 / 128)]
    with fdsolver.factor_reuse() as scope:
        probs = [corrector._strip_problem(p)[0] for p in strips]
    assert scope.counts()["problems_built"] == 2
    assert scope.counts()["problems_reused"] == 0
    for p, prob in zip(strips, probs):
        alone = corrector._strip_problem(p)[0]
        assert alone.members[0].keys() == prob.members[0].keys()
        for d, (c, _) in alone.members[0].items():
            assert np.array_equal(prob.members[0][d][0], c)
    d = next(iter(probs[0].members[0]))
    assert not np.array_equal(probs[0].members[0][d][0],
                              probs[1].members[0][d][0])


def test_scope_frees_its_strip_problem():
    # the held problem goes with the scope, also on an exception, and
    # nothing else keeps it alive
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, 2.0, 8.0, 1 / 8, COS_DATA,
                    laplacian())
    for fail in (False, True):
        with pytest.raises(RuntimeError) if fail else \
                contextlib.nullcontext():
            with fdsolver.factor_reuse() as scope:
                solve_corrector(p)
                held = weakref.ref(scope.problem[0])
                if fail:
                    raise RuntimeError("inside the scope")
        assert fdsolver._scope is None
        assert scope.problem is None and scope.problem_key is None
        assert held() is None


@pytest.mark.parametrize("op", [laplacian(), pucci_plus(1.0, 2.0)],
                         ids=["laplace", "pucci"])
def test_later_strip_leaves_earlier_fields_alone(op):
    # a later strip resets the held problem's ring values; the field an
    # earlier strip returned is its own
    with fdsolver.factor_reuse():
        first = solve_corrector(build_strip(
            X0, NU_IRR, 1 / 4, 2.0, 8.0, 1 / 8, COS_DATA, op))
        kept = first.field.values.copy()
        second = solve_corrector(build_strip(
            X0, NU_IRR, 1 / 8, 2.0, 8.0, 1 / 8, COS_DATA, op))
    assert np.array_equal(first.field.values, kept)
    assert not np.array_equal(second.field.values, kept)


def _two_passes(monkeypatch, T, L, h):
    """Solve a Pucci+ strip's corrector and return, per pass, the
    keywords of its solve, its ring values, its output, and the field
    and Howard count of a cold solve of the same problem."""
    runs = []
    solve = corrector.solve_dirichlet

    def recorded(prob, **kwargs):
        out = solve(prob, **kwargs)
        cold, cold_rec = solve(prob, tol=kwargs["tol"])
        runs.append((kwargs, prob.grid.values.copy(), out, cold,
                     cold_rec["iterations"]))
        return out

    monkeypatch.setattr(corrector, "solve_dirichlet", recorded)
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, T, L, h, COS_DATA,
                    pucci_plus(1.0, 2.0))
    solve_corrector(p)
    return solve, runs


def test_second_pass_starts_from_first(monkeypatch):
    # only the top value moves between the passes: the second pass of a
    # nonlinear strip starts from the first's field plus the first's
    # linear response psi times the change of the top value, and needs
    # fewer Howard iterations than a cold start
    _, runs = _two_passes(monkeypatch, 4.0, 12.0, 1 / 16)
    (kw1, ring1, (grid1, _, psi), _, _), \
        (kw2, ring2, (grid2, rec2), cold, cold_its) = runs
    top = kw1["response"]
    assert "start" not in kw1 and "response" not in kw2
    c0, c1 = ring1[top][0], ring2[top][0]
    assert np.all(ring1[top] == c0) and np.all(ring2[top] == c1) and c1 != c0
    assert np.array_equal(kw2["start"].values,
                          grid1.values + (c1 - c0) * psi.values)
    assert rec2["iterations"] < cold_its
    assert np.max(np.abs(grid2.values - cold.values)) <= 1e-8


def test_response_start_saves_policies(monkeypatch):
    # on a small Pucci strip the second pass takes fewer Howard
    # policies from the response start than from the first field
    solve, runs = _two_passes(monkeypatch, 2.0, 8.0, 1 / 8)
    (_, _, (grid1, _, _), _, _), (kw2, ring2, (grid2, rec2), _, _) = runs
    prob, _ = corrector._strip_problem(build_strip(
        np.zeros(2), NU_IRR, 1 / 8, 2.0, 8.0, 1 / 8, COS_DATA,
        pucci_plus(1.0, 2.0)))
    prob.grid.values = ring2
    plain, plain_rec = solve(prob, tol=kw2["tol"], start=grid1)
    assert rec2["iterations"] < plain_rec["iterations"]
    assert np.max(np.abs(grid2.values - plain.values)) <= 1e-8


@pytest.mark.parametrize("T, L, h, op", [
    (2.0, 8.0, 1 / 8, laplacian()), (2.0, 8.0, 1 / 8, pucci_plus(1.0, 2.0)),
    (4.0, 12.0, 1 / 16, pucci_plus(1.0, 2.0))])
def test_response_is_the_derivative_in_the_top_value(T, L, h, op):
    # psi is 1 on the top face and 0 on the rest of the ring, lies in
    # [0, 1] inside (discrete maximum principle), and raising the top
    # value by delta moves the solution by delta psi: exactly for the
    # Laplacian, and for Pucci+ as long as no policy moves
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, T, L, h, COS_DATA, op)
    prob, top = corrector._strip_problem(p)
    prob.grid.values[top] = 0.1
    u0, rec, psi = fdsolver.solve_dirichlet(prob, response=top)
    # a linear problem back-solves the LU its first solve factored
    assert rec["response"]["path"] in (
        ("lu_reuse",) if prob.linear else ("direct", "lu_precond"))
    assert rec["response"]["target"] is None
    assert rec["response"]["residual"] <= 1e-10
    ring = prob.grid.mask == fdsolver.BOUNDARY
    assert np.array_equal(psi.values[ring], np.where(top[ring], 1.0, 0.0))
    inside = psi.values[prob.grid.mask == fdsolver.INTERIOR]
    assert np.all(inside >= 0.0) and np.all(inside <= 1.0)
    delta = 0.5 if prob.linear else 1e-3
    prob.grid.values[top] += delta
    u1, _ = fdsolver.solve_dirichlet(prob)
    assert np.max(np.abs(u1.values - u0.values - delta * psi.values)) <= 1e-10


def test_perturbed_response_solve_is_caught(monkeypatch):
    # the response solve is checked like every other.  On the small
    # strip the last policy solve factored the accepted policy, so the
    # response is one back-solve with its LU (BiCGSTAB stops at its
    # first half step); perturbed LU solves fail the backward-error
    # check and raise.  On the larger one it is BiCGSTAB on an older
    # policy's LU, and a perturbed result fails its check, so the
    # policy is factored instead
    rng = np.random.default_rng(0)
    responding = []
    solve_sparse = fdsolver._solve_sparse

    def flagged(*args, **kwargs):
        # the response is the one solve that starts from no iterate
        if kwargs.get("x0") is None:
            responding.append(True)
        return solve_sparse(*args, **kwargs)

    def noisy(x):
        return x + 1e-3 * rng.standard_normal(x.size) if responding else x

    lu_solve = fdsolver._Factor.solve
    bicgstab = fdsolver.spla.bicgstab

    def perturbed(*args, **kwargs):
        x, info = bicgstab(*args, **kwargs)
        return noisy(x), info

    def strip(T, L, h):
        prob, top = corrector._strip_problem(build_strip(
            np.zeros(2), NU_IRR, 1 / 8, T, L, h, COS_DATA,
            pucci_plus(1.0, 2.0)))
        prob.grid.values[top] = 0.1
        return prob, top

    small, small_top = strip(2.0, 8.0, 1 / 8)
    large, large_top = strip(4.0, 12.0, 1 / 16)
    _, small_rec, _ = fdsolver.solve_dirichlet(small, response=small_top)
    _, large_rec, clean = fdsolver.solve_dirichlet(large, response=large_top)
    assert small_rec["solves"][-1]["path"] == "direct"
    assert small_rec["response"]["path"] == "lu_precond"
    assert small_rec["response"]["krylov_iterations"] == 1
    assert large_rec["solves"][-1]["path"] == "lu_precond"
    assert large_rec["response"]["path"] == "lu_precond"
    assert large_rec["response"]["krylov_iterations"] > 1
    monkeypatch.setattr(fdsolver, "_solve_sparse", flagged)
    with monkeypatch.context() as m:
        m.setattr(fdsolver._Factor, "solve",
                  lambda self, b: noisy(lu_solve(self, b)))
        with pytest.raises(fdsolver.SolveError, match="backward error"):
            fdsolver.solve_dirichlet(small, response=small_top)
    responding.clear()
    monkeypatch.setattr(fdsolver.spla, "bicgstab", perturbed)
    _, rec, psi = fdsolver.solve_dirichlet(large, response=large_top)
    assert responding and rec["response"]["path"] == "direct"
    assert rec["response"]["krylov_iterations"] > 0
    assert np.max(np.abs(psi.values - clean.values)) <= 1e-10


def test_strip_passes_hold_one_lu_at_a_time(monkeypatch):
    # the first pass's LU serves its response solve and is freed before
    # the second pass factors: no two LUs are alive at any
    # factorization, also when a small budget makes the response solve
    # factor, and none outlives the strip
    live = []
    factor = fdsolver._Factor
    records = []
    solve = corrector.solve_dirichlet

    class Watched(factor):
        def __init__(self, B, order):
            assert not [r for r in live if r() is not None]
            super().__init__(B, order)
            live.append(weakref.ref(self))

    def recorded(*args, **kwargs):
        out = solve(*args, **kwargs)
        records.append(out[1])
        return out

    monkeypatch.setattr(fdsolver, "_Factor", Watched)
    monkeypatch.setattr(fdsolver, "PRECOND_BUDGET", 3)
    monkeypatch.setattr(corrector, "solve_dirichlet", recorded)
    p = build_strip(np.zeros(2), NU_IRR, 1 / 8, 4.0, 12.0, 1 / 16, COS_DATA,
                    pucci_plus(1.0, 2.0))
    sol = solve_corrector(p)
    first, second = records
    assert first["response"]["path"] == "direct"
    assert len(live) == sum(s["path"] == "direct" for s in first["solves"]
                            + second["solves"] + [first["response"]])
    del sol
    assert not [r for r in live if r() is not None]


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


# a standalone nonlinear estimate forks one worker per extra strip;
# these tests make two CPUs usable whatever the machine has
needs_fork = pytest.mark.skipif(
    not (fdsolver._prctl() and fdsolver._blas_pools()),
    reason="forked strips need Linux and a settable OpenBLAS")
FORK = multiprocessing.get_context("fork").Process


def _two_cpus(monkeypatch, cpus=(0, 1)):
    monkeypatch.setattr(fdsolver.os, "sched_getaffinity",
                        lambda pid: set(cpus))


def _count_starts(monkeypatch):
    started = []
    start = FORK.start

    def counted(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(FORK, "start", counted)
    return started


def _pucci_estimate():
    return estimate_gbar(X0, NU_IRR, [0.25, 0.125], 2.0, 8.0, 1 / 8,
                         COS_DATA, pucci_plus(1.0, 2.0))


@needs_fork
def test_standalone_pucci_estimate_forks_bitwise(monkeypatch):
    # the estimate solves its smaller epsilon itself and the other in
    # one worker: the record is bitwise the serial one of a caller's
    # scope, no worker outlives it and the BLAS pools read their
    # thread counts again
    _two_cpus(monkeypatch)
    started = _count_starts(monkeypatch)
    threads = [get() for get, _ in fdsolver._blas_pools()]
    est = _pucci_estimate()
    assert len(started) == 1
    assert multiprocessing.active_children() == []
    assert [get() for get, _ in fdsolver._blas_pools()] == threads
    with fdsolver.factor_reuse():
        serial = _pucci_estimate()
    assert len(started) == 1
    assert repr(est.to_record()) == repr(serial.to_record())


def _fail_at(monkeypatch, eps, fail):
    """Make ``ray_limit`` call ``fail()`` on the strip of ``eps``."""
    limit = corrector.ray_limit

    def failing(p, *args, **kwargs):
        if np.array_equal(p.y0_eps, X0 / eps):
            fail()
        return limit(p, *args, **kwargs)

    monkeypatch.setattr(corrector, "ray_limit", failing)


def _injected():
    raise fdsolver.SolveError("injected", [1.0])


@needs_fork
@pytest.mark.parametrize("eps", [0.25, 0.125], ids=["worker", "parent"])
def test_forked_strip_failure_raises_and_reaps(monkeypatch, eps):
    # a failing strip raises its SolveError with its history in the
    # caller, whether the worker or the caller solved it; a worker that
    # is still running is killed, and none outlives the call
    _two_cpus(monkeypatch)
    started = _count_starts(monkeypatch)
    _fail_at(monkeypatch, eps, _injected)
    with pytest.raises(fdsolver.SolveError, match="injected") as info:
        _pucci_estimate()
    assert info.value.history == [1.0]
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_that_dies_without_a_result_raises(monkeypatch):
    _two_cpus(monkeypatch)
    _fail_at(monkeypatch, 0.25, lambda: os._exit(7))
    with pytest.raises(RuntimeError, match="code 7"):
        _pucci_estimate()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("case", ["one_cpu", "linear", "caller_scope",
                                  "no_blas_pool", "second_thread"])
def test_estimate_stays_serial(monkeypatch, case):
    # one usable CPU, a linear operator (its strips share one LU), a
    # caller's scope (its strips share one problem), an OpenBLAS whose
    # threads cannot be pinned or a second Python thread: no process
    # starts
    def refuse(self):
        raise AssertionError("a worker started")

    monkeypatch.setattr(FORK, "start", refuse)
    _two_cpus(monkeypatch, (0,) if case == "one_cpu" else (0, 1))
    if case == "no_blas_pool":
        monkeypatch.setattr(fdsolver, "_blas_pools", lambda: ())
    op = laplacian() if case == "linear" else pucci_plus(1.0, 2.0)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "second_thread":
        thread.start()
    try:
        with fdsolver.factor_reuse() if case == "caller_scope" else \
                contextlib.nullcontext():
            est = estimate_gbar(X0, NU_IRR, [0.25, 0.125], 2.0, 8.0, 1 / 8,
                                COS_DATA, op)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert [r["eps"] for r in est.per_eps] == [0.125, 0.25]
