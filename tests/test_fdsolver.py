import dataclasses
import math
import pickle
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homogbc import fdsolver
from homogbc.fdsolver import (INTERIOR, CertificateError, GridField,
                              comparison_check, discretize,
                              discretize_cell, factor_reuse,
                              monotone_weights, SolveError, solve_dirichlet)
from homogbc.geometry import DomainSpec
from homogbc.operators import laplacian, linear_operator, pucci_minus, pucci_plus

RECT = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))


def _harmonic(x):
    x = np.atleast_2d(x)
    return np.exp(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])


def test_monotone_weights_order1_cross_fails():
    a = np.array([[[1.0, 0.9], [0.9, 1.0]]])
    with pytest.raises(CertificateError):
        monotone_weights(a, 2, order=1)
    w = monotone_weights(a, 2, order=2)
    for arr in w.values():
        assert np.all(arr >= -1e-14)


def test_monotone_weights_reproduce_quadratic():
    # weighted second differences of a quadratic recover tr(a D2 q)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 2))
    a = 0.5 * (A + A.T) + 2.5 * np.eye(2)
    H = 0.5 * (rng.standard_normal((2, 2)) + np.eye(2))
    H = 0.5 * (H + H.T)
    w = monotone_weights(a[None], 2, order=2)
    # diagonal second differences are normalized by |e|^2 h^2
    got = 0.0
    for d, arr in w.items():
        e = np.asarray(d, float)
        got += arr[0] * (e @ H @ e) / (e @ e)
    assert got == pytest.approx(np.sum(a * H), abs=1e-10)


def test_harmonic_polynomial_exact_on_rectangle():
    # x^2 - y^2 + 3xy is annihilated exactly by the axis differences
    poly = lambda x: (np.atleast_2d(x)[:, 0] ** 2 -
                      np.atleast_2d(x)[:, 1] ** 2 +
                      3 * np.atleast_2d(x)[:, 0] * np.atleast_2d(x)[:, 1])
    p = discretize(laplacian(), RECT, 1 / 16, boundary=poly)
    u, rec = solve_dirichlet(p)
    sel = u.mask == INTERIOR
    assert np.max(np.abs(u.values[sel] - poly(u.coords()[sel]))) < 1e-10


def test_harmonic_transcendental_second_order():
    errs = []
    for h in (1 / 16, 1 / 32):
        p = discretize(laplacian(), RECT, h, boundary=_harmonic)
        u, _ = solve_dirichlet(p)
        sel = u.mask == INTERIOR
        errs.append(np.max(np.abs(u.values[sel] - _harmonic(u.coords()[sel]))))
    assert errs[1] <= errs[0] / 3.0


def test_source_second_order():
    # u = sin(pi x)sin(pi y), f = -2 pi^2 u
    exact = lambda x: np.sin(math.pi * np.atleast_2d(x)[:, 0]) * \
        np.sin(math.pi * np.atleast_2d(x)[:, 1])
    errs = []
    for h in (1 / 16, 1 / 32):
        p = discretize(laplacian(), RECT, h,
                       boundary=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
                       source=lambda x: -2 * math.pi ** 2 * exact(x))
        u, _ = solve_dirichlet(p)
        pts = u.coords()
        errs.append(np.max(np.abs(u.values[u.mask == INTERIOR] -
                                  exact(pts[u.mask == INTERIOR]))))
    assert errs[1] <= errs[0] / 3.0


def test_maximum_principle():
    g = lambda x: np.cos(5 * np.atleast_2d(x)[:, 0]) * \
        np.sin(3 * np.atleast_2d(x)[:, 1])
    p = discretize(pucci_plus(1.0, 2.0), RECT, 1 / 24, boundary=g)
    u, _ = solve_dirichlet(p)
    vals = u.values[u.mask >= 1]
    assert vals.max() <= g(RECT.boundary_points(400, 0.0)[0]).max() + 1e-8
    assert vals.min() >= g(RECT.boundary_points(400, 0.0)[0]).min() - 1e-8


def test_boundary_data_monotonicity():
    g1 = lambda x: np.atleast_2d(x)[:, 0]
    g2 = lambda x: np.atleast_2d(x)[:, 0] + 0.3
    p1 = discretize(pucci_minus(1.0, 1.5), RECT, 1 / 16, boundary=g1)
    p2 = discretize(pucci_minus(1.0, 1.5), RECT, 1 / 16, boundary=g2)
    u1, _ = solve_dirichlet(p1)
    u2, _ = solve_dirichlet(p2)
    sel = u1.mask >= 1
    assert np.all(u2.values[sel] >= u1.values[sel] - 1e-8)


def test_comparison_check_random_pairs():
    rng = np.random.default_rng(7)
    dom = DomainSpec.disk((0.0, 0.0), 1.0)
    op = pucci_plus(1.0, 2.0)
    base = discretize(op, dom, 1 / 16,
                      boundary=lambda x: np.zeros(np.atleast_2d(x).shape[0]))
    for _ in range(20):
        c = rng.uniform(0.0, 1.0)
        g = lambda x, c=c: c + 0.2 * np.cos(3 * np.atleast_2d(x)[:, 0])
        p = discretize(op, dom, 1 / 16, boundary=g)
        u, _ = solve_dirichlet(p)
        v = u.copy()
        v.values = v.values - rng.uniform(0.0, 0.5)
        rep = comparison_check(p, u, v)
        assert rep["holds"]


def test_pucci_envelopes_sandwich_linear_solutions():
    # any linear operator in the class sits between the extremal solutions
    g = lambda x: np.cos(2 * np.atleast_2d(x)[:, 0]) + \
        np.atleast_2d(x)[:, 1] ** 2
    dom = DomainSpec.disk((0.0, 0.0), 1.0)
    lam, Lam = 1.0, 2.0
    sols = {}
    for op in (pucci_plus(lam, Lam), pucci_minus(lam, Lam),
               linear_operator({"a11": "1.4", "a22": "1.9", "a12": "0.2"},
                               lam, Lam)):
        p = discretize(op, dom, 1 / 24, boundary=g)
        u, _ = solve_dirichlet(p)
        sols[op.kind] = u
    sel = sols["pucci_plus"].mask >= 1
    assert np.all(sols["pucci_plus"].values[sel] >=
                  sols["linear"].values[sel] - 1e-7)
    assert np.all(sols["linear"].values[sel] >=
                  sols["pucci_minus"].values[sel] - 1e-7)


@pytest.mark.parametrize("mode,pucci", [("sup", pucci_plus),
                                        ("inf", pucci_minus)])
def test_bellman_diagonal_family_matches_pucci(diag_bellman, mode, pucci):
    # on the axis frame Pucci+/- is the sup/inf of the diagonal members
    g = lambda x: np.cos(5 * np.atleast_2d(x)[:, 0]) * \
        np.sin(3 * np.atleast_2d(x)[:, 1])
    sols = []
    for op in (diag_bellman(mode), pucci(1.0, 2.0)):
        p = discretize(op, RECT, 1 / 24, stencil_order=1, boundary=g)
        u, _ = solve_dirichlet(p)
        sols.append(u.values)
    assert np.max(np.abs(sols[0] - sols[1])) <= 1e-10


@pytest.mark.parametrize("op", [
    linear_operator({"a11": "1.5 + 0.5*sin(2*pi*y1)", "a12": "0.3",
                     "a22": "1.0"}, 1.0, 2.0, period=(1.0, 1.0)),
    pucci_plus(1.0, 2.0),
], ids=["linear", "pucci_plus"])
def test_cell_system_is_m_matrix(op):
    # delta*v - F(M + D^2 v) = 0: on the torus every neighbour is
    # interior, so -A has positive diagonal and row sums +delta
    delta = 1e-2
    p = discretize_cell(op, np.array([[1.0, 0.4], [0.4, -2.0]]), delta, 16)
    d2 = p.second_diffs(np.zeros(p.n_interior))
    B = p.assemble(p._extremum(d2, want_policy=True)[1]).B
    np.testing.assert_allclose(np.asarray(B.sum(axis=1)).ravel(), delta,
                               rtol=0.0, atol=1e-9)
    assert np.all(B.diagonal() > 0)


def test_dump_load_roundtrip(tmp_path):
    p = discretize(laplacian(), RECT, 1 / 8, boundary=_harmonic)
    u, _ = solve_dirichlet(p)
    path = tmp_path / "field.grid"
    u.dump(path)
    v = GridField.load(path)
    assert v.h == u.h
    np.testing.assert_array_equal(v.mask, u.mask)
    # 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(v.values, u.values)


def test_krylov_failure_raises_without_direct_fallback(monkeypatch):
    # above the 60,000-unknown switch a 3-d policy goes to BiCGSTAB and
    # a 2-d linear system to BiCGSTAB with the V-cycle, and nothing
    # else: a Krylov failure is a SolveError, never a direct solve
    def no_direct(*args, **kwargs):
        raise AssertionError("direct solve called")

    monkeypatch.setattr(fdsolver.spla, "bicgstab",
                        lambda B, b, **kwargs: (np.zeros_like(b), 2000))
    monkeypatch.setattr(fdsolver, "_Factor", no_direct)
    n = 60_001
    system = fdsolver.LinearSystem(
        fdsolver.sparse.identity(n, format="csr"), np.ones(n), 1.0)
    with pytest.raises(SolveError, match=r"BiCGSTAB \(bicgstab\) failed"):
        fdsolver._solve_sparse(
            system, fdsolver._route(n, 3, False, False, False, False), None)
    with pytest.raises(SolveError, match=r"BiCGSTAB \(vcycle\) failed"):
        fdsolver._solve_sparse(
            system, fdsolver._route(n, 2, True, True, False, False),
            types.SimpleNamespace(aggregates=[np.arange(n) // 256]))


# the 0.9-disk at h = 0.00625, the grid of the homogenize-disk
# workload's eps = 0.05 solve: 65,097 unknowns, above the switch
DISK65K = (DomainSpec.disk((0.0, 0.0), 0.9), 0.00625)


def test_large_2d_linear_system_takes_the_vcycle(monkeypatch):
    # a linear 2-d system above the switch runs BiCGSTAB with the
    # V-cycle: it never factors its matrix nor builds the order, and
    # splu sees the coarsest level only; the field is the LU's
    def refused(*args, **kwargs):
        raise AssertionError("direct-path work on the V-cycle path")

    sizes = []
    splu = fdsolver.spla.splu

    def coarsest(A, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, **kwargs)

    dom, h = DISK65K
    p = discretize(laplacian(), dom, h, boundary=_harmonic,
                   source=lambda x: np.ones(len(x)))
    with monkeypatch.context() as m:
        m.setattr(fdsolver, "_dissection", refused)
        m.setattr(fdsolver, "_Factor", refused)
        m.setattr(fdsolver.spla, "splu", coarsest)
        u, rec = solve_dirichlet(p)
    assert p.n_interior == 65_097 and "order" not in vars(p)
    (solve,) = rec["solves"]
    assert solve["path"] == "vcycle" and solve["fill"] is None
    assert solve["levels_built"] is True
    assert 0 < solve["krylov_iterations"] < 100
    assert solve["target"] is None and solve["residual"] <= 1e-10
    levels = solve["levels"]
    assert levels[0] == p.n_interior and levels[-1] <= fdsolver.COARSEST
    assert all(a > b for a, b in zip(levels, levels[1:]))
    assert sizes == [levels[-1]]
    system = p.assemble(p.evaluate(u.values.ravel(), want_policy=True)[1])
    x = fdsolver._Factor(system.B, p.order).solve(system.b)
    np.testing.assert_allclose(u.values.ravel()[p.int_flat], x, rtol=0.0,
                               atol=1e-10 * np.max(np.abs(x)))


def test_large_2d_policy_is_still_factored(monkeypatch):
    # a nonlinear 2-d policy above the switch keeps the LU path: the
    # first policy is factored, and the aggregates are never built
    def refused(*args, **kwargs):
        raise AssertionError("V-cycle work on a 2-d policy")

    monkeypatch.setattr(fdsolver, "_VCycle", refused)
    dom, h = DISK65K
    p = discretize(pucci_plus(1.0, 2.0), dom, h, boundary=_harmonic)
    u = np.zeros(p.grid.values.size)
    report = {}
    fdsolver._solve_sparse(p.assemble(p.evaluate(u, want_policy=True)[1]),
                           fdsolver._Held("held_lu"), p, report=report)
    assert p.n_interior > fdsolver.KRYLOV_SWITCH
    assert report["path"] == "direct" and report["fill"] > p.n_interior
    assert report["levels"] is None and "aggregates" not in vars(p)
    assert report["levels_built"] is None


def test_large_2d_linear_system_in_a_scope_is_factored():
    # inside a factor_reuse scope a linear 2-d system above the switch
    # keeps the LU, which serves the next solve by a back-solve
    dom, h = DISK65K
    p = discretize(laplacian(), dom, h, boundary=_harmonic)
    with factor_reuse() as scope:
        recs = [solve_dirichlet(p)[1] for _ in range(2)]
        assert scope.counts() == {"factorizations": 1, "reused_solves": 1,
                                  "problems_built": 0, "problems_reused": 0}
    assert [s["path"] for r in recs for s in r["solves"]] == \
        ["direct", "lu_reuse"]
    assert "aggregates" not in vars(p)


def test_linear_solve_takes_its_policy_from_its_member(monkeypatch):
    # a linear problem's one policy is its member: the loop evaluates
    # only its solution, and the field and record are those of one
    # exact solve of the policy the start iterate would have picked (on
    # a fresh problem, which has factored nothing yet)
    p, q = (discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
            for _ in range(2))
    u = q.grid.values.ravel().copy()
    u[q.int_flat] = np.mean(u[q.grid.mask.ravel() == fdsolver.BOUNDARY])
    _, weights = q.evaluate(u, want_policy=True)
    report = {}
    u[q.int_flat] = fdsolver._solve_sparse(
        q.assemble(weights), "lu", q, x0=u[q.int_flat], report=report)
    evaluate = fdsolver.DiscreteProblem.evaluate
    evaluated = []

    def counted(self, u_flat, want_policy):
        evaluated.append(u_flat.copy())
        return evaluate(self, u_flat, want_policy)

    monkeypatch.setattr(fdsolver.DiscreteProblem, "evaluate", counted)
    grid, rec = solve_dirichlet(p)
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], u)
    assert np.array_equal(grid.values.ravel(), u)
    assert rec == {"iterations": 1,
                   "residual_history": [float(np.max(np.abs(
                       evaluate(p, u, False)[0])))],
                   "converged": True, "tol": 1e-8, "solves": [report]}


def test_linear_solve_above_tol_raises_at_the_floor():
    # a linear problem is a policy fixed point after its one direct
    # solve: a residual above 10*tol there stops the loop with a
    # SolveError, not a second policy
    p = discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
    with pytest.raises(SolveError, match="in 1 policies") as err:
        solve_dirichlet(p, tol=1e-300)
    assert len(err.value.history) == 1
    assert 0.0 < err.value.history[0] < 1e-10


def test_policy_cap_raises_with_history(monkeypatch):
    # Pucci+ on harmonic data needs more than one policy: with the cap
    # at one, the loop ends unconverged and reports the residual
    monkeypatch.setattr(fdsolver, "MAX_POLICIES", 1)
    p = discretize(pucci_plus(1.0, 2.0), RECT, 1 / 16, boundary=_harmonic)
    with pytest.raises(SolveError, match="in 1 policies") as err:
        solve_dirichlet(p)
    assert len(err.value.history) == 1
    assert err.value.history[0] > 1.0


def test_factor_reuse_scope_nests_and_frees_on_exception():
    # a nested scope joins the outer one, whose counts see the problem
    # factored once and back-solved once; leaving it by an exception
    # ends it, and the problem's one LU lives as long as the problem
    p = discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
    with pytest.raises(RuntimeError):
        with factor_reuse() as scope:
            u, _ = solve_dirichlet(p)
            with factor_reuse() as inner:
                assert inner is scope
                v, _ = solve_dirichlet(p)
            lu = weakref.ref(p._lu)
            raise RuntimeError("inside the scope")
    assert fdsolver._scope is None
    assert scope.problem is None and scope.problem_key is None
    assert scope.counts() == {"factorizations": 1, "reused_solves": 1,
                              "problems_built": 0, "problems_reused": 0}
    w, rec = solve_dirichlet(p)
    assert p._lu is lu() and rec["solves"][0]["path"] == "lu_reuse"
    assert np.array_equal(u.values, v.values)
    assert np.array_equal(u.values, w.values)
    del p
    assert lu() is None


def test_linear_problem_assembles_its_matrix_once(monkeypatch):
    # a linear strip is solved twice with new ring values: the second
    # solve rebuilds only the right-hand side and back-solves the one
    # LU the problem keeps of its matrix, with the bits of a fresh
    # problem's solve; the LU goes with the problem
    p = discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
    matrix = fdsolver.DiscreteProblem._matrix
    factor = fdsolver._Factor
    built, factored = [], []

    def counted(self, w):
        built.append(self)
        return matrix(self, w)

    def counted_factor(B, order):
        factored.append(B)
        return factor(B, order)

    monkeypatch.setattr(fdsolver.DiscreteProblem, "_matrix", counted)
    monkeypatch.setattr(fdsolver, "_Factor", counted_factor)
    with factor_reuse() as scope:
        u, _ = solve_dirichlet(p)
        p.grid.values[p.grid.mask == fdsolver.BOUNDARY] += 1.0
        v, rec = solve_dirichlet(p, start=u)
        assert scope.counts() == {"factorizations": 1, "reused_solves": 1,
                                  "problems_built": 0, "problems_reused": 0}
    assert len(built) == 1 and built[0] is p
    assert len(factored) == 1 and factored[0] is p._fixed[0]
    assert rec["solves"][0]["path"] == "lu_reuse"
    q = discretize(laplacian(), RECT, 1 / 16,
                   boundary=lambda x: _harmonic(x) + 1.0)
    w, _ = solve_dirichlet(q)
    assert np.array_equal(v.values, w.values)
    lu = weakref.ref(p._lu)
    del p, built[:]
    assert lu() is None


def test_pickled_linear_problem_solves_to_the_same_bits():
    # a solved Laplace problem pickles without its LU, which SuperLU
    # cannot pickle: the copy factors its matrix again on its first
    # solve and reads the bits of the original's
    p = discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
    u, _ = solve_dirichlet(p)
    assert p._lu is not None
    q = pickle.loads(pickle.dumps(p))
    v, rec = solve_dirichlet(q)
    assert [s["path"] for s in rec["solves"]] == ["direct"]
    assert np.array_equal(u.values, v.values)
    assert p._lu is not None


def test_perturbed_direct_solve_raises(monkeypatch):
    # every solve is checked by its residual before the iterate uses it
    exact = fdsolver._Factor.solve

    def perturbed(self, b):
        x = exact(self, b)
        return x + 1e-6 * np.random.default_rng(0).standard_normal(x.size)

    monkeypatch.setattr(fdsolver._Factor, "solve", perturbed)
    p = discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
    with pytest.raises(SolveError, match="backward error"):
        solve_dirichlet(p)


def test_record_names_each_solve_path():
    # a linear problem factors once and back-solves in a scope; a 2-d
    # Pucci solve factors its first policy and preconditions later ones
    # by that LU, and every solve reports its path, Krylov count,
    # checked residual, target and the fill of the LU it used, and no
    # V-cycle levels
    p = discretize(laplacian(), RECT, 1 / 16, boundary=_harmonic)
    with factor_reuse():
        recs = [solve_dirichlet(p)[1] for _ in range(2)]
    q = discretize(pucci_plus(1.0, 2.0), RECT, 1 / 16, boundary=_harmonic)
    _, rec = solve_dirichlet(q)
    assert [s["path"] for r in recs for s in r["solves"]] == \
        ["direct", "lu_reuse"]
    assert len(rec["solves"]) == rec["iterations"] > 1
    paths = [s["path"] for s in rec["solves"]]
    assert paths[0] == paths[-1] == "direct"
    assert set(paths) == {"direct", "lu_precond"}
    for s in recs[0]["solves"] + recs[1]["solves"]:
        assert s["krylov_iterations"] == 0
    for s in recs[0]["solves"] + recs[1]["solves"] + rec["solves"]:
        if s["path"] == "lu_precond":
            assert 0.0 <= s["residual"] <= s["target"]
        else:
            assert s["target"] is None
            assert 0.0 <= s["residual"] <= 1e-14
        assert s["fill"] >= q.n_interior and s["levels"] is None
        assert s["levels_built"] is None
    assert recs[0]["solves"][0]["fill"] == recs[1]["solves"][0]["fill"]


_SMALL = {2: DomainSpec.disk((0.0, 0.0), 1.0),
          3: DomainSpec.disk((0.0, 0.0, 0.0), 1.0)}


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), order=st.sampled_from([1, 2]),
       pucci=st.sampled_from([pucci_plus, pucci_minus]),
       cells=st.integers(3, 6), flat=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_assembly_is_the_chosen_stencil(dim, order, pucci, cells,
                                               flat, seed):
    # at a random iterate the assembled system holds exactly the chosen
    # frame's arms: no stored zero, an M-matrix, and the same solution
    # as a dense solve; a flat half of the iterate ties every frame
    rng = np.random.default_rng(seed)
    p = discretize(pucci(1.0, 2.5, dim), _SMALL[dim], 1.0 / cells,
                   stencil_order=order,
                   boundary=lambda x: rng.uniform(-1, 1, len(x)))
    u = rng.uniform(-1.0, 1.0, p.grid.values.size)
    if flat:
        u[p.grid.coords().reshape(-1, dim)[:, 0] < 0] = 0.5
    _, policy = p.evaluate(u, want_policy=True)
    system = p.assemble(policy)
    A = system.B
    assert A.has_canonical_format
    assert np.all(A.data != 0.0)
    B = A.toarray()
    off = B - np.diag(np.diag(B))
    assert np.all(np.diag(B) > 0)
    assert np.all(off <= 0)
    assert np.all(B.sum(axis=1) >= -1e-9 * np.abs(np.diag(B)))
    # each row holds its diagonal and the chosen frame's arms that end
    # at an unknown
    inner = p.arms < p.n_interior
    assert all(len(p.members[m]) == dim for m in policy.member)
    assert np.diff(A.indptr).tolist() == [
        1 + sum(inner[2 * p.dirs.index(d) + s, k]
                for d in p.members[m] for s in (0, 1))
        for k, m in enumerate(policy.member)]
    x = fdsolver._solve_sparse(system, fdsolver._Held("held_lu"), p)
    np.testing.assert_allclose(x, np.linalg.solve(B, system.b),
                               rtol=0.0, atol=1e-10)


@pytest.fixture(scope="module")
def dissected():
    # a corrector strip (12 x 4 at h = 1/16), the disk, a 3-d ball and
    # the cell torus
    strip = DomainSpec.rectangle((-6.0, 0.0), (6.0, 4.0))
    return {
        "strip": discretize(pucci_plus(1.0, 2.0), strip, 1 / 16),
        "disk": discretize(laplacian(), _SMALL[2], 1 / 48,
                           boundary=_harmonic),
        "ball": discretize(pucci_plus(1.0, 1.5, 3), _SMALL[3], 1 / 10),
        "torus": discretize_cell(pucci_plus(1.0, 2.0),
                                 np.array([[1.0, 0.4], [0.4, -2.0]]),
                                 1e-2, 24),
    }


@pytest.mark.parametrize("name", ["strip", "disk", "ball", "torus"])
def test_dissection_order_separates_sibling_blocks(dissected, name):
    # the order is a permutation that sorts the dissection paths, and
    # no stencil arm of any member (so no entry of any policy matrix)
    # links two sibling blocks: where the paths of its two ends first
    # differ, one of them is in the separator
    p = dissected[name]
    path = fdsolver._dissection(p)
    assert np.array_equal(np.sort(p.order), np.arange(p.n_interior))
    assert np.array_equal(p.order, np.lexsort(path.T[::-1]))
    assert path.shape[1] > 4
    assert np.any(path[:, 0] == 2) == (name == "torus")
    for ends in p.arms:
        inner = ends < p.n_interior
        i, j = np.flatnonzero(inner), ends[inner]
        differ = path[i] != path[j]
        k = np.argmax(differ, axis=1)
        sides = path[i, k] + path[j, k]
        assert not np.any(differ.any(axis=1) & (sides == 1))


@pytest.mark.parametrize("name", ["strip", "disk"])
def test_dissection_fill_at_most_colamd(dissected, name):
    p = dissected[name]
    u = np.random.default_rng(3).uniform(-1.0, 1.0, p.grid.values.size)
    B = p.assemble(p.evaluate(u, want_policy=True)[1]).B
    colamd = fdsolver.spla.splu(B.tocsc(), permc_spec="COLAMD")
    assert fdsolver._Factor(B, p.order).fill <= colamd.nnz


def _masked_problem(op, interior, rng):
    # a Dirichlet problem on a random mask: every node off the mask is
    # ring, with random values, and the source is random
    dim = interior.ndim
    frames = fdsolver.frames_for(dim, 2)
    dirs = sorted({d for f in frames for d in f})
    int_flat = np.flatnonzero(interior)
    mask = np.where(interior, INTERIOR, fdsolver.BOUNDARY).astype(np.int8)
    grid = GridField(np.zeros(dim), 0.125, mask,
                     rng.uniform(-1.0, 1.0, interior.shape))
    members, mode = fdsolver._family(op, frames, 2, None, None)
    arms, ring = fdsolver._arm_table(int_flat, interior.shape, dirs)
    return fdsolver.DiscreteProblem(
        grid=grid, f=rng.uniform(-1.0, 1.0, int_flat.size), dirs=dirs,
        int_flat=int_flat, arms=arms, ring_flat=ring, members=members,
        mode=mode)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), torus=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_direct_solve_under_dissection_matches_dense(dim, torus, seed):
    rng = np.random.default_rng(seed)
    op = pucci_plus(1.0, 2.5, dim)
    if torus:
        A = rng.uniform(-1.0, 1.0, (dim, dim))
        p = discretize_cell(op, A + A.T, rng.uniform(0.01, 1.0),
                            int(rng.integers(3, 7 if dim == 3 else 13)))
    else:
        shape = tuple(rng.integers(3, 9 if dim == 3 else 17, size=dim))
        interior = rng.random(shape) < rng.uniform(0.3, 1.0)
        interior &= np.pad(np.ones([s - 2 for s in shape], bool), 1)
        interior[(1,) * dim] = True
        p = _masked_problem(op, interior, rng)
    u = rng.uniform(-1.0, 1.0, p.grid.values.size)
    system = p.assemble(p.evaluate(u, want_policy=True)[1])
    x = fdsolver._solve_sparse(system, fdsolver._Held("held_lu"), p)
    dense = np.linalg.solve(system.B.toarray(), system.b)
    # relative to the solution's size: with a small delta a cell
    # solution reaches the hundreds
    np.testing.assert_allclose(x, dense, rtol=0.0,
                               atol=1e-10 * max(1.0, np.max(np.abs(dense))))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), flat=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vcycle_solve_matches_dense(dim, flat, seed):
    # BiCGSTAB with the V-cycle, switched on for small random masks
    # with a coarsest level of 4 unknowns, on a Pucci+ policy matrix:
    # at a flat iterate every node ties and takes the axis frame (a
    # symmetric Laplace matrix), at a random one it is nonsymmetric;
    # the dense solution, and the same bits twice
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(3, 9 if dim == 3 else 17, size=dim))
    interior = rng.random(shape) < rng.uniform(0.3, 1.0)
    interior &= np.pad(np.ones([s - 2 for s in shape], bool), 1)
    interior[(1,) * dim] = True
    p = _masked_problem(pucci_plus(1.0, 2.5, dim), interior, rng)
    u = np.zeros(p.grid.values.size) if flat else \
        rng.uniform(-1.0, 1.0, p.grid.values.size)
    system = p.assemble(p.evaluate(u, want_policy=True)[1])
    runs, reports = [], []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fdsolver, "KRYLOV_SWITCH", 0)
        m.setattr(fdsolver, "COARSEST", 4)
        for _ in range(2):
            reports.append({})
            runs.append(fdsolver._solve_sparse(
                system, fdsolver._route(p.n_interior, dim, True, True, False,
                                        False),
                p, report=reports[-1]))
    assert reports[0]["path"] == "vcycle"
    assert reports[0]["levels"][-1] <= 4
    assert len(reports[0]["levels"]) == len(p.aggregates) + 1
    assert np.array_equal(runs[0], runs[1])
    dense = np.linalg.solve(system.B.toarray(), system.b)
    np.testing.assert_allclose(runs[0], dense, rtol=0.0,
                               atol=1e-10 * max(1.0, np.max(np.abs(dense))))


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), plus=st.booleans(),
       ratio=st.floats(1.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
# here the policy repeats after a preconditioned full-accuracy solve at
# residual 1.1e-9, above tol: the loop must factor it, not stop there
@example(dim=3, plus=False, ratio=2.0, seed=0)
def test_comparison_principle_on_random_masks(dim, plus, ratio, seed):
    # on a random mask, a solved u is a solution; v = u - phi, with
    # phi >= 0 a concave quadratic (every second difference of phi is
    # negative), is a subsolution below u by monotonicity of the
    # scheme; and w, solved with the ring lowered by a nonnegative
    # field, stays below u inside: comparison_check must say "holds"
    rng = np.random.default_rng(seed)
    op = (pucci_plus if plus else pucci_minus)(1.0, ratio, dim)
    shape = tuple(rng.integers(3, 9 if dim == 3 else 17, size=dim))
    interior = rng.random(shape) < rng.uniform(0.3, 1.0)
    interior &= np.pad(np.ones([s - 2 for s in shape], bool), 1)
    interior[(1,) * dim] = True
    p = _masked_problem(op, interior, rng)
    u, _ = solve_dirichlet(p, tol=1e-10)
    x = u.coords()
    quad = -rng.uniform(0.0, 2.0) * np.sum(
        (x - rng.uniform(0.0, 2.0, dim)) ** 2, axis=-1) + x @ rng.uniform(
        -1.0, 1.0, dim)
    v = u.copy()
    v.values = u.values - (quad - quad.min() + rng.uniform(0.0, 0.5))
    assert comparison_check(p, u, v)["holds"]
    lowered = p.grid.copy()
    ring = lowered.mask == fdsolver.BOUNDARY
    lowered.values[ring] -= rng.uniform(0.0, 1.0, int(ring.sum()))
    w, _ = solve_dirichlet(dataclasses.replace(p, grid=lowered), tol=1e-10)
    report = comparison_check(p, u, w)
    assert report["holds"], report


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), lam=st.floats(0.5, 1.0),
       ratio=st.floats(1.0, 3.0),
       mids=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       cells=st.integers(3, 6), f=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pucci_solutions_bracket_linear(dim, lam, ratio, mids, cells, f,
                                        seed):
    # with the same data, a linear operator with diagonal coefficients
    # in [lam, Lam] lies between the discrete Pucci operators, so by
    # comparison Pucci- <= linear <= Pucci+ nodewise, up to 2 C tol
    # with C = diam^2 / (2 lam)
    Lam = lam * ratio
    exprs = {}
    for i in range(dim):
        # a_ii(y) oscillates inside [lam, Lam]
        mid = lam + mids[i] * (Lam - lam)
        amp = min(mid - lam, Lam - mid)
        exprs[f"a{i + 1}{i + 1}"] = f"{mid!r} + {amp!r}*sin(2*pi*y{i + 1})"
    rng = np.random.default_rng(seed)
    k, phase = rng.uniform(-3.0, 3.0, dim), rng.uniform(0.0, 2 * math.pi)

    def g(x):
        return np.cos(np.atleast_2d(x) @ k + phase)

    tol = 1e-8
    fields = []
    for op in (pucci_minus(lam, Lam, dim),
               linear_operator(exprs, lam, Lam, dim),
               pucci_plus(lam, Lam, dim)):
        p = discretize(op, _SMALL[dim], 1.0 / cells, boundary=g,
                       source=lambda x: np.full(len(x), f))
        fields.append(solve_dirichlet(p, tol=tol)[0].values)
    slack = 2.0 * (2.0 ** 2 / (2.0 * lam)) * tol
    assert np.all(fields[0] <= fields[1] + slack)
    assert np.all(fields[1] <= fields[2] + slack)


def _cap_bump(x):
    # 1 at the top of the 0.26-ball, 0 beyond 0.03 from it
    d = np.linalg.norm(np.atleast_2d(x) - np.array([0.0, 0.0, 0.26]),
                       axis=-1)
    return np.clip(1.0 - d / 0.03, 0.0, 1.0)


def _bump3d(op, h):
    return discretize(op, DomainSpec.disk((0.0, 0.0, 0.0), 0.26), h,
                      boundary=_cap_bump)


@pytest.fixture(scope="module")
def bump3d():
    # a 3-d Pucci+ bump on 73,447 unknowns, above the 60,000 switch
    p = _bump3d(pucci_plus(1.0, 1.5, 3), 0.01)
    assert p.n_interior > 60_000
    return p


def _within_targets(rec):
    # an inexact solve is checked against its target, a full-accuracy
    # one by its backward error
    return all(s["residual"] <= (1e-10 if s["target"] is None
                                 else s["target"]) for s in rec["solves"])


def test_krylov_starts_from_the_previous_iterate(monkeypatch, bump3d):
    # above the 60,000-unknown switch each BiCGSTAB solve starts from
    # the iterate it is about to replace, the first from the mean of
    # the boundary ring; the field matches a cold-started solve
    p = bump3d
    bicgstab = fdsolver.spla.bicgstab
    calls = []

    def recorded(B, b, x0=None, **kwargs):
        x, info = bicgstab(B, b, x0=x0, **kwargs)
        calls.append((None if x0 is None else x0.copy(), x))
        return x, info

    monkeypatch.setattr(fdsolver.spla, "bicgstab", recorded)
    warm, rec = solve_dirichlet(p)
    assert len(calls) == rec["iterations"] > 1
    ring = p.grid.values[p.grid.mask == fdsolver.BOUNDARY]
    assert np.all(calls[0][0] == np.mean(ring))
    for (x0, _), (_, prev) in zip(calls[1:], calls):
        assert np.array_equal(x0, prev)
    monkeypatch.setattr(fdsolver.spla, "bicgstab",
                        lambda B, b, x0=None, **kw: bicgstab(B, b, **kw))
    cold, cold_rec = solve_dirichlet(p)
    assert np.max(np.abs(warm.values - cold.values)) <= 1e-10
    krylov = [sum(s["krylov_iterations"] for s in r["solves"])
              for r in (rec, cold_rec)]
    assert krylov[0] < krylov[1]
    assert all(s["path"] == "bicgstab" for s in rec["solves"])
    assert _within_targets(rec)
    assert rec["solves"][-1]["target"] is None
    assert rec["solves"][-1]["residual"] <= 1e-10


def test_inexact_howard_matches_full_accuracy(monkeypatch, bump3d):
    # each Krylov solve stops at ETA times the residual of its start;
    # the accepted field is as good as a full-accuracy Howard solve's
    p = bump3d
    tol = 1e-8
    inexact, rec = solve_dirichlet(p, tol=tol)
    monkeypatch.setattr(fdsolver, "ETA", 0.0)
    exact, exact_rec = solve_dirichlet(p, tol=tol)
    assert rec["converged"] and rec["residual_history"][-1] <= tol
    assert all(s["target"] is None for s in exact_rec["solves"])
    assert any(s["target"] is not None for s in rec["solves"])
    assert _within_targets(rec) and _within_targets(exact_rec)
    assert rec["solves"][-1]["target"] is None
    # two fields with Howard residuals within tol differ by at most
    # 2 C tol, C = diam^2 / (2 lam) the comparison constant
    C = 0.52 ** 2 / 2.0
    assert np.max(np.abs(inexact.values - exact.values)) <= 2 * C * tol
    krylov = [sum(s["krylov_iterations"] for s in r["solves"])
              for r in (rec, exact_rec)]
    assert krylov[0] < krylov[1]


def test_policy_repeated_after_inexact_solve_is_resolved(monkeypatch,
                                                         bump3d):
    # an inexact solve that leaves the iterate as it found it makes its
    # policy repeat; the loop must solve that policy again at full
    # accuracy rather than stop at a policy fixed point
    p = bump3d
    bicgstab = fdsolver.spla.bicgstab
    eta = fdsolver.ETA
    calls = []

    def lazy(B, b, x0=None, atol=0.0, **kwargs):
        calls.append(atol)
        if len(calls) == 1:
            monkeypatch.setattr(fdsolver, "ETA", eta)
            return x0.copy(), 0
        return bicgstab(B, b, x0=x0, atol=atol, **kwargs)

    # for the first solve only, ETA above 1 lets the unchanged start
    # pass its residual check
    monkeypatch.setattr(fdsolver, "ETA", 1.5)
    monkeypatch.setattr(fdsolver.spla, "bicgstab", lazy)
    _, rec = solve_dirichlet(p)
    first, second = rec["solves"][:2]
    assert first["target"] is not None and first["krylov_iterations"] == 0
    assert rec["residual_history"][0] > rec["tol"]
    assert calls[0] > 0.0 and calls[1] == 0.0
    assert second["target"] is None and second["krylov_iterations"] > 0
    assert rec["converged"] and rec["residual_history"][-1] <= rec["tol"]
    assert rec["solves"][-1]["target"] is None
    assert _within_targets(rec)


def test_krylov_problem_never_builds_the_order(monkeypatch, bump3d):
    # above the 60,000-unknown switch no solve factors, so the nested-
    # dissection order is never built and SuperLU never called
    def refused(*args, **kwargs):
        raise AssertionError("direct-path work on the Krylov path")

    monkeypatch.setattr(fdsolver, "_dissection", refused)
    monkeypatch.setattr(fdsolver.spla, "splu", refused)
    _, rec = solve_dirichlet(bump3d)
    assert "order" not in vars(bump3d)
    assert rec["converged"]
    assert all(s["path"] == "bicgstab" and s["fill"] is None
               for s in rec["solves"])


def _disk_bump(x):
    # 1 on a ball at the edge of the 0.9-disk, 0 beyond twice its radius
    z = 0.9 * np.array([math.cos(0.7), math.sin(0.7)])
    d = np.linalg.norm(np.atleast_2d(x) - z, axis=-1)
    return np.clip(2.0 - 2.0 * d / 0.1, 0.0, 1.0)


def _bump2d(op, stencil_order=2):
    # the envelope's extremal bump in small, under ``op``
    return discretize(op, DomainSpec.disk((0.0, 0.0), 0.9), 1 / 48,
                      stencil_order=stencil_order, boundary=_disk_bump)


@pytest.fixture(scope="module")
def bump2d():
    # Pucci+(1, 2) is sign-dependent, so its policies take the held LU
    return _bump2d(pucci_plus(1.0, 2.0))


def _factorizations(rec):
    return sum(s["path"] == "direct" for s in rec["solves"])


def test_preconditioned_howard_matches_full_accuracy(monkeypatch, bump2d):
    # below the Krylov switch a later policy is solved by BiCGSTAB
    # preconditioned with the last LU, to ETA times the residual of its
    # start or, where the loop needs it, to full accuracy; the accepted
    # field is as good as that of a Howard solve that factors every
    # policy
    p = bump2d
    tol = 1e-8
    inexact, rec = solve_dirichlet(p, tol=tol)
    monkeypatch.setattr(fdsolver, "ETA", 0.0)
    monkeypatch.setattr(fdsolver, "PRECOND_BUDGET", 0)
    exact, exact_rec = solve_dirichlet(p, tol=tol)
    assert rec["converged"] and rec["residual_history"][-1] <= tol
    assert all(s["path"] == "direct" and s["target"] is None
               for s in exact_rec["solves"])
    assert rec["solves"][0]["path"] == "direct"
    assert {s["path"] for s in rec["solves"]} == {"direct", "lu_precond"}
    # preconditioned solves both inexact and at full accuracy
    assert {s["target"] is None for s in rec["solves"]
            if s["path"] == "lu_precond"} == {False, True}
    assert _within_targets(rec) and _within_targets(exact_rec)
    assert rec["solves"][-1]["target"] is None
    assert _factorizations(rec) < rec["iterations"]
    assert _factorizations(rec) < _factorizations(exact_rec)
    # C = diam^2 / (2 lam), the comparison constant
    C = 1.8 ** 2 / 2.0
    assert np.max(np.abs(inexact.values - exact.values)) <= 2 * C * tol


def test_krylov_iterations_count_half_steps(monkeypatch, bump2d):
    # a BiCGSTAB iteration applies the preconditioner twice, or once
    # when it stops at its half step: a preconditioned solve reports
    # half its LU applications, rounded up, so none that applied the
    # LU reports 0 iterations
    applied = [0]
    lu_solve = fdsolver._Factor.solve

    def counted(self, b):
        applied[0] += 1
        return lu_solve(self, b)

    solve_sparse = fdsolver._solve_sparse
    calls = []

    def recorded(*args, report, **kwargs):
        before = applied[0]
        x = solve_sparse(*args, report=report, **kwargs)
        calls.append((report, applied[0] - before))
        return x

    monkeypatch.setattr(fdsolver._Factor, "solve", counted)
    monkeypatch.setattr(fdsolver, "_solve_sparse", recorded)
    solve_dirichlet(bump2d)
    precond = [(s["krylov_iterations"], n) for s, n in calls
               if s["path"] == "lu_precond"]
    assert precond and any(n % 2 for _, n in precond)
    assert all(k == (n + 1) // 2 >= 1 for k, n in precond)


def test_preconditioned_solve_starts_from_the_iterate(monkeypatch, bump2d):
    # each preconditioned BiCGSTAB starts from the iterate it is about
    # to replace, the one the previous solve returned
    p = bump2d
    bicgstab = fdsolver.spla.bicgstab
    calls = []

    def recorded(B, b, x0=None, M=None, **kwargs):
        assert M is not None
        x, info = bicgstab(B, b, x0=x0, M=M, **kwargs)
        calls.append((len(solves), x0.copy(), x))
        return x, info

    solve_sparse = fdsolver._solve_sparse
    solves = []

    def kept(*args, **kwargs):
        solves.append(solve_sparse(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(fdsolver.spla, "bicgstab", recorded)
    monkeypatch.setattr(fdsolver, "_solve_sparse", kept)
    _, rec = solve_dirichlet(p)
    precond = [k for k, s in enumerate(rec["solves"])
               if s["path"] == "lu_precond"]
    assert precond and [k for k, _, _ in calls if k in precond] == precond
    for k, x0, _ in calls:
        assert np.array_equal(x0, solves[k - 1])


def test_perturbed_preconditioned_solve_raises(monkeypatch, bump2d):
    # a preconditioned solve is checked by its true residual against
    # its target before the iterate uses it
    bicgstab = fdsolver.spla.bicgstab

    def perturbed(B, b, **kwargs):
        x, info = bicgstab(B, b, **kwargs)
        return x + 1e-3 * np.random.default_rng(0).standard_normal(
            x.size), info

    monkeypatch.setattr(fdsolver.spla, "bicgstab", perturbed)
    with pytest.raises(SolveError, match="inexact lu_precond solve"):
        solve_dirichlet(bump2d)


def test_policy_repeated_after_preconditioned_solve_is_resolved(
        monkeypatch, bump2d):
    # a preconditioned solve that leaves the iterate as it found it
    # makes its policy repeat; the loop factors that policy and solves
    # it at full accuracy rather than stop at a policy fixed point
    bicgstab = fdsolver.spla.bicgstab
    eta = fdsolver.ETA
    calls = []

    def lazy(B, b, x0=None, **kwargs):
        calls.append(kwargs["atol"])
        if len(calls) == 1:
            monkeypatch.setattr(fdsolver, "ETA", eta)
            return x0.copy(), 0
        return bicgstab(B, b, x0=x0, **kwargs)

    # ETA above 1 lets the unchanged start pass its residual check
    monkeypatch.setattr(fdsolver, "ETA", 1.5)
    monkeypatch.setattr(fdsolver.spla, "bicgstab", lazy)
    _, rec = solve_dirichlet(bump2d)
    first, second, third = rec["solves"][:3]
    assert first["path"] == "direct" and first["target"] is None
    assert second["path"] == "lu_precond"
    assert second["krylov_iterations"] == 0
    assert rec["residual_history"][1] == rec["residual_history"][0] > \
        rec["tol"]
    assert third["path"] == "direct" and third["target"] is None
    assert rec["converged"] and rec["residual_history"][-1] <= rec["tol"]
    assert _within_targets(rec)


def test_spent_budget_drops_the_lu_before_factoring(monkeypatch, bump2d):
    # once a preconditioned attempt spends the LU's budget, the policy
    # at hand is factored, and the old LU is freed first: no two LUs
    # are alive at once
    import weakref

    live = []
    factor = fdsolver._Factor

    class Watched(factor):
        def __init__(self, B, order):
            assert not [r for r in live if r() is not None]
            super().__init__(B, order)
            live.append(weakref.ref(self))

    monkeypatch.setattr(fdsolver, "_Factor", Watched)
    monkeypatch.setattr(fdsolver, "PRECOND_BUDGET", 3)
    u, rec = solve_dirichlet(bump2d)
    assert len(live) == _factorizations(rec) > 2
    spent = [s for s in rec["solves"]
             if s["path"] == "direct" and s["krylov_iterations"] > 0]
    assert spent and all(s["target"] is None for s in spent)
    assert all(s["krylov_iterations"] <= 3 for s in rec["solves"])
    assert rec["converged"] and _within_targets(rec)
    del u
    assert not [r for r in live if r() is not None]


def _refused(*args, **kwargs):
    raise AssertionError("LU work on a sign-independent policy")


@pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus", "bellman"])
def test_sign_independent_policies_take_the_vcycle(monkeypatch,
                                                   diag_bellman, kind):
    # every member of Pucci+/-(1, 1) and of a Bellman family has one
    # slope for both signs: each 2-d Howard policy runs BiCGSTAB with a
    # V-cycle that smooths on its own matrix, and nothing is factored
    # or ordered
    op = {"pucci_plus": pucci_plus(1.0, 1.0),
          "pucci_minus": pucci_minus(1.0, 1.0),
          "bellman": diag_bellman("sup")}[kind]
    p = _bump2d(op)
    monkeypatch.setattr(fdsolver, "_Factor", _refused)
    monkeypatch.setattr(fdsolver, "_dissection", _refused)
    _, rec = solve_dirichlet(p)
    assert p.sign_independent and not p.linear
    assert rec["converged"] and rec["iterations"] > 1
    for s in rec["solves"]:
        assert s["path"] == "vcycle" and s["fill"] is None
        assert s["levels"][0] == p.n_interior
        assert s["levels"][-1] <= fdsolver.COARSEST
    assert _within_targets(rec) and rec["solves"][-1]["target"] is None
    assert "order" not in vars(p)


@pytest.mark.parametrize("kind", ["pucci_plus", "anisotropic_bellman"])
def test_vcycle_howard_matches_a_factored_solve(monkeypatch, diag_bellman,
                                                kind):
    # the route changes the linear solver, not the discrete problem:
    # the field is within 2 C tol of a Howard solve that factors every
    # policy (sign independence forced off, no preconditioned budget),
    # also for a Bellman family of diag(a1, a2), a_i in {1, 100}
    tol = 1e-8
    op = pucci_plus(1.0, 1.0) if kind == "pucci_plus" else \
        diag_bellman("sup", 1.0, 100.0)
    cycled, rec = solve_dirichlet(_bump2d(op), tol=tol)
    monkeypatch.setattr(fdsolver.DiscreteProblem, "sign_independent",
                        property(lambda self: False))
    monkeypatch.setattr(fdsolver, "PRECOND_BUDGET", 0)
    factored, ref = solve_dirichlet(_bump2d(op), tol=tol)
    assert {s["path"] for s in rec["solves"]} == {"vcycle"}
    assert all(s["path"] == "direct" for s in ref["solves"])
    for r in (rec, ref):
        assert r["converged"] and r["residual_history"][-1] <= tol
    # C = diam^2 / (2 lam), the comparison constant
    C = 1.8 ** 2 / 2.0
    assert np.max(np.abs(cycled.values - factored.values)) <= 2 * C * tol


def _counted_builds(monkeypatch):
    # every V-cycle built, by recording each _VCycle made
    built = []

    class Counted(fdsolver._VCycle):
        def __init__(self, B, aggregates):
            super().__init__(B, aggregates)
            built.append(B.shape[0])

    monkeypatch.setattr(fdsolver, "_VCycle", Counted)
    return built


def test_held_vcycle_builds_within_the_budget(monkeypatch):
    # a 2-d Pucci+(1, 1) bump holds one V-cycle's coarse levels across
    # its policies: a cycle is built again only once PRECOND_BUDGET
    # iterations of later policies have been charged to it, so the
    # builds are far fewer than the policies
    built = _counted_builds(monkeypatch)
    monkeypatch.setattr(fdsolver, "_Factor", _refused)
    p = _bump2d(pucci_plus(1.0, 1.0))
    _, rec = solve_dirichlet(p)
    krylov = sum(s["krylov_iterations"] for s in rec["solves"])
    assert rec["converged"] and {s["path"] for s in rec["solves"]} == \
        {"vcycle"}
    assert len(built) == sum(s["levels_built"] for s in rec["solves"])
    assert rec["solves"][0]["levels_built"] is True
    assert len(built) <= math.ceil(krylov / fdsolver.PRECOND_BUDGET) + 1
    assert len(built) < rec["iterations"] / 2


def test_held_vcycle_matches_a_cycle_per_policy(monkeypatch):
    # holding the coarse levels changes the preconditioner, not the
    # problem: the field is within 2 C tol of a solve that builds a
    # cycle for every policy (no budget)
    tol = 1e-8
    held, rec = solve_dirichlet(_bump2d(pucci_plus(1.0, 1.0)), tol=tol)
    monkeypatch.setattr(fdsolver, "PRECOND_BUDGET", 0)
    built = _counted_builds(monkeypatch)
    fresh, ref = solve_dirichlet(_bump2d(pucci_plus(1.0, 1.0)), tol=tol)
    assert len(built) == ref["iterations"]
    assert all(s["levels_built"] for s in ref["solves"])
    assert not all(s["levels_built"] for s in rec["solves"])
    for r in (rec, ref):
        assert r["converged"] and r["residual_history"][-1] <= tol
    # C = diam^2 / (2 lam), the comparison constant
    C = 1.8 ** 2 / 2.0
    assert np.max(np.abs(held.values - fresh.values)) <= 2 * C * tol


def test_every_vcycle_smooths_on_its_own_policy(monkeypatch):
    # a held cycle's finest level is the matrix of the policy at hand,
    # never the matrix of the policy the cycle was built from
    assembled, finest, cycles = [], [], []
    assemble = fdsolver.DiscreteProblem.assemble

    def recorded(self, policy):
        system = assemble(self, policy)
        assembled.append(system.B)
        return system

    class Recorder(fdsolver._VCycle):
        def finest(self, B):
            levels = super().finest(B)
            finest.append(levels[0][0])
            cycles.append(self)
            return levels

    monkeypatch.setattr(fdsolver.DiscreteProblem, "assemble", recorded)
    monkeypatch.setattr(fdsolver, "_VCycle", Recorder)
    _, rec = solve_dirichlet(_bump2d(pucci_plus(1.0, 1.0)))
    assert {s["path"] for s in rec["solves"]} == {"vcycle"}
    assert len(finest) == len(assembled) == rec["iterations"]
    assert all(f is B for f, B in zip(finest, assembled))
    # some cycles served later policies
    assert len({id(c) for c in cycles}) < len(cycles)


def test_held_vcycle_keeps_no_earlier_policy_matrix(monkeypatch):
    # the held cycle keeps its coarse levels only: when a policy's
    # matrix is assembled, no earlier policy's matrix is alive
    import weakref

    live = []
    matrix = fdsolver.DiscreteProblem._matrix

    def watched(self, policy):
        assert not [r for r in live if r() is not None]
        B = matrix(self, policy)
        live.append(weakref.ref(B))
        return B

    monkeypatch.setattr(fdsolver.DiscreteProblem, "_matrix", watched)
    _, rec = solve_dirichlet(_bump2d(pucci_plus(1.0, 1.0)))
    assert len(live) == rec["iterations"] > 2
    assert not all(s["levels_built"] for s in rec["solves"])


def test_failed_held_vcycle_is_rebuilt_before_any_lu(monkeypatch):
    # the second policy starts on the cycle built from the first; when
    # that solve fails, the cycle is built again from the second
    # policy's matrix, which serves it, and nothing is factored
    bicgstab = fdsolver.spla.bicgstab
    calls = []

    def failing(B, b, **kwargs):
        x, info = bicgstab(B, b, **kwargs)
        calls.append(info)
        return (x, 2000) if len(calls) == 2 else (x, info)

    built = _counted_builds(monkeypatch)
    monkeypatch.setattr(fdsolver.spla, "bicgstab", failing)
    monkeypatch.setattr(fdsolver, "_Factor", _refused)
    _, rec = solve_dirichlet(_bump2d(pucci_plus(1.0, 1.0)))
    assert {s["path"] for s in rec["solves"]} == {"vcycle"}
    assert len(calls) == rec["iterations"] + 1
    assert len(built) >= 2
    assert [s["levels_built"] for s in rec["solves"][:2]] == [True, True]
    assert rec["converged"] and _within_targets(rec)


def test_sign_dependent_policies_keep_the_lu(monkeypatch, bump2d):
    # Pucci+(1, 2) has two slopes: its 2-d policies keep the held LU
    # and never build the aggregates
    def refused(*args, **kwargs):
        raise AssertionError("V-cycle work on a sign-dependent policy")

    monkeypatch.setattr(fdsolver, "_VCycle", refused)
    _, rec = solve_dirichlet(bump2d)
    assert not bump2d.sign_independent
    assert {s["path"] for s in rec["solves"]} == {"direct", "lu_precond"}
    assert "aggregates" not in vars(bump2d)


def test_sign_independent_solve_asking_for_its_response_keeps_the_lu(
        monkeypatch):
    # a corrector strip asks for its linear response, one back-solve of
    # the accepted policy's LU: such a solve keeps the held LU
    def refused(*args, **kwargs):
        raise AssertionError("V-cycle work on a solve with a response")

    monkeypatch.setattr(fdsolver, "_VCycle", refused)
    p = _bump2d(pucci_plus(1.0, 1.0))
    top = (p.grid.mask == fdsolver.BOUNDARY) & (p.grid.coords()[..., 1] > 0)
    _, rec, psi = solve_dirichlet(p, response=top)
    assert p.sign_independent and rec["converged"]
    assert {s["path"] for s in rec["solves"]} == {"direct", "lu_precond"}
    assert rec["response"]["path"] in ("direct", "lu_precond")
    assert rec["response"]["residual"] <= 1e-10
    assert "aggregates" not in vars(p)


def test_3d_sign_independent_policies_keep_their_paths(monkeypatch):
    # the V-cycle route is 2-d only: a 3-d Pucci+(1, 1) policy keeps
    # the held LU below the Krylov switch and plain BiCGSTAB above it
    def refused(*args, **kwargs):
        raise AssertionError("V-cycle work on a 3-d policy")

    monkeypatch.setattr(fdsolver, "_VCycle", refused)
    for h, paths in ((0.02, {"direct", "lu_precond"}), (0.01, {"bicgstab"})):
        p = _bump3d(pucci_plus(1.0, 1.0, 3), h)
        assert p.sign_independent and not p.linear and \
            (p.n_interior > fdsolver.KRYLOV_SWITCH) == (h == 0.01)
        _, rec = solve_dirichlet(p)
        assert rec["converged"] and rec["iterations"] > 1
        assert {s["path"] for s in rec["solves"]} == paths
        assert _within_targets(rec)


def test_vcycle_floor_hands_the_policy_to_the_lu():
    # the V-cycle's full-accuracy test is relative to ||b||, which ring
    # data of 1e4 lifts above tol: the policy that repeats at that
    # floor is factored, and the solve finishes on the held LU
    p = discretize(pucci_plus(1.0, 1.0), DomainSpec.disk((0.0, 0.0), 0.9),
                   1 / 48, boundary=lambda x: 1e4 * _disk_bump(x))
    _, rec = solve_dirichlet(p)
    paths = [s["path"] for s in rec["solves"]]
    k = paths.index("direct")
    assert k > 0 and set(paths[:k]) == {"vcycle"}
    assert set(paths[k:]) <= {"direct", "lu_precond"}
    assert rec["solves"][k - 1]["target"] is None
    assert rec["converged"] and _within_targets(rec)


def test_vcycle_breakdown_factors_the_policy(monkeypatch):
    # a small 2-d policy keeps the direct fallback on the V-cycle path:
    # a BiCGSTAB failure factors the policy instead of raising
    bicgstab = fdsolver.spla.bicgstab
    failed = []

    def failing(B, b, **kwargs):
        x, info = bicgstab(B, b, **kwargs)
        if len(failed) < 2:
            failed.append(info)
            return x, 2000
        return x, info

    monkeypatch.setattr(fdsolver.spla, "bicgstab", failing)
    _, rec = solve_dirichlet(_bump2d(pucci_plus(1.0, 1.0)))
    paths = [s["path"] for s in rec["solves"]]
    assert paths[:2] == ["direct", "direct"] and "vcycle" in paths
    assert rec["converged"] and _within_targets(rec)


def test_sign_independence_is_read_by_value():
    # lam == Lam as two float objects, as a JSON config reads them, is
    # the operator that one float twice gives, and so is a problem sent
    # through pickle, which keeps no float's identity, whether or not
    # it read its sign independence before: the same solve paths and a
    # bitwise-equal field; with one frame it is linear
    ops = pucci_plus(1.0, 1.0), pucci_plus(1.0, float("1.0"))
    assert ops[1].Lam is not ops[1].lam
    read = _bump2d(ops[0])
    assert read.sign_independent
    problems = [_bump2d(op) for op in ops] + [
        pickle.loads(pickle.dumps(p)) for p in (_bump2d(ops[0]), read)]
    fields, paths = [], []
    for p in problems:
        assert p.sign_independent
        u, rec = solve_dirichlet(p)
        fields.append(u.values)
        paths.append([s["path"] for s in rec["solves"]])
    for op in ops:
        assert _bump2d(op, stencil_order=1).linear
    assert all(path == paths[0] for path in paths[1:])
    for field in fields[1:]:
        np.testing.assert_array_equal(fields[0], field)


# the sizes the benchmark workloads solve: corrector strips, the
# envelope bump, u+/u- and the two u_eps of the disk, and the ball
_STRIP, _BUMP, _U_PM, _U_EPS, _U_EPS_LARGE, _BALL = \
    24_129, 25_696, 10_426, 16_237, 65_097, 73_447


@pytest.mark.parametrize("n,dim,linear,independent,scoped,response,route", [
    # homogenize-disk: Laplace strips and u+/u- inside the scope of a
    # sweep, the u_eps outside it, and the Pucci+(1, 1) bump
    pytest.param(_STRIP, 2, True, True, True, True, "lu",
                 id="lu-lu_reuse"),
    pytest.param(_U_PM, 2, True, True, True, False, "lu",
                 id="lu_scoped-direct"),
    pytest.param(_U_EPS, 2, True, True, False, False, "lu", id="lu-direct"),
    pytest.param(_U_EPS_LARGE, 2, True, True, False, False, "cycle",
                 id="cycle-vcycle"),
    pytest.param(_BUMP, 2, False, True, True, False, "held_cycle",
                 id="held_cycle-vcycle"),
    # gbar-pucci: Pucci+(1, 2) strips, with and without a response
    pytest.param(_STRIP, 2, False, False, True, True, "held_lu",
                 id="held_lu-direct"),
    pytest.param(_STRIP, 2, False, False, True, False, "held_lu",
                 id="held_lu-lu_precond"),
    # bump3d-pucci: the Pucci+(1, 1.5) ball
    pytest.param(_BALL, 3, False, False, False, False, "bicgstab",
                 id="bicgstab-bicgstab"),
    # a sign-independent solve that asks for its response
    pytest.param(_BUMP, 2, False, True, False, True, "held_lu",
                 id="response-held_lu"),
    # a 3-d nonlinear system above the switch, sign-independent too
    pytest.param(_BALL, 3, False, True, False, False, "bicgstab",
                 id="3d_large-bicgstab"),
    pytest.param(_U_EPS, 3, False, True, False, False, "held_lu",
                 id="3d_small-held_lu"),
    pytest.param(_U_EPS_LARGE, 2, False, False, False, False, "held_lu",
                 id="2d_large_sign_dependent-held_lu"),
    pytest.param(_U_EPS_LARGE, 2, False, True, False, False, "held_cycle",
                 id="2d_large_sign_independent-held_cycle"),
    pytest.param(_U_EPS_LARGE, 2, True, True, True, False, "lu",
                 id="2d_large_linear_scoped-lu"),
    pytest.param(_BALL, 3, True, True, True, False, "cycle",
                 id="3d_large_linear_scoped-cycle"),
])
def test_route_table(n, dim, linear, independent, scoped, response, route):
    # one row per route: the route every solve of a call takes, read
    # from the table alone (no solve); each id names the route and the
    # path it reports on that row
    assert fdsolver._route(n, dim, linear, independent, scoped,
                           response) == route


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([2, 3]), order=st.sampled_from([1, 2]),
       nodes=st.integers(1, 6), cross=st.booleans(),
       slack=st.sampled_from([-1e-9, 0.0, 1e-9, None]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_monotone_certificate_holds_or_raises(dim, order, nodes, cross,
                                              slack, seed):
    # either nonnegative weights whose second differences rebuild a, or
    # a CertificateError exactly when some row loses diagonal dominance
    # beyond 1e-12 or an order-1 stencil meets a cross term; a ``slack``
    # puts every diagonal on the dominance boundary or 1e-9 off it, and
    # None draws the diagonals at random
    rng = np.random.default_rng(seed)
    a = np.zeros((nodes, dim, dim))
    if cross:
        off = rng.uniform(-1.0, 1.0, (nodes, dim, dim))
        a = np.triu(off, 1) + np.swapaxes(np.triu(off, 1), 1, 2)
    dominance = np.abs(a).sum(axis=2)
    idx = np.arange(dim)
    a[:, idx, idx] = rng.uniform(0.0, 2.0, (nodes, dim)) if slack is None \
        else dominance + slack
    margin = np.stack([a[:, i, i] - sum(np.abs(a[:, i, j])
                                        for j in range(dim) if j != i)
                       for i in range(dim)])
    fails = bool(np.any(margin < -1e-12)) or (order == 1 and cross)
    if fails:
        with pytest.raises(CertificateError):
            monotone_weights(a, dim, order=order)
        return
    weights = monotone_weights(a, dim, order=order)
    rebuilt = np.zeros_like(a)
    for d, w in weights.items():
        assert np.all(w >= 0.0)
        e = np.asarray(d, float)
        rebuilt += w[:, None, None] * np.outer(e, e) / (e @ e)
    np.testing.assert_allclose(rebuilt, a, rtol=0.0, atol=1e-12)


def _chosen_slopes(p, policy):
    # the dense table of each node's chosen slope per direction, 0 off
    # its member: what a policy means
    out = np.zeros((p.n_interior, len(p.policy_dirs)))
    for k, m in enumerate(policy.member):
        for j, d in enumerate(p.policy_dirs):
            if d in p.members[m]:
                up, down = p.members[m][d]
                sign = 1 if policy.signs is None else policy.signs[k] >> j & 1
                out[k, j] = up if sign else down
    return out


def test_same_policy_compares_the_chosen_slopes():
    # a sign flip along a direction outside the chosen frame leaves the
    # policy a repeat; one inside it, or another frame, does not
    p = discretize(pucci_plus(1.0, 1.5, 3), _SMALL[3], 1 / 4)
    u = np.random.default_rng(5).uniform(-1.0, 1.0, p.grid.values.size)
    _, v = p.evaluate(u, want_policy=True)
    k = int(np.argmax(v.member == 3))  # frame ((0,1,1), (0,1,-1), (1,0,0))
    outside = p.policy_dirs.index((0, 0, 1))
    inside = p.policy_dirs.index((0, 1, 1))
    cases = []
    for j in (outside, inside):
        signs = v.signs.copy()
        signs[k] ^= 1 << j
        cases.append(fdsolver.Policy(v.member, signs))
    member = v.member.copy()
    member[k] = 0
    cases.append(fdsolver.Policy(member, v.signs))
    assert [fdsolver._same_policy(p, w, v) for w in cases] == \
        [True, False, False]
    for w in cases:
        assert fdsolver._same_policy(p, w, v) == np.array_equal(
            _chosen_slopes(p, w), _chosen_slopes(p, v))


# the traced peak of discretizing and solving the bump3d-pucci ball
# (73,447 unknowns): 332-335 B per interior unknown, 707 with an int64
# neighbour dict and per-direction weight arrays
HOWARD_3D_BYTES = 400


@pytest.mark.parametrize("dim,h", [(2, 0.00625), (3, 0.01)])
def test_discretize_classifies_in_slabs(monkeypatch, dim, h):
    # the interior and its points are those of the whole bounding grid,
    # bit for bit, while the domain sees at most 96^2 points (or one
    # plane of the first axis) at a time
    dom = DomainSpec.disk((0.0,) * dim, 0.9 if dim == 2 else 0.26)
    source = lambda x: np.sin(3.0 * x).sum(axis=-1)
    seen = []
    sdf = DomainSpec.sdf

    def counted(self, x):
        seen.append(int(np.prod(np.shape(x)[:-1])))
        return sdf(self, x)

    with monkeypatch.context() as m:
        m.setattr(DomainSpec, "sdf", counted)
        p = discretize(pucci_plus(1.0, 2.0, dim), dom, h, source=source)
    shape = p.grid.shape
    axes = [p.grid.origin[i] + h * np.arange(s) for i, s in enumerate(shape)]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    interior = dom.sdf(X) < -1e-12
    np.testing.assert_array_equal(p.int_flat, np.flatnonzero(interior))
    np.testing.assert_array_equal(p.f, source(X[interior]))
    assert len(seen) > 2 and sum(seen) == X[..., 0].size
    assert max(seen) <= max(96 ** 2, int(np.prod(shape[1:])))


def test_3d_howard_solve_memory_per_unknown():
    # Pucci+(1, 1.5) on the 0.26-ball at h 0.01, above the Krylov
    # switch: every array the problem and its Howard loop allocate, at
    # their peak, with a 20 % margin over the measured 332-335 B
    import tracemalloc

    z = np.array([0.0, 0.0, 0.26])

    def bump(x):
        d = np.linalg.norm(np.atleast_2d(x) - z, axis=-1)
        return np.clip(1.0 - d / 0.04, 0.0, 1.0)

    tracemalloc.start()
    try:
        p = discretize(pucci_plus(1.0, 1.5, 3),
                       DomainSpec.disk((0.0, 0.0, 0.0), 0.26), 0.01,
                       boundary=bump)
        _, rec = solve_dirichlet(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.n_interior == 73_447 and rec["converged"]
    assert peak / p.n_interior <= HOWARD_3D_BYTES, peak / p.n_interior
