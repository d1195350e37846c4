"""Shared acceptance-criterion runners.

Each criterion config runs once per session (functools cache); the
determinism test re-invokes the uncached function and byte-compares the
canonical CSV payloads.
"""

import functools
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest

from homogbc import cli
from homogbc import corrector as corr
from homogbc import effective as eff
from homogbc.barriers import (BarrierSpec, finite_boundary_stability_bound,
                              verify_supersolution)
from homogbc.fdsolver import INTERIOR, discretize, solve_dirichlet
from homogbc.geometry import DomainSpec, classify_direction, equidist_ratio
from homogbc.operators import (EllipticOperatorSpec, SourceAndBoundaryData,
                               laplacian, linear_operator, pucci_plus)

SQRT2 = math.sqrt(2.0)


def csv_bytes(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format(c, ".17g") if isinstance(c, float)
                           else str(c) for c in row) + "\n")
    return buf.getvalue().encode()


@functools.cache
def criterion1():
    data = SourceAndBoundaryData.from_exprs("cos(pi*y2)", "0", dim=2,
                                            period=(1.0, 2.0))
    x0 = np.array([0.0, 1.0])
    nu = np.array([0.0, 1.0])
    op = laplacian()
    rows = []
    alphas = {}
    for eps in (0.25, 1 / 6, 1 / 3, 0.2):
        p = corr.build_strip(x0, nu, eps, 8.0, 16.0, 1 / 32, data, op)
        a, err, _ = corr.ray_limit(p)
        alphas[eps] = (a, err)
        rows.append([eps, a, err])
    est = corr.estimate_gbar(x0, nu, [0.25, 1 / 6, 1 / 3, 0.2],
                             8.0, 16.0, 1 / 32, data, op)
    return {"alphas": alphas, "equal": est.equal,
            "csv": csv_bytes(["epsilon", "alpha", "err"], rows)}


@functools.cache
def criterion2():
    data = SourceAndBoundaryData.from_exprs(
        "cos(2*pi*y1)*cos(2*pi*y2) + 0.25", "0", dim=2, period=(1.0, 1.0))
    nu = np.array([1.0, SQRT2]) / math.sqrt(3.0)
    est = corr.estimate_gbar(np.array([0.3, 0.4]), nu, [1 / 8, 1 / 16],
                             4.0, 24.0, 1 / 16, data, laplacian())
    rows = [[pe["eps"], pe["alpha"], pe["err"]] for pe in est.per_eps]
    return {"est": est,
            "csv": csv_bytes(["epsilon", "alpha", "err"], rows)}


@functools.cache
def criterion3():
    data = SourceAndBoundaryData.from_exprs(
        "cos(2*pi*y1)*cos(2*pi*y2) + 0.25", "0", dim=2, period=(1.0, 1.0))
    nu = np.array([1.0, SQRT2]) / math.sqrt(3.0)
    p = corr.build_strip(np.array([0.3, 0.4]), nu, 1 / 8, 4.0, 24.0, 1 / 16,
                         data, laplacian())
    sol = corr.solve_corrector(p)
    heights = list(sol.profile.heights)
    W = [float(w) for w in sol.profile.W]
    return {"heights": heights, "W": W,
            "csv": csv_bytes(["t", "W"], list(zip(heights, W)))}


@functools.cache
def criterion4():
    phi = (1 + math.sqrt(5)) / 2
    golden = classify_direction(np.array([1.0, phi])
                                / np.linalg.norm([1.0, phi]))
    rational = classify_direction(np.array([1.0, 2.0]) / math.sqrt(5.0))
    a = equidist_ratio(golden, 0.1, 0.0, 1000)
    b = equidist_ratio(rational, 0.1, 0.2, 1000)
    rows = [[0.1, 0.0, 1000, a["A"], a["N"], a["ratio"]],
            [0.1, 0.2, 1000, b["A"], b["N"], b["ratio"]]]
    return {"golden": a, "rational": b,
            "csv": csv_bytes(["delta", "t0", "R", "A", "N", "ratio"], rows)}


@functools.cache
def criterion5():
    n, lam, Lam = 3, 1.0, 1.5
    op = pucci_plus(lam, Lam, n)
    radial = BarrierSpec.radial_interior(n, lam, Lam)
    rep_radial = verify_supersolution(radial, op, n_samples=1000, seed=0)
    strip = BarrierSpec.quad_strip(n, lam, Lam, s=0.25, amplitude=1.0)
    rep_strip = verify_supersolution(strip, op, n_samples=1000, seed=0)
    perturbed = BarrierSpec("radial_interior", n, lam, Lam,
                            {"alpha": radial.params["alpha"] + 0.01,
                             "center": tuple(radial.params["center"])})
    rep_bad = verify_supersolution(perturbed, op, n_samples=1000, seed=0)
    rows = [["radial_interior", rep_radial["worst_value"]],
            ["quad_strip", rep_strip["worst_value"]],
            ["radial_interior_perturbed", rep_bad["worst_value"]]]
    return {"radial": rep_radial, "strip": rep_strip, "perturbed": rep_bad,
            "csv": csv_bytes(["kind", "worst_value"], rows)}


@functools.cache
def criterion6():
    n, lam, Lam = 3, 1.0, 1.5
    dom = DomainSpec.disk((0.0, 0.0, 0.0), 0.26)
    z = np.array([0.0, 0.0, 0.26])
    K = np.array([[0.0, 0.0, -0.24]])
    h = 0.005
    op = pucci_plus(lam, Lam, n)
    sups = {}
    rows = []
    for r_m in (0.01, 0.005):
        def bump(x, r=r_m):
            d = np.linalg.norm(np.atleast_2d(x) - z, axis=-1)
            return np.clip(1.0 - d / r, 0.0, 1.0)

        p = discretize(op, dom, h, boundary=bump)
        u, _ = solve_dirichlet(p)
        sups[r_m] = float(u.interpolate(K)[0])
        bound = finite_boundary_stability_bound(z[None], r_m, K, n, lam, Lam)
        rows.append([r_m, sups[r_m], bound])
    return {"sups": sups, "h": h,
            "bound_rm01": finite_boundary_stability_bound(
                z[None], 0.01, K, n, lam, Lam),
            "csv": csv_bytes(["r_m", "sup_K", "bound"], rows)}


@functools.cache
def criterion7():
    dom = DomainSpec.disk((0.0, 0.0), 0.9)
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    x0 = dom.project(0.9 * np.array([math.cos(0.7), math.sin(0.7)]))
    rows = []
    fits = {}
    for eps in (1 / 16, 1 / 32):
        p = eff.OscillatingProblem(dom, eps, laplacian(), data)
        u, _ = eff.solve_oscillating(p, h=eps / 8)
        rep = eff.boundary_layer_compare(p, u, x0, pq=(0.6, 0.85),
                                         T=4.0, L=24.0, h_strip=1 / 16)
        fits[eps] = rep
        rows.append([eps, rep["deviation"], rep["scale"], rep["C_fit"]])
    return {"fits": fits,
            "csv": csv_bytes(["epsilon", "deviation", "scale", "C_fit"],
                             rows)}


@functools.cache
def criterion8():
    dom = DomainSpec.disk((0.0, 0.0), 0.9)
    data = SourceAndBoundaryData.from_exprs("cos(2*pi*y1)*cos(2*pi*y2)", "0",
                                            dim=2, period=(1.0, 1.0))
    op = laplacian()
    p = eff.OscillatingProblem(dom, 1 / 40, op, data)
    norms = {}
    rows = []
    for eps in (1 / 10, 1 / 20, 1 / 40):
        q = eff.OscillatingProblem(dom, eps, op, data)
        u, _ = eff.solve_oscillating(q, h=eps / 8)
        X = u.coords()[u.mask == INTERIOR]
        onK = dom.contains_scaled(X, 2 / 3)
        norms[eps] = float(np.max(np.abs(u.values[u.mask == INTERIOR][onK])))
        rows.append([eps, norms[eps]])
    env0 = eff.sample_gbar_on_boundary(p, 24, [1 / 8, 1 / 16], delta=0.1,
                                       T=8.0, h_strip=1 / 16, offset=0.5)
    env = eff.build_envelopes(p, env0)
    verdict = eff.effective_sandwich(p, env, [1 / 10, 1 / 20, 1 / 40],
                                     h_pm=1 / 64)
    gaps = {}
    for i in (2, 4, 8):
        envd = eff.sample_gbar_on_boundary(p, 24, [1 / 8, 1 / 16],
                                           delta=1.0 / i, T=8.0,
                                           h_strip=1 / 16, offset=0.5,
                                           reuse=env0)
        envd = eff.build_envelopes(p, envd)
        vd = eff.effective_sandwich(p, envd, [1 / 10], h_pm=1 / 64)
        gaps[i] = vd.envelope_gap
        rows.append([1.0 / i, gaps[i]])
    return {"norms": norms, "verdict": verdict, "gaps": gaps,
            "csv": csv_bytes(["eps_or_delta", "value"], rows)}


CRIT9_CONFIG = {
    "domain": {"kind": "half_disk_flat_bottom", "center": [0.0, 1.0],
               "radius": 1.0},
    "operator": {"kind": "laplacian", "dim": 2},
    "g": "cos(pi*y2)", "period": [1, 2],
    "eps_list": [0.25, 0.2, 1 / 3, 1 / 6],
    "gbar_eps": [0.125, 0.0625],
    "delta": 0.1, "n_boundary": 24,
    "strip": {"T": 8.0, "L": 48.0, "h": 0.0625},
    "h_pm": 0.015625, "offset": 0.5,
}


def _run_homogenize_cli(outdir):
    cfg_path = os.path.join(outdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(CRIT9_CONFIG, fh)
    code = cli.main(["homogenize", cfg_path, "--output-dir", outdir])
    with open(os.path.join(outdir, "convergence.csv"), "rb") as fh:
        conv = fh.read()
    with open(os.path.join(outdir, "verdict.json")) as fh:
        verdict = json.load(fh)
    return code, conv, verdict


@functools.cache
def criterion9():
    dom = DomainSpec.half_disk_flat_bottom((0.0, 1.0), 1.0)
    data = SourceAndBoundaryData.from_exprs("cos(pi*y2)", "0", dim=2,
                                            period=(1.0, 2.0))
    probe = np.array([[0.0, 1.1]])
    vals = {}
    for eps in (0.25, 1 / 6, 1 / 3, 0.2):
        p = eff.OscillatingProblem(dom, eps, laplacian(), data)
        u, _ = eff.solve_oscillating(p, h=eps / 8)
        vals[eps] = float(u.interpolate(probe)[0])
    with tempfile.TemporaryDirectory() as out:
        code, conv, verdict = _run_homogenize_cli(out)
    return {"probe": vals, "exit_code": code, "verdict": verdict,
            "csv": conv}


RUNNERS = {1: criterion1, 2: criterion2, 3: criterion3, 4: criterion4,
           5: criterion5, 6: criterion6, 7: criterion7, 8: criterion8,
           9: criterion9}


@pytest.fixture(scope="session")
def criteria():
    return RUNNERS


@pytest.fixture
def diag_bellman():
    """Bellman sup/inf over the linear members diag(a1, a2), a_i in
    {lam, Lam} (by default {1, 2}): the same operator as Pucci+/- on
    diagonal Hessians."""
    def make(mode, lam=1.0, Lam=2.0):
        members = tuple(
            linear_operator({"a11": str(a1), "a22": str(a2)}, lam, Lam)
            for a1, a2 in itertools.product((lam, Lam), repeat=2))
        return EllipticOperatorSpec("bellman", lam, Lam, 2, members=members,
                                    mode=mode)
    return make


_REPORT_LINES = []


@pytest.fixture
def report():
    def _report(num, name, ok, detail=""):
        line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        _REPORT_LINES.append(line)
        print(line)
    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _REPORT_LINES:
            terminalreporter.write_line(line)
