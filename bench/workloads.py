"""The three benchmark workloads: inputs, jobs and output checks.

Each workload has a small catalogue of inputs, spread over its parameter
range by a fixed stratified draw, so that every input has a stored
reference answer (``reference.json``).  Job cost depends on the input
(how many boundary normals fall in excluded balls, how many Howard
iterations a direction needs), so a timed run visits the whole
catalogue in every pass and each run measures the same input mix.  A
run's ``--seed`` draws the order of the visits; the program only ever
sees the generated inputs.

``make_inputs`` runs inside the job's child process and imports
homogbc; ``check`` and ``error_measure`` run in the parent on the
JSON-able outputs the child reports and need only the standard library.
"""

import json
import math
import os
import random
import shutil

# catalogue size: the jobs of one pass, about 30 s on a 2-core machine
CATALOGUE_SIZE = {"homogenize-disk": 3, "gbar-pucci": 4, "bump3d-pucci": 4}
WORKLOADS = tuple(CATALOGUE_SIZE)

# Howard residual tolerances the jobs run with (library defaults):
# corrector strips and the bump solve use 1e-8, the CLI's effective
# sandwich 1e-6.
TOL = 1e-8
SANDWICH_TOL = 1e-6

# homogenize-disk: the README disk config with the criterion-2/3 strip.
DISK_RADIUS = 0.9
STRIP = {"T": 4.0, "L": 24.0, "h": 0.0625}
# gbar-pucci: criterion 2's datum, whose cell average is 0.25.
GBAR_G = "cos(2*pi*y1)*cos(2*pi*y2) + 0.25"
GBAR_RANGE = (-0.75, 1.25)
# bump3d-pucci: criterion 6's ball, operator and readout distance.
BALL_RADIUS = 0.26
K_DEPTH = 0.24
BUMP_H = 0.01


def _stratified(workload, lo, hi, key=""):
    """One value drawn uniformly from each of CATALOGUE_SIZE[workload]
    equal slices of [lo, hi]."""
    rng = random.Random(f"homogbc-bench/{workload}{key}")
    n = CATALOGUE_SIZE[workload]
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def catalogue(workload):
    """The input parameters of every catalogue entry of a workload."""
    if workload == "homogenize-disk":
        return [{"offset": o}
                for o in _stratified(workload, 0.05, 0.95)]
    if workload == "gbar-pucci":
        return [{"theta": t}
                for t in _stratified(workload, 0.0, 2.0 * math.pi)]
    if workload == "bump3d-pucci":
        # polar angle of the bump centre on the upper cap, azimuth and
        # bump radius each get their own stratified draw
        phis = _stratified(workload, 0.0, math.pi / 4.0, "/phi")
        psis = _stratified(workload, 0.0, 2.0 * math.pi, "/psi")
        rms = _stratified(workload, 0.02, 0.04, "/r_m")
        random.Random(f"homogbc-bench/{workload}/pairing").shuffle(psis)
        random.Random(f"homogbc-bench/{workload}/pairing-r").shuffle(rms)
        return [{"phi": a, "psi": b, "r_m": r}
                for a, b, r in zip(phis, psis, rms)]
    raise ValueError(f"unknown workload {workload!r}")


def input_order(workload, seed):
    """The order in which a run with this seed visits the catalogue."""
    order = list(range(CATALOGUE_SIZE[workload]))
    random.Random(seed).shuffle(order)
    return order


def disk_config(offset):
    """The homogenize config of one homogenize-disk job."""
    return {
        "domain": {"kind": "disk", "center": [0.0, 0.0],
                   "radius": DISK_RADIUS},
        "operator": {"kind": "laplacian", "dim": 2},
        "g": "cos(2*pi*y1)*cos(2*pi*y2)", "period": [1.0, 1.0],
        "eps_list": [0.1, 0.05],
        "gbar_eps": [0.125, 0.0625],
        "delta": 0.1, "n_boundary": 12, "offset": offset,
        "strip": dict(STRIP),
        "h_pm": 0.015625,
    }


def _bump_geometry(params):
    phi, psi = params["phi"], params["psi"]
    unit = [math.sin(phi) * math.cos(psi), math.sin(phi) * math.sin(psi),
            math.cos(phi)]
    z = [BALL_RADIUS * c for c in unit]
    K = [-K_DEPTH * c for c in unit]
    return z, K


def make_inputs(workload, params, workdir):
    """Build the job's inputs; returns a zero-argument job callable and
    a function that collects its outputs after the timed call."""
    if workload == "homogenize-disk":
        from homogbc import cli

        cfg_path = os.path.join(workdir, "config.json")
        out_dir = os.path.join(workdir, "out")
        with open(cfg_path, "w") as fh:
            json.dump(disk_config(params["offset"]), fh)

        def job():
            return cli.main(["homogenize", cfg_path,
                             "--output-dir", out_dir])

        return job, lambda rc: _disk_outputs(rc, out_dir)

    if workload == "gbar-pucci":
        import numpy as np
        from homogbc import corrector
        from homogbc.operators import SourceAndBoundaryData, pucci_plus

        data = SourceAndBoundaryData.from_exprs(GBAR_G, "0", dim=2,
                                                period=(1.0, 1.0))
        op = pucci_plus(1.0, 2.0)
        e = np.array([math.cos(params["theta"]), math.sin(params["theta"])])
        x0 = DISK_RADIUS * e

        def job():
            return corrector.estimate_gbar(
                x0, -e, [1 / 8, 1 / 16], T=STRIP["T"], L=STRIP["L"],
                h=STRIP["h"], data=data, op=op)

        return job, _gbar_outputs

    if workload == "bump3d-pucci":
        import numpy as np
        from homogbc import fdsolver
        from homogbc.barriers import finite_boundary_stability_bound
        from homogbc.geometry import DomainSpec
        from homogbc.operators import pucci_plus

        lam, Lam = 1.0, 1.5
        op = pucci_plus(lam, Lam, 3)
        dom = DomainSpec.disk((0.0, 0.0, 0.0), BALL_RADIUS)
        z, K = (np.asarray(v) for v in _bump_geometry(params))
        r_m = params["r_m"]

        def bump(x):
            d = np.linalg.norm(np.atleast_2d(x) - z, axis=-1)
            return np.clip(1.0 - d / r_m, 0.0, 1.0)

        def job():
            p = fdsolver.discretize(op, dom, BUMP_H, boundary=bump)
            return fdsolver.solve_dirichlet(p, tol=TOL)

        def outputs(result):
            u, rec = result
            live = u.values[u.mask != fdsolver.EXTERIOR]
            return {
                "iterations": rec["iterations"],
                "converged": bool(rec["converged"]),
                "u_min": float(live.min()),
                "u_max": float(live.max()),
                "sup_K": float(u.interpolate(K[None])[0]),
                "bound": float(finite_boundary_stability_bound(
                    z[None], r_m, K[None], 3, lam, Lam)),
            }

        return job, outputs

    raise ValueError(f"unknown workload {workload!r}")


def _disk_outputs(rc, out_dir):
    """Read back what the CLI wrote, then remove it."""
    out = {"exit": rc}
    try:
        if rc != 0:
            return out
        with open(os.path.join(out_dir, "verdict.json")) as fh:
            verdict = json.load(fh)["verdict"]
        with open(os.path.join(out_dir, "envelope.csv")) as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        out.update(
            converged=verdict["converged"],
            per_eps_ok=[pe["ok"] for pe in verdict["per_eps"]],
            envelope_gap=verdict["envelope_gap"],
            gbar=[[float(r[0]), float(r[1])] for r in rows])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _gbar_outputs(est):
    return {
        "alphas": [pe["alpha"] for pe in est.per_eps],
        "errs": [pe["err"] for pe in est.per_eps],
        "equal": bool(est.equal),
        "flagged": list(est.flagged),
    }


# Two solutions whose Howard residuals are both within tol differ by at
# most 2 C tol, C = diam^2 / (2 lam) the comparison-principle constant
# the solver's uniform bound already uses.  Reference comparisons allow
# exactly that, on the domain each number is read from.
def _ref_tol(diam, lam, tol):
    return diam ** 2 / lam * tol


STRIP_REF_TOL = _ref_tol(math.hypot(STRIP["L"], STRIP["T"]), 1.0, TOL)
SANDWICH_REF_TOL = _ref_tol(2 * DISK_RADIUS, 1.0, SANDWICH_TOL)
BALL_REF_TOL = _ref_tol(2 * BALL_RADIUS, 1.0, TOL)


def error_measure(workload, out, ref):
    """The accuracy number err_ratio divides by its reference value,
    ``error_measure(workload, ref, ref)``.

    homogenize-disk: max |gbar| over the sampled normals, all
    irrational, where the exact effective datum is the cell average 0.
    gbar-pucci: the largest ray-limit error bar the estimate reports.
    bump3d-pucci: criterion 6's discretization allowance 2h plus the
    distance of sup_K from its reference.
    """
    if workload == "homogenize-disk":
        return max(abs(g) for _, g in out["gbar"])
    if workload == "gbar-pucci":
        return max(out["errs"])
    return 2 * BUMP_H + abs(out["sup_K"] - ref["sup_K"])


def check(workload, out, ref):
    """Problems found in one job's outputs; empty when it passed."""
    bad = []
    if workload == "homogenize-disk":
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        if not out["converged"]:
            bad.append("verdict not converged")
        if not all(out["per_eps_ok"]):
            bad.append(f"sandwich failed per eps: {out['per_eps_ok']}")
        if len(out["gbar"]) != len(ref["gbar"]):
            bad.append(f"{len(out['gbar'])} gbar samples, reference has "
                       f"{len(ref['gbar'])}")
        else:
            for (s, g), (s0, g0) in zip(out["gbar"], ref["gbar"]):
                if abs(s - s0) > 1e-12 or abs(g - g0) > STRIP_REF_TOL:
                    bad.append(f"gbar({s:.6f}) = {g!r}, reference "
                               f"gbar({s0:.6f}) = {g0!r}")
        gap_tol = SANDWICH_REF_TOL + 2 * STRIP_REF_TOL
        if abs(out["envelope_gap"] - ref["envelope_gap"]) > gap_tol:
            bad.append(f"envelope gap {out['envelope_gap']!r}, reference "
                       f"{ref['envelope_gap']!r}")
    elif workload == "gbar-pucci":
        lo, hi = GBAR_RANGE
        for a in out["alphas"]:
            if not lo - TOL <= a <= hi + TOL:
                bad.append(f"alpha {a!r} outside [min g, max g]")
        if not out["equal"]:
            bad.append("one-sided limits not equal")
        if out["flagged"]:
            bad.append(f"flagged eps {out['flagged']}")
        if len(out["alphas"]) != len(ref["alphas"]):
            bad.append("alpha count differs from reference")
        for a, a0 in zip(out["alphas"], ref["alphas"]):
            if abs(a - a0) > STRIP_REF_TOL:
                bad.append(f"alpha {a!r}, reference {a0!r}")
    elif workload == "bump3d-pucci":
        if not out["converged"]:
            bad.append("Howard iteration did not converge")
        if out["u_min"] < -TOL or out["u_max"] > 1.0 + TOL:
            bad.append(f"u outside [0, 1]: [{out['u_min']!r}, "
                       f"{out['u_max']!r}]")
        if out["sup_K"] > out["bound"] + 2 * BUMP_H:
            bad.append(f"sup_K {out['sup_K']!r} > bound + 2h "
                       f"{out['bound'] + 2 * BUMP_H!r}")
        if abs(out["sup_K"] - ref["sup_K"]) > BALL_REF_TOL:
            bad.append(f"sup_K {out['sup_K']!r}, reference {ref['sup_K']!r}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return bad
