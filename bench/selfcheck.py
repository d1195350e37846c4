"""Self-check of the benchmark harness on tiny inputs (about 10 s).

    python3 bench/selfcheck.py

Checks that
1. every seam in ``spans.SEAMS`` produces spans, and every Dirichlet
   solve made by a corrector estimate is nested under
   ``corrector.solve_corrector``;
2. a tampered output, or a job that raised, counts as failed, while the
   stored reference passes its own check;
3. two traced runs of the same inputs, each in a fresh process, give
   identical counts.
Exits 1 if any check fails.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work", "selfcheck")


def tiny_jobs():
    """Small versions of the three workloads' calls."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from homogbc import cli, corrector, fdsolver
    from homogbc.geometry import DomainSpec
    from homogbc.operators import SourceAndBoundaryData, pucci_plus

    cfg = workloads.disk_config(0.37)
    cfg.update(eps_list=[0.25, 0.125], gbar_eps=[0.25, 0.125], delta=0.5,
               n_boundary=4, strip={"T": 2.0, "L": 4.0, "h": 0.25},
               h_pm=0.0625)
    os.makedirs(WORK, exist_ok=True)
    cfg_path = os.path.join(WORK, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    data = SourceAndBoundaryData.from_exprs(workloads.GBAR_G, "0", dim=2)
    e = np.array([math.cos(1.0), math.sin(1.0)])
    ball = DomainSpec.disk((0.0, 0.0, 0.0), workloads.BALL_RADIUS)
    z = np.array([0.0, 0.0, workloads.BALL_RADIUS])

    def bump(x):
        d = np.linalg.norm(np.atleast_2d(x) - z, axis=-1)
        return np.clip(1.0 - d / 0.08, 0.0, 1.0)

    return [
        lambda: cli.main(["homogenize", cfg_path, "--output-dir", WORK]),
        lambda: corrector.estimate_gbar(0.9 * e, -e, [1 / 4, 1 / 8], T=2.0,
                                        L=4.0, h=0.25, data=data,
                                        op=pucci_plus(1.0, 2.0)),
        lambda: fdsolver.solve_dirichlet(fdsolver.discretize(
            pucci_plus(1.0, 1.5, 3), ball, 0.04, boundary=bump)),
    ]


def traced_spans():
    jobs = tiny_jobs()
    tracer = spans.Tracer(job_id="selfcheck")
    tracer.install()
    try:
        for job in jobs:
            job()
    finally:
        tracer.uninstall()
    return tracer.spans, tracer.missing


def fresh_traced_run():
    out = os.path.join(ROOT, ".bench_work", "selfcheck-spans.json")
    try:
        subprocess.run([sys.executable, __file__, "--child", out],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


def check_seams(sp, missing):
    bad = [f"seam missing: {m}" for m in missing]
    names = {s["name"] for s in sp}
    bad += [f"no span for {name}" for name, *_ in spans.SEAMS
            if name not in names and name not in missing]
    for s in sp:
        if (s["name"] == "fdsolver.solve_dirichlet"
                and spans.ancestor_named(sp, s, "corrector.estimate_gbar")
                and not spans.ancestor_named(sp, s,
                                              "corrector.solve_corrector")):
            bad.append("strip solve outside corrector.solve_corrector")
            break
    m = spans.layer_metrics(sp, missing)
    if m.get("corrector.passes_per_strip", 0) < 1:
        bad.append("no strip passes counted")
    return bad


def tamper(workload, out):
    """A copy of ``out`` with one checked number moved."""
    out = copy.deepcopy(out)
    if workload == "homogenize-disk":
        out["gbar"][0][1] += 1e-3
    elif workload == "gbar-pucci":
        out["alphas"][-1] += 1e-3
    else:
        out["sup_K"] += 1e-3
    return out


def check_tampering():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    bad = []
    for w in workloads.WORKLOADS:
        ref = reference[w]["0"]["outputs"]
        honest = run.judge(w, {"index": 0, "outputs": ref}, reference)
        if not honest["ok"] or honest["err_ratio"] != 1.0:
            bad.append(f"{w}: reference fails its own check")
        forged = run.judge(w, {"index": 0, "outputs": tamper(w, ref)},
                           reference)
        if forged["ok"]:
            bad.append(f"{w}: tampered output passed")
        raised = run.judge(w, {"index": 0, "error": {
            "type": "SolveError", "message": "no convergence"}}, reference)
        if raised["ok"]:
            bad.append(f"{w}: a job that raised passed")
    return bad


def counts(sp, missing):
    return {k: v for k, v in spans.layer_metrics(sp, missing).items()
            if run.unit_of(k) != "s"}


def main():
    first = fresh_traced_run()
    second = fresh_traced_run()
    results = {
        "seams": check_seams(**first),
        "tampering": check_tampering(),
        "repeat counts": (
            [] if counts(**first) == counts(**second)
            else [f"{counts(**first)} != {counts(**second)}"]),
    }
    for name, bad in results.items():
        print(f"{name}: {'PASS' if not bad else 'FAIL'}")
        for b in bad:
            print(f"  {b}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sp, missing = traced_spans()
        with open(sys.argv[2], "w") as fh:
            json.dump({"sp": sp, "missing": missing}, fh)
        sys.exit(0)
    sys.exit(main())
