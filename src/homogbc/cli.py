"""Batch experiment driver.

Every subcommand reads a JSON config, writes its outputs plus a run
manifest (config echo, versions, wall time) into the output directory,
and exits 0 on success, 2 on config errors, 3 on numerical failures,
and 4 when a computed verdict is false.  ``--output-dir`` is the only
way to set the output directory (default: the current one).  Reruns
of one config on one machine with the same number of BLAS threads give
byte-identical numeric outputs; another thread count may move the last
bits of a Krylov solve.
"""

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .geometry import (DomainSpec, classify_direction, equidist_ratio,
                       iddc_audit)
from .operators import (SourceAndBoundaryData, laplacian, linear_operator,
                        pucci_minus, pucci_plus, validate_operator)
from .fdsolver import CertificateError, SolveError
from .barriers import (BarrierSpec, DegenerateBarrier, StabilityError,
                       verify_supersolution)
from . import corrector as corr
from . import effective as eff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT_FALSE = 4


class ConfigError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)!r}")


def _domain_from(cfg):
    kind = cfg.get("kind")
    if kind == "disk":
        return DomainSpec.disk(cfg["center"], cfg["radius"])
    if kind == "half_disk_flat_bottom":
        return DomainSpec.half_disk_flat_bottom(cfg["center"], cfg["radius"])
    if kind == "rectangle":
        return DomainSpec.rectangle(cfg["lo"], cfg["hi"])
    raise ConfigError(f"domain.kind: unknown kind {kind!r}")


def _operator_from(cfg):
    kind = cfg.get("kind")
    dim = int(cfg.get("dim", 2))
    if kind == "laplacian":
        return laplacian(dim)
    if kind == "pucci_plus":
        return pucci_plus(cfg["lam"], cfg["Lam"], dim)
    if kind == "pucci_minus":
        return pucci_minus(cfg["lam"], cfg["Lam"], dim)
    if kind == "linear":
        return linear_operator(cfg["exprs"], dim=dim, lam=cfg["lam"],
                               Lam=cfg["Lam"],
                               period=tuple(cfg.get("period", ())))
    raise ConfigError(f"operator.kind: unknown kind {kind!r}")


def _data_from(cfg, dim):
    return SourceAndBoundaryData.from_exprs(cfg["g"], cfg.get("f"), dim=dim,
                                            period=tuple(cfg.get(
                                                "period", ())))


def _cmd_solve(cfg, out):
    dom = _domain_from(cfg["domain"])
    op = _operator_from(cfg["operator"])
    data = _data_from(cfg, dom.dim)
    p = eff.OscillatingProblem(dom, cfg["epsilon"], op, data)
    u, rec = eff.solve_oscillating(p, cfg["h"])
    grid_path = os.path.join(out, "solution.grid")
    u.dump(grid_path)
    _write_json(os.path.join(out, "solve.json"), {
        "record": rec, "epsilon": cfg["epsilon"], "h": cfg["h"],
    })
    return EXIT_OK, ["solution.grid", "solve.json"]


def _cmd_corrector(cfg, out):
    op = _operator_from(cfg["operator"])
    data = _data_from(cfg, op.dim)
    nu = classify_direction(np.asarray(cfg["nu"], float)
                            / np.linalg.norm(cfg["nu"]))
    p = corr.build_strip(np.asarray(cfg["x0"], float), nu, cfg["epsilon"],
                         T=cfg["T"], L=cfg["L"], h=cfg["h"], data=data,
                         op=op)
    sol = corr.solve_corrector(p)
    alpha, err, rec = corr.ray_limit(p, sol)
    _write_csv(os.path.join(out, "profile.csv"), ["t", "W"],
               list(zip(sol.profile.heights, sol.profile.W)))
    sol.field.dump(os.path.join(out, "corrector.grid"))
    _write_json(os.path.join(out, "corrector.json"), {
        "alpha": alpha, "err": err, "ray_record": rec,
        "fitted_exponent": sol.profile.fitted_exponent,
        "gamma_est": sol.profile.gamma_est,
        "truncation_bound": sol.truncation_bound,
        "nu": nu.to_record(),
    })
    return EXIT_OK, ["profile.csv", "corrector.grid", "corrector.json"]


def _cmd_gbar(cfg, out):
    op = _operator_from(cfg["operator"])
    data = _data_from(cfg, op.dim)
    strip = cfg.get("strip", {})
    T = strip.get("T", 4.0)
    L = strip.get("L", 6.0 * T)
    h = strip.get("h", 1 / 16)
    rows = []
    records = []
    if "points" in cfg:
        for x0 in cfg["points"]:
            x0 = np.asarray(x0, float)
            nu = classify_direction(np.asarray(cfg["nu"], float)
                                    / np.linalg.norm(cfg["nu"]))
            est = corr.estimate_gbar(x0, nu, cfg["eps_list"], T=T, L=L, h=h,
                                     data=data, op=op)
            records.append(est.to_record())
            for pe in est.per_eps:
                rows.append([*x0, pe["eps"], pe["alpha"], pe["err"]])
    else:
        dom = _domain_from(cfg["domain"])
        p = eff.OscillatingProblem(dom, min(cfg["eps_list"]), op, data)
        env = eff.sample_gbar_on_boundary(
            p, cfg["n_points"], cfg["eps_list"], cfg["delta"], T=T, L=L,
            h_strip=h, offset=cfg.get("offset", 0.5))
        for sm in env.samples:
            rows.append([*sm["x"], sm["s"], sm["gbar"], sm["err"],
                         sm["kind"]])
        records.append({"excluded": env.excluded, "notes": env.notes})
    header = [f"x{i + 1}" for i in range(op.dim)] + [
        "s_or_eps", "gbar_or_alpha", "err", "kind"]
    _write_csv(os.path.join(out, "gbar.csv"),
               header[:len(rows[0])] if rows else ["empty"], rows)
    _write_json(os.path.join(out, "gbar.json"), {"records": records})
    return EXIT_OK, ["gbar.csv", "gbar.json"]


def _cmd_equidist(cfg, out):
    nu = classify_direction(
        np.asarray(cfg["nu"], float) / np.linalg.norm(cfg["nu"]))
    rows = []
    for R in cfg["R_list"]:
        res = equidist_ratio(nu, cfg["delta"], 0.0, R)
        rows.append([R, res["A"], res["N"], res["ratio"]])
    _write_csv(os.path.join(out, "equidist.csv"),
               ["R", "A", "N", "ratio"], rows)
    _write_json(os.path.join(out, "equidist.json"),
                {"direction": nu.to_record(), "delta": cfg["delta"]})
    return EXIT_OK, ["equidist.csv", "equidist.json"]


def _cmd_audit(cfg, out):
    dom = _domain_from(cfg["domain"])
    report = iddc_audit(dom)
    _write_json(os.path.join(out, "audit.json"), report)
    return (EXIT_OK if report["iddc_plausible"] else EXIT_VERDICT_FALSE,
            ["audit.json"])


def _cmd_barriers(cfg, out):
    n = int(cfg.get("n", 2))
    lam, Lam = cfg["lam"], cfg["Lam"]
    reports = {}
    ok = True
    for kind in cfg.get("kinds", ["radial_interior", "radial_exterior",
                                  "quad_strip"]):
        try:
            if kind == "radial_interior":
                spec = BarrierSpec.radial_interior(n, lam, Lam)
                op = pucci_plus(lam, Lam, n)
            elif kind == "radial_exterior":
                spec = BarrierSpec.radial_exterior(n, lam, Lam, 1.0)
                op = pucci_plus(lam, Lam, n)
            elif kind == "quad_strip":
                spec = BarrierSpec.quad_strip(n, lam, Lam, amplitude=4.0)
                op = pucci_plus(lam, Lam, n)
            else:
                raise ConfigError(f"unknown barrier kind {kind!r}")
            rep = verify_supersolution(spec, op,
                                       n_samples=cfg.get("n_samples", 1000))
            reports[kind] = rep
            ok = ok and rep["is_supersolution"]
        except (StabilityError, DegenerateBarrier) as e:
            reports[kind] = {"error": str(e)}
    _write_json(os.path.join(out, "barriers.json"), reports)
    return EXIT_OK if ok else EXIT_VERDICT_FALSE, ["barriers.json"]


def _cmd_homogenize(cfg, out):
    dom = _domain_from(cfg["domain"])
    op = _operator_from(cfg["operator"])
    if op.y_dependent:
        # refused before the strips: the sandwich would refuse it last
        raise ConfigError("operator: depends on the fast variable; the "
                          "sandwich has no effective operator for it")
    data = _data_from(cfg, dom.dim)
    eps_list = cfg["eps_list"]
    p = eff.OscillatingProblem(dom, min(eps_list), op, data)
    strip = cfg.get("strip", {})
    T = strip.get("T", 4.0)
    env = eff.sample_gbar_on_boundary(
        p, cfg.get("n_boundary", 24), cfg.get("gbar_eps", eps_list),
        cfg["delta"], T=T, L=strip.get("L", 6.0 * T),
        h_strip=strip.get("h", 1 / 16), offset=cfg.get("offset", 0.5))
    env = eff.build_envelopes(p, env)
    verdict = eff.effective_sandwich(
        p, env, eps_list, h_pm=cfg.get("h_pm", min(eps_list) / 8.0))
    _write_csv(os.path.join(out, "convergence.csv"),
               ["epsilon", "h", "above_plus", "below_minus", "sup_gap",
                "ok"],
               [[pe["epsilon"], pe["h"], pe["above_plus"],
                 pe["below_minus"], pe["sup_gap"], int(pe["ok"])]
                for pe in verdict.per_eps])
    bnd_rows = []
    for sm in env.samples:
        x = np.asarray(sm["x"], float)[None, :]
        bnd_rows.append([sm["s"], sm["gbar"],
                         float(env.h_minus(x)[0]), float(env.h_plus(x)[0])])
    _write_csv(os.path.join(out, "envelope.csv"),
               ["s", "gbar", "h_minus", "h_plus"], bnd_rows)
    _write_json(os.path.join(out, "verdict.json"), {
        "verdict": verdict.to_record(),
        "excluded": env.excluded,
        "correction": env.correction,
        "factor_reuse": env.factor_reuse,
        "notes": env.notes,
    })
    return (EXIT_OK if verdict.converged else EXIT_VERDICT_FALSE,
            ["convergence.csv", "envelope.csv", "verdict.json"])


def _cmd_validate(cfg, out):
    op = _operator_from(cfg["operator"])
    report = validate_operator(op)
    _write_json(os.path.join(out, "validate.json"), report)
    return EXIT_OK if report["ok"] else EXIT_VERDICT_FALSE, ["validate.json"]


# Each command takes the config and the output directory and returns its
# exit code with the names of the files it wrote; ``main`` writes the
# manifest.
_COMMANDS = {
    "solve": _cmd_solve,
    "corrector": _cmd_corrector,
    "gbar": _cmd_gbar,
    "equidist": _cmd_equidist,
    "audit": _cmd_audit,
    "barriers": _cmd_barriers,
    "homogenize": _cmd_homogenize,
    "validate": _cmd_validate,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="homogbc",
        description="effective boundary data experiments for oscillating "
                    "elliptic problems")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("config", help="path to a JSON config file")
    ap.add_argument("--output-dir", default=".",
                    help="directory for the outputs and the manifest "
                         "(default: the current one); the only way to "
                         "set it")
    args = ap.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        print(f"config error: cannot read {args.config}: {e}",
              file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as e:
        print(f"config error: {args.config} line {e.lineno} col {e.colno}: "
              f"{e.msg}", file=sys.stderr)
        return EXIT_CONFIG
    out = args.output_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    try:
        code, outputs = _COMMANDS[args.command](cfg, out)
    except (ConfigError, KeyError) as e:
        field = e.args[0] if isinstance(e, KeyError) else str(e)
        print(f"config error: missing or invalid field: {field}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (SolveError, CertificateError, StabilityError,
            DegenerateBarrier, eff.EnvelopeError) as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        hist = getattr(e, "history", None)
        if hist is not None:
            payload["history"] = hist
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    _write_json(os.path.join(out, "manifest.json"), {
        "command": args.command,
        "config": cfg,
        "versions": {
            "homogbc": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
