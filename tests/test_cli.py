import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from homogbc.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_VERDICT_FALSE, main)


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg):
    out = tmp_path / "out"
    code = main([command, _write(tmp_path, "cfg.json", cfg),
                 "--output-dir", str(out)])
    return code, out


def test_equidist_roundtrip(tmp_path):
    phi = (1 + math.sqrt(5)) / 2
    code, out = _run(tmp_path, "equidist", {
        "nu": [1.0, phi], "delta": 0.1, "R_list": [100, 1000],
    })
    assert code == EXIT_OK
    lines = (out / "equidist.csv").read_text().strip().splitlines()
    assert lines[0] == "R,A,N,ratio"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "equidist"
    assert "homogbc" in manifest["versions"]
    assert manifest["outputs"] == ["equidist.csv", "equidist.json"]


def test_solve_writes_grid(tmp_path):
    code, out = _run(tmp_path, "solve", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "laplacian"},
        "g": "cos(2*pi*y1)", "period": [1.0, 1.0],
        "epsilon": 0.125, "h": 1 / 64,
    })
    assert code == EXIT_OK
    assert (out / "solution.grid").exists()
    rec = json.loads((out / "solve.json").read_text())
    assert rec["record"]["converged"]
    # each direct solve reports the fill of its sparse LU
    assert [s["path"] for s in rec["record"]["solves"]] == ["direct"]
    assert rec["record"]["solves"][0]["fill"] > 0


def test_audit_exit_codes(tmp_path):
    code, _ = _run(tmp_path, "audit", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0}})
    assert code == EXIT_OK
    code, _ = _run(tmp_path, "audit", {
        "domain": {"kind": "half_disk_flat_bottom",
                   "center": [0.0, 1.0], "radius": 1.0}})
    assert code == EXIT_VERDICT_FALSE


def test_barriers_command(tmp_path):
    code, out = _run(tmp_path, "barriers", {
        "n": 3, "lam": 1.0, "Lam": 1.5,
        "kinds": ["radial_interior", "quad_strip"], "n_samples": 200,
    })
    assert code == EXIT_OK
    reports = json.loads((out / "barriers.json").read_text())
    assert reports["radial_interior"]["is_supersolution"]


def test_validate_command(tmp_path):
    code, _ = _run(tmp_path, "validate", {
        "operator": {"kind": "pucci_plus", "lam": 1.0, "Lam": 2.0}})
    assert code == EXIT_OK


def test_missing_field_is_config_error(tmp_path):
    code, _ = _run(tmp_path, "solve", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9}})
    assert code == EXIT_CONFIG


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == EXIT_CONFIG


def test_missing_file_is_config_error(tmp_path):
    assert main(["solve", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_unresolved_grid_is_config_error(tmp_path):
    code, _ = _run(tmp_path, "solve", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "laplacian"},
        "g": "cos(2*pi*y1)", "period": [1.0, 1.0],
        "epsilon": 1 / 16, "h": 1 / 32,
    })
    assert code == EXIT_CONFIG


def test_numerical_error_exit(tmp_path):
    # order-1 stencil cannot certify a strong cross term
    code, _ = _run(tmp_path, "corrector", {
        "operator": {"kind": "pucci_plus", "lam": 1.0, "Lam": 2.0},
        "g": "cos(2*pi*y1)", "period": [1.0, 1.0],
        "nu": [1.0, math.sqrt(2.0)], "x0": [0.0, 0.0],
        "epsilon": 0.25, "T": 4.0, "L": 2.0, "h": 0.125,
    })
    # L < 2T is a config-level refusal
    assert code == EXIT_CONFIG


def test_uncertifiable_stencil_is_numerical_error(tmp_path):
    # a11 - |a12| < 0: no monotone 9-point decomposition exists
    code, _ = _run(tmp_path, "solve", {
        "domain": {"kind": "rectangle", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "operator": {"kind": "linear", "lam": 0.05, "Lam": 5.0,
                     "exprs": {"a11": "1.0", "a22": "4.0", "a12": "1.9"}},
        "g": "cos(2*pi*y1)", "period": [1.0, 1.0],
        "epsilon": 0.125, "h": 1 / 64,
    })
    assert code == EXIT_NUMERICAL


def test_equidist_deterministic(tmp_path):
    cfg = {"nu": [1.0, (1 + math.sqrt(5)) / 2], "delta": 0.1,
           "R_list": [200]}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["equidist", _write(tmp_path, f"{name}.json", cfg),
                     "--output-dir", str(out)]) == EXIT_OK
        outs.append((out / "equidist.csv").read_bytes())
    assert outs[0] == outs[1]


def test_gbar_points_command(tmp_path):
    code, out = _run(tmp_path, "gbar", {
        "operator": {"kind": "laplacian"},
        "g": "0.25", "period": [1.0, 1.0],
        "nu": [1.0, math.sqrt(2.0)],
        "points": [[0.0, 0.0]],
        "eps_list": [0.25, 0.125],
        "strip": {"T": 4.0, "L": 12.0, "h": 0.125},
    })
    assert code == EXIT_OK
    lines = (out / "gbar.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,s_or_eps,gbar_or_alpha,err"
    assert len(lines) == 3
    rec = json.loads((out / "gbar.json").read_text())
    assert rec["records"][0]["equal"]


def test_gbar_points_header_in_3d(tmp_path):
    # the header names every coordinate of a 3-d point: one column a row
    code, out = _run(tmp_path, "gbar", {
        "operator": {"kind": "laplacian", "dim": 3},
        "g": "0.5*cos(2*pi*y2)**2",
        "nu": [0.0, 0.0, 1.0],
        "points": [[0.0, 0.125, 0.0]],
        "eps_list": [0.5, 0.25],
        "strip": {"T": 1.0, "L": 2.0, "h": 0.25},
    })
    assert code == EXIT_OK
    header, *rows = (out / "gbar.csv").read_text().strip().splitlines()
    assert header == "x1,x2,x3,s_or_eps,gbar_or_alpha,err"
    assert [len(row.split(",")) for row in rows] == [6, 6]


def test_gbar_boundary_header(tmp_path):
    # three boundary normals of a disk: the one at angle pi is rational
    # and outside D_delta, the other two are sampled
    code, out = _run(tmp_path, "gbar", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "laplacian"},
        "g": "0.25", "period": [1.0, 1.0],
        "n_points": 3, "eps_list": [0.25, 0.125], "delta": 0.5,
        "strip": {"T": 2.0, "L": 4.0, "h": 0.25},
    })
    assert code == EXIT_OK
    header, *rows = (out / "gbar.csv").read_text().strip().splitlines()
    assert header == "x1,x2,s_or_eps,gbar_or_alpha,err,kind"
    assert [row.split(",")[-1] for row in rows] == ["irrational"] * 2


def test_corrector_outputs(tmp_path):
    code, out = _run(tmp_path, "corrector", {
        "operator": {"kind": "laplacian"},
        "g": "cos(2*pi*y1)*cos(2*pi*y2) + 0.25", "period": [1.0, 1.0],
        "nu": [1.0, math.sqrt(2.0)], "x0": [0.0, 0.0],
        "epsilon": 0.125, "T": 4.0, "L": 12.0, "h": 1 / 16,
    })
    assert code == EXIT_OK
    rec = json.loads((out / "corrector.json").read_text())
    assert abs(rec["alpha"] - 0.25) <= rec["err"] + 0.05
    prof = (out / "profile.csv").read_text().strip().splitlines()
    assert prof[0] == "t,W"
    assert len(prof) == 9


def test_envelope_failure_is_numerical_error(tmp_path, monkeypatch):
    # no boundary sample survives: the envelope cannot be built, which
    # is a numerical outcome, not a config error; no manifest is written
    from homogbc import effective

    monkeypatch.setattr(
        effective, "sample_gbar_on_boundary",
        lambda p, *args, **kwargs: effective.BoundaryEnvelope(delta=0.1))
    code, out = _run(tmp_path, "homogenize", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "laplacian"},
        "g": "cos(2*pi*y1)*cos(2*pi*y2)", "period": [1.0, 1.0],
        "eps_list": [0.1, 0.05], "delta": 0.1,
    })
    assert code == EXIT_NUMERICAL
    assert not (out / "manifest.json").exists()


def test_fast_variable_operator_is_refused_before_any_solve(tmp_path,
                                                           monkeypatch):
    # homogenize has no effective operator for an operator that depends
    # on the fast variable: a config error, raised before any strip or
    # sandwich solve, and no manifest
    from homogbc import corrector, effective, fdsolver

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_dirichlet called")

    for module in (fdsolver, corrector, effective):
        monkeypatch.setattr(module, "solve_dirichlet", no_solve)
    code, out = _run(tmp_path, "homogenize", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "linear", "lam": 1.0, "Lam": 3.0,
                     "exprs": {"a11": "2 + sin(2*pi*y1)",
                               "a22": "2 + cos(2*pi*y1)"}},
        "g": "cos(2*pi*y1)*cos(2*pi*y2)", "period": [1.0, 1.0],
        "eps_list": [0.1, 0.05], "delta": 0.1,
    })
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()


def test_antidiagonal_laminate_is_refused(tmp_path):
    # a laminate along (1, -1) is constant on the diagonal of the period
    # cell; the probe points off it see that it depends on y
    lam = "1.5 + 0.5*sin(2*pi*(y1 - y2))"
    code, out = _run(tmp_path, "homogenize", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "linear", "lam": 1.0, "Lam": 2.0,
                     "exprs": {"a11": lam, "a22": lam}},
        "g": "cos(2*pi*y1)*cos(2*pi*y2)", "period": [1.0, 1.0],
        "eps_list": [0.1, 0.05], "delta": 0.1,
    })
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()


def test_gbar_alpha_beyond_trace_range_exits_numerical(tmp_path, monkeypatch,
                                                       capsys):
    # a ray limit outside [-sup|g|, sup|g|] is a numerical failure with a
    # typed error and a JSON payload, not a traceback
    from homogbc import corrector

    monkeypatch.setattr(corrector, "ray_limit",
                        lambda p, tol=1e-8: (5.0, 0.0, {"flagged": False}))
    code, out = _run(tmp_path, "gbar", {
        "operator": {"kind": "laplacian"},
        "g": "0.25", "period": [1.0, 1.0],
        "nu": [1.0, math.sqrt(2.0)],
        "points": [[0.0, 0.0]],
        "eps_list": [0.25, 0.125],
        "strip": {"T": 4.0, "L": 12.0, "h": 0.125},
    })
    assert code == EXIT_NUMERICAL
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SolveError"
    assert "exceeds sup|g| = 0.25" in payload["message"]
    assert not (out / "manifest.json").exists()


def test_fast_variable_in_source_is_config_error(tmp_path):
    # f is a function of x alone: a y in it is refused at config time,
    # and the failed run writes no manifest
    code, out = _run(tmp_path, "solve", {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.9},
        "operator": {"kind": "laplacian"},
        "g": "cos(2*pi*y1)", "f": "cos(2*pi*y1)", "period": [1.0, 1.0],
        "epsilon": 0.125, "h": 1 / 64,
    })
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()


PUCCI_GBAR = {
    "operator": {"kind": "pucci_plus", "lam": 1.0, "Lam": 2.0},
    "g": "cos(2*pi*y1)*cos(2*pi*y2)", "period": [1.0, 1.0],
    "nu": [1.0, math.sqrt(2.0)],
    "points": [[0.3, 0.1]],
    "eps_list": [0.25, 0.125],
    "strip": {"T": 2.0, "L": 8.0, "h": 0.125},
}


def _two_cpus(monkeypatch):
    from homogbc import fdsolver

    if not (fdsolver._prctl() and fdsolver._blas_pools()):
        pytest.skip("forked strips need Linux and a settable OpenBLAS")
    monkeypatch.setattr(fdsolver.os, "sched_getaffinity",
                        lambda pid: {0, 1})


def test_gbar_points_manifest_reads_peak_memory(tmp_path, monkeypatch):
    # a Pucci estimate forks its second strip: the manifest reads the
    # peak memory of the process and of its workers
    _two_cpus(monkeypatch)
    code, out = _run(tmp_path, "gbar", PUCCI_GBAR)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0.0
    assert manifest["children_peak_rss_mb"] > 0.0
    assert multiprocessing.active_children() == []


def test_gbar_worker_failure_exits_numerical(tmp_path, monkeypatch, capsys):
    # the strip of the larger epsilon fails in the forked worker: the
    # run exits 3 with the error's JSON, history included, and leaves
    # no worker and no manifest
    from homogbc import corrector, fdsolver

    _two_cpus(monkeypatch)
    limit = corrector.ray_limit
    worker_y0 = np.array(PUCCI_GBAR["points"][0]) / 0.25

    def failing(p, *args, **kwargs):
        if np.array_equal(p.y0_eps, worker_y0):
            raise fdsolver.SolveError("injected", [1.0])
        return limit(p, *args, **kwargs)

    monkeypatch.setattr(corrector, "ray_limit", failing)
    code, out = _run(tmp_path, "gbar", PUCCI_GBAR)
    assert code == EXIT_NUMERICAL
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "SolveError", "message": "injected",
                       "history": [1.0]}
    assert not (out / "manifest.json").exists()
    assert multiprocessing.active_children() == []
