"""Benchmark command for homogbc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Every job runs in its own fresh
Python process, one at a time (a closed loop with one client).  Every
job's outputs are checked against the workload's invariants and the
stored reference for its input.

A run makes whole passes over the workload's input catalogue while the
next pass is expected to end within ``--seconds`` (at least one), so
every run measures the same input mix.  ``--trace 0`` prints the
end-to-end metrics: medians over the run's jobs, with separate set-up
probes added for ``setup_s``.  ``--trace 1`` runs each input once
untraced and once traced and prints the per-layer metrics, averaged
per job over the traced jobs; counts then repeat exactly.  The last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``; the full run record, with
every job's raw times, goes to ``.bench_runs/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0
RATIO_METRICS = {"fdsolver.howard_per_solve", "corrector.passes_per_strip",
                 "trace.overhead_frac"}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "1" if metric in RATIO_METRICS else "count"


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload, index, workdir, deadline, traced=False,
              setup_only=False):
    """Run one job in a fresh process and return its record."""
    os.makedirs(workdir, exist_ok=True)
    out_path = os.path.join(workdir, "result.json")
    log_path = os.path.join(workdir, "stderr.log")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload,
           str(index), "", out_path, workdir]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd[4] = repr(t0)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.monotonic() - t0
    try:
        with open(out_path) as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        kind = "Timeout" if code is None else "ChildExit"
        rec = {"workload": workload, "index": index, "traced": traced,
               "error": {"type": kind, "message": f"exit code {code}",
                         "traceback": tail}}
    rec["wall_s"] = wall
    shutil.rmtree(workdir, ignore_errors=True)
    return rec


def judge(workload, rec, reference):
    """Check one job; sets ``ok``, ``problems`` and ``err_ratio``."""
    ref = reference[workload][str(rec["index"])]["outputs"]
    if "error" in rec:
        rec["problems"] = [f"{rec['error']['type']}: "
                           f"{rec['error']['message']}"]
    else:
        rec["problems"] = workloads.check(workload, rec["outputs"], ref)
        if not rec["problems"]:
            rec["err_ratio"] = (
                workloads.error_measure(workload, rec["outputs"], ref)
                / workloads.error_measure(workload, ref, ref))
    rec["ok"] = not rec["problems"]
    return rec


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(jobs, probes):
    timed = [j for j in jobs if "job_s" in j]
    passed = [j for j in jobs if j["ok"]]
    return {
        "job_s": (_median([j["job_s"] for j in timed]), "s"),
        "setup_s": (_median([j["setup_s"] for j in probes + jobs
                             if "setup_s" in j]), "s"),
        "peak_rss_mb": (_median([j["peak_rss_mb"] for j in timed]), "MB"),
        "ok_frac": (len(passed) / len(jobs), "1"),
        "err_ratio": (_median([j["err_ratio"] for j in passed]), "1"),
    }


def per_layer(pairs):
    traced = [t for _, t in pairs if "spans" in t]
    per_job = [spans.layer_metrics(t["spans"], t["missing"]) for t in traced]
    out = {}
    for name in (per_job[0] if per_job else {}):
        out[name] = (statistics.fmean([m[name] for m in per_job]),
                     unit_of(name))
    # tracing overhead, paired by input: (traced - untraced) / untraced
    overhead = [(t["job_s"] - u["job_s"]) / u["job_s"] for u, t in pairs
                if "job_s" in u and "job_s" in t]
    if overhead:
        out["trace.overhead_frac"] = (statistics.median(overhead), "1")
    for t in traced:
        t["self_shares"] = spans.self_shares(t["spans"], t["job_s"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "homogbc",
                                       "__init__.py")):
        print(f"no homogbc sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    stop_at = start + args.seconds
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    order = workloads.input_order(args.workload, args.seed)
    probes, jobs, pairs = [], [], []
    try:
        if not args.trace:
            for k in range(SETUP_PROBES):
                probes.append(run_child(args.workload,
                                        order[k % len(order)], work,
                                        deadline, setup_only=True))
        k = 0
        while True:
            index = order[k % len(order)]
            rec = judge(args.workload,
                        run_child(args.workload, index, work, deadline),
                        reference)
            jobs.append(rec)
            if args.trace:
                traced = judge(args.workload,
                               run_child(args.workload, index, work,
                                         deadline, traced=True),
                               reference)
                jobs.append(traced)
                pairs.append((rec, traced))
            k += 1
            if k % len(order):
                continue
            per_pass = sum(j["wall_s"] for j in jobs) * len(order) / k
            if time.monotonic() + per_pass > min(stop_at, deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass

    metrics = per_layer(pairs) if args.trace else end_to_end(jobs, probes)
    failed = sum(not j["ok"] for j in jobs)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(ROOT), "nproc": os.cpu_count(),
        "versions": next(({k: j[k] for k in ("python", "numpy", "scipy",
                                              "homogbc", "blas_threads")}
                          for j in jobs if "python" in j), None),
        "order": order, "elapsed_s": time.monotonic() - start,
        "setup_probes": probes, "jobs": jobs,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(os.path.join(runs, name), "w") as fh:
        json.dump(record, fh)
    for j in jobs:
        if not j["ok"]:
            print(f"job {j['index']} failed: {j['problems']}",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
