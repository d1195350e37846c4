"""Summarize run records into one JSON file.

    python3 bench/summarize.py OUT.json [RECORD.json ...]

Reads the given run records (default: every file in ``.bench_runs/``)
and writes, per workload, each metric's values over the runs with their
median, quartiles and spread (quartile distance over median), plus the
raw job times of every run, so two commits can be compared pair by pair.
"""

import glob
import json
import os
import statistics
import sys

from run import ROOT


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(paths):
    out = {}
    for path in sorted(paths):
        with open(path) as fh:
            rec = json.load(fh)
        w = out.setdefault(rec["workload"], {"timed": [], "traced": []})
        w["timed" if rec["trace"] == 0 else "traced"].append(rec)
    summary = {}
    for name, w in out.items():
        s = summary[name] = {}
        for kind, recs in w.items():
            if not recs:
                continue
            metrics = {}
            for rec in recs:
                for k, v in rec["metrics"].items():
                    metrics.setdefault(k, []).append(v["value"])
            s[kind] = {
                "runs": [{"seed": r["seed"], "commit": r["commit"],
                          "job_s": [j.get("job_s") for j in r["jobs"]],
                          "inputs": [j["index"] for j in r["jobs"]]}
                         for r in recs],
                "metrics": {k: stats(v) for k, v in metrics.items()
                            if None not in v},
            }
        first = (w["timed"] or w["traced"])[0]
        s["environment"] = {k: first[k] for k in ("nproc", "versions")}
    return summary


if __name__ == "__main__":
    paths = sys.argv[2:] or glob.glob(os.path.join(ROOT, ".bench_runs",
                                                   "*.json"))
    with open(sys.argv[1], "w") as fh:
        json.dump(summarize(paths), fh, indent=1, sort_keys=True)
        fh.write("\n")
