"""Regenerate reference.json: every catalogue input's outputs.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each catalogue entry once in a fresh process, exactly as a
benchmark job runs, and stores its outputs.  Regenerate only on a
commit whose answers are trusted; the benchmark compares every job
against these values within the solver's tolerance.
"""

import json
import os
import sys
import time

from run import HERE, ROOT, run_child
import workloads


def main(names):
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    work = os.path.join(ROOT, ".bench_work", "reference")
    for name in names or workloads.WORKLOADS:
        entries = {}
        for index, params in enumerate(workloads.catalogue(name)):
            rec = run_child(name, index, work, time.monotonic() + 600)
            if "error" in rec:
                sys.exit(f"{name}[{index}] failed: {rec['error']}")
            bad = workloads.check(name, rec["outputs"], rec["outputs"])
            if bad:
                sys.exit(f"{name}[{index}] fails its checks: {bad}")
            entries[str(index)] = {"params": params,
                                   "outputs": rec["outputs"]}
            print(name, index, f"{rec['job_s']:.2f} s", flush=True)
        reference[name] = entries
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
