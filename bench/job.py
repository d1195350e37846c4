"""One benchmark job in a fresh process.

Run by ``run.py``, once per job:

    python3 bench/job.py WORKLOAD INDEX SPAWNED OUT_JSON WORKDIR
        [--trace] [--setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, the imports and input
generation up to the first job call.  The job's outputs, timings and
(when traced) its spans go to OUT_JSON.  An exception is recorded there
with its type, never dropped.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# imported before the job call so that setup_s covers them
import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg  # noqa: E402,F401
import homogbc  # noqa: E402
from homogbc import cli  # noqa: E402,F401

import spans  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy ship."""
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    out = {}
    for path in sorted(glob.glob(os.path.join(site, "*.libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[os.path.basename(path)] = int(fn())
                break
    return out


def main(argv):
    workload, index, spawned, out_path, workdir = argv[:5]
    traced = "--trace" in argv
    rec = {"workload": workload, "index": int(index), "traced": traced}
    try:
        params = workloads.catalogue(workload)[int(index)]
        rec["params"] = params
        job, collect = workloads.make_inputs(workload, params, workdir)
        rec["setup_s"] = time.monotonic() - float(spawned)
        if "--setup-only" in argv:
            return rec
        rec.update(python=sys.version.split()[0], numpy=numpy.__version__,
                   scipy=scipy.__version__, homogbc=homogbc.__version__,
                   blas_threads=blas_threads())
        tracer = None
        if traced:
            tracer = spans.Tracer(job_id=f"{workload}/{index}")
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = job()
        finally:
            rec["job_s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
                rec["spans"] = tracer.spans
                rec["missing"] = tracer.missing
        rec["outputs"] = collect(result)
    except Exception as e:  # job boundary: report the failure by type
        rec["error"] = {"type": type(e).__name__, "message": str(e),
                        "traceback": traceback.format_exc()}
    rec["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


if __name__ == "__main__":
    record = main(sys.argv[1:])
    with open(sys.argv[4], "w") as fh:
        json.dump(record, fh)
    sys.exit(1 if "error" in record else 0)
