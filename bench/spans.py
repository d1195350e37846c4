"""Outside-in span tracing of homogbc's layers.

``Tracer.install`` wraps the public functions of each module, plus the
two private helpers the layer list names (the linear solve and the
policy extremum), from outside the package: the program itself is not
changed.  A function bound by name in several modules (``from .fdsolver
import discretize``) is replaced in every module that holds it, so
calls from corrector and effective are seen too.

Spans live in memory; the job writes them out when it ends.  Counts come
from return values only.
"""

import functools
import importlib
import time


def _howard(result):
    return {"iterations": int(result[1]["iterations"])}


def _assembled(result):
    A = result[0]
    return {"unknowns": int(A.shape[0]), "nnz": int(A.nnz)}


def _flagged(est):
    return {"flagged": len(est.flagged)}


def _env(env):
    return {"excluded": len(env.excluded),
            "failed_points": sum("failed" in n for n in env.notes)}


# (span name, module, attribute path, counter of the return value)
SEAMS = [
    ("cli.main", "cli", "main", None),
    ("effective.sample_gbar", "effective", "sample_gbar_on_boundary", _env),
    ("effective.build_envelopes", "effective", "build_envelopes", None),
    ("effective.effective_sandwich", "effective", "effective_sandwich", None),
    ("effective.solve_oscillating", "effective", "solve_oscillating", None),
    ("corrector.estimate_gbar", "corrector", "estimate_gbar", _flagged),
    ("corrector.solve_corrector", "corrector", "solve_corrector", None),
    ("fdsolver.discretize", "fdsolver", "discretize", None),
    ("fdsolver.monotone_weights", "fdsolver", "monotone_weights", None),
    ("fdsolver.solve_dirichlet", "fdsolver", "solve_dirichlet", _howard),
    ("fdsolver.policy_extremum", "fdsolver", "DiscreteProblem._extremum",
     None),
    ("fdsolver.assemble", "fdsolver", "DiscreteProblem.assemble", _assembled),
    ("fdsolver.linear_solve", "fdsolver", "_solve_sparse", None),
    ("operators.coefficients", "operators",
     "EllipticOperatorSpec.coefficients", None),
    ("geometry.sdf", "geometry", "DomainSpec.sdf", None),
    ("geometry.classify_direction", "geometry", "classify_direction", None),
]

MODULES = ["cli", "effective", "corrector", "fdsolver", "operators",
           "geometry", "barriers", "expressions"]


class Tracer:
    """Collects spans ``{name, start, end, parent, job}`` of one job."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack, job = self.spans, self._stack, self.job_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None, "job": job}
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.update(counter(out))
            return out

        return traced

    def install(self):
        """Wrap every seam; a seam that no longer exists is recorded in
        ``missing`` and its metrics are left out, not reported as 0."""
        mods = {m: importlib.import_module(f"homogbc.{m}") for m in MODULES}
        for name, mod, path, counter in SEAMS:
            owner = mods[mod]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, counter)
            if outer:  # a method: patch the class once
                self._patch(owner, attr, wrapped)
                continue
            for m in mods.values():
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def ancestor_named(spans, span, name):
    """Whether a span named ``name`` encloses ``span``."""
    p = span["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


# (metric, seam, how): "self" sums self time, "total" the inclusive
# time of the outermost spans, "calls" counts spans, any other word
# sums that count over the seam's spans.
METRICS = [
    ("fdsolver.linear_solve_s", "fdsolver.linear_solve", "self"),
    ("fdsolver.linear_solves", "fdsolver.linear_solve", "calls"),
    ("fdsolver.unknowns", "fdsolver.assemble", "unknowns"),
    ("fdsolver.assemble_s", "fdsolver.assemble", "self"),
    ("fdsolver.nnz", "fdsolver.assemble", "nnz"),
    ("fdsolver.howard_iterations", "fdsolver.solve_dirichlet", "iterations"),
    ("fdsolver.dirichlet_solves", "fdsolver.solve_dirichlet", "calls"),
    ("fdsolver.howard_s", "fdsolver.solve_dirichlet", "self"),
    ("fdsolver.policy_extremum_s", "fdsolver.policy_extremum", "self"),
    ("fdsolver.discretize_s", "fdsolver.discretize", "self"),
    ("fdsolver.monotone_weights_s", "fdsolver.monotone_weights", "self"),
    ("operators.coefficients_s", "operators.coefficients", "self"),
    ("operators.coefficients_calls", "operators.coefficients", "calls"),
    ("geometry.sdf_s", "geometry.sdf", "self"),
    ("geometry.classify_direction_s", "geometry.classify_direction", "self"),
    ("corrector.strips", "corrector.solve_corrector", "calls"),
    ("corrector.solve_corrector_total_s", "corrector.solve_corrector",
     "total"),
    ("corrector.flagged", "corrector.estimate_gbar", "flagged"),
    ("effective.sample_gbar_total_s", "effective.sample_gbar", "total"),
    ("effective.build_envelopes_total_s", "effective.build_envelopes",
     "total"),
    ("effective.effective_sandwich_total_s", "effective.effective_sandwich",
     "total"),
    ("effective.solve_oscillating_total_s", "effective.solve_oscillating",
     "total"),
    ("effective.excluded", "effective.sample_gbar", "excluded"),
    ("effective.failed_points", "effective.sample_gbar", "failed_points"),
    ("cli.main_self_s", "cli.main", "self"),
]


def layer_metrics(spans, missing=()):
    """Per-layer metrics of one job from its spans.

    ``<layer>_s`` is self time (the span minus its child spans) summed
    over the job; ``<layer>_total_s`` is inclusive time of the outermost
    spans of that layer.  Metrics of a missing seam are omitted.
    """
    self_t = _self_times(spans)
    m = {}
    for metric, seam, how in METRICS:
        if seam in missing:
            continue
        mine = [i for i, s in enumerate(spans) if s["name"] == seam]
        if how == "self":
            m[metric] = sum(self_t[i] for i in mine)
        elif how == "total":
            m[metric] = sum(spans[i]["end"] - spans[i]["start"] for i in mine
                            if not ancestor_named(spans, spans[i], seam))
        elif how == "calls":
            m[metric] = len(mine)
        else:
            m[metric] = sum(spans[i].get(how, 0) for i in mine)
    if "fdsolver.solve_dirichlet" not in missing:
        solves = m["fdsolver.dirichlet_solves"]
        m["fdsolver.howard_per_solve"] = (
            m["fdsolver.howard_iterations"] / solves if solves else 0.0)
        if "corrector.solve_corrector" not in missing:
            # strip passes: Dirichlet solves made inside a corrector strip
            passes = sum(
                1 for s in spans if s["name"] == "fdsolver.solve_dirichlet"
                and ancestor_named(spans, s, "corrector.solve_corrector"))
            strips = m["corrector.strips"]
            m["corrector.strip_passes"] = passes
            m["corrector.passes_per_strip"] = passes / strips if strips \
                else 0.0
    return m


def self_shares(spans, job_s):
    """Self time of every span name as a share of the job's time."""
    out = {}
    for s, t in zip(spans, _self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + t / job_s
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
