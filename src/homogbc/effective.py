"""End-to-end pipeline: oscillating solves, boundary data sampling,
mollified envelopes, and the sandwich verdict.

The workflow is: solve the oscillating problem at several epsilons,
sample the effective boundary datum gbar at boundary points via
half-space correctors, mollify the samples into continuous envelopes
h- <= gbar <= h+, solve the effective equation with each envelope, and
check that every oscillating solution is sandwiched between the two on
a compact subset.  Directions excluded from D_delta get a solved
extremal bump correction added to the envelopes instead of a sample.
"""

import collections
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import DomainSpec, RATIONAL, classify_direction, in_D_delta
from .operators import (EllipticOperatorSpec, SourceAndBoundaryData,
                        pucci_plus)
from .fdsolver import (BOUNDARY, INTERIOR, CertificateError, discretize,
                       factor_reuse, solve_dirichlet)
from . import corrector as corr

__all__ = [
    "OscillatingProblem", "BoundaryEnvelope", "SandwichVerdict",
    "solve_oscillating", "boundary_layer_compare",
    "sample_gbar_on_boundary", "build_envelopes", "effective_sandwich",
    "EnvelopeError", "K_SCALE",
]


class EnvelopeError(ValueError):
    """The boundary samples cannot carry envelopes: none survived, or
    two nearby samples break delta-continuity."""


@dataclass
class OscillatingProblem:
    """A Dirichlet problem with boundary data oscillating at scale eps."""
    domain: DomainSpec
    epsilon: float
    operator: EllipticOperatorSpec
    data: SourceAndBoundaryData

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        d = self.domain.diameter
        if self.epsilon > d / 4.0:
            raise ValueError(
                f"epsilon = {self.epsilon:g} > diameter/4 = {d / 4:g}: "
                "fewer than four cells fit, not an oscillation regime")
        if self.epsilon > d / 10.0:
            warnings.warn(
                f"epsilon = {self.epsilon:g} > diameter/10 = {d / 10:g}: "
                "marginal separation of scales", stacklevel=2)

    def boundary_values(self, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.data.g(x, x / self.epsilon), dtype=float)


def solve_oscillating(p, h, tol=1e-8):
    """Solve the oscillating Dirichlet problem on a grid of spacing h.

    Refuses h > eps/8 (the data would be unresolved).  The returned
    record carries the uniform bound check
    |u| <= C ||f||_inf + ||g||_inf with C = diam^2 / (2 lam).
    """
    if h > p.epsilon / 8.0 + 1e-12:
        raise ValueError(
            f"h = {h:g} > epsilon/8 = {p.epsilon / 8:g}: under-resolved")
    prob = discretize(p.operator, p.domain, h,
                      boundary=p.boundary_values,
                      source=p.data.source, y_of_x=lambda x: x / p.epsilon)
    u, rec = solve_dirichlet(prob, tol=tol)
    ring = u.mask == 1
    g_sup = float(np.max(np.abs(u.values[ring]))) if ring.any() else 0.0
    X = u.coords()[u.mask == INTERIOR]
    f_sup = float(np.max(np.abs(p.data.source(X)))) if X.size else 0.0
    C = p.domain.diameter ** 2 / (2.0 * p.operator.lam)
    u_sup = float(np.nanmax(np.abs(u.values[u.mask >= 1])))
    rec["uniform_bound"] = {
        "u_sup": u_sup,
        "bound": C * f_sup + g_sup,
        "ok": bool(u_sup <= C * f_sup + g_sup + 10 * tol),
    }
    return u, rec


def boundary_layer_compare(p, u_eps, x0, pq=(0.6, 0.85), T=4.0, L=None,
                           h_strip=1 / 16):
    """Compare the scaled solution with its matching half-space corrector.

    Samples the corrector strip at x0 inside the ball of radius
    eps^(q-1) around y0 (in fast coordinates) and reports the max
    deviation from u_eps there against the predicted scale eps^(2p-1).
    """
    pp, q = pq
    if not (0.5 < pp < q < 1.0):
        raise ValueError("need 1/2 < p < q < 1")
    if 2 * pp - 1 > q - pp + 1e-12:
        raise ValueError("need 2p - 1 <= q - p")
    eps = p.epsilon
    radius = eps ** (q - 1.0)
    T = max(T, math.ceil(radius + 1.0))
    if L is None:
        L = max(4.0 * T, 4.0 * radius)
    nu_in = -p.domain.normal(x0)
    d = classify_direction(nu_in)
    strip = corr.build_strip(np.asarray(x0, float), d, eps, T=T, L=L,
                             h=h_strip, data=p.data, op=p.operator)
    sol = corr.solve_corrector(strip)
    w = sol.field
    X = w.coords()
    inside = w.mask == INTERIOR
    xi = X[inside]
    keep = np.linalg.norm(xi, axis=-1) <= radius
    xi = xi[keep]
    wv = w.values[inside][keep]
    phys = np.asarray(x0, float) + eps * (xi @ strip.Q.T)
    in_dom = p.domain.sdf(phys) < -2.0 * u_eps.h
    xi, wv, phys = xi[in_dom], wv[in_dom], phys[in_dom]
    uv = u_eps.interpolate(phys)
    ok = ~np.isnan(uv)
    dev = float(np.max(np.abs(uv[ok] - wv[ok]))) if ok.any() else math.nan
    scale = eps ** (2 * pp - 1.0)
    alpha, err, ray = corr.ray_limit(strip, sol)
    return {
        "epsilon": eps,
        "p": pp,
        "q": q,
        "radius_fast": radius,
        "n_points": int(ok.sum()),
        "deviation": dev,
        "scale": scale,
        "C_fit": dev / scale if scale > 0 else math.inf,
        "alpha": alpha,
        "alpha_err": err,
        "flagged": bool(ray.get("flagged", False)),
    }


@dataclass
class BoundaryEnvelope:
    """Sampled gbar on the boundary plus mollified envelope functions."""
    delta: float
    samples: list = field(default_factory=list)
    excluded: list = field(default_factory=list)
    total_length: float = 0.0
    g_sup: float = 0.0
    h_plus: Optional[Callable] = None
    h_minus: Optional[Callable] = None
    correction: dict = field(default_factory=dict)
    factor_reuse: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def complete(self):
        return self.h_plus is not None and self.h_minus is not None


def _trace_mean_varies(data, x0, m, tol):
    """True when the periodic trace average of g along the hyperplane
    with integer normal m depends on the hyperplane offset, i.e. the
    rational direction is a genuine discontinuity of gbar.  2d only.
    """
    m = np.asarray(m, float)
    tau = np.array([-m[1], m[0]])
    period = float(np.linalg.norm(m))
    s = (np.arange(512) + 0.5) / 512 * period
    # the 8 offsets' lines of 512 points each, in one call of g
    y0 = (np.arange(8) / 8.0)[:, None] * m / (m @ m)
    Y = y0[:, None, :] + s[:, None] * tau / period
    X = np.broadcast_to(np.asarray(x0, float), Y.shape)
    means = np.mean(np.asarray(data.g(X, Y), dtype=float), axis=1)
    return float(np.max(means) - np.min(means)) > tol


# boundary points scanned for rational normals by _rational_direction_balls
N_DENSE = 4096


def _rational_direction_balls(p, delta, radius, g_sup):
    """Balls covering boundary points whose inward normal is a rational
    direction outside D_delta at which gbar is actually discontinuous.

    Enumerates the reduced integer directions with sup-norm <= 1/delta,
    keeps those whose hyperplane trace average of the datum varies with
    the offset by more than 2% of ``g_sup`` (in 2d; higher dimensions
    keep all of them), and covers the matching boundary runs with balls
    spaced one radius apart.
    """
    import itertools

    dom = p.domain
    n = dom.dim
    M = int(math.floor(1.0 / delta))
    g_osc_tol = 0.02 * max(g_sup, 1e-12)
    units = []
    for m in itertools.product(range(-M, M + 1), repeat=n):
        if not any(m):
            continue
        if math.gcd(*(abs(c) for c in m)) != 1:
            continue
        u = np.asarray(m, float)
        units.append((m, u / np.linalg.norm(u)))
    if not units:
        return []
    pts, normals, _, total = dom.boundary_points(N_DENSE)
    cos_tol = math.cos(4.0 * math.pi / N_DENSE + radius / max(total, 1e-12))
    hit = np.zeros(len(pts), dtype=bool)
    for m, u in units:
        match = (-normals) @ u >= cos_tol
        if not match.any():
            continue
        x0 = pts[np.argmax((-normals) @ u)]
        if n == 2 and not _trace_mean_varies(p.data, x0, m, g_osc_tol):
            continue
        hit |= match
    if not hit.any():
        return []
    balls = []
    idx = np.flatnonzero(hit)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    if len(runs) > 1 and idx[0] == 0 and idx[-1] == len(hit) - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs = runs[:-1]
    for run in runs:
        anchor = pts[run[0]]
        balls.append({"z": [float(c) for c in anchor], "r": float(radius),
                      "reason": "rational normal outside D_delta"})
        for i in run[1:]:
            if np.linalg.norm(pts[i] - anchor) >= radius:
                anchor = pts[i]
                balls.append({"z": [float(c) for c in anchor],
                              "r": float(radius),
                              "reason": "rational normal outside D_delta"})
    return balls


def sample_gbar_on_boundary(p, n_points, eps_list, delta, T=4.0, L=None,
                            h_strip=1 / 16, offset=0.0, tol=1e-8,
                            reuse=None):
    """Estimate gbar at boundary points; exclude directions off D_delta.

    Boundary regions whose inward normal is (within scan resolution) a
    rational direction outside D_delta are covered by excluded balls
    and not sampled; the rest run the corrector estimate.  Per-point
    failures are recorded in the notes list, not raised.  ``reuse`` may
    carry a previous envelope whose samples (which do not depend on
    delta) are reused at matching arclengths.  The points share one
    ``factor_reuse`` scope; its counts of factorizations, reused
    solves, and strip problems built and reused go to
    ``env.factor_reuse``.  ``env.g_sup``, the ||g|| of the
    envelopes, is the largest sup_y |g(x, y)| over the sampled points x.
    """
    if L is None:
        L = 6.0 * T
    pts, normals, arcs, total = p.domain.boundary_points(n_points,
                                                         offset=offset)
    env = BoundaryEnvelope(delta=float(delta), total_length=float(total))
    env.g_sup = max((p.data.g_sup(x) for x in pts), default=0.0)
    excluded_radius = delta * p.domain.diameter / 16.0
    env.excluded = _rational_direction_balls(p, delta, excluded_radius,
                                             env.g_sup)
    cache = {}
    if reuse is not None:
        cache = {round(sm["s"], 9): sm for sm in reuse.samples}
    with factor_reuse() as scope:
        for x, nv, s in zip(pts, normals, arcs):
            nu_in = -np.asarray(nv, float)
            if _in_excluded(x, env.excluded):
                continue
            hit = cache.get(round(float(s), 9))
            if hit is not None:
                env.samples.append(dict(hit))
                continue
            try:
                d = classify_direction(nu_in)
            except ValueError as e:  # degenerate normal, e.g. a corner
                env.notes.append(f"classification failed at s={s:.4f}: {e}")
                env.excluded.append({"z": [float(c) for c in x],
                                     "r": float(excluded_radius),
                                     "reason": "unclassifiable normal"})
                continue
            if d.kind == RATIONAL:
                if not in_D_delta(d, delta):
                    env.excluded.append({"z": [float(c) for c in x],
                                         "r": float(excluded_radius),
                                         "reason": f"m={d.m} not in D_delta"})
                    continue
            try:
                est = corr.estimate_gbar(x, d, eps_list, T=T, L=L, h=h_strip,
                                         data=p.data, op=p.operator, tol=tol)
            except (RuntimeError, CertificateError) as e:
                env.notes.append(f"gbar estimate failed at s={s:.4f}: {e}")
                continue
            value = est.gbar if est.equal else \
                0.5 * (est.gbar_star + est.gbar_lower)
            bar = 0.5 * (est.gbar_star - est.gbar_lower)
            env.samples.append({
                "x": [float(c) for c in x],
                "s": float(s),
                "gbar": float(value),
                "err": float(bar),
                "kind": d.kind,
                "equal": bool(est.equal),
            })
    env.factor_reuse = scope.counts()
    return env


def _in_excluded(x, excluded):
    for ball in excluded:
        if np.linalg.norm(np.asarray(x, float)
                          - np.asarray(ball["z"], float)) <= ball["r"]:
            return True
    return False


def _mollify_periodic(s, vals, total, radius):
    """Hat-kernel convolution of boundary samples along arclength."""
    s = np.asarray(s, float)
    vals = np.asarray(vals, float)
    out = np.empty_like(vals)
    for i, si in enumerate(s):
        d = np.abs(s - si)
        d = np.minimum(d, total - d)
        w = np.maximum(0.0, 1.0 - d / radius)
        out[i] = float(w @ vals) / float(w.sum())
    return out


# Howard tolerance of the bump solve in build_envelopes, and the slack
# of its delta-continuity check
ENVELOPE_TOL = 1e-8

# The compact set K is the concentric K_SCALE copy of the domain: the
# bump's sup_K v is taken and the sandwich is checked there
K_SCALE = 2 / 3


def build_envelopes(p, env):
    """Complete an envelope: delta-continuity check, mollified h+/-.

    The samples are mollified along arclength with a hat kernel of
    radius twice the largest gap between neighbouring samples.  h+/-
    are the mollified samples shifted by +/-(delta + slack) and lifted
    by +/- 2||g|| times the solved extremal bump v that equals 1 on the
    excluded boundary balls.  Both are capped at 3||g||.
    """
    if not env.samples:
        raise EnvelopeError("no boundary samples to build envelopes from")
    order = np.argsort([sm["s"] for sm in env.samples])
    samples = [env.samples[i] for i in order]
    s = np.array([sm["s"] for sm in samples])
    vals = np.array([sm["gbar"] for sm in samples])
    bars = np.array([sm["err"] for sm in samples])
    total = env.total_length
    gaps = np.diff(np.concatenate([s, [s[0] + total]]))
    mollifier_radius = 2.0 * float(np.max(gaps))
    # delta-continuity of the samples outside the excluded balls
    for i in range(len(s)):
        if _in_excluded(samples[i]["x"], env.excluded):
            continue
        for j in range(i + 1, len(s)):
            d = abs(s[j] - s[i])
            d = min(d, total - d)
            if d > mollifier_radius:
                continue
            if _in_excluded(samples[j]["x"], env.excluded):
                continue
            if abs(vals[i] - vals[j]) > \
                    env.delta + bars[i] + bars[j] + ENVELOPE_TOL:
                raise EnvelopeError(
                    "delta-continuity violated between boundary points "
                    f"s={s[i]:.4f} and s={s[j]:.4f}: "
                    f"|{vals[i]:.4f} - {vals[j]:.4f}| > delta={env.delta:g}")
    moll = _mollify_periodic(s, vals, total, mollifier_radius)
    # mollification slack only; the corrector error bars relax the
    # pointwise checks instead of widening the envelopes
    slack = float(np.max(np.abs(moll - vals)))
    pts = np.array([sm["x"] for sm in samples])
    v_field = None
    v_sup_K = 0.0
    bump_iterations = bump_solver = None
    if env.excluded:
        bump_h = max(min(b["r"] for b in env.excluded) / 2.0,
                     p.domain.diameter / 256.0)
        excl = list(env.excluded)

        def bump_data(x):
            x = np.asarray(x, float)
            flat = x.reshape(-1, x.shape[-1])
            out = np.zeros(flat.shape[0])
            for ball in excl:
                z = np.asarray(ball["z"], float)
                out = np.maximum(
                    out, np.clip(2.0 - 2.0 * np.linalg.norm(flat - z, axis=-1)
                                 / ball["r"], 0.0, 1.0))
            return out.reshape(x.shape[:-1])

        ext = pucci_plus(p.operator.lam, p.operator.Lam, p.domain.dim)
        prob = discretize(ext, p.domain, bump_h, boundary=bump_data)
        v_field, bump_rec = solve_dirichlet(prob, tol=ENVELOPE_TOL)
        bump_iterations = bump_rec["iterations"]
        bump_solver = _solver_summary(bump_rec["solves"])
        VX = v_field.coords()[v_field.mask == INTERIOR]
        on_K = p.domain.contains_scaled(VX, K_SCALE)
        if on_K.any():
            v_sup_K = float(np.max(
                v_field.values[v_field.mask == INTERIOR][on_K]))
        if v_sup_K > env.delta:
            env.notes.append(
                f"bump correction sup_K v = {v_sup_K:.4g} exceeds delta; "
                "shrink the excluded-ball radius")
    g_sup = env.g_sup
    cap = 3.0 * g_sup if g_sup > 0 else math.inf
    delta = env.delta

    def _base(x, sign):
        x = np.asarray(x, float)
        flat = x.reshape(-1, x.shape[-1])
        i = np.argmin(np.linalg.norm(flat[:, None, :] - pts[None, :, :],
                                     axis=-1), axis=1)
        out = moll[i] + sign * (delta + slack)
        if v_field is not None:
            lift = v_field.interpolate(flat)
            lift = np.where(np.isnan(lift), bump_data(flat), lift)
            out = out + sign * 2.0 * g_sup * lift
        return np.clip(out, -cap, cap).reshape(x.shape[:-1])

    env.samples = samples
    env.h_plus = lambda x: _base(x, +1.0)
    env.h_minus = lambda x: _base(x, -1.0)
    env.correction = {
        "mollifier_radius": float(mollifier_radius),
        "slack": slack,
        "v_sup_K": v_sup_K,
        "n_excluded": len(env.excluded),
        "bump_iterations": bump_iterations,
        "bump_solver": bump_solver,
    }
    return env


def _solver_summary(solves):
    """What the linear solves of a Howard record did: the count of each
    path, the factorizations (every ``direct`` solve factors), the
    V-cycle hierarchies built (at most one per solve), the Krylov
    iterations in all, and the V-cycle's unknowns per level."""
    paths = collections.Counter(s["path"] for s in solves)
    return {
        "paths": dict(sorted(paths.items())),
        "factorizations": paths["direct"],
        "hierarchy_builds": sum(bool(s["levels_built"]) for s in solves),
        "krylov_iterations": sum(s["krylov_iterations"] for s in solves),
        "levels": next((s["levels"] for s in solves if s["levels"]), None),
    }


@dataclass
class SandwichVerdict:
    """Outcome of the effective sandwich check on a compact subset."""
    K_scale: float
    per_eps: list
    envelope_gap: float
    gap_budget: float
    converged: bool
    notes: list = field(default_factory=list)

    def to_record(self):
        return {
            "K_scale": self.K_scale,
            "per_eps": self.per_eps,
            "envelope_gap": self.envelope_gap,
            "gap_budget": self.gap_budget,
            "converged": self.converged,
            "notes": self.notes,
        }


def effective_sandwich(p, env, eps_list, h_pm, tol=1e-6):
    """Solve the effective problems with envelope data and check the
    sandwich u- <= u_eps <= u+ on the compact set K (the concentric
    K_SCALE copy of D); each u_eps is solved on a grid of spacing eps/8.

    The effective operator is the problem operator, which must not
    depend on the fast variable.  u+ and u- are one discrete problem
    with other ring values, solved in a ``factor_reuse`` scope: the grid
    is discretized once and a linear operator's matrix factored once for
    both.  The problem, and with it that LU, is dropped before the first
    u_eps solve.  Returns the SandwichVerdict.
    """
    if not env.complete:
        raise ValueError("envelope is not completed; run build_envelopes")
    if p.operator.y_dependent:
        raise ValueError("operator depends on the fast variable; the "
                         "sandwich has no effective operator for it")
    notes = []
    n = p.domain.dim
    if (n - 1) * p.operator.lam <= p.operator.Lam:
        notes.append("unverified stability hypothesis: (n-1)*lam <= Lam")
    # u+ and u- differ only in their ring values, which u- resets as
    # discretize set u+'s: h- at the projections of the ring nodes
    with factor_reuse():
        prob = discretize(p.operator, p.domain, h_pm, boundary=env.h_plus,
                          source=p.data.source)
        u_plus, _ = solve_dirichlet(prob, tol=tol)
        ring = prob.grid.mask == BOUNDARY
        prob.grid.values[ring] = env.h_minus(
            p.domain.project(prob.grid.coords()[ring]))
        u_minus, _ = solve_dirichlet(prob, tol=tol)
        del prob  # else its LU lives through the u_eps solves
    per_eps = []
    gap_sup = 0.0
    all_ok = True
    for eps in sorted(eps_list, reverse=True):
        q = OscillatingProblem(p.domain, eps, p.operator, p.data)
        h = eps / 8.0
        u, _ = solve_oscillating(q, h, tol=tol)
        X = u.coords()[u.mask == INTERIOR]
        on_K = p.domain.contains_scaled(X, K_SCALE)
        XK = X[on_K]
        uK = u.values[u.mask == INTERIOR][on_K]
        up = u_plus.interpolate(XK)
        um = u_minus.interpolate(XK)
        good = ~(np.isnan(up) | np.isnan(um))
        over = float(np.max(uK[good] - up[good]))
        under = float(np.max(um[good] - uK[good]))
        gap = float(np.max(up[good] - um[good]))
        gap_sup = max(gap_sup, gap)
        worst = XK[good][int(np.argmax(np.maximum(
            uK[good] - up[good], um[good] - uK[good])))]
        ok = over <= tol * 10 and under <= tol * 10
        all_ok = all_ok and ok
        per_eps.append({
            "epsilon": float(eps),
            "h": float(h),
            "above_plus": over,
            "below_minus": under,
            "sup_gap": gap,
            "ok": bool(ok),
            "worst_point": [float(c) for c in worst],
            "n_K_points": int(good.sum()),
        })
    # Cdelta budget: 2delta from the envelope shift plus 2delta allowed
    # for the bump correction on K (v <= delta when the excluded set is
    # genuinely small); a large bump term on K correctly fails this.
    c = env.correction
    budget = (2.0 * env.delta + 2.0 * env.delta * 2.0 * env.g_sup
              + 2.0 * c.get("slack", 0.0) + 10 * tol)
    converged = all_ok and gap_sup <= budget
    return SandwichVerdict(K_scale=float(K_SCALE), per_eps=per_eps,
                           envelope_gap=gap_sup, gap_budget=float(budget),
                           converged=bool(converged), notes=notes)

