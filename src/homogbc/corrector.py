"""Half-space corrector problems on truncated rotated strips.

The corrector solves F(D^2 w, y) = 0 in the half space over the
boundary hyperplane through y0_eps = x0/eps with inward normal nu, with
w = g(x0, .) on the hyperplane.  The artifact truncates to a strip of
height T and width L in rotated coordinates xi (last axis along nu):
bottom carries the exact trace, lateral faces the constant-in-height
extension of their bottom foot, and the top the running mean of the
bottom trace (refined once from a first ray-limit estimate).  Each
strip is solved twice on one discrete problem; the two solves differ
only in the top-face values, and the second starts from the first's
field.  Under a nonlinear operator the first solve also returns the
field's linear response to the top value, so the second starts from
the first's field moved by that response.  The lateral truncation
error is certified by the explicit quadratic barrier.

Ray limits alpha_eps are read as the window average at t* = 3T/4 with
error bar W_{t*} + truncation bound + solver tolerance; the estimator
aggregates them into the one-sided effective data gbar_star/gbar_lower
and their equality verdict.  The estimator runs its strips in one
``fdsolver.factor_reuse`` scope.  Under a rotation-invariant operator
whose strips sample one constant coefficient (Pucci, the Laplacian)
every strip of the scope with the same T, L and h is one discrete
problem with other ring values, so it is discretized once per scope,
not once per strip.  Under a linear operator with one constant
coefficient the strips of one normal (of every normal, for such an
operator) share their problem across epsilons and passes, and with it
the LU of its matrix, so that matrix is factored once.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fdsolver
from .barriers import strip_truncation_factor
from .fdsolver import discretize, solve_dirichlet
from .geometry import Direction, DomainSpec, classify_direction

__all__ = [
    "HalfspaceCorrectorProblem", "OscillationProfile", "CorrectorSolution",
    "GbarEstimate", "rotation_frame", "build_strip", "solve_corrector",
    "ray_limit", "estimate_gbar",
]


def rotation_frame(nu):
    """Orthonormal Q with last column nu (deterministic completion)."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    n = nu.size
    if n == 2:
        tau = np.array([nu[1], -nu[0]])
        return np.stack([tau, nu], axis=1)
    cols = [nu]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v = e - sum((e @ c) * c for c in cols)
        if np.linalg.norm(v) > 1e-8:
            cols.append(v / np.linalg.norm(v))
        if len(cols) == n:
            break
    Q = np.stack(cols[1:] + [nu], axis=1)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


@dataclass
class HalfspaceCorrectorProblem:
    """A truncated corrector problem in rotated strip coordinates."""
    nu: Direction
    y0_eps: np.ndarray
    Q: np.ndarray
    T: float
    L: float
    h: float
    g: Callable          # g(y) on the fast variable
    op: object
    g_sup: float

    def __post_init__(self):
        Q = self.Q
        if np.max(np.abs(Q.T @ Q - np.eye(Q.shape[0]))) > 1e-12:
            raise ValueError("rotation frame is not orthonormal")
        if np.max(np.abs(Q @ np.eye(Q.shape[0])[:, -1]
                         - self.nu.nu)) > 1e-12:
            raise ValueError("last column of Q must be nu")

    def y_of_xi(self, xi):
        """Map strip coordinates to the fast variable."""
        xi = np.asarray(xi, dtype=float)
        return self.y0_eps + xi @ self.Q.T

    def bottom_trace(self, s):
        """Boundary datum along the bottom of the strip at tangential
        coordinates ``s`` of shape (..., n-1)."""
        s = np.asarray(s, dtype=float)
        xi = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
        return np.asarray(self.g(self.y_of_xi(xi)), dtype=float)


@dataclass
class OscillationProfile:
    """Oscillation of the corrector over the central window by height."""
    heights: list
    W: list
    fitted_exponent: float
    gamma_est: float


@dataclass
class CorrectorSolution:
    """The final strip solve; ``alpha`` is its window mean at t* = 3T/4."""
    field: fdsolver.GridField
    profile: OscillationProfile
    alpha: float
    truncation_bound: float
    tol: float


def build_strip(x0, nu, epsilon, T, L, h, data, op):
    """Construct the truncated corrector problem.

    ``nu`` is the inward normal (a vector or Direction); ``data`` is a
    SourceAndBoundaryData, whose g(x, y) is frozen at x = x0 and whose
    sup|g| bounds the ray limits.  T and L are strip height and width
    in y-units; L < 2T is refused because the lateral truncation bound
    is meaningless there.
    """
    x0 = np.asarray(x0, dtype=float)
    if isinstance(nu, Direction):
        d = nu
    else:
        d = classify_direction(nu)
    if L < 2 * T:
        raise ValueError(f"strip width L = {L} < 2T = {2 * T}: "
                         "truncation bound meaningless")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    T = round(T / h) * h
    L = round(L / (2 * h)) * 2 * h
    y0 = x0 / epsilon
    Q = rotation_frame(d.nu)
    return HalfspaceCorrectorProblem(
        nu=d, y0_eps=y0, Q=Q,
        T=float(T), L=float(L), h=float(h),
        g=lambda y: np.asarray(data.g(np.broadcast_to(x0, np.shape(y)), y),
                               dtype=float),
        op=op, g_sup=data.g_sup(x0))


def _strip_problem(p):
    """The strip as one discrete problem, with the mask of its top-face
    ring nodes.

    Every ring node carries the bottom trace at its foot (bottom and
    lateral faces share it); the caller sets the top-face values before
    each solve.  A ``factor_reuse`` scope holds the problem under
    (operator, frame, T, L, h), the frame None when the rotated operator
    is the operator itself (Pucci, a multiple of I), and a later strip
    with that key resets its ring values, provided it would discretize
    to the same members: a linear strip only when its coefficients at
    the held interior nodes all equal the held problem's one constant
    matrix (a Pucci strip samples none).  A rotated Bellman family is
    never held.
    """
    n = p.Q.shape[0]
    op = p.op.rotated(p.Q)
    linear = op.kind == "linear"
    # a rotated linear operator is a new object, named by its frame
    key = (p.op, None if op is p.op else p.Q.tobytes(), p.T, p.L, p.h) \
        if op is p.op or linear else None

    def build():
        lo = np.array([-p.L / 2.0] * (n - 1) + [0.0])
        hi = np.array([p.L / 2.0] * (n - 1) + [p.T])
        dom = DomainSpec.rectangle(lo, hi)
        prob = discretize(op, dom, p.h, stencil_order=2, y_of_x=p.y_of_xi)
        grid = prob.grid
        ring = grid.mask == fdsolver.BOUNDARY
        coords = grid.coords()
        top = ring & (coords[..., -1] >= p.T - p.h / 2.0)
        feet = np.asarray(dom.project(coords[ring]), dtype=float)[..., :-1]
        # the interior nodes discretize sampled, and their first sample
        xi = coords[grid.mask == fdsolver.INTERIOR] if linear else None
        a0 = op.coefficients(p.y_of_xi(xi[:1]))[0] if linear else None
        return prob, top, ring, feet, xi, a0

    def fits(held):
        xi, a0 = held[4:]
        return not linear or \
            bool(np.all(op.coefficients(p.y_of_xi(xi)) == a0))

    prob, top, ring, feet, _, _ = fdsolver.scoped_problem(key, build, fits)
    prob.grid.values[ring] = p.bottom_trace(feet)
    return prob, top


def _window_readout(p, grid, heights):
    """Mean and oscillation of the field over the central window
    |xi'| <= L/4, on the grid row nearest each height."""
    n = grid.dim
    sel = grid.mask != fdsolver.EXTERIOR
    for i in range(n - 1):
        s = grid.origin[i] + grid.h * np.arange(grid.shape[i])
        sel = sel & (np.abs(s) <= p.L / 4 + 1e-12).reshape(
            [-1 if j == i else 1 for j in range(n)])
    means, W = [], []
    for t in heights:
        k = int(round((t - grid.origin[-1]) / grid.h))
        k = min(max(k, 0), grid.shape[-1] - 1)
        vals = grid.values[..., k][sel[..., k]]
        means.append(float(vals.mean()) if vals.size else math.nan)
        W.append(float(vals.max() - vals.min()) if vals.size else 0.0)
    return means, W


def _tangential_traces(p, s):
    """The bottom trace on the tangential grid s^(n-1), one line along
    the last tangential axis at a time (keeps a 3-d sweep small)."""
    n = p.Q.shape[0]
    return [p.bottom_trace(np.column_stack(
        [np.broadcast_to(head, (s.size, n - 2)), s]))
        for head in itertools.product(s, repeat=n - 2)]


def trace_oscillation(p):
    """Oscillation of the bottom trace over a long tangential patch
    (four strip widths, at least 64, along every tangential axis).

    By the maximum principle the true half-space solution stays within
    [min, max] of the full bottom trace, so this bounds the pointwise
    error of the constant-in-height lateral extension.
    """
    span = max(4.0 * p.L, 64.0)
    s = np.arange(-span / 2, span / 2 + p.h / 2, p.h)
    lines = _tangential_traces(p, s)
    return float(max(v.max() for v in lines) - min(v.min() for v in lines))


def solve_corrector(p, tol=1e-8):
    """Solve the strip problem and measure the oscillation profile.

    The strip is solved twice on one discrete problem (see
    ``_strip_problem``): the top Dirichlet value starts as the mean of
    the bottom trace and is refined once from a first ray-limit
    readout; the two solves differ only in the top-face values.  The
    second starts from the first's field; under a nonlinear operator,
    plus the first's linear response psi to the top value times the
    change in that value.

    Returns a CorrectorSolution.
    """
    prob, top = _strip_problem(p)
    s = np.arange(-p.L / 2, p.L / 2 + p.h / 2, p.h)
    top0 = float(np.mean(np.concatenate(_tangential_traces(p, s))))
    heights = [p.T * k / 8.0 for k in range(1, 9)]  # heights[5] = t*
    prob.grid.values[top] = top0
    # a linear strip's second pass is one back-solve of the shared LU,
    # so only a nonlinear strip asks for its response psi
    grid, _, *psi = solve_dirichlet(prob, tol=tol,
                                    response=None if prob.linear else top)
    means, W = _window_readout(p, grid, heights)
    if abs(means[5] - top0) > 1e-12:
        prob.grid.values[top] = means[5]
        start = grid
        if psi:
            start = grid.copy()
            start.values += (means[5] - top0) * psi[0].values
        grid, _ = solve_dirichlet(prob, tol=tol, start=start)
        means, W = _window_readout(p, grid, heights)
    pos = [(t, w) for t, w in zip(heights, W) if w > 1e-13]
    if len(pos) >= 2:
        slope = float(np.polyfit(np.log([t for t, _ in pos]),
                                 np.log([w for _, w in pos]), 1)[0])
    else:
        slope = 0.0
    ratios = [W[2 * k - 1] / W[k - 1] for k in range(1, 5)
              if W[k - 1] > 1e-13]
    gamma = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-16))))) \
        if ratios else 0.0
    profile = OscillationProfile(heights=heights, W=W,
                                 fitted_exponent=slope, gamma_est=gamma)
    factor = strip_truncation_factor(
        n=p.Q.shape[0], lam=p.op.lam, Lam=p.op.Lam, L=p.L, T=p.T,
        window_halfwidth=p.L / 4.0, t_star=0.75 * p.T)
    return CorrectorSolution(
        field=grid, profile=profile, alpha=means[5],
        truncation_bound=trace_oscillation(p) * factor, tol=tol)


def ray_limit(p, sol=None, tol=1e-8):
    """Ray-limit readout alpha_eps with error bar and ray cross-check.

    alpha = window average at t* = 3T/4; err = W_{t*} + lateral
    truncation bound + solver tol.  Three rays with positive normal
    component, drawn from a generator seeded 0 (the same three for
    every strip), re-read the field at height t*; a spread beyond err
    flags the estimate (strip too short), it is not silent.
    """
    if sol is None:
        sol = solve_corrector(p, tol=tol)
    grid = sol.field
    t_star = 0.75 * p.T
    alpha = sol.alpha
    W_star = sol.profile.W[5]
    err = W_star + sol.truncation_bound + sol.tol
    rng = np.random.default_rng(0)
    n = grid.dim
    readings = []
    for _ in range(3):
        start = rng.uniform(-p.L / 8, p.L / 8, size=n - 1)
        ang = rng.uniform(math.pi / 4, 3 * math.pi / 4)
        d = np.zeros(n)
        d[0] = math.cos(ang)
        d[-1] = math.sin(ang)
        pt = np.concatenate([start, [0.0]]) + d * (t_star / d[-1])
        readings.append(float(grid.interpolate(pt)))
    spread = max(abs(r - alpha) for r in readings)
    flagged = bool(spread > err + 1e-12)
    record = {
        "alpha": float(alpha), "err": float(err), "W_readout": W_star,
        "truncation_bound": sol.truncation_bound,
        "ray_readings": readings, "ray_spread": float(spread),
        "flagged": flagged, "t_star": t_star,
    }
    return alpha, err, record


@dataclass
class GbarEstimate:
    """One-sided effective boundary data from a list of epsilons."""
    x0: np.ndarray
    nu: Direction
    per_eps: list
    gbar_star: float
    gbar_lower: float
    equal: bool
    gbar: Optional[float]
    equality_tol: float
    flagged: list = field(default_factory=list)

    def to_record(self):
        return {
            "x0": [float(c) for c in self.x0],
            "nu": self.nu.to_record(),
            "per_eps": self.per_eps,
            "gbar_star": self.gbar_star,
            "gbar_lower": self.gbar_lower,
            "equal": self.equal,
            "gbar": self.gbar,
            "equality_tol": self.equality_tol,
            "flagged": self.flagged,
        }


def estimate_gbar(x0, nu, eps_list, T, L, h, data, op, tol=1e-8):
    """Run ray limits over an epsilon list and compare the extremes.

    gbar_star = max over eps of (alpha + err); gbar_lower = min of
    (alpha - err); the sides are declared equal iff the alpha spread is
    <= 2 max(err) + equality_tol with equality_tol = max(err), making the
    total band 3x the combined error bar.  When equal, gbar = mean alpha.
    Raises SolveError if a ray limit leaves [-sup|g|, sup|g|].
    """
    if len(eps_list) < 2:
        raise ValueError("need at least two epsilon values")
    recs = []
    flagged = []
    with fdsolver.factor_reuse():
        for eps in sorted(eps_list):
            p = build_strip(x0, nu, eps, T, L, h, data, op)
            alpha, err, rec = ray_limit(p, tol=tol)
            if abs(alpha) > p.g_sup + 10 * tol + 1e-9:
                raise fdsolver.SolveError(f"|alpha| = {abs(alpha):g} "
                                          f"exceeds sup|g| = {p.g_sup:g}")
            rec["eps"] = float(eps)
            recs.append(rec)
            if rec["flagged"]:
                flagged.append(float(eps))
    alphas = [r["alpha"] for r in recs]
    errs = [r["err"] for r in recs]
    spread = max(alphas) - min(alphas)
    equality_tol = max(errs)
    equal = bool(spread <= 3 * equality_tol)
    est = GbarEstimate(
        x0=np.asarray(x0, float),
        nu=nu if isinstance(nu, Direction) else classify_direction(nu),
        per_eps=recs,
        gbar_star=float(max(a + e for a, e in zip(alphas, errs))),
        gbar_lower=float(min(a - e for a, e in zip(alphas, errs))),
        equal=equal,
        gbar=float(np.mean(alphas)) if equal else None,
        equality_tol=float(equality_tol),
        flagged=flagged)
    return est

