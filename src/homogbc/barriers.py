"""Explicit super/subsolutions for the Pucci maximal operator.

Three families with closed-form Hessians:

* ``radial_interior``: h(x) = |x - c|^{-alpha} with
  alpha = (n-1) lam/Lam - 1, for which M+(D^2 h) = 0 exactly; requires
  the stability condition (n-1) lam > Lam.
* ``radial_exterior``: h(x) = r0^{-alpha} - |x - c|^{-alpha} with
  alpha = (Lam/lam)(n-1) - 1, a nonnegative M+ supersolution outside
  the ball of radius r0.
* ``quad_strip``: h(x) = A (|x'/s|^2 + c (1 - (1 - x_n/s)^2)) with
  c = (n-1) Lam/lam, for which M+(D^2 h) = 0 exactly; with amplitude
  A = 4 the barrier dominates 1 on the lateral and top faces of the
  box Q = (-s/2, s/2)^{n-1} x (0, s).

The radial Hessian of f(r) has one radial eigenvalue f'' and (n-1)
tangential eigenvalues f'/r; for r^{-alpha} these are
alpha(alpha+1) r^{-alpha-2} and -alpha r^{-alpha-2}.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BarrierSpec", "StabilityError", "DegenerateBarrier",
    "exponent_interior", "exponent_exterior",
    "barrier_value", "barrier_hessian", "verify_supersolution",
    "finite_boundary_stability_bound", "strip_truncation_factor",
]


class StabilityError(ValueError):
    """The stability condition (n-1) lam > Lam fails."""


class DegenerateBarrier(ValueError):
    """Exterior exponent degenerates (logarithmic case)."""


def exponent_interior(n, lam, Lam):
    """alpha = (n-1) lam/Lam - 1; positive under (n-1) lam > Lam."""
    alpha = (n - 1) * lam / Lam - 1.0
    if alpha <= 0:
        raise StabilityError(
            f"(n-1)*lam = {(n - 1) * lam:g} must exceed Lam = {Lam:g}")
    return alpha


def exponent_exterior(n, lam, Lam):
    """alpha = (Lam/lam)(n-1) - 1; zero means the logarithmic case."""
    alpha = (Lam / lam) * (n - 1) - 1.0
    if alpha <= 0:
        raise DegenerateBarrier(
            f"(Lam/lam)*(n-1) - 1 = {alpha:g} <= 0: logarithmic case")
    return alpha


@dataclass(frozen=True)
class BarrierSpec:
    """A closed-form barrier with its elliptic constants.

    kinds and params:
      radial_interior: alpha, center
      radial_exterior: alpha, center, r0
      quad_strip: s (scale, e.g. eps^{p-1}), c (coefficient), amplitude
    """
    kind: str
    n: int
    lam: float
    Lam: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "quad_strip":
            c = self.params["c"]
            need = (self.n - 1) * self.Lam / self.lam
            if c < need - 1e-12:
                raise ValueError(
                    f"quad_strip needs c >= (n-1)Lam/lam = {need:g}")
        elif self.kind == "radial_interior":
            if self.params["alpha"] <= 0:
                raise StabilityError("radial_interior needs alpha > 0")
        elif self.kind != "radial_exterior":
            raise ValueError(f"unknown barrier kind {self.kind!r}")

    @staticmethod
    def radial_interior(n, lam, Lam):
        return BarrierSpec("radial_interior", n, lam, Lam,
                           {"alpha": exponent_interior(n, lam, Lam),
                            "center": np.zeros(n)})

    @staticmethod
    def radial_exterior(n, lam, Lam, r0):
        return BarrierSpec("radial_exterior", n, lam, Lam,
                           {"alpha": exponent_exterior(n, lam, Lam),
                            "center": np.zeros(n), "r0": float(r0)})

    @staticmethod
    def quad_strip(n, lam, Lam, s=1.0, amplitude=1.0):
        return BarrierSpec("quad_strip", n, lam, Lam,
                           {"s": float(s), "c": (n - 1) * Lam / lam,
                            "amplitude": float(amplitude)})


def _radial_parts(spec, x):
    x = np.asarray(x, dtype=float)
    v = x - spec.params["center"]
    r = float(np.linalg.norm(v))
    if r < 1e-14:
        raise ValueError("barrier is singular at its center")
    return v, r


def barrier_value(spec, x):
    """Barrier value at a point."""
    if spec.kind == "radial_interior":
        _, r = _radial_parts(spec, x)
        return r ** (-spec.params["alpha"])
    if spec.kind == "radial_exterior":
        _, r = _radial_parts(spec, x)
        a = spec.params["alpha"]
        return spec.params["r0"] ** (-a) - r ** (-a)
    s = spec.params["s"]
    c = spec.params["c"]
    A = spec.params["amplitude"]
    x = np.asarray(x, dtype=float)
    xp = x[:-1] / s
    t = x[-1] / s
    return A * (float(xp @ xp) + c * (1.0 - (1.0 - t) ** 2))


def barrier_hessian(spec, x):
    """Exact Hessian at a point (closed form)."""
    n = spec.n
    if spec.kind == "quad_strip":
        s = spec.params["s"]
        c = spec.params["c"]
        A = spec.params["amplitude"]
        H = np.eye(n) * (2.0 * A / s ** 2)
        H[-1, -1] = -2.0 * A * c / s ** 2
        return H
    v, r = _radial_parts(spec, x)
    a = spec.params["alpha"]
    u = v / r
    P = np.outer(u, u)
    # f(r) = r^{-a}: f'' = a(a+1) r^{-a-2}, f'/r = -a r^{-a-2}
    rad = a * (a + 1.0) * r ** (-a - 2.0)
    tan = -a * r ** (-a - 2.0)
    H = rad * P + tan * (np.eye(n) - P)
    if spec.kind == "radial_exterior":
        H = -H
    return H


# F(D^2 barrier) at or below this counts as a supersolution
SUPERSOLUTION_TOL = 1e-9


def verify_supersolution(spec, op, n_samples=1000, seed=0):
    """Check F(D^2 barrier) <= 0 at sample points.

    For quad_strip also checks boundary domination: amplitude-normalized
    values >= 1 on the lateral and top faces of the scaled box.

    Returns a report dict; sign violations carry the worst point.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    points = []
    if spec.kind == "quad_strip":
        s = spec.params["s"]
        for _ in range(n_samples):
            xp = rng.uniform(-s / 2, s / 2, size=n - 1)
            t = rng.uniform(0, s)
            points.append(np.concatenate([xp, [t]]))
    else:
        center = spec.params["center"]
        r_lo = spec.params.get("r0", 0.1)
        for _ in range(n_samples):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            r = rng.uniform(r_lo, 4.0 * max(r_lo, 1.0))
            points.append(center + r * u)
    worst = -math.inf
    worst_pt = None
    for x in points:
        val = op.evaluate(barrier_hessian(spec, x), y=x)
        if val > worst:
            worst = val
            worst_pt = np.asarray(x, float)
    report = {
        "kind": spec.kind,
        "worst_value": float(worst),
        "worst_point": [float(c) for c in worst_pt],
        "is_supersolution": bool(worst <= SUPERSOLUTION_TOL),
        "tol": SUPERSOLUTION_TOL,
        "n_points": len(points),
    }
    if spec.kind == "quad_strip":
        s = spec.params["s"]
        c = spec.params["c"]
        A = spec.params["amplitude"]
        # lateral faces: |x'_j| = s/2 somewhere, so |x'/s|^2 >= 1/4 and the
        # c-term is >= 0 on 0 <= x_n <= s; top face: x_n = s gives c >= 1.
        lateral_min = A * 0.25
        top_min = A * c
        report["boundary_domination"] = bool(lateral_min >= 1.0 - 1e-12
                                             and top_min >= 1.0 - 1e-12)
        report["lateral_min"] = lateral_min
        report["top_min"] = top_min
    return report


def finite_boundary_stability_bound(points, r_m, K_points, n, lam, Lam):
    """Explicit decay bound sum_i r_m^alpha / dist(z_i, K)^alpha.

    ``points`` are the boundary bump centers z_i; ``K_points`` a sampled
    compact set (array of points); alpha is the interior exponent, so
    StabilityError propagates when (n-1) lam <= Lam.
    """
    alpha = exponent_interior(n, lam, Lam)
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    K = np.atleast_2d(np.asarray(K_points, dtype=float))
    total = 0.0
    for z in Z:
        dist = float(np.min(np.linalg.norm(K - z, axis=-1)))
        if dist <= 0:
            raise ValueError("bump center touches K")
        total += (r_m / dist) ** alpha if r_m > 0 else 0.0
    return total


def strip_truncation_factor(n, lam, Lam, L, T, window_halfwidth, t_star):
    """Influence factor of lateral strip data on a readout window.

    Uses the anisotropic quadratic barrier
    B(xi) = (2 xi'/L)^2-sum + c (1 - (1 - xi_n/T)^2),
    c = 4 (n-1) (Lam/lam) (T/L)^2, which satisfies M+(D^2 B) <= 0, is
    >= 1 on the lateral faces |xi'_j| = L/2, and vanishes on the bottom.
    The returned value is max B over the window at height t_star; the
    lateral data error times this factor bounds its influence there.
    """
    if L < 2 * T:
        raise ValueError("need L >= 2T for a meaningful bound")
    c = 4.0 * (n - 1) * (Lam / lam) * (T / L) ** 2
    lateral = (n - 1) * (2.0 * window_halfwidth / L) ** 2
    height = c * (1.0 - (1.0 - t_star / T) ** 2)
    return lateral + height
