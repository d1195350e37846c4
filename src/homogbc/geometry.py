"""Directions, equidistribution counts, D_delta membership, and domains.

A unit vector is "rational" when it is proportional to an integer vector
(detected by continued fractions of component ratios at finite precision),
"irrational" otherwise.  Irrational normals make the trace of periodic
boundary data on the hyperplane equidistribute modulo the period lattice,
which is what the equidistribution ratio quantifies.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Direction", "DomainSpec", "classify_direction", "in_D_delta",
    "equidist_ratio", "iddc_audit",
]

RATIONAL = "rational"
IRRATIONAL = "irrational"


@dataclass(frozen=True)
class Direction:
    """A unit vector with rationality classification.

    ``m`` is the minimal integer representative (gcd 1) when rational,
    None otherwise.
    """
    nu: np.ndarray
    kind: str
    m: Optional[np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=float))
        if abs(np.linalg.norm(self.nu) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")

    @property
    def is_rational(self):
        return self.kind == RATIONAL

    @property
    def dim(self):
        return self.nu.size

    def to_record(self):
        rec = {"nu": [float(c) for c in self.nu], "class": self.kind}
        rec["m"] = None if self.m is None else [int(c) for c in self.m]
        return rec


# continued-fraction remainder cutoff and final alignment tolerance of
# classify_direction
CF_TOL = 1e-9


def _cf_ratio(r, max_denominator):
    """Best rational p/q for r by continued fractions, stopping when the
    remainder drops below CF_TOL or the denominator exceeds the cap.

    Returns (p, q) or None.  Stopping on the CF *remainder* (rather than
    searching all denominators under the cap) is what keeps e.g. sqrt(2)
    irrational at large caps: its remainders never shrink, only its
    denominators grow.
    """
    p_prev, q_prev = 1, 0
    p, q = math.floor(r), 1
    x = r - math.floor(r)
    for _ in range(64):
        if abs(q) > max_denominator:
            return None
        if x < CF_TOL:
            return p, q
        x = 1.0 / x
        a = math.floor(x)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        x -= a
    return None


def classify_direction(v, max_denominator=10 ** 4):
    """Classify a vector as a Rational or Irrational direction.

    Parameters
    ----------
    v : array_like
        Nonzero vector; only its direction matters (scale invariant).
    max_denominator : int
        Cap on max |m_i| of the integer representative.

    Returns
    -------
    Direction
    """
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot classify the zero vector")
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    nu = v / norm
    pivot = int(np.argmax(np.abs(nu)))
    num, den = [], []
    for i in range(nu.size):
        if i == pivot:
            num.append(1)
            den.append(1)
            continue
        r = nu[i] / nu[pivot]
        pq = _cf_ratio(abs(r), max_denominator)
        if pq is None:
            return Direction(nu, IRRATIONAL, None)
        p, q = pq
        num.append(int(math.copysign(p, r)) if p else 0)
        den.append(max(q, 1))
    lcm = math.lcm(*den)
    if lcm > max_denominator:
        return Direction(nu, IRRATIONAL, None)
    m = np.array([n * (lcm // d) for n, d in zip(num, den)], dtype=np.int64)
    m[pivot] = lcm
    if nu[pivot] < 0:
        m = -m
    g = math.gcd(*[int(abs(c)) for c in m])
    m //= max(g, 1)
    if np.max(np.abs(m)) > max_denominator:
        return Direction(nu, IRRATIONAL, None)
    unit_m = m / np.linalg.norm(m)
    if np.linalg.norm(unit_m - nu) > CF_TOL:
        return Direction(nu, IRRATIONAL, None)
    return Direction(nu, RATIONAL, m)


def in_D_delta(d, delta):
    """Membership of a direction in D_delta.

    Rational directions are members iff max |m_i| > 1/delta; irrational
    directions always are, since the condition is vacuous for them.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return not d.is_rational or bool(np.max(np.abs(d.m)) > 1.0 / delta)


def equidist_ratio(d, delta, t0, R):
    """Count lattice points whose graph height falls in a frac window.

    The hyperplane {y . nu = 0} is the graph y_p = h(y') with
    h(y') = -sum_i nu_i y'_i / nu_p over the non-pivot coordinates, for
    the pivot p = argmax |nu_i| (so |nu_p| >= 1/sqrt(n)).  Over m in the
    side-R cube of Z^{n-1} centered at 0, counts
    A = #{m : frac(h(m)) in [t0, t0+delta) mod 1} against the total N.

    Returns
    -------
    dict with keys A, N, ratio.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    pivot = int(np.argmax(np.abs(d.nu)))
    slope = -np.delete(d.nu, pivot) / d.nu[pivot]
    axis = np.arange(math.ceil(-R / 2.0), math.floor(R / 2.0) + 1,
                     dtype=np.int64)
    grids = np.meshgrid(*[axis] * slope.size, indexing="ij")
    h = np.zeros(grids[0].shape)
    for g, s in zip(grids, slope):
        h += s * g
    if delta >= 1.0:
        A = h.size
    else:
        fr = np.mod(h - t0, 1.0)
        A = int(np.count_nonzero(fr < delta))
    return {"A": int(A), "N": int(h.size), "ratio": A / h.size}


# ---------------------------------------------------------------------------
# Domains


@dataclass
class DomainSpec:
    """An implicit C^2 domain with signed distance, normals, and a
    boundary arclength parameterization.

    kind: disk(center, radius) | half_disk_flat_bottom(center, radius)
          | rectangle(lo, hi) | implicit(phi samples on a bbox grid)
    """
    kind: str
    params: dict = field(default_factory=dict)

    # -- constructors -------------------------------------------------
    @staticmethod
    def disk(center, radius):
        return DomainSpec("disk", {"center": np.asarray(center, float),
                                   "radius": float(radius)})

    @staticmethod
    def half_disk_flat_bottom(center=(0.0, 1.0), radius=1.0):
        return DomainSpec("half_disk_flat_bottom",
                          {"center": np.asarray(center, float),
                           "radius": float(radius)})

    @staticmethod
    def rectangle(lo, hi):
        return DomainSpec("rectangle", {"lo": np.asarray(lo, float),
                                        "hi": np.asarray(hi, float)})

    @staticmethod
    def implicit(phi_values, lo, hi):
        """Level-set domain {phi < 0} from samples on a uniform grid."""
        phi = np.asarray(phi_values, dtype=float)
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        from scipy.interpolate import RegularGridInterpolator
        axes = [np.linspace(lo[i], hi[i], phi.shape[i])
                for i in range(phi.ndim)]
        interp = RegularGridInterpolator(axes, phi, bounds_error=False,
                                         fill_value=np.max(phi))
        return DomainSpec("implicit", {"phi": phi, "lo": lo, "hi": hi,
                                       "interp": interp})

    # -- geometry ------------------------------------------------------
    @property
    def dim(self):
        if self.kind in ("rectangle", "implicit"):
            return self.params["lo"].size
        return self.params["center"].size

    @property
    def bounding_box(self):
        if self.kind == "disk":
            c, r = self.params["center"], self.params["radius"]
            return c - r, c + r
        if self.kind == "half_disk_flat_bottom":
            c, r = self.params["center"], self.params["radius"]
            lo = c - r
            lo[-1] = c[-1]
            return lo, c + r
        return self.params["lo"], self.params["hi"]

    @property
    def diameter(self):
        lo, hi = self.bounding_box
        return float(np.linalg.norm(hi - lo))

    @property
    def centroid(self):
        if self.kind == "disk":
            return self.params["center"].copy()
        if self.kind == "half_disk_flat_bottom":
            c, r = self.params["center"], self.params["radius"]
            out = c.copy()
            out[-1] += 4.0 * r / (3.0 * math.pi)
            return out
        lo, hi = self.bounding_box
        return 0.5 * (lo + hi)

    def sdf(self, x):
        """Signed distance (negative inside), vectorized over (..., n)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            c, r = self.params["center"], self.params["radius"]
            return np.linalg.norm(x - c, axis=-1) - r
        if self.kind == "half_disk_flat_bottom":
            c, r = self.params["center"], self.params["radius"]
            ball = np.linalg.norm(x - c, axis=-1) - r
            flat = c[-1] - x[..., -1]
            return np.maximum(ball, flat)
        if self.kind == "rectangle":
            lo, hi = self.params["lo"], self.params["hi"]
            faces = np.maximum(lo - x, x - hi)
            return np.max(faces, axis=-1)
        return self.params["interp"](x)

    def project(self, x):
        """Nearest boundary point (first order for implicit domains)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            c, r = self.params["center"], self.params["radius"]
            v = x - c
            nrm = np.linalg.norm(v, axis=-1, keepdims=True)
            nrm = np.where(nrm < 1e-14, 1.0, nrm)
            return c + r * v / nrm
        if self.kind == "half_disk_flat_bottom":
            c, r = self.params["center"], self.params["radius"]
            v = x - c
            nrm = np.linalg.norm(v, axis=-1, keepdims=True)
            nrm = np.where(nrm < 1e-14, 1.0, nrm)
            arc = c + r * v / nrm
            arc[..., -1] = np.maximum(arc[..., -1], c[-1])
            flat = x.copy()
            flat[..., -1] = c[-1]
            flat[..., 0] = np.clip(flat[..., 0], c[0] - r, c[0] + r)
            d_arc = np.linalg.norm(arc - x, axis=-1, keepdims=True)
            d_flat = np.linalg.norm(flat - x, axis=-1, keepdims=True)
            return np.where(d_arc <= d_flat, arc, flat)
        if self.kind == "rectangle":
            lo, hi = self.params["lo"], self.params["hi"]
            y = np.clip(x, lo, hi)
            inside = self.sdf(y) < 0
            if np.any(inside):
                y = np.atleast_2d(y.copy())
                flat_in = np.atleast_1d(inside)
                for j in np.nonzero(flat_in.ravel())[0]:
                    p = y.reshape(-1, lo.size)[j]
                    gaps_lo = p - lo
                    gaps_hi = hi - p
                    if gaps_lo.min() <= gaps_hi.min():
                        i = int(np.argmin(gaps_lo))
                        p[i] = lo[i]
                    else:
                        i = int(np.argmin(gaps_hi))
                        p[i] = hi[i]
                y = y.reshape(np.shape(np.clip(x, lo, hi)))
            return y
        # implicit: damped Newton on the level set
        y = np.array(x, dtype=float, copy=True)
        for _ in range(30):
            phi = np.atleast_1d(self.sdf(y))
            grad = self._sdf_grad(y)
            g2 = np.sum(grad * grad, axis=-1)
            g2 = np.where(g2 < 1e-14, 1.0, g2)
            y = y - (phi / g2)[..., None] * grad
            if np.max(np.abs(phi)) < 1e-12:
                break
        return y

    def _sdf_grad(self, x):
        step = 1e-6  # central-difference step
        x = np.asarray(x, dtype=float)
        grad = np.zeros_like(x)
        for i in range(x.shape[-1]):
            e = np.zeros(x.shape[-1])
            e[i] = step
            grad[..., i] = (self.sdf(x + e) - self.sdf(x - e)) / (2 * step)
        return grad

    def normal(self, x):
        """Outward unit normal at (or near) a boundary point: closed form
        on a disk, the normalized central-difference gradient of the
        signed distance elsewhere."""
        x = np.asarray(x, dtype=float)
        if self.kind == "disk":
            c = self.params["center"]
            v = x - c
            return v / np.linalg.norm(v, axis=-1, keepdims=True)
        grad = self._sdf_grad(x)
        nrm = np.linalg.norm(grad, axis=-1, keepdims=True)
        nrm = np.where(nrm < 1e-14, 1.0, nrm)
        return grad / nrm

    def boundary_points(self, k, offset=0.0):
        """k points spaced uniformly in arclength along the boundary.

        Returns (points, normals, arclengths, total_length).  ``offset``
        shifts the start by a fraction of one spacing (useful to avoid
        landing exactly on axis-aligned normals).
        """
        if self.dim != 2:
            raise NotImplementedError("boundary parameterization is 2-d only")
        if self.kind == "disk":
            c, r = self.params["center"], self.params["radius"]
            total = 2 * math.pi * r
            s = (np.arange(k) + offset) / k * total
            th = s / r
            pts = c + r * np.stack([np.cos(th), np.sin(th)], axis=-1)
            nrm = np.stack([np.cos(th), np.sin(th)], axis=-1)
            return pts, nrm, s, total
        if self.kind == "half_disk_flat_bottom":
            c, r = self.params["center"], self.params["radius"]
            total = math.pi * r + 2 * r
            s = (np.arange(k) + offset) / k * total
            pts = np.zeros((k, 2))
            nrm = np.zeros((k, 2))
            on_arc = s < math.pi * r
            th = s[on_arc] / r
            pts[on_arc] = c + r * np.stack([np.cos(th), np.sin(th)], axis=-1)
            nrm[on_arc] = np.stack([np.cos(th), np.sin(th)], axis=-1)
            sf = s[~on_arc] - math.pi * r
            pts[~on_arc, 0] = c[0] - r + sf
            pts[~on_arc, 1] = c[1]
            nrm[~on_arc, 1] = -1.0
            return pts, nrm, s, total
        if self.kind == "rectangle":
            lo, hi = self.params["lo"], self.params["hi"]
            w, hgt = hi[0] - lo[0], hi[1] - lo[1]
            total = 2 * (w + hgt)
            s = (np.arange(k) + offset) / k * total
            pts = np.zeros((k, 2))
            nrm = np.zeros((k, 2))
            for j, sj in enumerate(s):
                if sj < w:
                    pts[j] = (lo[0] + sj, lo[1]); nrm[j] = (0, -1)
                elif sj < w + hgt:
                    pts[j] = (hi[0], lo[1] + sj - w); nrm[j] = (1, 0)
                elif sj < 2 * w + hgt:
                    pts[j] = (hi[0] - (sj - w - hgt), hi[1]); nrm[j] = (0, 1)
                else:
                    pts[j] = (lo[0], hi[1] - (sj - 2 * w - hgt)); nrm[j] = (-1, 0)
            return pts, nrm, s, total
        raise NotImplementedError(
            "implicit domains have no closed boundary parameterization")

    def contains_scaled(self, x, scale):
        """Membership in the concentric scaled copy of the domain."""
        c = self.centroid
        y = c + (np.asarray(x, float) - c) / scale
        return self.sdf(y) < 0


# iddc_audit samples AUDIT_SAMPLES boundary normals and classifies each
# with denominators up to AUDIT_MAX_DENOMINATOR.  Its verdict: no run of
# identical rational normals longer than AUDIT_MAX_RUN samples, and at
# most AUDIT_MAX_FRACTION rational
AUDIT_SAMPLES = 360
AUDIT_MAX_DENOMINATOR = 100
AUDIT_MAX_RUN = 2
AUDIT_MAX_FRACTION = 0.2


def iddc_audit(dom):
    """Sample boundary normals and look for rational facets.

    A sampling heuristic: it can refute the irrational-direction-dense
    condition (flat facets show up as runs of identical rational
    normals) or report plausibility, never prove it.

    Returns a dict with the rational fraction, the rational intervals
    found (start/end arclength and shared m), per-point degeneracies,
    and the verdict.
    """
    samples = AUDIT_SAMPLES
    pts, normals, s, total = dom.boundary_points(samples)
    keys = []
    degenerate = []
    for j in range(samples):
        n = normals[j]
        if np.linalg.norm(n) < 1e-9:
            degenerate.append(j)
            keys.append(None)
            continue
        d = classify_direction(n, max_denominator=AUDIT_MAX_DENOMINATOR)
        if d.is_rational:
            m = d.m
            lead = m[np.nonzero(m)[0][0]]
            if lead < 0:
                m = -m
            keys.append(tuple(int(c) for c in m))
        else:
            keys.append(None)
    rational = [k is not None for k in keys]
    frac = sum(rational) / samples

    # maximal runs of identical rational normals, wrap-aware
    runs = []
    j = 0
    while j < samples:
        if keys[j] is None:
            j += 1
            continue
        start = j
        while j + 1 < samples and keys[j + 1] == keys[start]:
            j += 1
        runs.append([start, j, keys[start]])
        j += 1
    if len(runs) >= 2 and runs[0][2] == runs[-1][2] \
            and runs[0][0] == 0 and runs[-1][1] == samples - 1:
        runs[0][0] = runs[-1][0] - samples
        runs.pop()
    intervals = [{
        "m": list(r[2]),
        "first_index": r[0], "last_index": r[1],
        "n_samples": r[1] - r[0] + 1,
        "arclength": (r[1] - r[0]) * total / samples,
    } for r in runs]
    longest = max((iv["n_samples"] for iv in intervals), default=0)
    verdict = longest <= AUDIT_MAX_RUN and frac <= AUDIT_MAX_FRACTION \
        and not degenerate
    return {
        "samples": samples,
        "rational_fraction": frac,
        "intervals": intervals,
        "degenerate_points": degenerate,
        "iddc_plausible": bool(verdict),
    }
