"""Uniformly elliptic operators F(M, y) with structural validation.

Supported kinds: the Pucci extremal operators M+/M- (y-independent),
linear operators sum a_ij(y) M_ij with periodic coefficients, and finite
Bellman families (sup or inf of linear members).  All are positively
homogeneous and degenerate-elliptic monotone, which is what the monotone
finite-difference schemes downstream rely on.
"""

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expressions import compile_field
from .fdsolver import discretize_cell, solve_dirichlet

__all__ = [
    "EllipticOperatorSpec", "SourceAndBoundaryData",
    "pucci_eval", "symmetric_eigenvalues",
    "validate_operator", "effective_operator_estimate",
    "pucci_plus", "pucci_minus", "laplacian", "linear_operator",
]


def symmetric_eigenvalues(M):
    """Ascending eigenvalues of a small symmetric matrix."""
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M - M.T)) > 1e-10:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def pucci_eval(M, lam, Lam, sign="+"):
    """Pucci extremal operator value on a symmetric matrix.

    M+ = Lam * (sum of positive eigenvalues) + lam * (sum of negative
    eigenvalues); M- swaps the two weights.
    """
    if not (0 < lam <= Lam):
        raise ValueError("need 0 < lam <= Lam")
    eig = symmetric_eigenvalues(M)
    pos = eig[eig > 0].sum()
    neg = eig[eig < 0].sum()
    if sign == "+":
        return float(Lam * pos + lam * neg)
    if sign == "-":
        return float(lam * pos + Lam * neg)
    raise ValueError("sign must be '+' or '-'")


@dataclass(frozen=True)
class EllipticOperatorSpec:
    """Evaluatable F(M, y) with elliptic constants and periodicity.

    For the linear kind, ``coeff`` maps points of shape (..., n) to
    coefficient matrices of shape (..., n, n).  Bellman members are
    themselves linear specs; sup/inf is exact over the finite family.
    """
    kind: str  # pucci_plus | pucci_minus | linear | bellman
    lam: float
    Lam: float
    dim: int
    period: tuple = ()
    coeff: Optional[Callable] = None
    members: tuple = ()
    mode: str = "sup"

    def __post_init__(self):
        if not (0 < self.lam <= self.Lam):
            raise ValueError("need 0 < lambda <= Lambda")
        if self.kind == "linear" and self.coeff is None:
            raise ValueError("linear kind needs a coefficient field")
        if self.kind == "bellman":
            if not (1 <= len(self.members) <= 64):
                raise ValueError("bellman families have 1..64 members")
            if self.mode not in ("sup", "inf"):
                raise ValueError("bellman mode must be 'sup' or 'inf'")
        if not self.period:
            object.__setattr__(self, "period", (1.0,) * self.dim)

    def _probe_points(self):
        """The origin, five points on the diagonal of the period cell
        and five off it: frac(k sqrt(p_i)) along axis i, k = 1..5, with
        p_i the i-th prime (a Kronecker sequence), so that coefficients
        varying across the diagonal, as y1 - y2 does, move there too."""
        period = np.asarray(self.period)[None, :]
        primes = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])[:self.dim]
        off = np.arange(1, 6)[:, None] * np.sqrt(primes)[None, :] % 1.0
        return np.concatenate([np.zeros((1, self.dim)),
                               np.linspace(0.07, 0.93, 5)[:, None] * period,
                               off * period])

    @property
    def y_dependent(self):
        if self.kind in ("pucci_plus", "pucci_minus"):
            return False
        if self.kind == "linear":
            # constant-coefficient operators count as y-independent
            a = self.coefficients(self._probe_points())
            return bool(np.max(np.abs(a - a[0])) > 1e-12)
        return any(m.y_dependent for m in self.members)

    @functools.cached_property
    def _isotropic(self):
        """A linear kind whose coefficients are one constant multiple of
        I at the probe points, hence invariant under rotation."""
        if self.kind != "linear":
            return False
        a = np.asarray(self.coeff(self._probe_points()), dtype=float)
        return bool(np.all(a == a.flat[0] * np.eye(self.dim)))

    def coefficients(self, y):
        """Coefficient matrices a(y) for the linear kind, shape (...,n,n)."""
        if self.kind != "linear":
            raise ValueError("coefficients only defined for linear kind")
        y = np.asarray(y, dtype=float)
        a = np.asarray(self.coeff(y), dtype=float)
        want = y.shape[:-1] + (self.dim, self.dim)
        return np.broadcast_to(a, want)

    def evaluate(self, M, y=None):
        """F(M, y) for a single symmetric matrix M."""
        M = np.asarray(M, dtype=float)
        if y is None:
            y = np.zeros(self.dim)
        if self.kind == "pucci_plus":
            return pucci_eval(M, self.lam, self.Lam, "+")
        if self.kind == "pucci_minus":
            return pucci_eval(M, self.lam, self.Lam, "-")
        if self.kind == "linear":
            a = self.coefficients(np.asarray(y, float))
            return float(np.sum(a * M))
        vals = [m.evaluate(M, y) for m in self.members]
        return float(max(vals)) if self.mode == "sup" else float(min(vals))

    def rotated(self, Q):
        """The operator acting on Hessians expressed in a rotated frame.

        For F(Q Mtilde Q^T, y): Pucci operators are rotation invariant;
        linear coefficients transform as a -> Q^T a Q, except multiples
        of I, which are returned as they are (so rotating the Laplacian
        gives the same bits in every frame).
        """
        Q = np.asarray(Q, dtype=float)
        if self.kind in ("pucci_plus", "pucci_minus") or self._isotropic:
            return self
        if self.kind == "linear":
            base = self.coeff

            def rot_coeff(y, _base=base, _Q=Q):
                a = np.asarray(_base(y), dtype=float)
                return np.einsum("ki,...kl,lj->...ij", _Q, a, _Q)

            return EllipticOperatorSpec(
                "linear", self.lam, self.Lam, self.dim, self.period,
                coeff=rot_coeff)
        return EllipticOperatorSpec(
            "bellman", self.lam, self.Lam, self.dim, self.period,
            members=tuple(m.rotated(Q) for m in self.members),
            mode=self.mode)


def pucci_plus(lam, Lam, dim=2):
    return EllipticOperatorSpec("pucci_plus", lam, Lam, dim)


def pucci_minus(lam, Lam, dim=2):
    return EllipticOperatorSpec("pucci_minus", lam, Lam, dim)


def laplacian(dim=2):
    """The Laplacian as a constant-coefficient linear operator."""
    eye = np.eye(dim)

    def coeff(y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(eye, y.shape[:-1] + (dim, dim))

    return EllipticOperatorSpec("linear", 1.0, 1.0, dim, coeff=coeff)


def linear_operator(exprs, lam, Lam, dim=2, period=()):
    """Linear operator from coefficient expression strings.

    ``exprs`` maps entries like "a11", "a12" to expression strings in
    y1..yn; omitted entries default to 0 (off-diagonal) and must be
    given for the diagonal.
    """
    fns = {}
    for i in range(dim):
        for j in range(i, dim):
            key = f"a{i + 1}{j + 1}"
            if key in exprs:
                fns[(i, j)] = compile_field(exprs[key], dim, prefixes=("y",))
            elif i == j:
                raise ValueError(f"missing diagonal coefficient {key}")

    def coeff(y):
        y = np.asarray(y, dtype=float)
        a = np.zeros(y.shape[:-1] + (dim, dim))
        for (i, j), fn in fns.items():
            v = fn(y)
            a[..., i, j] = v
            a[..., j, i] = v
        return a

    return EllipticOperatorSpec("linear", lam, Lam, dim, period=tuple(period),
                                coeff=coeff)


@dataclass
class SourceAndBoundaryData:
    """Source f(x) and boundary datum g(x, y), periodic in y.

    ``g`` takes (x_points, y_points) of shape (..., n): x is the slow
    variable and y the fast one.  ``f`` takes the points x alone.
    ``period`` is the cell's side per axis; empty means the unit cell of
    the points' dimension.
    """
    g: Callable
    f: Optional[Callable] = None
    period: tuple = ()

    @staticmethod
    def from_exprs(g_expr, f_expr=None, dim=2, period=()):
        """Data from expressions: ``g`` in x1..xn (slow) and y1..yn
        (fast), ``f`` in x1..xn only (a y in it is an ExpressionError)."""
        f = None if f_expr is None else \
            compile_field(f_expr, dim, prefixes=("x",))
        period = tuple(period) if period else (1.0,) * dim
        return SourceAndBoundaryData(
            g=compile_field(g_expr, dim, prefixes=("x", "y")), f=f,
            period=period)

    def source(self, x):
        """f at the points x."""
        if self.f is None:
            return np.zeros(np.asarray(x, float).shape[:-1])
        return np.asarray(self.f(x), dtype=float)

    def g_sup(self, x0=None):
        """sup |g(x0, y)| over one period cell, sampled on 96 points per
        axis (x0 defaults to the origin; an empty period is the unit
        cell of x0's dimension, of the plane's without x0).  The samples
        are taken in slabs of the first axis of at most 96^2 points, so
        a 3-d cell never holds its 884,736 points at once."""
        period = self.period or (1.0,) * (2 if x0 is None else np.size(x0))
        axes = [np.linspace(0, p, 96, endpoint=False) for p in period]
        rows = 96 ** max(0, 3 - len(axes))
        sups = []
        for start in range(0, 96, rows):
            Y = np.stack(np.meshgrid(axes[0][start:start + rows], *axes[1:],
                                     indexing="ij"), axis=-1)
            X = np.zeros_like(Y) if x0 is None else np.broadcast_to(
                np.asarray(x0, float), Y.shape).copy()
            sups.append(np.max(np.abs(np.asarray(self.g(X, Y), dtype=float))))
        return float(np.max(sups))


def _random_spd_like(rng, dim, scale=1.0):
    B = rng.standard_normal((dim, dim))
    return scale * (B + B.T) / 2.0


def validate_operator(op, samples=200, seed=0):
    """Sampled structural checks of an operator spec.

    Checks uniform ellipticity in the trace form
    lam*tr(N) <= F(M+N,y) - F(M,y) <= Lam*tr(N) for N >= 0,
    positive homogeneity F(tM,y) = t*F(M,y), periodicity in y, and (for
    linear kinds) that coefficient eigenvalues lie in [lam, Lam].

    Returns a report dict; failures are carried, not raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = {
        "samples": samples,
        "ellipticity_violation": 0.0,
        "homogeneity_violation": 0.0,
        "periodicity_violation": 0.0,
        "coefficient_violation": 0.0,
        "failures": [],
    }
    n = op.dim
    for _ in range(samples):
        M = _random_spd_like(rng, n, 2.0)
        B = rng.standard_normal((n, n))
        N = B @ B.T  # positive semidefinite
        y = rng.uniform(0, 1, size=n) * np.asarray(op.period)
        t = rng.uniform(0.1, 10.0)
        FM = op.evaluate(M, y)
        FMN = op.evaluate(M + N, y)
        trN = float(np.trace(N))
        lo = op.lam * trN - 1e-9 * max(1.0, trN)
        hi = op.Lam * trN + 1e-9 * max(1.0, trN)
        diff = FMN - FM
        viol = max(lo - diff, diff - hi, 0.0)
        report["ellipticity_violation"] = max(
            report["ellipticity_violation"], viol)
        hom = abs(op.evaluate(t * M, y) - t * FM) / max(1.0, abs(t * FM))
        report["homogeneity_violation"] = max(
            report["homogeneity_violation"], hom)
        k = rng.integers(-3, 4, size=n)
        yk = y + k * np.asarray(op.period)
        per = abs(op.evaluate(M, yk) - FM) / max(1.0, abs(FM))
        report["periodicity_violation"] = max(
            report["periodicity_violation"], per)
        if op.kind == "linear":
            eig = symmetric_eigenvalues(op.coefficients(y))
            cv = max(op.lam - eig.min(), eig.max() - op.Lam, 0.0)
            report["coefficient_violation"] = max(
                report["coefficient_violation"], cv)
    if report["ellipticity_violation"] > 1e-8:
        report["failures"].append("ellipticity")
    if report["homogeneity_violation"] > 1e-9:
        report["failures"].append("homogeneity")
    if report["periodicity_violation"] > 1e-9:
        report["failures"].append("periodicity")
    if report["coefficient_violation"] > 1e-9:
        report["failures"].append("coefficient_range")
    report["ok"] = not report["failures"]
    return report


def effective_operator_estimate(op, M, cell_grid=64):
    """Estimate Fbar(M) from the approximate cell problem on the torus.

    Solves delta*v - F(M + D^2 v, y) = 0 with delta = 1e-3 on a periodic
    grid by Howard policy iteration (``solve_dirichlet``), to a residual
    of 1e-6 relative to that of v = 0, and returns the grid average of
    delta*v with its spread.  Raises SolveError if it does not converge.
    """
    delta = 1e-3
    p = discretize_cell(op, M, delta, cell_grid)
    scale = float(np.max(np.abs(p.residual(np.zeros(p.n_interior)))))
    v, rec = solve_dirichlet(p, tol=1e-6 * max(1.0, scale))
    vals = delta * v.values
    return {
        "value": float(np.mean(vals)),
        "spread": float(np.max(vals) - np.min(vals)),
        "iterations": rec["iterations"],
        "residual_history": rec["residual_history"],
    }
