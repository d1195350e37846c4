"""Uniformly elliptic operators F(M, y) with structural validation.

Supported kinds: the Pucci extremal operators M+/M- (y-independent),
linear operators sum a_ij(y) M_ij with periodic coefficients, and finite
Bellman families (sup or inf of linear members).  All are positively
homogeneous and degenerate-elliptic monotone, which is what the monotone
finite-difference schemes downstream rely on.
"""

from dataclasses import dataclass, field
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
    coeff_exprs: Optional[dict] = None
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

    @property
    def y_dependent(self):
        if self.kind in ("pucci_plus", "pucci_minus"):
            return False
        if self.kind == "linear":
            # constant-coefficient operators count as y-independent
            pts = np.concatenate([np.zeros((1, self.dim)),
                                  np.linspace(0.07, 0.93, 5)[:, None]
                                  * np.asarray(self.period)[None, :]])
            a = self.coefficients(pts)
            return bool(np.max(np.abs(a - a[0])) > 1e-12)
        return any(m.y_dependent for m in self.members)

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
        linear coefficients transform as a -> Q^T a Q.
        """
        Q = np.asarray(Q, dtype=float)
        if self.kind in ("pucci_plus", "pucci_minus"):
            return self
        if self.kind == "linear":
            base = self.coeff

            def rot_coeff(y, _base=base, _Q=Q):
                a = np.asarray(_base(y), dtype=float)
                return np.einsum("ki,...kl,lj->...ij", _Q, a, _Q)

            return EllipticOperatorSpec(
                "linear", self.lam, self.Lam, self.dim, self.period,
                coeff=rot_coeff, coeff_exprs=None)
        return EllipticOperatorSpec(
            "bellman", self.lam, self.Lam, self.dim, self.period,
            members=tuple(m.rotated(Q) for m in self.members),
            mode=self.mode)

    def to_record(self):
        rec = {"kind": self.kind, "lambda": self.lam, "Lambda": self.Lam,
               "dim": self.dim, "period": list(self.period)}
        if self.coeff_exprs:
            rec["coefficients"] = dict(self.coeff_exprs)
        if self.members:
            rec["members"] = [m.to_record() for m in self.members]
            rec["mode"] = self.mode
        return rec


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

    return EllipticOperatorSpec("linear", 1.0, 1.0, dim, coeff=coeff,
                                coeff_exprs={"identity": "1"})


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
                                coeff=coeff, coeff_exprs=dict(exprs))


@dataclass
class SourceAndBoundaryData:
    """Source f(x, y) and boundary datum g(x, y), periodic in y.

    ``g`` and ``f`` take (x_points, y_points) of shape (..., n).  Norm
    estimates over one period cell are computed by dense sampling.
    """
    g: Callable
    f: Optional[Callable] = None
    period: tuple = (1.0, 1.0)
    g_expr: Optional[str] = None
    f_expr: Optional[str] = None
    _norms: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_exprs(g_expr, f_expr=None, dim=2, period=()):
        gfn = compile_field(g_expr, dim, prefixes=("x", "y"))

        def g(x, y):
            del x  # datum of the fast variable only, in this grammar
            return gfn(y)

        f = None
        if f_expr is not None:
            ffn = compile_field(f_expr, dim, prefixes=("x", "y"))

            def f(x, y):
                del y
                return ffn(x)

        period = tuple(period) if period else (1.0,) * dim
        return SourceAndBoundaryData(g=g, f=f, period=period,
                                     g_expr=g_expr, f_expr=f_expr)

    def source(self, x):
        if self.f is None:
            return np.zeros(np.asarray(x, float).shape[:-1])
        return np.asarray(self.f(x, x), dtype=float)

    def norm_estimates(self, x0=None, samples=96):
        """sup |g|, sup |grad_y g|, sup |D2_y g| over one period cell."""
        key = (None if x0 is None else tuple(np.asarray(x0, float)), samples)
        if key in self._norms:
            return self._norms[key]
        dim = len(self.period)
        axes = [np.linspace(0, p, samples, endpoint=False)
                for p in self.period]
        Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        X = np.zeros_like(Y) if x0 is None else np.broadcast_to(
            np.asarray(x0, float), Y.shape).copy()
        step = min(self.period) / samples

        def ev(y):
            return np.asarray(self.g(X, y), dtype=float)

        g0 = ev(Y)
        grad = np.zeros(Y.shape)
        hess_sup = 0.0
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = step
            gp, gm = ev(Y + e), ev(Y - e)
            grad[..., i] = (gp - gm) / (2 * step)
            hess_sup = max(hess_sup,
                           float(np.max(np.abs(gp - 2 * g0 + gm))) / step**2)
        for i in range(dim):
            for j in range(i + 1, dim):
                ei = np.zeros(dim); ei[i] = step
                ej = np.zeros(dim); ej[j] = step
                mixed = (ev(Y + ei + ej) - ev(Y + ei - ej)
                         - ev(Y - ei + ej) + ev(Y - ei - ej)) / (4 * step**2)
                hess_sup = max(hess_sup, float(np.max(np.abs(mixed))))
        out = {
            "g_sup": float(np.max(np.abs(g0))),
            "grad_sup": float(np.max(np.linalg.norm(grad, axis=-1))),
            "hess_sup": hess_sup,
        }
        self._norms[key] = out
        return out


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


def effective_operator_estimate(op, M, delta_ergodic=1e-3, cell_grid=64,
                                max_policies=50):
    """Estimate Fbar(M) from the approximate cell problem on the torus.

    Solves delta*v - F(M + D^2 v, y) = 0 on a periodic grid by Howard
    policy iteration (``solve_dirichlet``), to a residual of 1e-6
    relative to that of v = 0, and returns the grid average of
    delta*v with its spread.  Raises SolveError if it does not
    converge.
    """
    if delta_ergodic <= 0:
        raise ValueError("delta_ergodic must be positive")
    p = discretize_cell(op, M, delta_ergodic, cell_grid)
    scale = float(np.max(np.abs(p.residual(np.zeros(p.n_interior)))))
    v, rec = solve_dirichlet(p, tol=1e-6 * max(1.0, scale),
                             max_iter=max_policies)
    vals = delta_ergodic * v.values
    return {
        "value": float(np.mean(vals)),
        "spread": float(np.max(vals) - np.min(vals)),
        "iterations": rec["iterations"],
        "residual_history": rec["residual_history"],
    }
