"""Monotone finite differences for F(D^2 u, y) = f on masked grids.

Second differences along integer directions e,
Delta_e u = (u(x+he) - 2u(x) + u(x-he)) / (h|e|)^2,
approximate the second derivative along unit(e).  Every operator is a
finite sup or inf over a family of members, each of which maps a
direction d to a pair of nonnegative slopes (one for Delta_d >= 0, one
for Delta_d < 0): a Pucci operator has one member per orthogonal integer
frame with slopes {lam, Lam} by sign; a linear operator is one member
whose nonnegative weights on axis and diagonal differences (9-point
rotated scheme) serve for both signs; a Bellman family has one such
member per linear operator.  Off-center weights are nonnegative by
construction or by an explicit certificate, so the discrete comparison
principle holds.

Masked Dirichlet grids and the periodic cell problem on a torus are the
same DiscreteProblem, solved by Howard policy iteration: freeze the
optimizing member at each node (a compact ``Policy``), solve the
resulting linear system, assembled straight into CSR, and re-optimize
until the nonlinear residual is below tolerance.  Each linear system
takes the route of ``_route``'s table (a sparse LU under a nested-
dissection order, George 1973; BiCGSTAB with a plain-aggregation
V-cycle, Braess 1995 and Vanek, Mandel and Brezina 1996; or plain
BiCGSTAB) and is checked by its residual.  Howard is inexact
(Dembo-Eisenstat-Steihaug forcing).  A linear problem keeps the LU of its
one matrix, so every later solve of it is a back-solve; a ``factor_reuse``
scope holds the last ``scoped_problem`` for later callers.
"""

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

__all__ = [
    "EXTERIOR", "BOUNDARY", "INTERIOR",
    "GridField", "DiscreteProblem", "LinearSystem", "Policy",
    "CertificateError",
    "SolveError",
    "frames_for", "monotone_weights", "discretize", "discretize_cell",
    "solve_dirichlet", "factor_reuse", "scoped_problem",
    "comparison_check",
]

EXTERIOR, BOUNDARY, INTERIOR = 0, 1, 2


class CertificateError(ValueError):
    """Monotonicity certificate failure; names node and coefficient."""


class SolveError(RuntimeError):
    """Howard or Krylov iteration failed; carries the residual history."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = list(history)


def frames_for(dim, order):
    """Orthogonal integer frames for the wide Pucci stencil.

    order 1: coordinate axes; order 2: + diagonal frames; order 3 (2-d
    only): + knight-move frames.
    """
    if dim == 2:
        frames = [((1, 0), (0, 1))]
        if order >= 2:
            frames.append(((1, 1), (1, -1)))
        if order >= 3:
            frames += [((2, 1), (-1, 2)), ((1, 2), (-2, 1))]
        return frames
    if dim == 3:
        frames = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        if order >= 2:
            frames += [
                ((1, 1, 0), (1, -1, 0), (0, 0, 1)),
                ((1, 0, 1), (1, 0, -1), (0, 1, 0)),
                ((0, 1, 1), (0, 1, -1), (1, 0, 0)),
            ]
        if order >= 3:
            raise NotImplementedError("order 3 stencils are 2-d only")
        return frames
    raise NotImplementedError("only 2-d and 3-d grids supported")


def _dir(dim, i, j=None, sign=1):
    """The integer direction e_i, or e_i + sign e_j."""
    return tuple(1 if k == i else sign if k == j else 0 for k in range(dim))


# a cross term or negative axis weight beyond this fails the certificate
CERTIFICATE_TOL = 1e-12


def monotone_weights(a, dim, order=2, where=None):
    """Nonnegative stencil weights realizing sum a_ij d_ij u.

    The cross term 2 a_ij u_ij is moved onto the diagonal direction of
    matching sign (weight 2|a_ij| on the second difference along
    (e_i +/- e_j)), at the price of reducing the axis weights by |a_ij|.
    Monotone iff a_ii - sum_{j != i} |a_ij| >= 0 at every node.

    Parameters
    ----------
    a : (N, dim, dim) array
    where : optional callable mapping a failing flat node index to a
        description used in the CertificateError message.

    Returns
    -------
    dict mapping direction tuples to (N,) weight arrays.
    """
    a = np.asarray(a, dtype=float)
    weights = {}
    for i in range(dim):
        w = a[:, i, i].copy()
        for j in range(dim):
            if j != i:
                w -= np.abs(a[:, i, j])
        weights[_dir(dim, i)] = w
    for i in range(dim):
        for j in range(i + 1, dim):
            off = a[:, i, j]
            if order < 2:
                bad = np.abs(off) > CERTIFICATE_TOL
                if np.any(bad):
                    k = int(np.argmax(bad))
                    loc = where(k) if where else f"node {k}"
                    raise CertificateError(
                        f"cross term a[{i}][{j}] = {off[k]:g} at {loc} "
                        "needs stencil_order >= 2")
                continue
            weights[_dir(dim, i, j, +1)] = 2.0 * np.maximum(off, 0.0)
            weights[_dir(dim, i, j, -1)] = 2.0 * np.maximum(-off, 0.0)
    for i in range(dim):
        w = weights[_dir(dim, i)]
        bad = w < -CERTIFICATE_TOL
        if np.any(bad):
            k = int(np.argmax(bad))
            loc = where(k) if where else f"node {k}"
            raise CertificateError(
                f"negative axis weight {w[k]:g} on e_{i + 1} at {loc} "
                "(cross-term dominance violated)")
        weights[_dir(dim, i)] = np.maximum(w, 0.0)
    return {d: w for d, w in weights.items() if np.any(w > 0) or sum(
        abs(c) for c in d) == 1}


@dataclass
class GridField:
    """Masked uniform-grid scalar field."""
    origin: np.ndarray
    h: float
    mask: np.ndarray
    values: np.ndarray

    @property
    def shape(self):
        return self.mask.shape

    @property
    def dim(self):
        return self.mask.ndim

    def coords(self):
        axes = [self.origin[i] + self.h * np.arange(s)
                for i, s in enumerate(self.shape)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def copy(self):
        return GridField(self.origin.copy(), self.h, self.mask.copy(),
                         self.values.copy())

    def interpolate(self, points):
        """Multilinear interpolation, exterior corners masked out.

        Cells touching exterior nodes renormalize over the live corners;
        points entirely outside the masked region return nan.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, self.dim)
        rel = (flat - self.origin) / self.h
        base = np.floor(rel).astype(int)
        for i in range(self.dim):
            base[:, i] = np.clip(base[:, i], 0, self.shape[i] - 2)
        frac = rel - base
        out = np.zeros(len(flat))
        wsum = np.zeros(len(flat))
        for corner in range(2 ** self.dim):
            offs = [(corner >> i) & 1 for i in range(self.dim)]
            idx = tuple(base[:, i] + offs[i] for i in range(self.dim))
            w = np.ones(len(flat))
            for i in range(self.dim):
                w *= frac[:, i] if offs[i] else (1.0 - frac[:, i])
            live = self.mask[idx] != EXTERIOR
            w = np.where(live, w, 0.0)
            out += w * np.where(live, self.values[idx], 0.0)
            wsum += w
        result = np.where(wsum > 1e-12, out / np.where(wsum > 0, wsum, 1.0),
                          np.nan)
        return result.reshape(pts.shape[:-1])

    def dump(self, path):
        """Plain-text dump: header (dims, h, origin), mask, row-major values."""
        with open(path, "w") as fh:
            fh.write("# homogbc grid v1\n")
            fh.write(f"# dim {self.dim}\n")
            fh.write("# shape " + " ".join(str(s) for s in self.shape) + "\n")
            fh.write(f"# h {self.h!r}\n")
            fh.write("# origin " + " ".join(repr(float(c))
                                            for c in self.origin) + "\n")
            fh.write("# mask (0 exterior, 1 boundary, 2 interior), row-major\n")
            fh.write(" ".join(str(int(m)) for m in self.mask.ravel()) + "\n")
            fh.write("# values, row-major\n")
            fh.write(" ".join(f"{v:.17g}" for v in self.values.ravel()) + "\n")

    @staticmethod
    def load(path):
        with open(path) as fh:
            lines = fh.readlines()
        header = {}
        data_lines = []
        for ln in lines:
            if ln.startswith("#"):
                parts = ln[1:].split()
                if parts and parts[0] in ("dim", "shape", "h", "origin"):
                    header[parts[0]] = parts[1:]
            else:
                data_lines.append(ln)
        shape = tuple(int(s) for s in header["shape"])
        mask = np.array(data_lines[0].split(), dtype=np.int8).reshape(shape)
        values = np.array(data_lines[1].split(), dtype=float).reshape(shape)
        return GridField(np.array([float(c) for c in header["origin"]]),
                         float(header["h"][0]), mask, values)


class LinearSystem(NamedTuple):
    """B x = b for the interior unknowns of one frozen policy: B = -L (an
    M-matrix) in canonical CSR, and ``norm`` its max norm, or None until
    a backward-error check needs it (most inexact Howard solves never do)."""
    B: sparse.csr_matrix
    b: np.ndarray
    norm: Optional[float]


def _max_norm(B):
    """The max norm of the CSR ``B``: its largest row sum of |entries|."""
    return float(np.max(np.add.reduceat(np.abs(B.data), B.indptr[:-1])))


class Policy(NamedTuple):
    """A frozen Howard policy: ``member`` holds the optimal member of
    each interior node (int8, the lowest index on ties) and, when some
    member's slopes depend on the sign of its second differences,
    ``signs`` holds one bit per direction of ``policy_dirs`` (bit j set
    where Delta_d >= 0 along the j-th); else ``signs`` is None."""
    member: np.ndarray
    signs: Optional[np.ndarray]


@dataclass
class DiscreteProblem:
    """F_h(D^2 u + shift) - delta*u = f on a masked grid or a torus.

    ``members`` is the operator's family (see ``_family``), reduced by
    sup or inf according to ``mode``.  ``arms`` is the one neighbour
    table, int32 of shape (2 len(dirs), n): row 2j holds each interior
    node's neighbour along +dirs[j], row 2j + 1 along -dirs[j], as its
    unknown index below n, or as n + i for the ring node whose flat
    grid index is ``ring_flat[i]``.  Each system is built straight from
    a compact ``Policy``, not a weight array per direction.  A
    Dirichlet problem has ``shift`` None and ``delta`` 0; the periodic
    cell problem sets the per-direction shift m_d = unit(d)^T M unit(d)
    and the zero-order coefficient delta, so that -A of the assembled
    cell system has row sums +delta and is an M-matrix.
    """
    grid: GridField
    f: np.ndarray
    dirs: list
    int_flat: np.ndarray
    arms: np.ndarray
    ring_flat: np.ndarray
    members: list
    mode: str
    shift: Optional[dict] = None
    delta: float = 0.0
    _fixed: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)
    _lu: Optional["_Factor"] = field(default=None, init=False, repr=False,
                                     compare=False)

    def __getstate__(self):
        # SuperLU objects do not pickle: a copy factors its matrix again
        return {**self.__dict__, "_lu": None}

    @property
    def n_interior(self):
        return self.int_flat.size

    def second_diffs(self, u_flat):
        """Second differences Delta_d u, plus the shift m_d if set."""
        h = self.grid.h
        out = {}
        uc = u_flat[self.int_flat]
        ends = np.concatenate((uc, u_flat[self.ring_flat]))
        # a take converts an int32 index far more slowly than astype
        for j, d in enumerate(self.dirs):
            w = 1.0 / self._scale(d, h)
            out[d] = (ends.take(self.arms[2 * j].astype(np.intp)) +
                      ends.take(self.arms[2 * j + 1].astype(np.intp)) -
                      2.0 * uc) * w
            if self.shift is not None:
                out[d] += self.shift[d]
        return out

    @functools.cached_property
    def policy_dirs(self):
        """The members' directions in order of first appearance: the
        order in which every system sums its diagonal."""
        return list(dict.fromkeys(d for mem in self.members for d in mem))

    @functools.cached_property
    def _flips(self):
        """Per member, the bits of ``policy_dirs`` along which its two
        slopes differ in value: the one reading of sign dependence.  By
        value, not by identity, which pickling does not keep."""
        bits = np.uint8 if len(self.policy_dirs) <= 8 else np.uint16
        return np.array([sum(1 << j for j, d in enumerate(self.policy_dirs)
                             if d in mem and np.any(mem[d][0] != mem[d][1]))
                         for mem in self.members], dtype=bits)

    def _extremum(self, d2, want_policy):
        """Sup/inf over the members of sum_d c_d * d2[d], with c_d the
        member's slope for the sign of d2[d], reduced as a running
        extremum; optionally the optimal ``Policy``."""
        n = self.n_interior
        ge = None if self.sign_independent else {
            d: (d2[d] >= 0).view(np.uint8) for d in self.policy_dirs}
        member = np.zeros(n, dtype=np.int8) if want_policy else None
        take_max = self.mode == "sup"
        F = None
        for m, mem in enumerate(self.members):
            tot = np.zeros(n)
            flips = self._flips[m]
            for d, (up, down) in mem.items():
                # sign-dependent slopes are scalars (Pucci): a two-entry
                # table lookup, several times faster than np.where, by an
                # intp index (take converts any other far more slowly)
                c = np.array([down, up]).take(ge[d].astype(np.intp)) \
                    if flips >> self.policy_dirs.index(d) & 1 else up
                tot += c * d2[d]
            if F is None:
                F = tot
                continue
            if want_policy:
                # a strict gain moves the node, so ties keep the lowest
                member[tot > F if take_max else tot < F] = m
            (np.maximum if take_max else np.minimum)(F, tot, out=F)
        if not want_policy:
            return F, None
        signs = None
        if ge is not None:
            signs = np.zeros(n, dtype=self._flips.dtype)
            for j, d in enumerate(self.policy_dirs):
                signs |= np.left_shift(ge[d], j, dtype=signs.dtype)
        return F, Policy(member, signs)

    def evaluate(self, u_flat, want_policy):
        """The residual F_h(u) - delta*u - f over interior nodes and,
        if ``want_policy``, the optimal ``Policy``."""
        F, policy = self._extremum(self.second_diffs(u_flat), want_policy)
        if self.delta:
            F = F - self.delta * u_flat[self.int_flat]
        return F - self.f, policy

    def residual(self, u_flat):
        """F_h(u) - delta*u - f over interior nodes."""
        return self.evaluate(u_flat, want_policy=False)[0]

    @functools.cached_property
    def sign_independent(self):
        """Every member's two slopes are one value (no ``_flips``):
        Pucci with lam = Lam, a linear operator or a Bellman family."""
        return not self._flips.any()

    @functools.cached_property
    def linear(self):
        """One sign-independent member: the assembled matrix does not
        depend on the iterate."""
        return len(self.members) == 1 and self.sign_independent

    @functools.cached_property
    def _ring_arms(self):
        """Per row of ``arms``, the nodes whose arm ends on the ring and
        that end's position in ``ring_flat``."""
        n = self.n_interior
        out = []
        for ends in self.arms:
            rows = np.flatnonzero(ends >= n)
            out.append((rows, ends[rows].astype(np.intp) - n))
        return out

    @functools.cached_property
    def order(self):
        """The nested-dissection order of the interior unknowns (see
        ``_dissection``): unknown ``order[k]`` is eliminated k-th.
        Within a block the unknowns keep their grid order."""
        path = _dissection(self)
        key = path.astype(np.int64) @ 3 ** np.arange(
            path.shape[1] - 1, -1, -1, dtype=np.int64)
        return np.argsort(key, kind="stable")

    @functools.cached_property
    def aggregates(self):
        """The plain-aggregation levels of the interior unknowns (see
        ``_VCycle``): entry k maps each unknown of level k to its
        aggregate, the level-(k+1) unknown that stands for one 2^n
        block of level-k grid indices.  Aggregates are numbered in grid
        order, and the last level has at most COARSEST unknowns."""
        shape = np.asarray(self.grid.shape)
        flat = self.int_flat
        levels = []
        while flat.size > COARSEST:
            coarse = (shape + 1) // 2
            index = np.unravel_index(flat, shape)
            flat, agg = np.unique(np.ravel_multi_index(
                tuple(i // 2 for i in index), coarse), return_inverse=True)
            levels.append(agg.ravel())
            shape = coarse
        return levels

    def _member_rows(self, policy):
        """Per member, its index and the nodes that chose it: a slice of
        all of them when the family has one member."""
        if len(self.members) == 1:
            return [(0, slice(None))]
        return [(m, np.flatnonzero(policy.member == m))
                for m in range(len(self.members))]

    def _slopes(self, m, d, policy, rows, scale=1.0):
        """Member m's slopes along d over ``scale`` at the nodes ``rows``
        (an index array or a slice), all of which chose m."""
        up, down = self.members[m][d]
        j = self.policy_dirs.index(d)
        if self._flips[m] >> j & 1:
            # sign-dependent slopes are scalars (Pucci): a two-entry
            # table lookup by the sign bit
            bit = np.bitwise_and(policy.signs[rows] >> j, 1, dtype=np.intp)
            return np.array([down / scale, up / scale]).take(bit)
        if np.ndim(up):
            return up[rows] / scale
        return np.broadcast_to(np.float64(up / scale),
                               policy.member[rows].shape)

    @staticmethod
    def _scale(d, h):
        """(h|d|)^2, the squared length of the arm along d."""
        return h * h * float(np.dot(d, d))

    def _matrix(self, policy):
        """B = -L in canonical CSR for ``policy``, built one member's
        nodes at a time.  Each row holds its member's arms of positive
        weight to interior neighbours, in the order of the arms' flat
        offsets, which is column order on a masked grid (a torus row
        that wraps around is sorted afterwards), and its diagonal,
        summed in ``policy_dirs`` order."""
        n = self.n_interior
        count = np.ones(n, dtype=np.int32)
        step = np.cumprod((1,) + self.grid.shape[:0:-1])[::-1]
        blocks = []
        for m, rows in self._member_rows(policy):
            # intp: a take with any other index dtype converts it first
            every = np.arange(n)[rows]
            if not every.size:
                continue
            diag = np.full(every.size, float(self.delta))
            counted = np.ones(every.size, dtype=np.int32)
            arms = [(0, None, None, None)]
            for d in self.policy_dirs:
                if d not in self.members[m]:
                    continue
                wd = self._slopes(m, d, policy, rows,
                                  self._scale(d, self.grid.h))
                diag += 2.0 * wd
                pos = wd > 0
                j = self.dirs.index(d)
                for a, sign in ((2 * j, 1), (2 * j + 1, -1)):
                    live = pos & (self.arms[a][rows] < n)
                    counted += live
                    arms.append((sign * int(step @ d), live, a, wd))
            count[rows] = counted
            blocks.append((rows, every, diag,
                           sorted(arms, key=lambda arm: arm[0])))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1])
        while blocks:
            rows, every, diag, arms = blocks.pop()
            # the next free slot of each row of the block; intp, as a
            # scatter index
            at = indptr[:-1][rows].astype(np.intp)
            for _, live, a, wd in arms:
                if live is None:
                    indices[at] = every
                    data[at] = diag
                    at += 1
                    continue
                k = np.flatnonzero(live)
                i = at.take(k)
                indices[i] = self.arms[a].take(every.take(k))
                data[i] = -wd.take(k)
                at += live
        B = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        B.sum_duplicates()
        return B

    def _add_ring(self, b, policy, values):
        """Add to ``b`` what the ring values of the grid array
        ``values`` contribute to the system of ``policy``: at each node,
        along its member's directions in ``policy_dirs`` order."""
        ring = values.ravel()[self.ring_flat]
        for m, mem in enumerate(self.members):
            for d in self.policy_dirs:
                if d not in mem:
                    continue
                j = self.dirs.index(d)
                for rows, ends in self._ring_arms[2 * j:2 * j + 2]:
                    if len(self.members) > 1:
                        mine = policy.member[rows] == m
                        rows, ends = rows[mine], ends[mine]
                    wr = self._slopes(m, d, policy, rows,
                                      self._scale(d, self.grid.h))
                    live = wr > 0
                    b[rows[live]] += wr[live] * ring[ends[live]]
        return b

    def assemble(self, policy):
        """The frozen-policy system B x = b: B = -L and b = -rhs for the
        sparse system L u_int = rhs.

        Only arms with positive weight are stored, so the matrix holds
        the chosen member's stencil and no explicit zeros.  A linear
        problem's policy is its one member, so its matrix is assembled
        once; later calls rebuild only b from the current ring values.
        """
        if self.linear and self._fixed is None:
            B = self._matrix(policy)
            self._fixed = B, _max_norm(B)
        B, norm = self._fixed if self.linear else (self._matrix(policy), None)
        b = self._add_ring(-np.asarray(self.f, dtype=float), policy,
                           self.grid.values)
        if self.shift is not None:
            for m, rows in self._member_rows(policy):
                for d in self.policy_dirs:
                    c = self._slopes(m, d, policy, rows) \
                        if d in self.members[m] else 0.0
                    b[rows] += c * self.shift[d]
        return LinearSystem(B, b, norm)

    def ring_rhs(self, policy, values):
        """The right-hand side that the ring values of the grid array
        ``values`` alone contribute to the system of ``policy`` (no
        source, no shift)."""
        return self._add_ring(np.zeros(self.n_interior), policy, values)


# nested dissection stops at boxes of at most this many grid nodes
ND_LEAF = 16


def _dissection(p):
    """Nested dissection of ``p``'s interior unknowns by recursive
    coordinate bisection of their grid indices, as each unknown's path
    down the dissection tree: row k of the returned (n, levels) int8
    array holds unknown k's side at each level, 0 (first half), 1
    (second half) or 2 (separator), padded with 0 below the level at
    which its block stopped splitting.  The order sorts the paths.

    Level 0 separates the last ``reach`` planes along each axis: on the
    torus of ``discretize_cell`` their arms wrap around, and on a masked
    grid the ring lies there, so none is interior.  Every later level
    cuts each box of grid indices across its longest extent (the first
    such axis), at its middle, by a separator ``reach`` planes wide that
    no stencil arm crosses.  A box of at most ND_LEAF nodes, or too
    thin to cut, stays whole.  All boxes of a level are cut at once;
    at most 39 levels keep the sort key below 3**39 < 2**63.
    """
    reach = max(max(abs(c) for c in d) for d in p.dirs)
    n = p.n_interior
    coords = [c.astype(np.int32)
              for c in np.unravel_index(p.int_flat, p.grid.shape)]
    wrap = np.zeros(n, dtype=bool)
    for c, size in zip(coords, p.grid.shape):
        wrap |= c >= size - reach
    path = [np.where(wrap, 2, 0).astype(np.int8)]
    live = ~wrap  # the unknowns whose box is still cut
    # each unknown's box: lo <= index < hi along every axis
    lo = [np.full(n, c[live].min(initial=size), dtype=np.int32)
          for c, size in zip(coords, p.grid.shape)]
    hi = [np.full(n, c[live].max(initial=-1) + 1, dtype=np.int32)
          for c in coords]
    while live.any() and len(path) < 39:
        w = [b - a for a, b in zip(lo, hi)]
        axis = np.zeros(n, dtype=np.int8)
        width, size = w[0], w[0]
        for i in range(1, len(w)):
            axis[w[i] > width] = i
            width = np.maximum(width, w[i])
            size = size * w[i]
        live &= (size > ND_LEAF) & (width > reach + 1)
        cut = np.choose(axis, lo) + (width - reach) // 2
        c = np.choose(axis, coords) - cut
        side = np.where(c < 0, 0, np.where(c < reach, 2, 1)).astype(np.int8)
        side[~live] = 0
        live &= side != 2
        for i in range(len(w)):
            on = live & (axis == i)
            hi[i] = np.where(on & (side == 0), cut, hi[i])
            lo[i] = np.where(on & (side == 1), cut + reach, lo[i])
        path.append(side)
    return np.stack(path, axis=1)


def _node_namer(grid, int_flat):
    def where(k):
        multi = np.unravel_index(int_flat[k], grid.shape)
        x = grid.origin + grid.h * np.asarray(multi)
        return f"node {tuple(int(i) for i in multi)} at x = {x.round(6).tolist()}"
    return where


def _arm_table(int_flat, shape, dirs, mode="raise"):
    """The neighbour table of the interior nodes ``int_flat`` (see
    ``DiscreteProblem.arms``) and the flat indices of the ring, every
    arm's end that is not interior, in grid order; ``mode="wrap"`` makes
    the grid a torus, which has no ring."""
    n = int_flat.size
    number = np.full(int(np.prod(shape)), -1, dtype=np.int32)
    number[int_flat] = np.arange(n, dtype=np.int32)
    multi = np.unravel_index(int_flat, shape)
    arms = np.empty((2 * len(dirs), n), dtype=np.int32)
    ring = []
    for j, d in enumerate(dirs):
        for a, sign in ((2 * j, 1), (2 * j + 1, -1)):
            arms[a] = np.ravel_multi_index(
                tuple(c + sign * dc for c, dc in zip(multi, d)), shape,
                mode=mode)
            ring.append(arms[a][number.take(arms[a]) < 0])
    ring_flat = np.unique(np.concatenate(ring))
    number[ring_flat] = n + np.arange(ring_flat.size, dtype=np.int32)
    for ends in arms:
        ends[:] = number.take(ends)
    return arms, ring_flat


def _family(op, frames, stencil_order, y_nodes, where):
    """The operator as (members, mode): F = sup or inf over members of
    sum_d c_d(Delta_d) Delta_d, each member mapping a direction to its
    slopes (for Delta_d >= 0, for Delta_d < 0).

    Pucci operators have one member per frame, whose slopes are one
    value when lam == Lam; linear and Bellman members carry one weight
    array for both signs.  ``y_nodes()`` gives the
    fast-variable points of the interior nodes.
    """
    if op.kind in ("pucci_plus", "pucci_minus"):
        plus = op.kind == "pucci_plus"
        slopes = (op.Lam, op.lam) if plus else (op.lam, op.Lam)
        return [{d: slopes for d in f} for f in frames], \
            ("sup" if plus else "inf")
    linear = [op] if op.kind == "linear" else list(op.members)
    yi = np.asarray(y_nodes(), dtype=float)
    members = []
    for mem in linear:
        a = mem.coefficients(yi).reshape(len(yi), op.dim, op.dim)
        wts = monotone_weights(a, op.dim, order=stencil_order, where=where)
        members.append({d: (c, c) for d, c in wts.items()})
    return members, op.mode


def discretize(op, dom, h, stencil_order=2, boundary=None, source=None,
               y_of_x=None):
    """Assemble a Dirichlet problem on a masked uniform grid.

    Parameters
    ----------
    op : EllipticOperatorSpec
    dom : DomainSpec
    boundary : callable(points) -> values
        Dirichlet values; called with the boundary projections of the
        boundary-ring nodes.
    source : callable(points) -> values or None
    y_of_x : callable(points) -> fast-variable points for coefficient
        sampling (default the identity).
    """
    frames = frames_for(op.dim, stencil_order)
    dirs = sorted({d for f in frames for d in f})
    # linear kinds may need diagonals the frame list already contains
    reach = max(max(abs(c) for c in d) for d in dirs)
    lo, hi = dom.bounding_box
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    counts = np.maximum(np.round((hi - lo) / h).astype(int), 1)
    origin = lo - reach * h
    shape = tuple(int(c) + 2 * reach + 1 for c in counts)
    axes = [origin[i] + h * np.arange(shape[i]) for i in range(op.dim)]
    # the nodes are classified in slabs of the first axis of at most
    # 96^2 points (or one plane), so that no coordinate array of the
    # whole bounding grid is ever held
    plane = int(np.prod(shape[1:]))
    rows = max(1, 96 ** 2 // plane)
    int_flat = np.concatenate([
        start * plane + np.flatnonzero(np.asarray(dom.sdf(np.stack(
            np.meshgrid(axes[0][start:start + rows], *axes[1:],
                        indexing="ij"), axis=-1))) < -1e-12)
        for start in range(0, shape[0], rows)])
    if not int_flat.size:
        raise ValueError("grid too coarse: no interior nodes")

    def points(flat):
        """The points of the grid nodes ``flat``, from the axes."""
        return np.stack([axes[i][k] for i, k in enumerate(
            np.unravel_index(flat, shape))], axis=-1)

    arms, ring = _arm_table(int_flat, shape, dirs)
    # after the table, whose temporaries set the peak of a large grid
    xi = points(int_flat)
    mask = np.zeros(shape, dtype=np.int8)
    mask.flat[int_flat] = INTERIOR
    mask.flat[ring] = BOUNDARY

    values = np.zeros(shape)
    if boundary is not None and ring.size:
        proj = np.asarray(dom.project(points(ring)), dtype=float)
        values.flat[ring] = np.asarray(boundary(proj), dtype=float)

    grid = GridField(origin=origin, h=float(h), mask=mask, values=values)

    f = np.zeros(int_flat.size) if source is None else \
        np.asarray(source(xi), dtype=float)

    members, mode = _family(op, frames, stencil_order,
                            lambda: xi if y_of_x is None else y_of_x(xi),
                            _node_namer(grid, int_flat))
    missing = {d for m in members for d in m} - set(dirs)
    if missing:
        raise CertificateError(f"stencil lacks directions {missing}")
    return DiscreteProblem(grid=grid, f=f, dirs=dirs, int_flat=int_flat,
                           arms=arms, ring_flat=ring, members=members,
                           mode=mode)


def discretize_cell(op, M, delta, cell_grid):
    """The approximate cell problem delta*v - F(M + D^2 v, y) = 0.

    Every node of a periodic grid with ``cell_grid`` nodes along the
    shortest period is interior, and the order-2 stencil wraps around
    the torus.
    """
    n = op.dim
    M = np.asarray(M, dtype=float)
    period = np.asarray(op.period, dtype=float)
    h = float(period.min()) / cell_grid
    shape = tuple(int(round(p / h)) for p in period)
    frames = frames_for(n, 2)
    dirs = sorted({d for f in frames for d in f})
    grid = GridField(origin=np.zeros(n), h=h,
                     mask=np.full(shape, INTERIOR, dtype=np.int8),
                     values=np.zeros(shape))
    int_flat = np.arange(grid.values.size)
    members, mode = _family(op, frames, 2,
                            lambda: grid.coords().reshape(-1, n),
                            _node_namer(grid, int_flat))
    unit = {d: np.asarray(d, float) / np.linalg.norm(d) for d in dirs}
    arms, ring = _arm_table(int_flat, shape, dirs, mode="wrap")
    return DiscreteProblem(
        grid=grid, f=np.zeros(int_flat.size), dirs=dirs, int_flat=int_flat,
        arms=arms, ring_flat=ring, members=members, mode=mode,
        shift={d: float(unit[d] @ M @ unit[d]) for d in dirs},
        delta=float(delta))


class _Factor:
    """The sparse LU of the M-matrix B (canonical CSR) under the
    elimination order ``order``; ``solve`` works in B's numbering and
    ``fill`` is the number of entries SuperLU stores for L and U.  The
    CSR P B P^T, transposed, is the CSC (P B P^T)^T without a copy.
    SuperLU factors it in the given order (NATURAL) on its diagonal
    pivots, as an M-matrix needs no pivoting, and ``solve`` applies the
    factors transposed; ``_solve_sparse`` checks every solve.
    """

    def __init__(self, B, order):
        self.lu = spla.splu(B[order][:, order].T, permc_spec="NATURAL",
                            diag_pivot_thresh=0.0)
        self.order = order
        # SuperLU's own count: reading lu.L or lu.U would copy them
        self.fill = int(self.lu.nnz)

    def solve(self, b):
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order], trans="T")
        return x


class FactorScope:
    """The one held problem of a ``factor_reuse`` scope (see
    ``scoped_problem``), the problems built and reused inside it, and
    the ``lu`` solves made inside it that factored a problem's matrix or
    back-solved its LU."""

    def __init__(self):
        self.problem_key = self.problem = None
        self.factorizations = self.reused_solves = 0
        self.problems_built = self.problems_reused = 0

    def counts(self):
        return {"factorizations": self.factorizations,
                "reused_solves": self.reused_solves,
                "problems_built": self.problems_built,
                "problems_reused": self.problems_reused}


_scope = None


@contextlib.contextmanager
def factor_reuse():
    """Hold the last problem ``scoped_problem`` built for later callers,
    and with a linear problem the LU it keeps.

    Yields the ``FactorScope``; a nested scope joins the outer one.
    Inside a scope a large 2-d linear problem is factored (see
    ``_route``).  Leaving the outermost scope, by an exception too,
    frees the problem, so neither it nor its LU outlives the loop that
    reuses it.
    """
    global _scope
    if _scope is not None:
        yield _scope
        return
    _scope = FactorScope()
    try:
        yield _scope
    finally:
        _scope.problem_key = _scope.problem = None
        _scope = None


def scoped_problem(key, build, fits):
    """``build()``, or inside a ``factor_reuse`` scope the problem the
    scope holds under an equal ``key`` when ``fits(problem)``: the last
    one it built under a key that is not None and that fits.  ``fits``
    says whether a problem serves the caller as it is, apart from what
    the caller resets (its ring values, say), so equal keys alone never
    share one.  The grid, neighbour tables, cached arms, elimination
    order and a linear problem's assembled matrix and LU carry over.
    The scope counts every problem built and reused inside it.
    """
    s = _scope
    if s is None:
        return build()
    if key is not None and key == s.problem_key and fits(s.problem):
        s.problems_reused += 1
        return s.problem
    s.problem_key = s.problem = None
    problem = build()
    s.problems_built += 1
    if key is not None and fits(problem):
        s.problem_key, s.problem = key, problem
    return problem


class _Held:
    """The preconditioner a held route of ``_route`` keeps across one
    Howard solve's policies (``held``): the LU of the last policy it
    factored or, for "held_cycle", the coarse levels of the last V-cycle
    it built; and the BiCGSTAB iterations it has left (``budget``),
    PRECOND_BUDGET from each build.  A policy's solve runs on it while
    budget is left, an LU's capped at that budget (with the policy's own
    LU it stops at its first half step: one back-solve) and a cycle's at
    2000 iterations, and is charged what it took.  A policy whose solve
    fails rebuilds it, and a rebuilt cycle's solve is not charged."""

    def __init__(self, route):
        self.cycle, self.held, self.budget = route == "held_cycle", None, 0

    def rebuild(self, B, p):
        """Drop what is held, then build it from ``B``: an LU under the
        problem ``p``'s order or a cycle over its aggregates.  One is
        alive at a time."""
        self.held = None
        self.held = _VCycle(B, p.aggregates) if self.cycle else \
            _Factor(B, p.order)
        self.budget = PRECOND_BUDGET
        return self.held


# ``large`` in the table of ``_route``
KRYLOV_SWITCH = 60_000
# the V-cycle coarsens down to at most this many unknowns, which splu
# solves, and smooths by one damped-Jacobi sweep of this weight before
# and after each coarse correction
COARSEST = 500
JACOBI_WEIGHT = 0.8
# the relative 2-norm residual at which a full-accuracy V-cycle solve
# stops; at 1e-12, as plain BiCGSTAB, the max-norm residual of a 260,513-
# unknown disk solve stayed at 1.7e-8, above Howard's default tol 1e-8
VCYCLE_RTOL = 1e-14


class _VCycle:
    """The coarse levels of one plain-aggregation V-cycle built from the
    M-matrix B, a fixed linear preconditioner for BiCGSTAB.  Level k + 1
    is the Galerkin product P^T A_k P, where P is the 0/1 prolongation
    that copies each aggregate's value to its unknowns
    (``DiscreteProblem.aggregates``): the sum of A_k's entries between
    two aggregates.  Summing an M-matrix's rows and columns over
    aggregates leaves an M-matrix, so every level is nonsingular and
    diagonally positive.  ``first`` holds the finest level's aggregates
    (None when the coarsest level is the finest), ``levels`` every level
    between the finest and the coarsest as (A_k, Jacobi weights,
    aggregates), and ``coarsest`` the splu of the last.  The finest
    level's matrix is not held: a solve smooths on its own matrix
    (``finest``), so a cycle built from one Howard policy's matrix
    serves a later policy without keeping the earlier one alive.
    ``sizes`` lists the unknowns per level, finest first.
    """

    def __init__(self, B, aggregates):
        self.first = aggregates[0] if aggregates else None
        self.levels = []
        A = B
        for agg in aggregates:
            if A is not B:
                self.levels.append((A, JACOBI_WEIGHT / A.diagonal(), agg))
            rows = np.repeat(agg, np.diff(A.indptr))
            m = int(agg.max()) + 1
            A = sparse.csr_matrix((A.data, (rows, agg[A.indices])),
                                  shape=(m, m))
        self.coarsest = spla.splu(A.tocsc())
        self.sizes = [B.shape[0]] * (self.first is not None) + \
            [level[0].shape[0] for level in self.levels] + [A.shape[0]]

    def finest(self, B):
        """The levels of the cycle whose finest level is the matrix B,
        with its own Jacobi weights, above the held ones (none when the
        coarsest level is the finest)."""
        if self.first is None:
            return []
        return [(B, JACOBI_WEIGHT / B.diagonal(), self.first)] + self.levels

    def solve(self, levels, b):
        """The cycle through ``levels`` (see ``finest``) applied to b."""
        if not levels:
            return self.coarsest.solve(b)
        A, weight, agg = levels[0]
        x = weight * b
        r = b - A @ x
        x += self.solve(levels[1:], np.bincount(agg, weights=r))[agg]
        x += weight * (b - A @ x)
        return x


def _route(n, dim, linear, sign_independent, scoped, response):
    """The route of every linear solve of one ``solve_dirichlet`` call,
    by the problem's ``n`` unknowns and ``dim``, whether it is
    ``linear`` or ``sign_independent``, whether the call is ``scoped``
    (inside ``factor_reuse``) and whether it asks for its ``response``.
    The one route table (B the matrix, large meaning n > KRYLOV_SWITCH):

    =====================  ==========  ================================
    problem                route       solver (the paths reported)
    =====================  ==========  ================================
    linear, large, in 3-d  cycle       a V-cycle built from B (vcycle)
    or outside a scope
    linear, otherwise      lu          the problem's LU, factored on its
                                       first solve (direct), then back-
                                       solved (lu_reuse)
    nonlinear, 2-d, sign-  held_cycle  the held V-cycle (vcycle); if a
    independent, asking                cycle built from B fails, an LU
    for no response                    of B, not held (direct)
    nonlinear, large, 3-d  bicgstab    none: plain BiCGSTAB (bicgstab)
    nonlinear, otherwise   held_lu     the held LU (lu_precond), or B's
                                       LU, then held (direct)
    =====================  ==========  ================================

    A V-cycle or a held LU preconditions BiCGSTAB.  A linear problem's
    LU lives as long as the problem does.

    Why (measured in the README): sign-independent members tie to
    O(h^2), so a policy moves a little at each of many steps and a held
    LU would serve few, while a strip's response is one back-solve; a
    large 2-d linear problem is factored in a scope, whose strips solve
    it many times.
    """
    large = n > KRYLOV_SWITCH
    if linear:
        return "cycle" if large and (dim >= 3 or not scoped) else "lu"
    if dim == 2 and sign_independent and not response:
        return "held_cycle"
    return "bicgstab" if large and dim >= 3 else "held_lu"


def _solve_sparse(system, route, p, x0=None, target=None, report=None):
    """Solve the assembled system B x = b (B = -L, an M-matrix) of the
    problem ``p`` on ``route``, a route of ``_route``, or for a held one
    its ``_Held``.

    ``p`` gives an LU's elimination order and a V-cycle's aggregates,
    each read only when one is built, and on the ``lu`` route holds the
    LU of its one matrix B (counted by a ``factor_reuse`` scope around
    the solve).  Every Krylov solve starts from ``x0`` if given, and
    stops at rtol 1e-12 (VCYCLE_RTOL with a V-cycle) or, given a
    ``target`` above 1e-12 ||b||_2, once ||Bx - b||_2 < target.  A
    BiCGSTAB failure off a held route raises SolveError, with no
    fallback to a direct solve of that size.  An inexact x is checked by its true residual against its
    target, any other by its normwise backward error ||Bx - b|| /
    (||B|| ||x|| + ||b||) in the max norm against RESIDUAL_CHECK; a
    failed check raises SolveError.  ``report``, if given, receives the
    ``path`` taken, the ``unknowns`` and ``nnz`` of B, the
    ``krylov_iterations`` (a spent budget's too: half the
    preconditioner's applications, rounded up, as an iteration applies
    it twice, or once if it stops at its half step), the checked
    ``residual``, the stopping ``target`` (None at full accuracy), the
    ``fill`` of the LU used, the V-cycle's unknowns per level, finest
    first (``levels``), and whether its coarse levels were built for
    this solve (``levels_built``); each is None where it does not apply.
    """
    B, b, norm = system
    n = B.shape[0]
    krylov = 0
    fill = sizes = built = None
    if target is not None and target <= 1e-12 * np.linalg.norm(b):
        target = None  # the full-accuracy floor

    def backward_error(x):
        nonlocal norm
        if norm is None:
            norm = _max_norm(B)
        scale = norm * np.max(np.abs(x)) + np.max(np.abs(b))
        return float(np.max(np.abs(B @ x - b)) / (scale if scale > 0
                                                   else 1.0))

    def run(lu=None, cycle=None, maxiter=2000, fresh=False):
        """BiCGSTAB from ``x0`` preconditioned by the ``lu``, or by the
        V-cycle ``cycle`` over B (to VCYCLE_RTOL; built for this solve
        if ``fresh``), or by neither: x, its info and the iterations it
        took, which ``krylov`` adds up."""
        nonlocal krylov, fill, sizes, built
        rtol, apply, applied = 1e-12, None, 0
        if lu is not None:
            fill, apply = lu.fill, lu.solve
        if cycle is not None:
            rtol, sizes, built = VCYCLE_RTOL, cycle.sizes, fresh
            apply = functools.partial(cycle.solve, cycle.finest(B))

        def counted(v):
            nonlocal applied
            applied += 1
            return v if apply is None else apply(v)

        x, info = spla.bicgstab(
            B, b, x0=x0, rtol=rtol, atol=0.0 if target is None else target,
            maxiter=maxiter,
            M=spla.LinearOperator((n, n), matvec=counted, dtype=float))
        spent = (applied + 1) // 2
        krylov += spent
        return x, info, spent

    def stands(x, info):
        """No breakdown, and a full-accuracy x passes its check."""
        return info == 0 and (target is not None or
                              backward_error(x) <= RESIDUAL_CHECK)

    x = None
    if isinstance(route, _Held):
        path = "vcycle" if route.cycle else "lu_precond"
        if route.budget > 0:
            x, info, spent = run(cycle=route.held) if route.cycle else \
                run(lu=route.held, maxiter=route.budget)
            route.budget -= spent
            if not stands(x, info):
                x = None  # budget spent, breakdown or check failed
        if x is None and route.cycle:
            # a fresh cycle's own solve is not charged, as an LU's is not
            x, info, _ = run(cycle=route.rebuild(B, p), fresh=True)
            if not stands(x, info):
                # it failed on its own matrix: drop it
                x = route.held = None
                route.budget = 0
    elif route == "cycle":
        path = "vcycle"
        x, info, _ = run(cycle=_VCycle(B, p.aggregates), fresh=True)
    elif route == "bicgstab":
        path = "bicgstab"
        x, info, _ = run()
    if x is not None and info != 0:
        raise SolveError(f"BiCGSTAB ({path}) failed on {n} unknowns "
                         f"(info {info})")
    if x is None:
        path, target = "direct", None
        if route == "lu":
            reused = p._lu is not None
            if not reused:
                p._lu = _Factor(B, p.order)
            lu, path = p._lu, "lu_reuse" if reused else path
            if _scope is not None:
                _scope.reused_solves += reused
                _scope.factorizations += not reused
        elif isinstance(route, _Held) and not route.cycle:
            lu = route.rebuild(B, p)
        else:
            lu = _Factor(B, p.order)
        x = lu.solve(b)
        fill = lu.fill
    if target is None:
        res = backward_error(x)
        if not res <= RESIDUAL_CHECK:
            raise SolveError(f"{path} solve on {n} unknowns has backward "
                             f"error {res:.3e} > {RESIDUAL_CHECK:g}")
    else:
        res = float(np.linalg.norm(B @ x - b))
        if not res <= target:
            raise SolveError(f"inexact {path} solve on {n} unknowns has "
                             f"residual {res:.3e} > target {target:.3e}")
    if report is not None:
        report.update(path=path, unknowns=n, nnz=int(B.nnz),
                      krylov_iterations=krylov, residual=res,
                      target=target, fill=fill, levels=sizes,
                      levels_built=built)
    return x


RESIDUAL_CHECK = 1e-10
# the forcing term of inexact Howard (see ``solve_dirichlet``)
ETA = 0.1
# the BiCGSTAB iterations each build of a held preconditioner buys
PRECOND_BUDGET = 25
MAX_POLICIES = 50


def _same_policy(p, v, w):
    """Whether the policies v and w of ``p`` choose the same slopes at
    every node: the same members and, where a member's slopes depend on
    the sign, the same signs along that member's directions.  Different
    members never choose the same slopes at a node: Pucci frames differ
    in their directions, and linear members with equal weights at a node
    tie there for every iterate, so the lowest of them is chosen."""
    if not np.array_equal(v.member, w.member):
        return False
    return v.signs is None or not np.any(
        (v.signs ^ w.signs) & p._flips.take(v.member.astype(np.intp)))


def solve_dirichlet(p, tol=1e-8, start=None, response=None):
    """Solve a discrete problem by Howard policy iteration (ties pick
    the lowest index; a linear problem takes a single solve).  The
    first iterate takes its interior values from the GridField
    ``start`` if given (e.g. the solution of a nearby problem on the
    same grid), else the mean of the boundary ring.

    Howard is inexact (Dembo-Eisenstat-Steihaug): the solve of policy
    k, on the route ``_route`` gives the call, starts from the iterate
    u_k and stops at ETA ||r_k||_2, r_k = F_h(u_k) - f being both the
    nonlinear residual and that solve's initial linear residual.  The
    loop accepts or stops only after a full-accuracy solve (a repeated
    policy is solved again so, a linear problem's one policy at once).
    A repeat at a held preconditioner's floor (a full-accuracy solve
    above tol, not by the policy's own LU) factors the policy and holds
    its LU for the rest.

    ``response``, a boolean grid array marking ring nodes, asks for the
    linear response psi to the value on those nodes: B_pi psi = b_mask,
    with pi the accepted policy and b_mask what a unit value on the
    marked nodes (0 on the rest of the ring) contributes to its
    right-hand side, solved on the route at full accuracy (on the held
    LU, one back-solve when that LU is pi's).  For a problem whose
    policy does not move, the solution for ring values raised by c on
    the marked nodes is the solution plus c psi.

    Returns (GridField, record), and psi as a third GridField (1 on the
    marked nodes, 0 on the rest of the ring) when ``response`` is given.
    The record holds each policy's solve report (see ``_solve_sparse``)
    under ``solves``, and psi's under ``response``.  Raises SolveError
    with the residual history if MAX_POLICIES solves do not converge or
    a policy repeats after a full-accuracy solve above 10*tol.
    """
    grid = p.grid.copy()
    u = grid.values.ravel()
    ring = grid.mask.ravel() == BOUNDARY
    if start is not None:
        u[p.int_flat] = start.values.ravel()[p.int_flat]
    elif ring.any():
        u[p.int_flat] = float(np.mean(u[ring]))
    history, solves = [], []
    converged = False
    exact = p.linear
    # one extremum per iterate gives the residual and the next policy; a
    # linear problem's one policy is its member, and its exact first
    # solve needs no residual
    if p.linear:
        r, policy = None, Policy(np.zeros(p.n_interior, dtype=np.int8), None)
    else:
        r, policy = p.evaluate(u, want_policy=True)
    route = _route(p.n_interior, grid.dim, p.linear, p.sign_independent,
                   _scope is not None, response is not None)
    route = _Held(route) if route.startswith("held") else route
    for _ in range(MAX_POLICIES):
        report = {}
        u[p.int_flat] = _solve_sparse(
            p.assemble(policy), route, p, x0=u[p.int_flat],
            target=None if exact else ETA * float(np.linalg.norm(r)),
            report=report)
        solves.append(report)
        r, next_policy = p.evaluate(u, want_policy=True)
        res = float(np.max(np.abs(r)))
        history.append(res)
        repeat = _same_policy(p, next_policy, policy)
        if report["target"] is None:
            if res <= tol:
                converged = True
                break
            if repeat:
                if not isinstance(route, _Held) or report["path"] == "direct":
                    # policy fixed point at the linear-solver floor
                    break
                # a held preconditioner's floor: factor this policy
                route = _Held("held_lu")
        # a repeat is solved again at full accuracy before the loop stops
        exact = repeat
        policy = next_policy
    record = {"iterations": len(history), "residual_history": history,
              "converged": converged or history[-1] <= 10 * tol,
              "tol": tol, "solves": solves}
    if not record["converged"]:
        raise SolveError(
            f"no convergence in {len(history)} policies "
            f"(residual {history[-1]:.3e})", history)
    grid.values = u.reshape(grid.shape)
    if response is None:
        return grid, record
    psi = GridField(grid.origin, grid.h, grid.mask,
                    np.where(response, 1.0, 0.0))
    # pi's matrix is assembled again rather than kept through the loop,
    # where it would be alive while the next policy is chosen
    B, _, norm = p.assemble(policy)
    record["response"] = {}
    psi.values.ravel()[p.int_flat] = _solve_sparse(
        LinearSystem(B, p.ring_rhs(policy, psi.values), norm), route, p,
        report=record["response"])
    return grid, record, psi


# the residual and margin slack of comparison_check
COMPARISON_TOL = 1e-8


def comparison_check(p, u, v):
    """Discrete comparison principle report.

    If residual(u) <= tol <= residual(v) nodewise (u supersolution, v
    subsolution for the same f) and u >= v on boundary nodes, then
    u >= v - tol at all interior nodes under the certified scheme,
    tol = COMPARISON_TOL.
    """
    tol = COMPARISON_TOL
    ru = p.residual(u.values.ravel())
    rv = p.residual(v.values.ravel())
    ring = p.grid.mask == BOUNDARY
    sup_ok = float(np.max(ru)) <= tol
    sub_ok = float(np.min(rv)) >= -tol
    bnd_margin = float(np.min(u.values[ring] - v.values[ring])) \
        if ring.any() else math.inf
    diff = (u.values.ravel() - v.values.ravel())[p.int_flat]
    return {
        "supersolution_ok": sup_ok,
        "subsolution_ok": sub_ok,
        "boundary_margin": bnd_margin,
        "interior_margin": float(np.min(diff)),
        "holds": sup_ok and sub_ok and bnd_margin >= -tol
                 and float(np.min(diff)) >= -tol,
        "tol": tol,
    }

