"""Operator norms with structure-aware exactness, norming-point descriptors,
and distance-to-norming-set oracles, each distance one call of the only
p-sum, spaces.lp_norm_rows, on the profile of its part distances.

Certainty labels are load-bearing: downstream consumers (probes, membership
falsification) refuse to build certified objects out of heuristic values.

exact       -- closed form or structural reduction; trusted to round-off.
enumerated  -- finite extreme-point enumeration (plus local phase ascent in
               the complex sup-norm case); trusted at the documented budget.
heuristic   -- multistart ascent; a certified lower bound only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._search import (batch_rngs, batch_sizes, best_row, dual_align_rows,
                      phase_orbit_min_rows, phase_times, power_ascent_rows,
                      primal_align_rows, random_unit_rows)
from .errors import GeometryError, HeuristicRefusalError
from .operators import (Adjoint, Delift, Dense, Diagonal, DirectSum, Lift,
                        OperatorExpr, RankOne, Scale, to_matrix)
from .spaces import (INF, Space, SumSpace, block_rows, lp_norm,
                     lp_norm_rows, random_unit, unit_phase)

SIGN_ENUM_MAX_DIM = 20
PHASE_GRID = 64
PHASE_ENUM_MAX_DIM = 4


@dataclass
class NormResult:
    value: float
    certainty: str                      # exact | enumerated | heuristic
    witness: Optional[np.ndarray] = None
    method: str = ""

    @property
    def lower_bound(self) -> float:
        return self.value

    def is_certified(self) -> bool:
        return self.certainty in ("exact", "enumerated")

    def describe(self) -> dict:
        return {"value": self.value, "certainty": self.certainty,
                "method": self.method,
                "witness": None if self.witness is None else
                [float(np.real(w)) if np.imag(w) == 0 else
                 [float(np.real(w)), float(np.imag(w))] for w in self.witness]}


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def operator_norm(T: OperatorExpr, restarts: int = 64, iters: int = 400,
                  seed: int = 0) -> NormResult:
    if isinstance(T, Scale):
        inner = operator_norm(T.child, restarts, iters, seed)
        return NormResult(abs(T.scalar) * inner.value, inner.certainty,
                          inner.witness, f"scale*{inner.method}")
    if isinstance(T, Diagonal):
        alphas = T.alphas()
        mods = np.abs(alphas)
        k = int(mods.argmax())
        w = np.zeros(T.domain.dim, dtype=T.domain.dtype)
        w[k] = 1.0
        return NormResult(float(mods[k]), "exact", w, "diagonal-sup")
    if isinstance(T, Lift):
        inner = operator_norm(T.child, restarts, iters, seed)
        wit = None
        if inner.witness is not None:
            s = T.sum_space
            wit = s.join([inner.witness,
                          np.zeros(s.components[1].dim, dtype=s.dtype)])
        return NormResult(inner.value, inner.certainty, wit, "lift")
    if isinstance(T, DirectSum):
        parts = [operator_norm(c, restarts, iters, seed) for c in T.children]
        k = int(np.argmax([p.value for p in parts]))
        cert = "exact" if all(p.is_certified() for p in parts) else "heuristic"
        cert = parts[k].certainty if cert == "exact" else "heuristic"
        wit = None
        if parts[k].witness is not None:
            blocks = [np.zeros(c.domain.dim, dtype=T.domain.dtype)
                      for c in T.children]
            blocks[k] = parts[k].witness
            wit = T.domain.join(blocks)
        return NormResult(parts[k].value, cert, wit, "direct-sum-max")
    if isinstance(T, RankOne):
        ncod = T.codomain.norm(T.y)
        f_norm = T.domain.dual().norm(T.xstar)
        wit = primal_align_rows(T.xstar[None, :], T.domain.p)[0] \
            if f_norm > 0 else None
        return NormResult(ncod * f_norm, "exact", wit, "rank-one")
    if isinstance(T, (Adjoint, Delift)):
        M = to_matrix(T)
        return _dense_norm(M, T.domain, T.codomain, restarts, iters, seed)
    if isinstance(T, Dense):
        return _dense_norm(T.matrix, T.domain, T.codomain, restarts, iters, seed)
    raise TypeError(f"unknown operator node {type(T).__name__}")


def _dense_norm(M, dom, cod, restarts, iters, seed) -> NormResult:
    if isinstance(dom, SumSpace) or isinstance(cod, SumSpace):
        return _sum_space_norm(M, dom, cod, restarts, iters, seed)
    if cod.dim == 1:
        f = M[0]
        val = dom.dual().norm(f)
        wit = primal_align_rows(f[None, :], dom.p)[0] if val > 0 else None
        return NormResult(float(val), "exact", wit, "functional-dual-norm")
    if dom.p == 1:
        cols = lp_norm_rows(M.T, cod.p)
        j = int(cols.argmax())
        w = np.zeros(dom.dim, dtype=dom.dtype)
        w[j] = 1.0
        return NormResult(float(cols[j]), "exact", w, "l1-max-column")
    if cod.p == INF:
        rows = lp_norm_rows(M, dom.dual().p)
        i = int(rows.argmax())
        wit = primal_align_rows(M[i][None, :], dom.p)[0] if rows[i] > 0 else None
        return NormResult(float(rows[i]), "exact", wit, "sup-max-row")
    if dom.p == 2 and cod.p == 2:
        U, S, Vh = np.linalg.svd(M)
        wit = np.conj(Vh[0])
        return NormResult(float(S[0]), "exact", wit.astype(dom.dtype), "svd")
    if dom.p == INF and not dom.is_complex and dom.dim <= SIGN_ENUM_MAX_DIM:
        val, wit = _sign_enumerate(M, dom, cod)
        return NormResult(val, "enumerated", wit, "sign-enumeration")
    if dom.p == INF and dom.is_complex and dom.dim <= PHASE_ENUM_MAX_DIM:
        val, wit = _phase_enumerate(M, dom, cod)
        return NormResult(val, "enumerated", wit, "phase-grid-refined")
    val, wit = _multistart_norm(M, dom, cod, restarts, iters, seed)
    return NormResult(val, "heuristic", wit, "boyd-multistart")


def _sign_chunks(M, dom, cod):
    """The sign vectors of {-1, 1}^dim with last entry -1, the binary indices
    below 2^(dim - 1), in binary order, in chunks of at most 2^14 rows, with
    the codomain norms of their images: (signs, vals).  M(-s) is bitwise
    -(Ms) at the larger complement index, so the other half repeats them.

    Within a chunk the low min(dim - 1, 14) bits run through a table built
    once and the chunk's index sets the high columns, so every chunk is one
    buffer: a caller that keeps a row past the next chunk must copy it.  The
    images, too, go to one buffer, since a fresh multi-megabyte array per
    chunk costs its page faults again every time."""
    d = dom.dim
    low = min(d - 1, 14)
    signs = np.empty((1 << low, d))
    signs[:, :low] = ((np.arange(1 << low)[:, None] >> np.arange(low)) & 1) \
        * 2.0 - 1.0
    signs[:, -1] = -1.0
    images = np.empty((1 << low, len(M)), dtype=np.result_type(M, float))
    for c in range(1 << (d - 1 - low)):
        signs[:, low:-1] = ((c >> np.arange(d - 1 - low)) & 1) * 2.0 - 1.0
        yield signs, lp_norm_rows(np.matmul(signs, M.T, out=images), cod.p)


def _sign_enumerate(M, dom, cod):
    best_val, best_sign = -1.0, None
    for signs, vals in _sign_chunks(M, dom, cod):
        k = int(vals.argmax())
        if vals[k] > best_val:
            best_val, best_sign = float(vals[k]), signs[k].copy()
    return best_val, best_sign


def _phase_grid(M, dom, cod):
    """The first best point of a PHASE_GRID-point phase grid per coordinate,
    the first pinned to 1 by the global phase freedom: (value, x).

    The grid runs in row-major order over (theta_1, ..., theta_{d-1}), in
    chunks of one table over the last min(d - 1, 2) phases, at most 4096
    rows, built once; a chunk rewrites only the leading phase columns."""
    d = dom.dim
    phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, PHASE_GRID,
                                     endpoint=False))
    lead = max(d - 3, 0)
    tail = np.meshgrid(*([phases] * (d - 1 - lead)), indexing="ij")
    X = np.ones((tail[0].size if d > 1 else 1, d), dtype=complex)
    for j, g in enumerate(tail):
        X[:, 1 + lead + j] = g.ravel()
    best_val, x = -1.0, None
    for head in np.ndindex(*([PHASE_GRID] * lead)):
        X[:, 1:1 + lead] = phases[list(head)]
        vals = lp_norm_rows(X @ M.T, cod.p)
        k = int(vals.argmax())
        if vals[k] > best_val:
            best_val, x = vals[k], X[k].copy()
    return best_val, x


def _phase_enumerate(M, dom, cod):
    """The phase grid's first best point, then the ascent x <- the unimodular
    x' aligned with M^T u, u the dual alignment of Mx, while ||Mx||_q rises
    strictly, for at most 2000 steps (Boyd 1974: ||Mx'||_q >= |<u, Mx'>| =
    ||M^T u||_1 >= <u, Mx> = ||Mx||_q): (||Mx||_q, x).

    This is power_ascent_rows's step, but not its stop: that one ends at the
    first gain of at most 1e-13.  From the grid's point on 16 random complex
    dim-3/4 matrices (q = 2) it ended lower on 15, by up to 3.1e-13, and on
    the dim-3 matrices of tests/test_dense_routes.py 9 to 18 ulps below the
    golden polish this ascent replaced, where the test allows 4."""
    x = _phase_grid(M, dom, cod)[1]
    val = lp_norm(M @ x, cod.p)
    for _ in range(2000):
        xn = primal_align_rows(dual_align_rows((M @ x)[None, :], cod.p) @ M,
                               INF)[0]
        vn = lp_norm(M @ xn, cod.p)
        if not vn > val:
            break
        x, val = xn, vn
    return val, x


def _multistart_norm(M, dom, cod, restarts, iters, seed):
    """Boyd's ascent (power_ascent_rows) from restarts random starts, drawn
    in batches of 16 and one of the remainder, batch b from the b-th
    SeedSequence(seed) child.  All starts ascend as the rows of one call;
    the first best row of each batch, then the best batch, wins, as if each
    batch ran alone.  Returns (value, x)."""
    sizes = batch_sizes(restarts, 16)
    X0 = np.concatenate([random_unit_rows(rng, n, dom.dim, dom.p,
                                          dom.is_complex)
                         for rng, n in zip(batch_rngs(seed, len(sizes)),
                                           sizes)])
    vals, X = power_ascent_rows(M, dom, cod, X0, iters)
    k = best_row(vals, sizes)
    return float(vals[k]), X[k]


def _sum_space_norm(M, dom, cod, restarts, iters, seed):
    """Generic power ascent from restarts random starts, drawn in batches
    of 8 and one of the remainder, batch b from the b-th SeedSequence(seed)
    child.  All starts ascend as the rows of one power_ascent_rows call; the
    first best row of each batch, then the best batch, wins, as if each
    batch ran alone."""
    sizes = batch_sizes(restarts, 8)
    X0 = np.array([random_unit(dom, rng)
                   for rng, n in zip(batch_rngs(seed, len(sizes)), sizes)
                   for _ in range(n)])
    vals, X = power_ascent_rows(M, dom, cod, X0, iters)
    k = best_row(vals, sizes)
    return NormResult(float(vals[k]), "heuristic", X[k],
                      "sum-space-multistart")


# ---------------------------------------------------------------------------
# norming sets
# ---------------------------------------------------------------------------

@dataclass
class NormingSetDescriptor:
    """A machine-checkable description of {x unit : ||Tx|| = ||T||}.

    kinds:
      support_constrained -- unit vectors supported on J (lp domains, p < inf)
      coordinate_unimodular -- unit sup-norm vectors with |x(n)| = 1 for some
                               n in J
      explicit_list       -- finitely many points, optionally modulo a global
                             phase, optionally with free coordinates that
                             members may fill with any unit-ball value
      subspace            -- the unit sphere of a linear subspace (Hilbert)
      empty               -- no norming points
    """

    kind: str
    space: object = None
    J: Optional[tuple] = None
    points: tuple = ()
    phase_orbit: bool = False
    free_mask: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None          # columns orthonormal
    note: str = ""

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    # -- exact distances ----------------------------------------------------

    def distance(self, x: np.ndarray) -> float:
        return float(self.distance_rows(np.asarray(x)[None, :])[0])

    def distance_rows(self, X: np.ndarray) -> np.ndarray:
        """The exact distance of every row of X (R, dim) to the set, (R,)."""
        X = np.asarray(X)
        if self.kind == "empty":
            return np.full(X.shape[0], np.inf)
        if self.kind == "support_constrained":
            return support_distance_rows(X, self.J, self.space)
        if self.kind == "coordinate_unimodular":
            return unimodular_distance_rows(X, self.J)
        if self.kind == "explicit_list":
            return np.minimum.reduce([self._point_distance_rows(X, np.asarray(v))
                                      for v in self.points])
        if self.kind == "subspace":
            return subspace_sphere_distance_rows(X, self.basis)
        raise GeometryError(f"unknown norming-set kind {self.kind}")

    def _point_distance_rows(self, X, v):
        space = self.space
        mask = None if self.free_mask is None else np.asarray(self.free_mask)

        def dist_for(phi, rows):
            """phi: one phase for all rows, or one per row as (R, 1)."""
            D = X[rows] - phase_times(phi, v)
            if mask is not None:
                D = np.where(mask, 0.0, D)
            return lp_norm_rows(np.asarray(D, dtype=space.dtype), space.p)

        every = slice(None)
        if not self.phase_orbit:
            return dist_for(1.0, every)
        if not space.is_complex:
            return np.minimum(dist_for(1.0, every), dist_for(-1.0, every))
        return phase_orbit_min_rows(dist_for, tol=1e-13)[1]

    # -- sampling -----------------------------------------------------------

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            if self.kind == "support_constrained":
                v = np.zeros(self.space.dim, dtype=self.space.dtype)
                sub = rng.normal(size=len(self.J)) + \
                    (1j * rng.normal(size=len(self.J))
                     if self.space.is_complex else 0.0)
                v[list(self.J)] = sub
                out.append(v / self.space.norm(v))
            elif self.kind == "coordinate_unimodular":
                v = rng.uniform(-1, 1, self.space.dim).astype(self.space.dtype)
                if self.space.is_complex:
                    v = v * np.exp(2j * np.pi * rng.uniform(size=self.space.dim))
                n = self.J[int(rng.integers(len(self.J)))]
                v[n] = np.exp(2j * np.pi * rng.uniform()) \
                    if self.space.is_complex else rng.choice([-1.0, 1.0])
                out.append(v)
            elif self.kind == "explicit_list":
                v = np.asarray(self.points[int(rng.integers(len(self.points)))],
                               dtype=self.space.dtype).copy()
                if self.phase_orbit:
                    v = v * (np.exp(2j * np.pi * rng.uniform())
                             if self.space.is_complex else rng.choice([-1.0, 1.0]))
                if self.free_mask is not None:
                    fill = rng.uniform(-1, 1, self.space.dim)
                    v[self.free_mask] = fill[self.free_mask]
                out.append(v)
            elif self.kind == "subspace":
                k = self.basis.shape[1]
                c = rng.normal(size=k) + (1j * rng.normal(size=k)
                                          if np.iscomplexobj(self.basis) else 0.0)
                v = self.basis @ c
                out.append(v / np.linalg.norm(v))
            else:
                raise GeometryError("cannot sample an empty norming set")
        return out

    def describe(self) -> dict:
        d = {"kind": self.kind, "note": self.note}
        if self.J is not None:
            d["J"] = list(self.J)
        if self.kind == "explicit_list":
            d["count"] = len(self.points)
            d["phase_orbit"] = self.phase_orbit
        return d


class UnionNormingSet(NormingSetDescriptor):
    """Union of norming sets; distance is the min over the parts (exact when
    each part is exact)."""

    def __init__(self, parts):
        super().__init__("union")
        self.parts = list(parts)

    @property
    def is_empty(self):
        return all(p.is_empty for p in self.parts)

    def distance_rows(self, X):
        return np.minimum.reduce([p.distance_rows(X) for p in self.parts])

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            p = self.parts[int(rng.integers(len(self.parts)))]
            out.extend(p.sample(rng, 1))
        return out

    def describe(self):
        return {"kind": "union", "parts": [p.describe() for p in self.parts]}


def support_distance(x: np.ndarray, J, space) -> float:
    """Exact distance from x to the unit vectors supported on J."""
    return float(support_distance_rows(np.asarray(x)[None, :], J, space)[0])


def support_distance_rows(X: np.ndarray, J, space) -> np.ndarray:
    """support_distance of every row of X.  The nearest point is the radial
    rescaling of the J-restriction, for every p in [1, inf], so the distance
    is the lp norm of the profile (|1 - ||x_J|||, ||x_offJ||)."""
    mask = np.zeros(X.shape[1], dtype=bool)
    mask[list(J)] = True
    D = np.empty((len(X), 2))
    D[:, 0] = np.abs(1.0 - lp_norm_rows(X[:, mask], space.p))
    D[:, 1] = lp_norm_rows(X[:, ~mask], space.p)
    return lp_norm_rows(D, space.p)


def unimodular_distance_rows(X: np.ndarray, J) -> np.ndarray:
    """Distance of every row of a sup-norm X to the unit vectors with a
    unimodular coordinate in J: the least 1 - |x(n)| over n in J."""
    return np.maximum(0.0, (1.0 - np.abs(X[:, list(J)])).min(axis=1))


def subspace_sphere_distance(x: np.ndarray, basis: np.ndarray) -> float:
    """Exact Hilbert distance from x to the unit sphere of span(basis)."""
    return float(subspace_sphere_distance_rows(np.asarray(x)[None, :],
                                               basis)[0])


def subspace_sphere_distance_rows(X: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """subspace_sphere_distance of every row of X: the l2 norm of the profile
    (1 - ||P x||, ||x - P x||), P the orthogonal projection, by one stack of
    matrix-vector products and a kernel call on the stacked rows."""
    P = ((X[:, None, :] @ np.conj(basis)) @ basis.T)[:, 0, :]
    D = lp_norm_rows(np.concatenate([P, X - P]), 2.0).reshape(2, -1)
    D[0] = 1.0 - D[0]
    return lp_norm_rows(D.T, 2.0)


def block_product_rows(X: np.ndarray, space: SumSpace, parts) -> np.ndarray:
    """The distance of every row of X (R, dim) to a product of per-block
    sets of the sum (the attaining sets on sums): parts[i](B) -> (R,) is the
    distance of the rows' i-th blocks B to the i-th set.  The distances
    combine by the outer norm, the kernel lp_norm_rows of the (R, k)
    profile; a row with an infinite part (an empty set) is infinite."""
    D = block_rows(np.asarray(X, dtype=space.dtype), space._offsets, parts)
    far = np.isinf(D).any(axis=1)
    D[far] = 0.0                # settled below: the kernel takes finite rows
    return np.where(far, np.inf, lp_norm_rows(D, space.outer_p))


def point_rows(v: np.ndarray, norm_rows, free):
    """The block distance to the point v in norm_rows, ignoring the
    coordinates of the mask free (None for none)."""
    def rows(B):
        D = B - v
        return norm_rows(D if free is None else np.where(free, 0.0, D))
    return rows


def sphere_rows(basis: np.ndarray):
    """The block distance to the unit sphere of span(basis) (Hilbert)."""
    return lambda B: subspace_sphere_distance_rows(B, basis)


def ball_rows(norm_rows):
    """The block distance to the unit ball of norm_rows: max(||b|| - 1, 0).
    The block distance to zero is norm_rows itself."""
    def rows(B):
        over = norm_rows(B) - 1.0
        return np.where(over > 0.0, over, 0.0)
    return rows


def hilbert_norm_modulus(M: np.ndarray, eps: float, tol: float = 1e-12):
    """The exact stability modulus of a norm-one Hilbert-to-Hilbert operator:
    with V1 the top right-singular subspace and s2 the next singular value,
    the best feasible point splits its mass a on V1 (a <= 1 - eps^2/2), so

        eta(eps) = 1 - sqrt(a^2 + s2^2 (1 - a^2)),   a = max(0, 1 - eps^2/2).

    Returns None when no unit vector is eps-far from the norming set."""
    S = np.linalg.svd(M, compute_uv=False)
    if abs(S[0] - 1.0) > 1e-9:
        raise GeometryError("modulus formula needs a norm-one operator")
    rest = S[S < S[0] * (1 - tol)]
    if rest.size == 0:
        return None                     # every unit vector is norming
    s2 = float(rest.max())
    if eps > np.sqrt(2.0):
        return None                     # nothing is that far from the sphere cap
    a = max(0.0, 1.0 - eps * eps / 2.0)
    return 1.0 - float(np.sqrt(a * a + s2 * s2 * (1.0 - a * a)))


def norming_set(T: OperatorExpr, norm_result: Optional[NormResult] = None,
                tol: float = 1e-12) -> NormingSetDescriptor:
    nr = norm_result if norm_result is not None else operator_norm(T)
    if not nr.is_certified():
        raise HeuristicRefusalError(
            "norming set refused: only a heuristic norm is available")
    if nr.value == 0.0:
        return NormingSetDescriptor("empty", note="zero operator")

    if isinstance(T, Scale):
        return norming_set(T.child, None, tol)
    if isinstance(T, Lift):
        return LiftedNormingSet(norming_set(T.child, None, tol), T.sum_space)
    if isinstance(T, Diagonal):
        mods = np.abs(T.alphas())
        J = tuple(int(i) for i in np.nonzero(mods >= nr.value * (1 - tol))[0])
        if T.domain.p == INF:
            return NormingSetDescriptor("coordinate_unimodular",
                                        space=T.domain, J=J)
        return NormingSetDescriptor("support_constrained", space=T.domain, J=J)
    if isinstance(T, RankOne):
        return functional_norming_set(T.xstar, T.domain, tol)
    if isinstance(T, (Dense, Adjoint, Delift)):
        M = to_matrix(T)
        dom, cod = T.domain, T.codomain
        if isinstance(dom, SumSpace) or isinstance(cod, SumSpace):
            raise HeuristicRefusalError(
                "norming sets on sum spaces are provided by structured "
                "entries, not generic dense operators")
        if cod.dim == 1:
            return functional_norming_set(M[0], dom, tol)
        if dom.p == 2 and cod.p == 2:
            U, S, Vh = np.linalg.svd(M)
            keep = S >= S[0] * (1 - tol)
            basis = np.conj(Vh[keep]).T
            return NormingSetDescriptor("subspace", space=dom, basis=basis)
        if cod.p == INF:
            rows = lp_norm_rows(M, dom.dual().p)
            keep = np.nonzero(rows >= rows.max() * (1 - tol))[0]
            return UnionNormingSet([functional_norming_set(M[i], dom, tol)
                                    for i in keep])
        if dom.p == 1:
            cols = lp_norm_rows(M.T, cod.p)
            J = tuple(int(j) for j in
                      np.nonzero(cols >= cols.max() * (1 - tol))[0])
            if len(J) == 1:
                e = np.zeros(dom.dim, dtype=dom.dtype)
                e[J[0]] = 1.0
                return NormingSetDescriptor("explicit_list", space=dom,
                                            points=(e,), phase_orbit=True)
            return NormingSetDescriptor(
                "support_constrained", space=dom, J=J,
                note="superset: image-alignment across columns not encoded")
        if dom.p == INF and not dom.is_complex and nr.method == "sign-enumeration":
            pts = _enumerated_norming_points(M, dom, cod, nr.value, tol)
            return NormingSetDescriptor("explicit_list", space=dom, points=pts)
    raise HeuristicRefusalError(
        f"no certified norming-set rule for {type(T).__name__} on this geometry")


class LiftedNormingSet(NormingSetDescriptor):
    """Norming set of a lifted operator: {(w, z) : w norming for the child,
    z = 0} for outer p < inf; z free in the ball for outer p = inf."""

    def __init__(self, inner: NormingSetDescriptor, sum_space: SumSpace):
        super().__init__("lifted", space=sum_space)
        self.inner = inner
        z = sum_space.components[1].norm_rows
        self.parts = [inner.distance_rows,
                      ball_rows(z) if sum_space.outer_p == INF else z]

    @property
    def is_empty(self):
        return self.inner.is_empty

    def distance_rows(self, X):
        return block_product_rows(X, self.space, self.parts)

    def sample(self, rng, count: int = 1):
        s = self.space
        out = []
        for w in self.inner.sample(rng, count):
            z = np.zeros(s.components[1].dim, dtype=s.dtype)
            out.append(s.join([w, z]))
        return out

    def describe(self):
        return {"kind": "lifted", "inner": self.inner.describe()}


def functional_norming_set(f: np.ndarray, dom: Space,
                           tol: float = 1e-12) -> NormingSetDescriptor:
    """Norming points of the functional x -> <f, x> on the domain geometry."""
    f = np.asarray(f)
    val = dom.dual().norm(f)
    if val == 0:
        return NormingSetDescriptor("empty", note="zero functional")
    if 1.0 < dom.p < INF:
        x = primal_align_rows(f[None, :], dom.p)[0]
        return NormingSetDescriptor("explicit_list", space=dom,
                                    points=(x,), phase_orbit=True)
    if dom.p == 1:
        mods = np.abs(f)
        J = tuple(int(j) for j in np.nonzero(mods >= val * (1 - tol))[0])
        if len(J) == 1:
            e = np.zeros(dom.dim, dtype=dom.dtype)
            e[J[0]] = np.conj(f[J[0]] / abs(f[J[0]]))
            return NormingSetDescriptor("explicit_list", space=dom,
                                        points=(e,), phase_orbit=True)
        return NormingSetDescriptor(
            "support_constrained", space=dom, J=J,
            note="superset: phase alignment across J not encoded")
    # sup-norm domain: aligned pattern on supp(f), free elsewhere
    supp = np.abs(f) > tol * val
    pattern = np.zeros(dom.dim, dtype=dom.dtype)
    pattern[supp] = np.conj(unit_phase(f[supp]))
    free = ~supp
    return NormingSetDescriptor("explicit_list", space=dom, points=(pattern,),
                                phase_orbit=True,
                                free_mask=free if free.any() else None)


def _enumerated_norming_points(M, dom, cod, value, tol):
    """Every s with ||Ms|| >= value * (1 - tol) in binary order: the half's
    in order, then their negations, at the complement indices, reversed."""
    half = [signs[k].copy() for signs, vals in _sign_chunks(M, dom, cod)
            for k in np.nonzero(vals >= value * (1 - tol))[0]]
    return tuple(half + [-s for s in reversed(half)])


def distance_to_norming_set(x: np.ndarray, T: OperatorExpr,
                            descriptor: Optional[NormingSetDescriptor] = None,
                            norm_result: Optional[NormResult] = None) -> float:
    desc = descriptor if descriptor is not None else norming_set(T, norm_result)
    return desc.distance(np.asarray(x))
