"""Numerical radius nu(T) = sup |<x*, T x>| over state pairs, attaining-state
descriptors, and distances of a state pair to the attaining set.

Geometry-specific exact routes:

* real Hilbert: the skew part contributes nothing to <T x, x>, so nu is the
  spectral radius of the symmetric part;
* complex Hilbert: nu = max over rotations of the top eigenvalue of the
  Hermitian part of e^{i t} T, refined by golden section;
* l1 (real or complex): every state pair forces x*(n) x(n) = |x(n)|, and the
  maximum of a convex functional over the l1 sphere sits at a coordinate
  vertex, so nu equals the largest column absolute sum;
* sup-norm truncations: the transpose reduction of the l1 route;
* lifted operators on two-block sums: nu = c(p) ||T|| with
  c(p) = (1/p)^(1/p) (1/q)^(1/q)  (c(1) = c(inf) = 1).

Every other route, on flat spaces and on sums, maximizes the support-face
value sup |<x*, y>| over the functionals x* supporting x, for y = T x.  Its
one engine is best_state_functional_rows(Y, X, space), which returns that
value and an x* attaining it for every row pair: face_sup_rows is its value,
which on a sum leaves x* unassembled, the nu probe's state
(probe.aligned_state_functional) its functional, and face_sup and
best_state_functional its one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._search import (batch_rngs, batch_sizes, best_row, complex_parts,
                      dual_align_rows, golden_max, matvec_rows,
                      phase_orbit_min_rows, phase_times, polish_rows,
                      polish_source)
from .errors import (DimensionMismatchError, GeometryError,
                     HeuristicRefusalError)
from .norm_attainment import (block_product_rows, operator_norm,
                              subspace_sphere_distance_rows,
                              support_distance_rows, unimodular_distance_rows)
from .operators import (Adjoint, Dense, Diagonal, DirectSum, Lift, OperatorExpr,
                        RankOne, Scale, to_matrix)
from .spaces import (INF, Space, StatePair, SumSpace, conjugate_exponent,
                     duality_map, duality_map_rows, lp_norm_rows, unit_phase,
                     unit_rows)

THETA_GRID = 256
NU_TOL = 1e-10


def corner_profile_constant(p: float) -> float:
    """max { a b^(p-1) : a^p + b^p = 1 } = (1/p)^(1/p) (1/q)^(1/q)."""
    if p == 1 or p == INF:
        return 1.0
    q = conjugate_exponent(p)
    return (1.0 / p) ** (1.0 / p) * (1.0 / q) ** (1.0 / q)


@dataclass
class NuResult:
    value: float
    certainty: str                      # exact | grid_refined | heuristic
    witness: Optional[StatePair] = None
    method: str = ""

    @property
    def lower_bound(self) -> float:
        return self.value

    def is_certified(self) -> bool:
        return self.certainty in ("exact", "grid_refined")

    def describe(self) -> dict:
        return {"value": self.value, "certainty": self.certainty,
                "method": self.method}


def numerical_radius(T: OperatorExpr, restarts: int = 64, iters: int = 300,
                     seed: int = 0) -> NuResult:
    if not T.is_square:
        raise GeometryError("numerical radius needs a square operator")
    if isinstance(T, Scale):
        inner = numerical_radius(T.child, restarts, iters, seed)
        return NuResult(abs(T.scalar) * inner.value, inner.certainty,
                        inner.witness, f"scale*{inner.method}")
    if isinstance(T, Diagonal):
        alphas = T.alphas()
        mods = np.abs(alphas)
        k = int(mods.argmax())
        e = np.zeros(T.domain.dim, dtype=T.domain.dtype)
        e[k] = 1.0
        wit = StatePair(e, e.copy(), T.domain)
        return NuResult(float(mods[k]), "exact", wit, "diagonal-sup")
    if isinstance(T, Lift):
        inner = operator_norm(T.child, restarts, iters, seed)
        c = corner_profile_constant(T.outer_p)
        cert = "exact" if inner.is_certified() else "heuristic"
        return NuResult(c * inner.value, cert, None, "lift-profile")
    if isinstance(T, (Dense, Adjoint, RankOne, DirectSum)):
        M = to_matrix(T)
        return _dense_nu(M, T.domain, restarts, iters, seed)
    raise TypeError(f"unknown operator node {type(T).__name__}")


def _dense_nu(M: np.ndarray, space, restarts, iters, seed) -> NuResult:
    if isinstance(space, SumSpace):
        return _multistart_nu(M, space, restarts, iters, seed)
    p = space.p
    if p == 2 and not space.is_complex:
        S = (M + M.T) / 2.0
        vals, vecs = np.linalg.eigh(S)
        k = int(np.abs(vals).argmax())
        v = vecs[:, k]
        wit = StatePair(v, v.copy(), space)
        return NuResult(float(abs(vals[k])), "exact", wit, "symmetric-part")
    if p == 2 and space.is_complex:
        return _complex_hilbert_nu(M, space)
    if p == 1:
        cols = np.abs(M).sum(axis=0)
        i = int(cols.argmax())
        wit = _l1_witness(M, space, i)
        return NuResult(float(cols[i]), "exact", wit, "l1-column-sums")
    if p == INF:
        rows = np.abs(M).sum(axis=1)
        i = int(rows.argmax())
        wit = _linf_witness(M, space, i)
        return NuResult(float(rows[i]), "exact", wit, "sup-row-sums")
    return _multistart_nu(M, space, restarts, iters, seed)


def _complex_hilbert_nu(M: np.ndarray, space) -> NuResult:
    """The module's complex Hilbert route.  The rotation by t + pi is minus
    the one by t, so one eigvalsh over the THETA_GRID // 2 rotations in
    [0, pi) gives every grid top: lambda_max, then -lambda_min."""
    H = (M + np.conj(M.T)) / 2.0
    K = 1j * (M - np.conj(M.T)) / 2.0

    def top(theta: float) -> float:
        return float(np.linalg.eigvalsh(np.cos(theta) * H + np.sin(theta) * K)[-1])

    thetas = np.linspace(0.0, 2 * np.pi, THETA_GRID, endpoint=False)
    half = thetas[:THETA_GRID // 2]
    w = np.linalg.eigvalsh(np.cos(half)[:, None, None] * H +
                           np.sin(half)[:, None, None] * K)
    vals = np.concatenate([w[:, -1], -w[:, 0]])
    k = int(vals.argmax())
    width = 2 * np.pi / THETA_GRID
    t_star, v_star = golden_max(top, thetas[k] - width, thetas[k] + width,
                                tol=NU_TOL * 1e-2)
    if vals[k] > v_star:
        t_star, v_star = thetas[k], vals[k]
    w, vecs = np.linalg.eigh(np.cos(t_star) * H + np.sin(t_star) * K)
    v = vecs[:, -1]
    wit = StatePair(v, np.conj(v), space)
    return NuResult(float(v_star), "grid_refined", wit, "theta-grid-eigh")


def _l1_witness(M, space, i) -> StatePair:
    d = space.dim
    x = np.zeros(d, dtype=space.dtype)
    x[i] = 1.0
    col = M[:, i]
    psi = col[i] / abs(col[i]) if col[i] != 0 else 1.0
    xs = np.zeros(d, dtype=np.complex128 if space.is_complex else np.float64)
    xs[i] = 1.0
    for j in range(d):
        if j != i and col[j] != 0:
            xs[j] = psi * np.conj(col[j] / abs(col[j]))
    return StatePair(x, xs.astype(space.dtype, copy=False), space)


def _linf_witness(M, space, i) -> StatePair:
    inner = _l1_witness(M.T, Space(1.0, space.dim, space.field), i)
    return StatePair(inner.xstar, inner.x, space)


# ---------------------------------------------------------------------------
# the support-face engine: sup of |<x*, y>| over functionals supporting x
# ---------------------------------------------------------------------------

def face_sup(y: np.ndarray, x: np.ndarray, space) -> float:
    """sup over x* supporting the unit vector x of |<x*, y>|: the one-row
    call of face_sup_rows."""
    return float(face_sup_rows(np.asarray(y)[None, :],
                               np.asarray(x)[None, :], space)[0])


def face_sup_rows(Y: np.ndarray, X: np.ndarray, space) -> np.ndarray:
    """face_sup for every row pair (y, x) of Y and X (R, dim): the values
    of best_state_functional_rows, which on a sum leaves x* unassembled."""
    if isinstance(space, SumSpace):
        return _sum_face_rows(Y, X, space, functionals=False)[0]
    return best_state_functional_rows(Y, X, space)[0]


def best_state_functional(y: np.ndarray, x: np.ndarray, space):
    """(face_sup(y, x, space), x*) with x* supporting x and attaining it;
    exact for flat spaces and for sums of flat blocks.  The one-row call of
    best_state_functional_rows."""
    vals, XS = best_state_functional_rows(np.asarray(y)[None, :],
                                          np.asarray(x)[None, :], space)
    return float(vals[0]), XS[0]


def _sum_face_rows(Y, X, space, functionals: bool):
    """(values (R,), functionals (R, dim) or None) of the support face on a
    sum, for every row pair (y, x) of Y and X, in one pass over the blocks.

    Under outer p < inf the reachable set {<x*, y> : x* supports x} is a
    Minkowski sum: each massed block adds its weighted duality-map center,
    l1 disk or sup-norm peak set, and under outer 1 each massless block b
    adds a disk of radius ||y_b||.  Its modulus peaks at the best Minkowski
    point plus every radius; x* is built there, aligning every disk with the
    phase psi of that point.  Under outer inf the set is the hull of the
    peak blocks' sets, so the best peak block carries all of x*.

    Every row rounds as its one-row call: block norms by lp_norm_rows, the
    points summed in block order from 0, moduli by hypot, and among tied
    points the first in the order of the peak indices, the last block
    varying fastest.
    """
    dtype = space.dtype
    X, Y = np.asarray(X, dtype=dtype), np.asarray(Y, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != space.dim or Y.shape != X.shape:
        raise DimensionMismatchError(
            f"expected rows of length {space.dim}, got {X.shape} and "
            f"{Y.shape}")
    blocks = [(c, a, X[:, a:b], Y[:, a:b])
              for c, (a, b) in zip(space.components, space._offsets)]
    N = space.profile_rows(X)
    if space.outer_p == INF:
        return _peak_block_face_rows(blocks, N, X.shape, dtype, functionals)
    return _minkowski_face_rows(blocks, N, space.outer_p, X.shape, dtype,
                                functionals)


def _peak_block_face_rows(blocks, N, shape, dtype, functionals):
    """The outer-inf face: the best flat face among the blocks of norm one,
    the first among ties; 0 and the zero functional when none has norm
    one."""
    R = len(N)
    best, at = np.zeros(R), np.full(R, -1)
    faces = []
    for i, (c, a, bx, by) in enumerate(blocks):
        rows = np.flatnonzero(np.abs(N[:, i] - 1.0) <= 1e-9)
        if not rows.size:
            continue
        vals, XS = best_state_functional_rows(by[rows], bx[rows], c)
        win = (at[rows] < 0) | (vals > best[rows])
        best[rows[win]], at[rows[win]] = vals[win], i
        faces.append((i, a, c.dim, rows, XS))
    if not functionals:
        return best, None
    out = np.zeros(shape, dtype=dtype)
    for i, a, dim, rows, XS in faces:
        mine = at[rows] == i
        out[rows[mine], a:a + dim] = XS[mine]
    return best, out


def _minkowski_face_rows(blocks, N, op, shape, dtype, functionals):
    """The outer p < inf face: the Minkowski points of every row, the best
    one, and, when asked, x* assembled there."""
    R = len(N)
    W = np.ones_like(N) if op == 1 else N ** (op - 1.0)
    # a zero block norm is massless, one below 2^-1022 too coarse to divide
    # by, so unit_rows divides
    any_small = np.count_nonzero(N >= 2.0 ** -1022) < N.size
    radius = 0.0
    terms = []      # per block: its center (R,), or its peak values and mask
    parts = []      # per block: what its part of x* is built from
    for i, (c, _a, bx, by) in enumerate(blocks):
        n, w, massless = N[:, i], W[:, i], None
        if any_small and np.count_nonzero(n) < R:
            massless = n == 0
            n = np.where(massless, 1.0, n)
            if op == 1 and c.p != 1:    # the l1 disk below covers p = 1
                radius = radius + np.where(massless, lp_norm_rows(by, c.p),
                                           0.0)
        XB = unit_rows(bx, n, c.p) if any_small else bx / n[:, None]
        if 1.0 < c.p < INF:
            F = duality_map_rows(XB, c.p)
            # add.reduce is sum(axis=1) without the method's overhead
            terms.append(w * np.add.reduce(F * by, axis=1))
            parts.append((massless, F))
        elif c.p == 1:
            # a massless row has no support, so its disk is the whole free
            # disk: radius ||y_b||_1 under outer 1, weight 0 otherwise
            supp = np.abs(XB) > 0
            PH = np.conj(unit_phase(XB))
            terms.append(w * _masked_row_sums(PH * by, supp))
            radius = radius + w * _masked_row_sums(np.abs(by), ~supp)
            parts.append((massless, (supp, PH)))
        else:
            peaks = np.abs(np.abs(XB) - 1.0) <= 1e-9
            PH = np.conj(unit_phase(XB))
            terms.append((w[:, None] * (PH * by), peaks))
            parts.append((massless, PH))
    point, chosen = _best_points(terms, R, dtype)
    top = _modulus(point)
    values = top + radius
    if not functionals:
        return values, None

    # psi, the phase of the best point, as the flat l1 face takes it
    psi = _phase(point, top)
    out = np.empty(shape, dtype=dtype)
    sup = iter(chosen)
    for i, ((c, a, _bx, by), (massless, part)) in enumerate(zip(blocks,
                                                                parts)):
        w = W[:, i, None]
        if 1.0 < c.p < INF:
            G = w * part
        elif c.p == 1:
            supp, PH = part
            G = np.zeros(by.shape, dtype=dtype)
            G[supp] = PH[supp]
            free = ~supp & (np.abs(by) > 0)
            if np.count_nonzero(free):
                G[free] = (psi[:, None] * np.conj(unit_phase(by)))[free]
            G = w * G
        else:
            pick = next(sup)
            G = np.zeros(by.shape, dtype=dtype)
            rows = np.flatnonzero(pick >= 0)
            G[rows, pick[rows]] = W[rows, i] * part[rows, pick[rows]]
        if massless is not None:
            G[massless] = 0.0
            if op == 1:
                rows = np.flatnonzero(massless)
                rows = rows[lp_norm_rows(by[rows], c.p) > 0]
                G[rows] = psi[rows, None] * dual_align_rows(by[rows], c.p)
        out[:, a:a + c.dim] = G
    return values, out


def _best_points(terms, R, dtype):
    """The first best Minkowski point of every row, and for each peak
    block the index of its chosen peak coordinate (-1 for none).

    Points are summed in block order from 0, as the one-row face sums them.
    A peak block makes one point for each of its peaks, so rows are taken
    in groups with the same peak counts; within a group every row has the
    same candidate points, laid out with the last block varying fastest,
    and argmax takes the first best of them.  More than 4096 points in a
    row raise GeometryError.
    """
    peak_terms = [t for t in terms if isinstance(t, tuple)]
    if not peak_terms:
        point = np.zeros(R, dtype=dtype)
        for t in terms:
            point += t
        return point, []
    counts = np.stack([pk.sum(axis=1) for _v, pk in peak_terms], axis=1)
    size = np.ones(R, dtype=np.int64)
    for k in counts.T:
        size *= np.maximum(k, 1)
        if np.count_nonzero(size > 4096):
            raise GeometryError(
                "support-face combination too large to stay exact")
    point = np.empty(R, dtype=dtype)
    chosen = np.full(counts.shape, -1)
    for key in set(map(tuple, counts.tolist())):
        rows = np.flatnonzero((counts == key).all(axis=1))
        pts = np.zeros((len(rows), 1), dtype=dtype)
        coords, j = [], 0
        for t in terms:
            if not isinstance(t, tuple):
                pts = pts + t[rows, None]
                continue
            V, PK = t
            k, j = key[j], j + 1
            if k == 0:          # a massless block: no peak to choose
                coords.append(None)
                continue
            sel = PK[rows]
            vals = V[rows][sel].reshape(-1, k)
            pts = (pts[:, :, None] + vals[:, None, :]).reshape(len(rows), -1)
            coords.append(np.nonzero(sel)[1].reshape(-1, k))
        best = _modulus(pts).argmax(axis=1)
        point[rows] = pts[np.arange(len(rows)), best]
        shape = [k for k in key if k]
        picks = iter(np.unravel_index(best, shape) if shape else ())
        for j, C in enumerate(coords):
            if C is not None:
                chosen[rows, j] = C[np.arange(len(rows)), next(picks)]
    return point, list(chosen.T)


def best_state_functional_rows(Y: np.ndarray, X: np.ndarray, space):
    """best_state_functional for every row pair (y, x) of Y and X (R, dim):
    returns values (R,) and functionals (R, dim).  Each row rounds as the
    one-row call does.  A sup-norm row without a peak coordinate gets value
    0 and the zero functional.  On a sum the values and the functionals
    come from one pass over the blocks of all rows (_sum_face_rows)."""
    if isinstance(space, SumSpace):
        return _sum_face_rows(Y, X, space, functionals=True)
    p = space.p
    X, Y = np.ascontiguousarray(X), np.ascontiguousarray(Y)
    if 1.0 < p < INF:
        XS = duality_map_rows(X.astype(space.dtype, copy=False), p)
        return _modulus((XS * Y).sum(axis=1)), XS
    if p == 1:
        supp = np.abs(X) > 0
        XS = np.zeros(X.shape, dtype=np.complex128 if space.is_complex
                      else np.float64)
        XS[supp] = np.conj(unit_phase(X[supp]))
        center = _masked_row_sums(XS * Y, supp)
        h = _modulus(center)
        psi = _phase(center, h)
        off = ~supp
        AY = np.abs(Y)
        nz = off & (AY > 0)
        if nz.any():
            XS[nz] = (psi[:, None] * np.conj(unit_phase(Y)))[nz]
        return h + _masked_row_sums(AY, off), XS.astype(space.dtype,
                                                         copy=False)
    U = np.conj(unit_phase(X))
    W = phase_times(U, Y)
    peaks = np.abs(np.abs(X) - 1.0) <= 1e-9
    mods = _modulus(W)
    k = np.where(peaks, mods, -np.inf).argmax(axis=1)
    rows = np.nonzero(peaks.any(axis=1))[0]
    k = k[rows]
    vals = np.zeros(len(X))
    vals[rows] = mods[rows, k]
    XS = np.zeros(X.shape, dtype=space.dtype)
    XS[rows, k] = U[rows, k]
    return vals, XS


def _modulus(Z: np.ndarray) -> np.ndarray:
    """|z| elementwise, rounded as Python's abs(complex) (hypot) rounds."""
    return np.hypot(Z.real, Z.imag) if np.iscomplexobj(Z) else np.abs(Z)


def _phase(Z: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Z / mod for Z (R,) of modulus mod = _modulus(Z), 1 where Z = 0,
    divided part by part as Python divides a complex by a float.  A modulus
    below 2^-1022 is too coarse to divide by: its Z is scaled by 2^600."""
    psi = np.ones(len(Z), dtype=Z.dtype)
    hit = mod > 0
    Z, mod = Z[hit], mod[hit]
    small = mod < 2.0 ** -1022
    if np.count_nonzero(small):
        Z[small] *= 2.0 ** 600
        mod[small] = _modulus(Z[small])
    psi[hit] = complex_parts(Z.real / mod, Z.imag / mod) \
        if np.iscomplexobj(Z) else Z / mod
    return psi


def _masked_row_sums(V: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum of V[i][mask[i]] for every row i.  Rows with the same number of
    selected entries are summed as one packed block, so each sum rounds as
    the sum of the selected entries alone does (zeros in between would
    change numpy's pairwise grouping)."""
    counts = mask.sum(axis=1)
    out = np.zeros(len(V), dtype=V.dtype)
    for k in set(counts.tolist()):
        if k:
            rows = counts == k
            out[rows] = V[rows][mask[rows]].reshape(-1, k).sum(axis=1)
    return out


def _multistart_nu(M, space, restarts, iters, seed) -> NuResult:
    """restarts random polishes of face_sup, drawn in batches of 8 and one
    of the remainder, batch b from the b-th SeedSequence(seed) child.  All
    starts are the rows of one polish_rows call on the polish_source draws,
    iters rounds of 4 tries each, held in a buffer of at most DRAW_SCALARS
    scalars; the first best row of each batch, then the best batch, wins, as
    if each batch ran alone."""
    def value_rows(X):
        return face_sup_rows(matvec_rows(M, X), X, space), None

    sizes = batch_sizes(restarts, 8)
    X0, directions = polish_source(batch_rngs(seed, len(sizes)), sizes,
                                   space, iters, 4)
    vals, X, _ = polish_rows(X0, value_rows, space, directions, iters,
                             tries=4, step=0.5, min_step=1e-9)
    k = best_row(vals, sizes)
    x = X[k]
    _, xs = best_state_functional(M @ x, x, space)
    return NuResult(float(vals[k]), "heuristic", StatePair(x, xs, space),
                    "state-multistart")


# ---------------------------------------------------------------------------
# attaining-state descriptors
# ---------------------------------------------------------------------------

class NuStatesDescriptor:
    """Interface: pair_distance gives certified componentwise lower bounds on
    the distance to the nearest attaining pair; sample yields valid pairs.

    Every descriptor implements pair_distance_rows(X, XS), the (dx, dxs)
    of every row pair of X and XS (R, dim) as (R, 2), and pair_distance is
    its one-row call.  The descriptors on sums are BlockPairStates."""

    is_empty = False

    def pair_distance(self, x, xstar):
        dx, dxs = self.pair_distance_rows(np.asarray(x)[None, :],
                                          np.asarray(xstar)[None, :])[0]
        return (float(dx), float(dxs))

    def sample(self, rng, count: int = 1):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _no_pairs(n: int) -> np.ndarray:
    return np.full((n, 2), np.inf)


def _keep_nearer(best: np.ndarray, dx: np.ndarray, dxs: np.ndarray) -> None:
    """Replace the rows of best (R, 2) that the candidate (dx, dxs) beats on
    max(dx, dxs), then on the other component, so a tie on the max keeps
    the nearer pair whatever the order of the candidates; the first
    candidate wins full ties."""
    top, best_top = np.maximum(dx, dxs), best.max(axis=1)
    nearer = top < best_top
    tie = top == best_top
    if np.count_nonzero(tie):
        nearer |= tie & (np.minimum(dx, dxs) < best.min(axis=1))
    best[nearer, 0] = dx[nearer]
    best[nearer, 1] = dxs[nearer]


class DiagonalNuStates(NuStatesDescriptor):
    """Attaining pairs of a norm-one diagonal: mass confined to a single
    constant-phase subset of J = {n : |alpha_n| = 1}."""

    def __init__(self, space: Space, phase_groups: dict):
        self.space = space
        self.groups = phase_groups          # phase value -> tuple of indices

    def pair_distance_rows(self, X, XS):
        s = self.space
        best = _no_pairs(len(X))
        for _lam, J in self.groups.items():
            if s.p == INF:
                dx = unimodular_distance_rows(X, J)
                dxs = support_distance_rows(XS, J, s.dual())
            elif s.p == 1:
                dx = support_distance_rows(X, J, s)
                dxs = unimodular_distance_rows(XS, J)
            else:
                dx = support_distance_rows(X, J, s)
                dxs = support_distance_rows(XS, J, s.dual())
            _keep_nearer(best, dx, dxs)
        return best

    def sample(self, rng, count: int = 1):
        out = []
        phases = list(self.groups.items())
        for _ in range(count):
            lam, J = phases[int(rng.integers(len(phases)))]
            J = list(J)
            s = self.space
            p = s.p
            if p == INF:
                x = (rng.uniform(-0.9, 0.9, s.dim)).astype(s.dtype)
                t = rng.uniform(0.1, 1.0, len(J))
                t /= t.sum()
                xs = np.zeros(s.dim, dtype=s.dtype)
                for w, n in zip(t, J):
                    ph = np.exp(2j * np.pi * rng.uniform()) if s.is_complex \
                        else rng.choice([-1.0, 1.0])
                    x[n] = ph
                    xs[n] = w * np.conj(ph)
            else:
                sub = rng.normal(size=len(J)) + \
                    (1j * rng.normal(size=len(J)) if s.is_complex else 0.0)
                x = np.zeros(s.dim, dtype=s.dtype)
                x[J] = sub
                x = x / s.norm(x)
                if p == 1:
                    xs = np.zeros(s.dim, dtype=s.dtype)
                    supp = np.abs(x) > 0
                    xs[supp] = np.conj(unit_phase(x[supp]))
                else:
                    xs = duality_map(x, s)
            out.append(StatePair(x, xs, s))
        return out

    def describe(self):
        return {"kind": "diagonal_phases",
                "groups": {str(k): list(v) for k, v in self.groups.items()}}


class HilbertNuStates(NuStatesDescriptor):
    """Real-Hilbert attaining pairs (v, v) with v a unit vector of an extreme
    eigenspace of the symmetric part."""

    def __init__(self, space: Space, bases: list):
        self.space = space
        self.bases = bases                  # list of orthonormal column bases

    def pair_distance_rows(self, X, XS):
        best = _no_pairs(len(X))
        for B in self.bases:
            _keep_nearer(best, subspace_sphere_distance_rows(X, B),
                         subspace_sphere_distance_rows(XS, B))
        return best

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            B = self.bases[int(rng.integers(len(self.bases)))]
            c = rng.normal(size=B.shape[1])
            v = B @ c
            v = v / np.linalg.norm(v)
            out.append(StatePair(v, v.copy(), self.space))
        return out

    def describe(self):
        return {"kind": "hilbert_subspaces",
                "dims": [int(B.shape[1]) for B in self.bases]}


class ExplicitNuStates(NuStatesDescriptor):
    """A finite list of attaining pairs, optionally modulo (x, x*) ->
    (phi x, conj(phi) x*).  Free masks mark coordinates where members may
    take any unit-ball value; distances ignore them."""

    def __init__(self, space, pairs, phase_orbit: bool = True,
                 free_x_masks=None, free_xstar_masks=None):
        self.space = space
        self.pairs = list(pairs)
        self.phase_orbit = phase_orbit
        self.free_x_masks = free_x_masks or [None] * len(self.pairs)
        self.free_xstar_masks = free_xstar_masks or [None] * len(self.pairs)

    def pair_distance_rows(self, X, XS):
        space, dual = self.space, self.space.dual()
        X, XS = np.asarray(X), np.asarray(XS)
        best = _no_pairs(len(X))

        def comp(rows, phi, v, vs, fx, fxs):
            """(dx, dxs) of the rows against (phi v, conj(phi) vs); phi one
            phase for all rows, or one per row as (R, 1)."""
            dx_vec = X[rows] - phase_times(phi, v)
            dxs_vec = XS[rows] - phase_times(np.conj(phi), vs)
            if fx is not None:
                dx_vec = np.where(fx, 0.0, dx_vec)
            if fxs is not None:
                dxs_vec = np.where(fxs, 0.0, dxs_vec)
            return (lp_norm_rows(np.asarray(dx_vec, dtype=space.dtype),
                                 space.p),
                    lp_norm_rows(np.asarray(dxs_vec, dtype=dual.dtype),
                                 dual.p))

        every = slice(None)
        for sp, fx, fxs in zip(self.pairs, self.free_x_masks,
                               self.free_xstar_masks):
            v, vs = sp.x, sp.xstar
            if not self.phase_orbit:
                cands = [comp(every, 1.0, v, vs, fx, fxs)]
            elif not space.is_complex:
                cands = [comp(every, 1.0, v, vs, fx, fxs),
                         comp(every, -1.0, v, vs, fx, fxs)]
            else:
                t, _ = phase_orbit_min_rows(
                    lambda phi, rows: np.maximum(*comp(rows, phi, v, vs, fx,
                                                       fxs)), tol=1e-12)
                cands = [comp(every, np.exp(1j * t)[:, None], v, vs, fx, fxs)]
            for dx, dxs in cands:
                _keep_nearer(best, dx, dxs)
        return best

    def sample(self, rng, count: int = 1):
        out = []
        for _ in range(count):
            sp = self.pairs[int(rng.integers(len(self.pairs)))]
            if self.phase_orbit:
                phi = np.exp(2j * np.pi * rng.uniform()) \
                    if self.space.is_complex else rng.choice([-1.0, 1.0])
                out.append(StatePair(phi * sp.x, np.conj(phi) * sp.xstar,
                                     self.space))
            else:
                out.append(sp)
        return out

    def describe(self):
        return {"kind": "explicit_pairs", "count": len(self.pairs),
                "phase_orbit": self.phase_orbit}


class BlockPairStates(NuStatesDescriptor):
    """Attaining pairs on a sum as a finite union of options, each a product
    of per-block sets: an option is (x parts, x* parts), block distances as
    norm_attainment.block_product_rows takes them, the x* parts on
    space.dual().  The nearest option wins, the first among ties."""

    def __init__(self, space: SumSpace, options):
        self.space = space
        self.options = options
        self._dual = space.dual()

    def pair_distance_rows(self, X, XS):
        best = _no_pairs(len(X))
        for x_parts, xs_parts in self.options:
            _keep_nearer(best, block_product_rows(X, self.space, x_parts),
                         block_product_rows(XS, self._dual, xs_parts))
        return best


class EmptyNuStates(NuStatesDescriptor):
    is_empty = True

    def pair_distance_rows(self, X, XS):
        return _no_pairs(len(X))

    def sample(self, rng, count: int = 1):
        raise GeometryError("cannot sample an empty attaining set")

    def describe(self):
        return {"kind": "empty"}


def nu_attaining_states(T: OperatorExpr,
                        nu_result: Optional[NuResult] = None,
                        tol: float = 1e-12) -> NuStatesDescriptor:
    """Attaining-state descriptor for a radius-one operator.

    Diagonal operators and real Hilbert space get complete descriptors.  The
    complex Hilbert route and dense l1/sup-norm operators with tied extreme
    columns return representative orbits: distances are exact against the
    listed representatives and upper bounds against the full set, so treat
    them as descriptive there, not as feasibility certificates.
    """
    nr = nu_result if nu_result is not None else numerical_radius(T)
    if not nr.is_certified():
        raise HeuristicRefusalError(
            "attaining states refused: only a heuristic radius is available")
    if isinstance(T, Scale):
        return nu_attaining_states(T.child, None, tol)
    if isinstance(T, Diagonal):
        alphas = T.alphas()
        mods = np.abs(alphas)
        top = mods.max()
        groups: dict = {}
        for i in np.nonzero(mods >= top * (1 - tol))[0]:
            key = (round(float(np.real(alphas[i] / top)), 9),
                   round(float(np.imag(alphas[i] / top)), 9))
            groups.setdefault(key, []).append(int(i))
        return DiagonalNuStates(T.domain,
                                {k: tuple(v) for k, v in groups.items()})
    M = to_matrix(T)
    space = T.domain
    if isinstance(space, Space) and space.p == 2 and not space.is_complex:
        S = (M + M.T) / 2.0
        vals, vecs = np.linalg.eigh(S)
        nu = np.abs(vals).max()
        bases = []
        for sign in (+1.0, -1.0):
            keep = np.abs(vals - sign * nu) <= max(tol * nu, 1e-12)
            if keep.any():
                bases.append(vecs[:, keep])
        return HilbertNuStates(space, bases)
    if isinstance(space, Space) and space.p == 2 and space.is_complex:
        wit = nr.witness
        if wit is None:
            raise HeuristicRefusalError("no representative state available")
        return ExplicitNuStates(space, [wit], phase_orbit=True)
    if isinstance(space, Space) and space.p in (1.0, INF):
        cols = np.abs(M).sum(axis=0) if space.p == 1 else np.abs(M).sum(axis=1)
        top = cols.max()
        pairs, free_x, free_xs = [], [], []
        for i in np.nonzero(cols >= top * (1 - tol))[0]:
            i = int(i)
            if space.p == 1:
                pairs.append(_l1_witness(M, space, i))
                free = (np.abs(M[:, i]) == 0)
                free[i] = False
                free_x.append(None)
                free_xs.append(free if free.any() else None)
            else:
                pairs.append(_linf_witness(M, space, i))
                free = (np.abs(M[i, :]) == 0)
                free[i] = False
                free_x.append(free if free.any() else None)
                free_xs.append(None)
        return ExplicitNuStates(space, pairs, phase_orbit=True,
                                free_x_masks=free_x, free_xstar_masks=free_xs)
    raise HeuristicRefusalError(
        f"no certified attaining-state rule for {type(T).__name__} here")


def distance_to_nu_attaining(sp: StatePair, T: OperatorExpr,
                             descriptor: Optional[NuStatesDescriptor] = None,
                             nu_result: Optional[NuResult] = None):
    desc = descriptor if descriptor is not None else nu_attaining_states(T, nu_result)
    return desc.pair_distance(sp.x, sp.xstar)
