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
best_state_functional its one-row calls.  On a sum that search's result
carries norm_attainment.block_norm_majorant of ||T|| >= nu(T) as its
upper_bound, and is labelled exact when the two close to NORM_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._search import (batch_sizes, best_row, complex_parts, dual_align_rows,
                      golden_max, matvec_rows, phase_orbit_min_rows,
                      phase_times, polish_rows, polish_source)
from .errors import (DimensionMismatchError, GeometryError,
                     HeuristicRefusalError)
from .norm_attainment import (TIE_TOL, block_norm_majorant,
                              block_product_rows, bracketed, offset_rows,
                              operator_norm, point_rows, sphere_rows,
                              support_distance_rows, unimodular_distance_rows)
from .operators import (Adjoint, Dense, Diagonal, DirectSum, Lift, OperatorExpr,
                        RankOne, Scale, to_matrix)
from .spaces import (INF, Space, StatePair, SumSpace, conjugate_exponent,
                     duality_map, duality_map_rows, gaussian_directions,
                     lp_norm_rows, unit_phase, unit_rows)

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
    # a proven bound nu(T) <= upper_bound: on a sum the block-norm majorant
    # of ||T||, since nu(T) <= ||T||; None where no bound beyond the label
    # is known
    upper_bound: Optional[float] = None

    @property
    def lower_bound(self) -> float:
        return self.value

    def is_certified(self) -> bool:
        return self.certainty in ("exact", "grid_refined")

    def describe(self) -> dict:
        d = {"value": self.value, "certainty": self.certainty,
             "method": self.method}
        if self.upper_bound is not None:
            d["upper_bound"] = self.upper_bound
        return d


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
        return bracketed(_multistart_nu(M, space, restarts, iters, seed),
                         block_norm_majorant(M, space, space))
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
    sum, for every row pair (y, x) of Y and X, in one pass over the block
    groups: each group's blocks of X and of Y are stacked as rows
    (SumSpace.groups), and every kernel runs once per group.

    Under outer p < inf the reachable set {<x*, y> : x* supports x} is a
    Minkowski sum: each massed block adds its weighted duality-map center,
    l1 disk or sup-norm peak set, and under outer 1 each massless block b
    adds a disk of radius ||y_b||.  Its modulus peaks at the best Minkowski
    point plus every radius; x* is built there, aligning every disk with the
    phase psi of that point.  Under outer inf the set is the hull of the
    peak blocks' sets, so the best peak block carries all of x*.

    Every row rounds as its one-row call: block norms by lp_norm_rows, the
    points and the radii summed in block order from 0, moduli by hypot, and
    among tied points the first in the order of the peak indices, the last
    block varying fastest.
    """
    dtype = space.dtype
    X, Y = np.asarray(X, dtype=dtype), np.asarray(Y, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != space.dim or Y.shape != X.shape:
        raise DimensionMismatchError(
            f"expected rows of length {space.dim}, got {X.shape} and "
            f"{Y.shape}")
    groups = [(g, g.stack(X), g.stack(Y)) for g in space.groups]
    N = space.profile_rows(X)
    if space.outer_p == INF:
        return _peak_block_face_rows(groups, N, X.shape, dtype, functionals)
    return _minkowski_face_rows(groups, N, space.outer_p, X.shape, dtype,
                                functionals)


def _peak_block_face_rows(groups, N, shape, dtype, functionals):
    """The outer-inf face: the best flat face among the blocks of norm one,
    the first among ties; 0 and the zero functional when none has norm
    one."""
    R = len(N)
    V = np.full(N.shape, -np.inf)         # the face of every peak block
    faces = []
    for g, BX, BY in groups:
        rows = np.flatnonzero(np.abs(N[:, g.blocks] - 1.0).reshape(-1)
                              <= 1e-9)
        if not rows.size:
            continue
        vals, XS = best_state_functional_rows(BY[rows], BX[rows], g.space)
        v = np.full(len(BX), -np.inf)
        v[rows] = vals
        V[:, g.blocks] = g.unstack(v, R)
        faces.append((g, rows, XS))
    at = V.argmax(axis=1)
    best = V[np.arange(R), at]
    at[best == -np.inf] = -1
    best[at < 0] = 0.0
    if not functionals:
        return best, None
    out = np.zeros(shape, dtype=dtype)
    for g, rows, XS in faces:
        mine = (at[:, None] == g.index).reshape(-1)[rows]
        G = np.zeros((R * g.size, g.space.dim), dtype=dtype)
        G[rows[mine]] = XS[mine]
        out[:, g.cols] = g.unstack(G, R)
    return best, out


def _minkowski_face_rows(groups, N, op, shape, dtype, functionals):
    """The outer p < inf face: the Minkowski points of every row, the best
    one, and, when asked, x* assembled there."""
    R = len(N)
    W = np.ones(N.shape) if op == 1 else N ** (op - 1.0)
    # a zero block norm is massless, one below 2^-1022 too coarse to divide
    # by, so unit_rows divides
    any_small = np.count_nonzero(N >= 2.0 ** -1022) < N.size
    # per block: the radius of its disk (or 0; None while no block has a
    # disk), and its center (R,) or its peak values and mask; per group:
    # what its part of x* is built from
    radii, terms, parts = None, [None] * N.shape[1], []
    for g, BX, BY in groups:
        c = g.space
        n = N[:, g.blocks].reshape(-1)
        w = W[:, g.blocks].reshape(-1)
        radius, massless = None, None
        if any_small and np.count_nonzero(n) < len(n):
            massless = n == 0
            n = np.where(massless, 1.0, n)
            if op == 1 and c.p != 1:    # the l1 disk below covers p = 1
                radius = np.where(massless, lp_norm_rows(BY, c.p), 0.0)
        XB = unit_rows(BX, n, c.p) if any_small else BX / n[:, None]
        if 1.0 < c.p < INF:
            F = duality_map_rows(XB, c.p)
            # add.reduce is sum(axis=1) without the method's overhead
            term = g.unstack(w * np.add.reduce(F * BY, axis=1), R)
            parts.append((massless, F))
        elif c.p == 1:
            # a massless row has no support, so its disk is the whole free
            # disk: radius ||y_b||_1 under outer 1, weight 0 otherwise
            supp = np.abs(XB) > 0
            PH = np.conj(unit_phase(XB))
            term = g.unstack(w * _masked_row_sums(PH * BY, supp), R)
            radius = w * _masked_row_sums(np.abs(BY), ~supp)
            parts.append((massless, (supp, PH)))
        else:
            peaks = np.abs(np.abs(XB) - 1.0) <= 1e-9
            PH = np.conj(unit_phase(XB))
            shape3 = (R, g.size, c.dim)
            term = ((w[:, None] * (PH * BY)).reshape(shape3),
                    peaks.reshape(shape3))
            parts.append((massless, PH))
        if radius is not None:
            if radii is None:
                radii = np.zeros(N.shape)
            radii[:, g.blocks] = g.unstack(radius, R)
        for j, i in enumerate(g.index):
            terms[i] = tuple(t[:, j] for t in term) \
                if isinstance(term, tuple) else term[:, j]
    point, chosen = _best_points(terms, R, dtype)
    top = _modulus(point)
    # the radii summed one block after another, from 0
    values = top if radii is None else \
        top + np.add.accumulate(radii, axis=1)[:, -1]
    if not functionals:
        return values, None

    # psi, the phase of the best point, as the flat l1 face takes it
    psi = _phase(point, top)
    out = np.empty(shape, dtype=dtype)
    for (g, _BX, BY), (massless, part) in zip(groups, parts):
        c = g.space
        w = W[:, g.blocks].reshape(-1, 1)
        phase = np.repeat(psi, g.size)      # psi of each stacked row
        if 1.0 < c.p < INF:
            G = w * part
        elif c.p == 1:
            supp, PH = part
            G = np.zeros(BY.shape, dtype=dtype)
            G[supp] = PH[supp]
            free = ~supp & (np.abs(BY) > 0)
            if np.count_nonzero(free):
                G[free] = (phase[:, None] * np.conj(unit_phase(BY)))[free]
            G = w * G
        else:
            pick = np.stack([chosen[i] for i in g.index], axis=1).reshape(-1)
            G = np.zeros(BY.shape, dtype=dtype)
            rows = np.flatnonzero(pick >= 0)
            G[rows, pick[rows]] = w[rows, 0] * part[rows, pick[rows]]
        if massless is not None:
            G[massless] = 0.0
            if op == 1:
                rows = np.flatnonzero(massless)
                rows = rows[lp_norm_rows(BY[rows], c.p) > 0]
                G[rows] = phase[rows, None] * dual_align_rows(BY[rows], c.p)
        out[:, g.cols] = g.unstack(G, R)
    return values, out


def _best_points(terms, R, dtype):
    """The first best Minkowski point of every row, and for each block the
    index of its chosen peak coordinate (-1 for none), None for a block
    without peaks.

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
        return point, [None] * len(terms)
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
    picked = iter(chosen.T)
    return point, [next(picked) if isinstance(t, tuple) else None
                   for t in terms]


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
    X0, directions = polish_source(seed, sizes, space, iters, 4)
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

    A descriptor is a finite union of options, each a function (X, XS) ->
    (dx, dxs) of the row pairs of X and XS (R, dim), most of them products
    (pair_option).  pair_distance_rows keeps the nearest option of every
    row (_keep_nearer) as (R, 2); pair_distance is its one-row call, and a
    descriptor without options is empty."""

    options = ()

    @property
    def is_empty(self) -> bool:
        return not self.options

    def pair_distance_rows(self, X, XS):
        best = np.full((len(X), 2), np.inf)
        for option in self.options:
            _keep_nearer(best, *option(X, XS))
        return best

    def pair_distance(self, x, xstar):
        dx, dxs = self.pair_distance_rows(np.asarray(x)[None, :],
                                          np.asarray(xstar)[None, :])[0]
        return (float(dx), float(dxs))

    def sample(self, rng, count: int = 1):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def pair_option(x_rows, xs_rows):
    """The option of the product of an x-set and an x*-set, from the row
    distances x_rows(X) and xs_rows(XS) to each."""
    return lambda X, XS: (x_rows(X), xs_rows(XS))


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
    constant-phase subset of J = {n : |alpha_n| = 1}, one option per
    phase group."""

    def __init__(self, space: Space, phase_groups: dict):
        self.space = space
        self.groups = phase_groups          # phase value -> tuple of indices

        def side(s, J):
            if s.p == INF:
                return lambda X: unimodular_distance_rows(X, J)
            return lambda X: support_distance_rows(X, J, s)

        self.options = [pair_option(side(space, J), side(space.dual(), J))
                        for J in phase_groups.values()]

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
                x = np.zeros(s.dim, dtype=s.dtype)
                x[J] = gaussian_directions(rng, 1,
                                           Space(p, len(J), s.field))[0]
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
    eigenspace of the symmetric part, one option per eigenspace."""

    def __init__(self, space: Space, bases: list):
        self.space = space
        self.bases = bases                  # list of orthonormal column bases
        self.options = [pair_option(sphere_rows(B), sphere_rows(B))
                        for B in bases]

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
    take any unit-ball value; distances ignore them.  Each pair is a product
    option of two points, a real orbit adds the negated pair, and a complex
    orbit is one coupled option per pair (_orbit_option)."""

    def __init__(self, space, pairs, phase_orbit: bool = True,
                 free_x_masks=None, free_xstar_masks=None):
        self.space = space
        self.pairs = list(pairs)
        self.phase_orbit = phase_orbit
        self.free_x_masks = free_x_masks or [None] * len(self.pairs)
        self.free_xstar_masks = free_xstar_masks or [None] * len(self.pairs)
        dual = space.dual()
        signs = (1.0, -1.0) if phase_orbit else (1.0,)
        self.options = []
        for sp, fx, fxs in zip(self.pairs, self.free_x_masks,
                               self.free_xstar_masks):
            if phase_orbit and space.is_complex:
                self.options.append(_orbit_option(sp, fx, fxs, space))
                continue
            self.options += [pair_option(point_rows(s * sp.x, space, fx),
                                         point_rows(s * sp.xstar, dual, fxs))
                             for s in signs]

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


def _orbit_option(sp, fx, fxs, space):
    """The coupled option of the complex phase orbit of the pair sp: the
    phase phi of each row that minimizes max(dx, dxs) against
    (phi x, conj(phi) x*), by phase_orbit_min_rows, and both distances at
    that phase."""
    dual = space.dual()

    def at(phi, X, XS):
        return (offset_rows(X, phi, sp.x, fx, space),
                offset_rows(XS, np.conj(phi), sp.xstar, fxs, dual))

    def option(X, XS):
        t, _ = phase_orbit_min_rows(
            lambda phi, rows: np.maximum(*at(phi, X[rows], XS[rows])),
            tol=1e-12)
        return at(np.exp(1j * t)[:, None], X, XS)
    return option


class BlockPairStates(NuStatesDescriptor):
    """Attaining pairs on a sum as a finite union of product options, each
    given as (x parts, x* parts): per-block distances as
    norm_attainment.block_product_rows takes them, the x* parts on
    space.dual()."""

    def __init__(self, space: SumSpace, options):
        self.space = space
        dual = space.dual()
        self.options = [pair_option(
            lambda X, parts=x_parts: block_product_rows(X, space, parts),
            lambda XS, parts=xs_parts: block_product_rows(XS, dual, parts))
            for x_parts, xs_parts in options]


def nu_attaining_states(T: OperatorExpr, nu_result: Optional[NuResult] = None
                        ) -> NuStatesDescriptor:
    """Attaining-state descriptor for a radius-one operator: a union of pair
    options, entries count as attaining within TIE_TOL of the top.

    Diagonal operators (an option per phase group) and real Hilbert space
    (one per extreme eigenspace) get complete descriptors.  The complex
    Hilbert route and dense l1/sup-norm operators with tied extreme columns
    return representative orbits (ExplicitNuStates): distances are exact
    against the listed representatives and upper bounds against the full
    set, so treat them as descriptive there, not as feasibility
    certificates.
    """
    nr = nu_result if nu_result is not None else numerical_radius(T)
    if not nr.is_certified():
        raise HeuristicRefusalError(
            "attaining states refused: only a heuristic radius is available")
    if isinstance(T, Scale):
        return nu_attaining_states(T.child)
    if isinstance(T, Diagonal):
        alphas = T.alphas()
        mods = np.abs(alphas)
        top = mods.max()
        groups: dict = {}
        for i in np.nonzero(mods >= top * (1 - TIE_TOL))[0]:
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
            keep = np.abs(vals - sign * nu) <= max(TIE_TOL * nu, 1e-12)
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
        for i in np.nonzero(cols >= top * (1 - TIE_TOL))[0]:
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
