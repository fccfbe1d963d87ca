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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._search import (best_of, golden_max, golden_max_rows, random_polish,
                      run_batches)
from .errors import GeometryError, HeuristicRefusalError
from .norm_attainment import (operator_norm, subspace_sphere_distance_rows,
                              support_distance_rows, unimodular_distance_rows)
from .operators import (Adjoint, Dense, Diagonal, DirectSum, Lift, OperatorExpr,
                        RankOne, Scale, to_matrix)
from .spaces import (INF, Space, StatePair, SumSpace, conjugate_exponent,
                     duality_map, lp_norm_rows, pair, random_unit, unit_phase)

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
    H = (M + np.conj(M.T)) / 2.0
    K = 1j * (M - np.conj(M.T)) / 2.0

    def top(theta: float) -> float:
        return float(np.linalg.eigvalsh(np.cos(theta) * H + np.sin(theta) * K)[-1])

    thetas = np.linspace(0.0, 2 * np.pi, THETA_GRID, endpoint=False)
    vals = np.array([top(t) for t in thetas])
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
# support-face machinery: sup of |<x*, y>| over functionals supporting x
# ---------------------------------------------------------------------------

def _face_reachable(y: np.ndarray, x: np.ndarray, space):
    """The reachable set {<x*, y> : x* supports x} for a flat space, as
    ("disk", center, radius) or ("points", values)."""
    p = space.p
    if 1.0 < p < INF:
        return ("disk", complex(pair(duality_map(x, space), y)), 0.0)
    if p == 1:
        supp = np.abs(x) > 0
        center = complex((np.conj(unit_phase(x[supp])) * y[supp]).sum())
        radius = float(np.abs(y[~supp]).sum())
        return ("disk", center, radius)
    peaks = np.abs(np.abs(x) - 1.0) <= 1e-9
    vals = np.conj(unit_phase(x[peaks])) * y[peaks]
    return ("points", [complex(v) for v in vals])


def _set_sup(rep) -> float:
    kind = rep[0]
    if kind == "disk":
        return abs(rep[1]) + rep[2]
    return max(abs(v) for v in rep[1]) if rep[1] else 0.0


def _minkowski(reps):
    """Combine independent reachable sets additively; exact for disks and
    small point sets."""
    points = [0j]
    radius = 0.0
    for rep in reps:
        if rep[0] == "disk":
            points = [pt + rep[1] for pt in points]
            radius += rep[2]
        else:
            if len(points) * max(len(rep[1]), 1) > 4096:
                raise GeometryError(
                    "support-face combination too large to stay exact")
            points = [pt + v for pt in points for v in rep[1]]
    return points, radius


def face_sup(y: np.ndarray, x: np.ndarray, space) -> float:
    """sup over x* supporting the unit vector x of |<x*, y>|; exact for flat
    spaces and for sums of flat blocks."""
    if not isinstance(space, SumSpace):
        return _set_sup(_face_reachable(y, x, space))
    blocks_x = space.split(x)
    blocks_y = space.split(y)
    norms = np.array([c.norm(b) for c, b in zip(space.components, blocks_x)])
    op = space.outer_p
    if op == INF:
        best = 0.0
        for c, bx, by, a in zip(space.components, blocks_x, blocks_y, norms):
            if abs(a - 1.0) <= 1e-9:
                best = max(best, _set_sup(_face_reachable(by, bx, c)))
        return best
    reps = []
    if op == 1:
        weights = np.ones_like(norms)
    else:
        weights = norms ** (op - 1.0)
    for c, bx, by, a, w in zip(space.components, blocks_x, blocks_y,
                               norms, weights):
        if a == 0:
            if op == 1:
                reps.append(("disk", 0j, float(c.dual().norm(by))))
            # smooth outer: massless blocks carry zero dual weight
        else:
            rep = _face_reachable(by, bx / a, c)
            if rep[0] == "disk":
                reps.append(("disk", w * rep[1], w * rep[2]))
            else:
                reps.append(("points", [w * v for v in rep[1]]))
    points, radius = _minkowski(reps)
    return max(abs(pt) for pt in points) + radius


def best_state_functional(y: np.ndarray, x: np.ndarray, space):
    """(value, x*) achieving face_sup on a flat space."""
    vals, XS = best_state_functional_rows(np.asarray(y)[None, :],
                                          np.asarray(x)[None, :], space)
    return float(vals[0]), XS[0]


def best_state_functional_rows(Y: np.ndarray, X: np.ndarray, space):
    """best_state_functional for every row pair (y, x) of Y and X (R, dim):
    returns values (R,) and functionals (R, dim).  Each row rounds as the
    one-row call does.  A sup-norm row without a peak coordinate gets value
    0 and the zero functional."""
    p = space.p
    X, Y = np.ascontiguousarray(X), np.ascontiguousarray(Y)
    if 1.0 < p < INF:
        X = X.astype(space.dtype, copy=False)
        A = np.abs(X)
        XS = np.zeros(X.shape, dtype=space.dtype)
        nz = A > 0
        XS[nz] = np.conj(X[nz]) * A[nz] ** (p - 2.0)
        return _modulus((XS * Y).sum(axis=1)), XS
    if p == 1:
        supp = np.abs(X) > 0
        XS = np.zeros(X.shape, dtype=np.complex128 if space.is_complex
                      else np.float64)
        XS[supp] = np.conj(unit_phase(X[supp]))
        center = _masked_row_sums(XS * Y, supp)
        h = _modulus(center)
        psi = np.ones(len(X), dtype=XS.dtype)
        hit = center != 0
        if space.is_complex:
            psi[hit] = _complex(center.real[hit] / h[hit],
                                center.imag[hit] / h[hit])
        else:
            psi[hit] = center[hit] / h[hit]
        off = ~supp
        AY = np.abs(Y)
        nz = off & (AY > 0)
        if nz.any():
            XS[nz] = (psi[:, None] * np.conj(unit_phase(Y)))[nz]
        return h + _masked_row_sums(AY, off), XS.astype(space.dtype,
                                                         copy=False)
    U = np.conj(unit_phase(X))
    if space.is_complex:
        # component-wise, as the product of two complex scalars rounds
        W = _complex(U.real * Y.real - U.imag * Y.imag,
                     U.real * Y.imag + U.imag * Y.real)
    else:
        W = U * Y
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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


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
    def value_of(x):
        return face_sup(M @ x, x, space), None

    def batch(rng):
        return best_of(random_polish(random_unit(space, rng), value_of, rng,
                                     space, iters, tries=4, step=0.5,
                                     min_step=1e-9) for _ in range(8))

    val, x, _ = run_batches(seed, max(1, restarts // 8), batch)
    wit = None
    if not isinstance(space, SumSpace):
        _, xs = best_state_functional(M @ x, x, space)
        wit = StatePair(x, xs, space)
    return NuResult(float(val), "heuristic", wit, "state-multistart")


# ---------------------------------------------------------------------------
# attaining-state descriptors
# ---------------------------------------------------------------------------

class NuStatesDescriptor:
    """Interface: pair_distance gives certified componentwise lower bounds on
    the distance to the nearest attaining pair; sample yields valid pairs.

    Flat-space descriptors implement pair_distance_rows, of which
    pair_distance is the one-row call; descriptors on sums override
    pair_distance itself."""

    is_empty = False

    def pair_distance(self, x, xstar):
        dx, dxs = self.pair_distance_rows(np.asarray(x)[None, :],
                                          np.asarray(xstar)[None, :])[0]
        return (float(dx), float(dxs))

    def pair_distance_rows(self, X, XS):
        """(dx, dxs) for every row pair of X and XS (R, dim), as (R, 2)."""
        raise NotImplementedError

    def sample(self, rng, count: int = 1):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _no_pairs(n: int) -> np.ndarray:
    return np.full((n, 2), np.inf)


def _keep_nearer(best: np.ndarray, dx: np.ndarray, dxs: np.ndarray) -> None:
    """Replace the rows of best (R, 2) whose max(dx, dxs) is strictly
    smaller, so the first candidate wins ties."""
    nearer = np.maximum(dx, dxs) < best.max(axis=1)
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
            dx_vec = X[rows] - phi * v
            dxs_vec = XS[rows] - np.conj(phi) * vs
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
                ths = np.linspace(0, 2 * np.pi, 64, endpoint=False)
                grid = np.array([np.maximum(*comp(every, np.exp(1j * t), v, vs,
                                                  fx, fxs)) for t in ths])
                coarse = ths[grid.argmin(axis=0)]
                t, _ = golden_max_rows(
                    lambda t, rows: -np.maximum(*comp(
                        rows, np.exp(1j * t)[:, None], v, vs, fx, fxs)),
                    coarse - 0.2, coarse + 0.2, tol=1e-12)
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
